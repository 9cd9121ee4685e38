//! The differential fuzzer: seeded workload mixes replayed against every
//! kind of [`Target`] — registry structures, kvserve services, crashkv's
//! durable service and netserve's socket front end — two ways.
//!
//! * **Deterministic differential mode** ([`differential_fuzz`]): a seeded
//!   schedule of operations from N *logical* threads — each owning its own
//!   [`Session`], all executed interleaved on one OS thread — is replayed
//!   against the target and a `BTreeMap` oracle session in lock-step,
//!   comparing every [`OpResult`].  Fully deterministic, so a failing
//!   schedule shrinks (ddmin-style, see [`crate::shrink`]) to a minimal
//!   reproducer: the seed plus the surviving operations.
//! * **Concurrent recorded mode** ([`fuzz_concurrent`]): real OS threads run
//!   seeded per-thread operation streams through [`Recorder`]s on a fresh
//!   target, and the merged history goes to the
//!   [`checker`](crate::checker).  Violating histories shrink by the same
//!   ddmin loop, re-running only the (pure, deterministic) checker.
//!
//! Keys are drawn from one flat key space, uniform or Zipf-skewed
//! ([`FuzzConfig::key_skew`]); mixes are ordinary
//! [`workload::OperationMix`]s, so YCSB-E-style scan-heavy mixes are one
//! constructor call away.  Every insert in a run carries a **unique
//! value**, which sharpens both the oracle comparison and the checker's
//! provenance pre-pass.

use std::collections::BTreeMap;
use std::sync::Arc;

use abtree::{ConcurrentMap, MapHandle};
use kvserve::{KvService, ShardRouter};
use rand::prelude::*;
use workload::{KeyDistribution, Operation, OperationMix};

use crate::checker::{check, CheckConfig, Outcome};
use crate::history::{Clock, History, OpKind, OpResult, Recorder, Session};
use crate::shrink::shrink_schedule;

/// Scan window lengths are drawn from `[1, MAX_SCAN_LEN]`.
const MAX_SCAN_LEN: u64 = 12;

/// `MGet`/`MPut` batch sizes are drawn from `[1, MAX_BATCH]`.
const MAX_BATCH: usize = 6;

/// Fuzzing parameters.  Key spaces and windows are deliberately small: the
/// checker's search cost grows with per-key (and per-scan-component)
/// operation counts, and contention — the thing being tested — needs key
/// collisions.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; every derived stream mixes in thread and round ids.
    pub seed: u64,
    /// Logical (deterministic mode) or OS (concurrent mode) threads.
    pub threads: u32,
    /// Operations per thread (per round, in concurrent mode).
    pub ops_per_thread: u32,
    /// Keys are drawn from `[0, key_space)`.
    pub key_space: u64,
    /// Operation mix (shares of insert/delete/find/scan/mget/mput).
    pub mix: OperationMix,
    /// Zipf exponent of the key distribution (0 = uniform).
    pub key_skew: f64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0C7E57,
            threads: 3,
            ops_per_thread: 250,
            key_space: 64,
            // YCSB-E-flavoured service mix: updates, scans and batches all
            // present, finds take the rest.
            mix: OperationMix::from_shares(40, 10, 5, 5),
            key_skew: 0.8,
        }
    }
}

/// A schedule entry: which logical thread runs which operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Logical thread (session index).
    pub thread: u32,
    /// The operation.
    pub op: OpKind,
}

impl ScheduledOp {
    /// Renders as e.g. `t2 insert(5, 1001)`.
    pub fn render(&self) -> String {
        format!("t{} {}", self.thread, self.op)
    }
}

fn sample_op(
    rng: &mut StdRng,
    cfg: &FuzzConfig,
    keys: &KeyDistribution,
    next_value: &mut u64,
) -> OpKind {
    let mut value = || {
        *next_value += 1;
        *next_value
    };
    match cfg.mix.sample(rng) {
        Operation::Insert => OpKind::Insert {
            key: keys.sample(rng),
            value: value(),
        },
        Operation::Delete => OpKind::Delete {
            key: keys.sample(rng),
        },
        Operation::Find => OpKind::Get {
            key: keys.sample(rng),
        },
        Operation::Scan => {
            let start = keys.sample(rng);
            let (lo, hi) = abtree::scan_window(start, rng.gen_range(1..=MAX_SCAN_LEN))
                .expect("scan lengths are at least 1");
            OpKind::Range { lo, hi }
        }
        Operation::MGet => {
            let n = rng.gen_range(1..=MAX_BATCH);
            OpKind::MGet {
                keys: (0..n).map(|_| keys.sample(rng)).collect(),
            }
        }
        Operation::MPut => {
            let n = rng.gen_range(1..=MAX_BATCH);
            OpKind::MPut {
                pairs: (0..n).map(|_| (keys.sample(rng), value())).collect(),
            }
        }
    }
}

/// Generates the deterministic-mode schedule: a seeded random interleaving
/// of per-thread operation streams (uniformly random thread per step, so
/// context switches land at every possible boundary over enough seeds).
pub fn generate_schedule(cfg: &FuzzConfig) -> Vec<ScheduledOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let keys = KeyDistribution::zipfian(cfg.key_space, cfg.key_skew);
    let mut next_value = 0u64;
    (0..cfg.threads * cfg.ops_per_thread)
        .map(|_| ScheduledOp {
            thread: rng.gen_range(0..cfg.threads),
            op: sample_op(&mut rng, cfg, &keys, &mut next_value),
        })
        .collect()
}

/// A system under test: a fresh one is built per replay or round, and
/// every (logical or OS) thread opens its own [`Session`] on it.
pub trait Target: Sync {
    /// The per-thread session type.
    type Session<'t>: Session
    where
        Self: 't;

    /// Opens a session, on the thread that will use it (a kvserve router
    /// is `!Send`).
    fn open(&self) -> Self::Session<'_>;
}

/// A registry structure; its sessions are tree handles.  Which structures
/// scan atomically is the registry's `snapshot_scans` column.
impl Target for Box<dyn ConcurrentMap> {
    type Session<'t> = Box<dyn MapHandle + 't>;

    fn open(&self) -> Self::Session<'_> {
        self.handle()
    }
}

/// A kvserve service; its sessions are routers, and its scans are its
/// store's.
impl Target for KvService {
    type Session<'t> = ShardRouter<'t>;

    fn open(&self) -> Self::Session<'_> {
        self.router()
    }
}

/// A kvserve service over registry structure `structure`: the fuzzer's
/// service target.
pub fn kv_service(structure: &str) -> KvService {
    KvService::new(1, 1, |_| setbench::registry::make_structure(structure))
}

/// A deterministic-mode divergence between target and oracle.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Index into the schedule.
    pub step: usize,
    /// The diverging operation.
    pub op: ScheduledOp,
    /// What the target returned.
    pub got: OpResult,
    /// What the oracle expected.
    pub want: OpResult,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: `{}` returned {} but the oracle expected {}",
            self.step,
            self.op.render(),
            self.got,
            self.want
        )
    }
}

/// Replays `schedule` on sessions of `target` (one per logical thread) and
/// on the `BTreeMap` oracle in lock-step.  Returns the first divergence.
fn replay<T: Target>(target: &T, threads: u32, schedule: &[ScheduledOp]) -> Result<(), Mismatch> {
    let mut sessions: Vec<T::Session<'_>> = (0..threads).map(|_| target.open()).collect();
    let mut oracle = BTreeMap::new();
    for (step, entry) in schedule.iter().enumerate() {
        let want = oracle.run(&entry.op);
        let got = sessions[entry.thread as usize].run(&entry.op);
        if got != want {
            return Err(Mismatch {
                step,
                op: entry.clone(),
                got,
                want,
            });
        }
    }
    Ok(())
}

/// A shrunk deterministic-mode failure: the reproducer is the seed plus the
/// minimal schedule.
#[derive(Debug)]
pub struct DiffFailure {
    /// Seed the original schedule was generated from.
    pub seed: u64,
    /// The first divergence observed on the minimal schedule.
    pub mismatch: Mismatch,
    /// Minimal failing schedule (every remaining op is necessary).
    pub minimal: Vec<ScheduledOp>,
}

impl DiffFailure {
    /// Full reproducer text: seed, divergence, and the minimal schedule.
    pub fn render(&self) -> String {
        let mut out = format!(
            "differential failure (seed {:#x}): {}\nminimal schedule ({} ops):\n",
            self.seed,
            self.mismatch,
            self.minimal.len()
        );
        for op in &self.minimal {
            out.push_str("  ");
            out.push_str(&op.render());
            out.push('\n');
        }
        out
    }
}

/// Deterministic differential fuzz of a target: generate a schedule, replay
/// it against a fresh target from `build` and the oracle, and shrink any
/// divergence to a minimal reproducer (each candidate on a fresh target).
pub fn differential_fuzz<T: Target>(
    build: &dyn Fn() -> T,
    cfg: &FuzzConfig,
) -> Result<usize, Box<DiffFailure>> {
    let schedule = generate_schedule(cfg);
    let run = |s: &[ScheduledOp]| replay(&build(), cfg.threads, s);
    match run(&schedule) {
        Ok(()) => Ok(schedule.len()),
        Err(_) => {
            let minimal = shrink_schedule(&schedule, &run);
            let mismatch = run(&minimal).expect_err("shrunk schedule must still fail");
            Err(Box::new(DiffFailure {
                seed: cfg.seed,
                mismatch,
                minimal,
            }))
        }
    }
}

/// Records one concurrent round on `target` (which must be fresh: the
/// checker assumes the initial state is empty): `cfg.threads` OS threads
/// each open a session, run `cfg.ops_per_thread` seeded operations through
/// a [`Recorder`] (unique values with thread-tagged high bits), and the
/// merged [`History`] is returned.
fn record_round<T: Target>(
    target: &T,
    keys: &KeyDistribution,
    cfg: &FuzzConfig,
    round: u64,
) -> History {
    let clock = Clock::new();
    let parts = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let clock = Arc::clone(&clock);
                scope.spawn(move || {
                    let mut rec = Recorder::new(target.open(), t, clock);
                    let mut rng =
                        StdRng::seed_from_u64(cfg.seed ^ round.rotate_left(17) ^ (t as u64) << 32);
                    let mut next_value = (t as u64 + 1) << 40;
                    for _ in 0..cfg.ops_per_thread {
                        rec.run(&sample_op(&mut rng, cfg, keys, &mut next_value));
                    }
                    rec.finish()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("fuzz worker panicked"))
            .collect()
    });
    History::merge(parts)
}

/// A concurrent-mode failure: the round that produced it and the shrunk
/// history.
#[derive(Debug)]
pub struct ConcFailure {
    /// Round index (mixes into the per-thread seeds).
    pub round: u64,
    /// The checker's report on the shrunk history.
    pub report: crate::checker::ViolationReport,
    /// Minimal failing history (every remaining event is necessary).
    pub minimal: History,
}

impl ConcFailure {
    /// Full reproducer text: seed/round, violation, and the minimal
    /// history.
    pub fn render(&self, cfg: &FuzzConfig) -> String {
        format!(
            "concurrent violation (seed {:#x}, round {}, {} threads): {}\n\
             minimal failing history ({} events):\n{}",
            cfg.seed,
            self.round,
            cfg.threads,
            self.report,
            self.minimal.ops.len(),
            self.minimal.render()
        )
    }
}

/// Summary of a clean concurrent fuzz.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcReport {
    /// Rounds checked.
    pub rounds: u32,
    /// Total events across all histories.
    pub events: usize,
    /// Rounds whose search hit the budget (inconclusive, counted as
    /// passes).
    pub bounded_rounds: u32,
}

/// Runs `rounds` concurrent recorded rounds, each on a fresh target from
/// `build`, checking every history.  On a violation the history is shrunk
/// and returned as a [`ConcFailure`].  Bounded (budget-exhausted) rounds
/// count as passes but are reported.
pub fn fuzz_concurrent<T: Target>(
    build: &dyn Fn() -> T,
    cfg: &FuzzConfig,
    check_cfg: &CheckConfig,
    rounds: u32,
) -> Result<ConcReport, Box<ConcFailure>> {
    let keys = KeyDistribution::zipfian(cfg.key_space, cfg.key_skew);
    let mut report = ConcReport::default();
    for round in 0..rounds as u64 {
        let history = record_round(&build(), &keys, cfg, round);
        report.rounds += 1;
        report.events += history.ops.len();
        match check(&history, check_cfg) {
            Outcome::Linearizable => {}
            Outcome::Bounded { .. } => report.bounded_rounds += 1,
            Outcome::Violation(report) => {
                // Shrink from the report already in hand: re-checking the
                // full violating history repeats its worst-case exhausted
                // search.
                let minimal = crate::shrink::shrink_history_from(&history, &report, check_cfg);
                let Outcome::Violation(violation) = check(&minimal, check_cfg) else {
                    unreachable!("shrunk history must still violate")
                };
                return Err(Box::new(ConcFailure {
                    round,
                    report: violation,
                    minimal,
                }));
            }
        }
    }
    Ok(report)
}

/// Number of keys [`record_hot_key_paths`] hammers: few enough that every
/// router's hot-key cache holds the whole universe and every write
/// invalidates entries some other thread is about to read.
const HOT_KEYS: u64 = 8;

/// Records one round of hot-key traffic in which every router's request
/// kinds meet on the same eight keys of a fresh service:
/// blocking point calls (run on the calling thread's own tree session, or
/// answered by its hot-key cache), `serve_pipelined` windows of 2–16 point
/// requests, and `mget` / `mput` / `scan` — all on the routers' own
/// sessions, so every router mutates the one tree beside the others.
/// `threads` OS threads each record at least `ops_per_thread` operations,
/// ~60% of them blocking `get`s — the cache-hit fodder whose linearizability
/// is the point.  Returns the history and how many reads the hot-key caches
/// answered inside it (0 with telemetry compiled out).
///
/// The store is an Elim-ABtree under the private `stall` module's wrapper,
/// which pauses inside the cache protocol's windows: unstalled, the races
/// this traffic exists to provoke need a preemption to land within a
/// hundred nanoseconds, and a round that never raced proves nothing.
/// Values are unique (thread-tagged), so the checker can match every read
/// to the one write it observed.
pub fn record_hot_key_paths(threads: u32, ops_per_thread: usize) -> (History, u64) {
    let service = KvService::new(1, 1, |_| {
        Box::new(crate::stall::Stalling::new(
            setbench::registry::make_structure("elim-abtree"),
        ))
    });
    let service = &service;
    let clock = Clock::new();
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                let clock = Arc::clone(&clock);
                scope.spawn(move || {
                    let mut rec = Recorder::new(service.router(), thread, clock);
                    let mut state = 0x9E37_79B9u64
                        .wrapping_mul(u64::from(thread) + 1)
                        .wrapping_add(0x5EED);
                    let mut next = move || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 33
                    };
                    let mut value = u64::from(thread) << 32;
                    let mut fresh = move || {
                        value += 1;
                        value
                    };
                    let mut recorded = 0;
                    while recorded < ops_per_thread {
                        let key = next() % HOT_KEYS;
                        let op = match next() % 100 {
                            0..=59 => OpKind::Get { key },
                            60..=71 => OpKind::Insert {
                                key,
                                value: fresh(),
                            },
                            72..=77 => OpKind::Delete { key },
                            78..=91 => {
                                let window: Vec<OpKind> = (0..2 + next() % 15)
                                    .map(|_| {
                                        let key = next() % HOT_KEYS;
                                        match next() % 4 {
                                            0 => OpKind::Insert {
                                                key,
                                                value: fresh(),
                                            },
                                            1 => OpKind::Delete { key },
                                            _ => OpKind::Get { key },
                                        }
                                    })
                                    .collect();
                                recorded += rec.run_window(&window).len();
                                continue;
                            }
                            92..=94 => OpKind::MGet {
                                keys: vec![key, (key + 3) % HOT_KEYS],
                            },
                            95..=97 => OpKind::MPut {
                                pairs: vec![(key, fresh()), ((key + 5) % HOT_KEYS, fresh())],
                            },
                            _ => OpKind::Range {
                                lo: 0,
                                hi: HOT_KEYS - 1,
                            },
                        };
                        rec.run(&op);
                        recorded += 1;
                    }
                    rec.finish()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("recorder thread panicked"))
            .collect()
    });
    (History::merge(logs), service.stats().cache_hits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_values_unique() {
        let cfg = FuzzConfig::default();
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a, b, "same seed, same schedule");
        let c = generate_schedule(&FuzzConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        });
        assert_ne!(a, c, "different seed, different schedule");
        let mut values = std::collections::HashSet::new();
        for entry in &a {
            match &entry.op {
                OpKind::Insert { value: v, .. } => {
                    assert!(values.insert(*v), "duplicate value {v}")
                }
                OpKind::MPut { pairs } => {
                    for (_, v) in pairs {
                        assert!(values.insert(*v), "duplicate value {v}");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn differential_fuzz_passes_on_a_correct_structure() {
        let descriptor = setbench::registry::descriptor("elim-abtree").unwrap();
        let cfg = FuzzConfig {
            ops_per_thread: 150,
            ..FuzzConfig::default()
        };
        let build = || (descriptor.factory)(Default::default());
        let ops = differential_fuzz(&build, &cfg).expect("elim-abtree is correct");
        assert_eq!(ops, 450);
    }

    #[test]
    fn concurrent_fuzz_passes_on_a_correct_structure() {
        let descriptor = setbench::registry::descriptor("occ-abtree").unwrap();
        let cfg = FuzzConfig {
            threads: 2,
            ops_per_thread: 120,
            ..FuzzConfig::default()
        };
        let build = || (descriptor.factory)(Default::default());
        let report = fuzz_concurrent(&build, &cfg, &CheckConfig::with_snapshot_scans(), 2)
            .expect("occ-abtree is linearizable");
        assert_eq!(report.rounds, 2);
        assert!(report.events > 0);
    }

    #[test]
    fn kvserve_differential_passes() {
        let cfg = FuzzConfig {
            ops_per_thread: 120,
            key_space: 160,
            ..FuzzConfig::default()
        };
        differential_fuzz(&|| kv_service("elim-abtree"), &cfg).expect("service is correct");
    }
}
