//! The differential fuzzer: seeded workload mixes replayed against every
//! registry structure (and the kvserve service) two ways.
//!
//! * **Deterministic differential mode** ([`differential_fuzz`],
//!   [`differential_kvserve`]): a seeded schedule of operations from N
//!   *logical* threads — each owning its own session handle, all executed
//!   interleaved on one OS thread — is replayed against the structure and a
//!   locked `BTreeMap` oracle in lock-step, comparing every result.  Fully
//!   deterministic, so a failing schedule shrinks (ddmin-style, see
//!   [`crate::shrink`]) to a minimal reproducer: the seed plus the surviving
//!   operations.
//! * **Concurrent recorded mode** ([`fuzz_concurrent`]): real OS threads run
//!   seeded per-thread operation streams through [`Recorder`]s on a fresh
//!   structure, and the merged history goes to the
//!   [`checker`](crate::checker).  Violating histories shrink by the same
//!   ddmin loop, re-running only the (pure, deterministic) checker.
//!
//! Key streams support Zipfian skew ([`FuzzConfig::key_skew`]) and, for the
//! service runs, two-level tenant skew via
//! [`workload::TenantKeyDistribution`]; mixes are ordinary
//! [`workload::OperationMix`]s, so YCSB-E-style scan-heavy mixes are one
//! constructor call away.  Every insert in a run carries a **unique value**,
//! which sharpens both the oracle comparison and the checker's provenance
//! pre-pass.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use abtree::MapHandle;
use rand::prelude::*;
use setbench::registry::Benchable;
use workload::{KeyDistribution, Operation, OperationMix, TenantKeyDistribution};

use crate::checker::{check, CheckConfig, Outcome};
use crate::history::{Clock, History, Recorder, RouterRecorder};
use crate::shrink::shrink_schedule;

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
    /// Scan window lengths are drawn from `[1, max_scan_len]`.
    pub max_scan_len: u64,
    /// Batch sizes are drawn from `[1, max_batch]`.
    pub max_batch: usize,
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
            max_scan_len: 12,
            max_batch: 6,
            key_skew: 0.8,
        }
    }
}

/// One materialized operation of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecOp {
    /// `insert(key, value)`.
    Insert(u64, u64),
    /// `delete(key)`.
    Delete(u64),
    /// `get(key)`.
    Get(u64),
    /// Scan of `[start, start + len - 1]`.
    Scan(u64, u64),
    /// Batched multi-get.
    MGet(Vec<u64>),
    /// Batched multi-put.
    MPut(Vec<(u64, u64)>),
}

/// A schedule entry: which logical thread runs which operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Logical thread (session handle index).
    pub thread: u32,
    /// The operation.
    pub op: SpecOp,
}

impl ScheduledOp {
    /// Renders as e.g. `t2 insert(5, 1001)`.
    pub fn render(&self) -> String {
        let op = match &self.op {
            SpecOp::Insert(k, v) => format!("insert({k}, {v})"),
            SpecOp::Delete(k) => format!("delete({k})"),
            SpecOp::Get(k) => format!("get({k})"),
            SpecOp::Scan(lo, len) => format!("scan({lo}, len {len})"),
            SpecOp::MGet(keys) => format!("mget({keys:?})"),
            SpecOp::MPut(pairs) => format!("mput({pairs:?})"),
        };
        format!("t{} {op}", self.thread)
    }
}

/// Key source for schedule generation: flat Zipf/uniform, or two-level
/// tenant skew with namespace-prefixed keys.
enum KeyGen {
    Flat(KeyDistribution),
    Tenant(TenantKeyDistribution),
}

impl KeyGen {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            KeyGen::Flat(dist) => dist.sample(rng),
            KeyGen::Tenant(dist) => {
                let (tenant, key) = dist.sample(rng);
                kvserve::Namespace::new(tenant).prefixed(key)
            }
        }
    }
}

fn sample_op(rng: &mut StdRng, cfg: &FuzzConfig, keys: &KeyGen, next_value: &mut u64) -> SpecOp {
    let mut value = || {
        *next_value += 1;
        *next_value
    };
    match cfg.mix.sample(rng) {
        Operation::Insert => SpecOp::Insert(keys.sample(rng), value()),
        Operation::Delete => SpecOp::Delete(keys.sample(rng)),
        Operation::Find => SpecOp::Get(keys.sample(rng)),
        Operation::Scan => SpecOp::Scan(keys.sample(rng), rng.gen_range(1..=cfg.max_scan_len)),
        Operation::MGet => {
            let n = rng.gen_range(1..=cfg.max_batch);
            SpecOp::MGet((0..n).map(|_| keys.sample(rng)).collect())
        }
        Operation::MPut => {
            let n = rng.gen_range(1..=cfg.max_batch);
            SpecOp::MPut((0..n).map(|_| (keys.sample(rng), value())).collect())
        }
    }
}

/// Generates the deterministic-mode schedule: a seeded random interleaving
/// of per-thread operation streams (uniformly random thread per step, so
/// context switches land at every possible boundary over enough seeds).
pub fn generate_schedule(cfg: &FuzzConfig, tenants: Option<(u16, f64)>) -> Vec<ScheduledOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let keys = match tenants {
        None => KeyGen::Flat(KeyDistribution::from_zipf_parameter(
            cfg.key_space,
            cfg.key_skew,
        )),
        Some((count, skew)) => KeyGen::Tenant(TenantKeyDistribution::new(
            count,
            skew,
            cfg.key_space,
            cfg.key_skew,
        )),
    };
    let mut next_value = 0u64;
    let total = cfg.threads * cfg.ops_per_thread;
    (0..total)
        .map(|_| ScheduledOp {
            thread: rng.gen_range(0..cfg.threads),
            op: sample_op(&mut rng, cfg, &keys, &mut next_value),
        })
        .collect()
}

/// A deterministic-mode divergence between structure and oracle.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Index into the schedule.
    pub step: usize,
    /// The diverging operation.
    pub op: ScheduledOp,
    /// What the structure returned.
    pub got: String,
    /// What the oracle expected.
    pub want: String,
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

/// Session abstraction shared by the two deterministic replay targets: a
/// set of per-logical-thread structure handles, or a set of service
/// routers.
trait ReplayTarget {
    fn insert(&mut self, thread: u32, key: u64, value: u64) -> Option<u64>;
    fn delete(&mut self, thread: u32, key: u64) -> Option<u64>;
    fn get(&mut self, thread: u32, key: u64) -> Option<u64>;
    fn scan(&mut self, thread: u32, lo: u64, len: u64) -> Vec<(u64, u64)>;
    fn mget(&mut self, thread: u32, keys: &[u64]) -> Vec<Option<u64>>;
    fn mput(&mut self, thread: u32, pairs: &[(u64, u64)]) -> Vec<Option<u64>>;
}

struct HandleTarget<'m> {
    handles: Vec<Box<dyn MapHandle + 'm>>,
}

impl ReplayTarget for HandleTarget<'_> {
    fn insert(&mut self, thread: u32, key: u64, value: u64) -> Option<u64> {
        self.handles[thread as usize].insert(key, value)
    }
    fn delete(&mut self, thread: u32, key: u64) -> Option<u64> {
        self.handles[thread as usize].delete(key)
    }
    fn get(&mut self, thread: u32, key: u64) -> Option<u64> {
        self.handles[thread as usize].get(key)
    }
    fn scan(&mut self, thread: u32, lo: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if let Some((lo, hi)) = abtree::scan_window(lo, len) {
            self.handles[thread as usize].range(lo, hi, &mut out);
        }
        out
    }
    fn mget(&mut self, thread: u32, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        self.handles[thread as usize].get_batch(keys, &mut out);
        out
    }
    fn mput(&mut self, thread: u32, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        self.handles[thread as usize].insert_batch(pairs, &mut out);
        out
    }
}

struct RouterTarget<'s> {
    routers: Vec<kvserve::ShardRouter<'s>>,
}

impl ReplayTarget for RouterTarget<'_> {
    fn insert(&mut self, thread: u32, key: u64, value: u64) -> Option<u64> {
        self.routers[thread as usize].put(key, value)
    }
    fn delete(&mut self, thread: u32, key: u64) -> Option<u64> {
        self.routers[thread as usize].delete(key)
    }
    fn get(&mut self, thread: u32, key: u64) -> Option<u64> {
        self.routers[thread as usize].get(key)
    }
    fn scan(&mut self, thread: u32, lo: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.routers[thread as usize].scan(lo, len, &mut out);
        out
    }
    fn mget(&mut self, thread: u32, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        self.routers[thread as usize].mget(keys, &mut out);
        out
    }
    fn mput(&mut self, thread: u32, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        self.routers[thread as usize].mput(pairs, &mut out);
        out
    }
}

/// Replays `schedule` against `target` and a locked `BTreeMap` oracle in
/// lock-step (the oracle mutex is taken around each compared operation, the
/// discipline that would make the oracle usable from concurrent replayers
/// too).  Returns the first divergence.
fn replay(target: &mut dyn ReplayTarget, schedule: &[ScheduledOp]) -> Result<(), Mismatch> {
    let oracle: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
    for (step, entry) in schedule.iter().enumerate() {
        let mut oracle = oracle.lock().expect("oracle poisoned");
        let (got, want): (String, String) = match &entry.op {
            &SpecOp::Insert(key, value) => {
                let want = oracle.get(&key).copied();
                if want.is_none() {
                    oracle.insert(key, value);
                }
                let got = target.insert(entry.thread, key, value);
                (format!("{got:?}"), format!("{want:?}"))
            }
            &SpecOp::Delete(key) => {
                let want = oracle.remove(&key);
                let got = target.delete(entry.thread, key);
                (format!("{got:?}"), format!("{want:?}"))
            }
            &SpecOp::Get(key) => {
                let want = oracle.get(&key).copied();
                let got = target.get(entry.thread, key);
                (format!("{got:?}"), format!("{want:?}"))
            }
            &SpecOp::Scan(lo, len) => {
                let got = target.scan(entry.thread, lo, len);
                let want: Vec<(u64, u64)> = match abtree::scan_window(lo, len) {
                    None => Vec::new(),
                    Some((lo, hi)) => oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect(),
                };
                (format!("{got:?}"), format!("{want:?}"))
            }
            SpecOp::MGet(keys) => {
                let got = target.mget(entry.thread, keys);
                let want: Vec<Option<u64>> =
                    keys.iter().map(|k| oracle.get(k).copied()).collect();
                (format!("{got:?}"), format!("{want:?}"))
            }
            SpecOp::MPut(pairs) => {
                let want: Vec<Option<u64>> = pairs
                    .iter()
                    .map(|&(k, v)| {
                        let prior = oracle.get(&k).copied();
                        if prior.is_none() {
                            oracle.insert(k, v);
                        }
                        prior
                    })
                    .collect();
                let got = target.mput(entry.thread, pairs);
                (format!("{got:?}"), format!("{want:?}"))
            }
        };
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

/// Replays a schedule against a fresh structure from `factory` (handles for
/// `threads` logical threads) and the oracle.  Exposed for the shrinker,
/// which re-runs candidate sub-schedules.
pub fn replay_structure(
    factory: &dyn Fn() -> Box<dyn Benchable>,
    threads: u32,
    schedule: &[ScheduledOp],
) -> Result<(), Mismatch> {
    let map = factory();
    let mut target = HandleTarget {
        handles: (0..threads).map(|_| map.handle()).collect(),
    };
    replay(&mut target, schedule)
}

/// Replays a schedule against a fresh kvserve service from `factory`
/// (routers for `threads` logical threads) and the oracle.
pub fn replay_service(
    factory: &dyn Fn() -> kvserve::KvService,
    threads: u32,
    schedule: &[ScheduledOp],
) -> Result<(), Mismatch> {
    let service = factory();
    let mut target = RouterTarget {
        routers: (0..threads).map(|_| service.router()).collect(),
    };
    replay(&mut target, schedule)
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

/// The one copy of the differential run-or-shrink step: replay the full
/// schedule; on divergence, shrink it and package the reproducer.
fn differential_outcome(
    seed: u64,
    schedule: &[ScheduledOp],
    run: &dyn Fn(&[ScheduledOp]) -> Result<(), Mismatch>,
) -> Result<usize, Box<DiffFailure>> {
    match run(schedule) {
        Ok(()) => Ok(schedule.len()),
        Err(_) => {
            let minimal = shrink_schedule(schedule, run);
            let mismatch = run(&minimal).expect_err("shrunk schedule must still fail");
            Err(Box::new(DiffFailure {
                seed,
                mismatch,
                minimal,
            }))
        }
    }
}

/// Deterministic differential fuzz of one structure: generate a schedule,
/// replay against structure + oracle, and shrink any divergence to a
/// minimal reproducer.
pub fn differential_fuzz(
    factory: &dyn Fn() -> Box<dyn Benchable>,
    cfg: &FuzzConfig,
) -> Result<usize, Box<DiffFailure>> {
    let schedule = generate_schedule(cfg, None);
    differential_outcome(cfg.seed, &schedule, &|s| {
        replay_structure(factory, cfg.threads, s)
    })
}

/// Deterministic differential fuzz of a kvserve service (tenant-skewed
/// keys, batched ops routed across `shards` shards of registry structure
/// `structure`).
pub fn differential_kvserve(
    structure: &'static str,
    shards: usize,
    tenants: (u16, f64),
    cfg: &FuzzConfig,
) -> Result<usize, Box<DiffFailure>> {
    let factory = move || {
        kvserve::KvService::new(shards, tenants.0 as usize, |_| {
            Box::new(setbench::registry::make_structure(structure))
        })
    };
    let schedule = generate_schedule(cfg, Some(tenants));
    differential_outcome(cfg.seed, &schedule, &|s| {
        replay_service(&factory, cfg.threads, s)
    })
}

/// A per-thread recorded session in concurrent mode: how one materialized
/// op executes and how the event log is recovered afterwards.  Bridges the
/// two recorders (structure handles vs service routers) so the threaded
/// round loop — scoped spawn, per-thread seeding, value uniquing, op
/// dispatch — exists exactly once, in [`record_round`].
trait RecordSession {
    fn apply(&mut self, op: &SpecOp);
    fn finish(self) -> Vec<crate::history::OpRecord>;
}

/// Structure-session recording: a [`Recorder`] over a boxed [`MapHandle`]
/// plus reusable scratch buffers.
struct MapSession<'m> {
    rec: Recorder<Box<dyn MapHandle + 'm>>,
    entries: Vec<(u64, u64)>,
    values: Vec<Option<u64>>,
}

impl RecordSession for MapSession<'_> {
    fn apply(&mut self, op: &SpecOp) {
        match op {
            &SpecOp::Insert(k, v) => {
                self.rec.insert(k, v);
            }
            &SpecOp::Delete(k) => {
                self.rec.delete(k);
            }
            &SpecOp::Get(k) => {
                self.rec.get(k);
            }
            &SpecOp::Scan(lo, len) => {
                if let Some((lo, hi)) = abtree::scan_window(lo, len) {
                    self.rec.range(lo, hi, &mut self.entries);
                }
            }
            SpecOp::MGet(keys) => self.rec.get_batch(keys, &mut self.values),
            SpecOp::MPut(pairs) => self.rec.insert_batch(pairs, &mut self.values),
        }
    }

    fn finish(self) -> Vec<crate::history::OpRecord> {
        self.rec.finish()
    }
}

/// Service-session recording: a [`RouterRecorder`] over a [`ShardRouter`].
struct RouterSession<'s> {
    rec: RouterRecorder<'s>,
}

impl RecordSession for RouterSession<'_> {
    fn apply(&mut self, op: &SpecOp) {
        match op {
            &SpecOp::Insert(k, v) => {
                self.rec.put(k, v);
            }
            &SpecOp::Delete(k) => {
                self.rec.delete(k);
            }
            &SpecOp::Get(k) => {
                self.rec.get(k);
            }
            &SpecOp::Scan(lo, len) => {
                self.rec.scan(lo, len);
            }
            SpecOp::MGet(keys) => {
                self.rec.mget(keys);
            }
            SpecOp::MPut(pairs) => {
                self.rec.mput(pairs);
            }
        }
    }

    fn finish(self) -> Vec<crate::history::OpRecord> {
        self.rec.finish()
    }
}

/// The one copy of the concurrent recording loop: `cfg.threads` OS threads,
/// each opening a session through `open`, running `cfg.ops_per_thread`
/// seeded operations (keys from the shared `keys` source, unique values
/// with thread-tagged high bits), and the merged [`History`] returned.
fn record_round<S: RecordSession>(
    open: &(dyn Fn(u32, Arc<Clock>) -> S + Sync),
    keys: &KeyGen,
    cfg: &FuzzConfig,
    round: u64,
) -> History {
    let clock = Clock::new();
    let parts: Vec<Vec<crate::history::OpRecord>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let clock = Arc::clone(&clock);
                scope.spawn(move || {
                    let mut session = open(t, clock);
                    let mut rng =
                        StdRng::seed_from_u64(cfg.seed ^ round.rotate_left(17) ^ (t as u64) << 32);
                    let mut next_value = (t as u64 + 1) << 40;
                    for _ in 0..cfg.ops_per_thread {
                        let op = sample_op(&mut rng, cfg, keys, &mut next_value);
                        session.apply(&op);
                    }
                    session.finish()
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

/// Records one concurrent round: `cfg.threads` OS threads each run
/// `cfg.ops_per_thread` seeded operations through a [`Recorder`] over a
/// session on `map`, and the merged [`History`] is returned.  `map` must be
/// fresh (the checker assumes the initial state is empty).
pub fn record_concurrent(map: &dyn Benchable, cfg: &FuzzConfig, round: u64) -> History {
    let keys = KeyGen::Flat(KeyDistribution::from_zipf_parameter(
        cfg.key_space,
        cfg.key_skew,
    ));
    record_round(
        &|t, clock| MapSession {
            rec: Recorder::new(map.handle(), t, clock),
            entries: Vec::new(),
            values: Vec::new(),
        },
        &keys,
        cfg,
        round,
    )
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

/// The shared round/check/shrink loop behind both concurrent fuzz entry
/// points: records one history per round with `record_round` (fresh state
/// each time), checks it, and on a violation shrinks and fails.  Bounded
/// (budget-exhausted) rounds count as passes but are reported.
fn fuzz_rounds(
    record_round: &dyn Fn(u64) -> History,
    check_cfg: &CheckConfig,
    rounds: u32,
) -> Result<ConcReport, Box<ConcFailure>> {
    let mut report = ConcReport::default();
    for round in 0..rounds as u64 {
        let history = record_round(round);
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

/// Runs `rounds` concurrent recorded rounds, each on a fresh structure from
/// `factory`, checking every history.  On a violation the history is shrunk
/// and returned as a [`ConcFailure`].
pub fn fuzz_concurrent(
    factory: &dyn Fn() -> Box<dyn Benchable>,
    cfg: &FuzzConfig,
    check_cfg: &CheckConfig,
    rounds: u32,
) -> Result<ConcReport, Box<ConcFailure>> {
    fuzz_rounds(
        &|round| {
            let map = factory();
            record_concurrent(&*map, cfg, round)
        },
        check_cfg,
        rounds,
    )
}

/// Records one concurrent kvserve round: OS-thread routers under
/// [`RouterRecorder`]s over a fresh service, tenant-skewed traffic.
fn record_kvserve_round(
    structure: &'static str,
    shards: usize,
    tenants: (u16, f64),
    cfg: &FuzzConfig,
    round: u64,
) -> History {
    let service = kvserve::KvService::new(shards, tenants.0 as usize, |_| {
        Box::new(setbench::registry::make_structure(structure))
    });
    let keys = KeyGen::Tenant(TenantKeyDistribution::new(
        tenants.0,
        tenants.1,
        cfg.key_space,
        cfg.key_skew,
    ));
    record_round(
        &|t, clock| RouterSession {
            rec: RouterRecorder::new(service.router(), t, clock),
        },
        &keys,
        cfg,
        round,
    )
}

/// Concurrent recorded fuzz of a kvserve service: OS-thread routers with
/// tenant-skewed traffic, checked with per-key semantics (the service
/// promises no cross-shard atomicity).
pub fn fuzz_kvserve_concurrent(
    structure: &'static str,
    shards: usize,
    tenants: (u16, f64),
    cfg: &FuzzConfig,
    check_cfg: &CheckConfig,
    rounds: u32,
) -> Result<ConcReport, Box<ConcFailure>> {
    assert!(
        !check_cfg.snapshot_scans,
        "kvserve scans are scatter-gather, never atomic snapshots"
    );
    fuzz_rounds(
        &|round| record_kvserve_round(structure, shards, tenants, cfg, round),
        check_cfg,
        rounds,
    )
}

/// Number of keys [`record_hot_key_paths`] hammers: few enough that every
/// router's hot-key cache holds the whole universe and every write
/// invalidates entries some other thread is about to read.
const HOT_KEYS: u64 = 8;

/// Records one round of hot-key traffic in which every router's request
/// kinds meet on the same eight keys of a fresh four-shard service:
/// blocking point calls (run on the calling thread's own tree session, or
/// answered by its hot-key cache), `serve_pipelined` windows of 2–16 point
/// requests, and `mget` / `mput` / `scan` — all on the routers' own
/// sessions, so every router mutates every shard beside the others.
/// `threads` OS threads each record at least `ops_per_thread` operations,
/// ~60% of them blocking `get`s — the cache-hit fodder whose linearizability
/// is the point.  Returns the history and how many reads the hot-key caches
/// answered inside it (0 with telemetry compiled out).
///
/// The shards are Elim-ABtrees under the private `stall` module's wrapper,
/// which pauses inside the cache protocol's windows: unstalled, the races
/// this traffic exists to provoke need a preemption to land within a
/// hundred nanoseconds, and a round that never raced proves nothing.
/// Values are unique (thread-tagged), so the checker can match every read
/// to the one write it observed.
pub fn record_hot_key_paths(threads: u32, ops_per_thread: usize) -> (History, u64) {
    use kvserve::Request;

    let service = kvserve::KvService::new(4, 1, |_| {
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
                    let mut rec = RouterRecorder::new(service.router(), thread, clock);
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
                        recorded += match next() % 100 {
                            0..=59 => {
                                rec.get(key);
                                1
                            }
                            60..=71 => {
                                rec.put(key, fresh());
                                1
                            }
                            72..=77 => {
                                rec.delete(key);
                                1
                            }
                            78..=91 => {
                                let window: Vec<Request> = (0..2 + next() % 15)
                                    .map(|_| {
                                        let key = next() % HOT_KEYS;
                                        match next() % 4 {
                                            0 => Request::Put {
                                                key,
                                                value: fresh(),
                                            },
                                            1 => Request::Delete { key },
                                            _ => Request::Get { key },
                                        }
                                    })
                                    .collect();
                                rec.serve_pipelined(&window);
                                window.len()
                            }
                            92..=94 => {
                                rec.mget(&[key, (key + 3) % HOT_KEYS]);
                                1
                            }
                            95..=97 => {
                                rec.mput(&[(key, fresh()), ((key + 5) % HOT_KEYS, fresh())]);
                                1
                            }
                            _ => {
                                rec.scan(0, HOT_KEYS);
                                1
                            }
                        };
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
        let a = generate_schedule(&cfg, None);
        let b = generate_schedule(&cfg, None);
        assert_eq!(a, b, "same seed, same schedule");
        let c = generate_schedule(
            &FuzzConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            },
            None,
        );
        assert_ne!(a, c, "different seed, different schedule");
        let mut values = std::collections::HashSet::new();
        for entry in &a {
            match &entry.op {
                SpecOp::Insert(_, v) => assert!(values.insert(*v), "duplicate value {v}"),
                SpecOp::MPut(pairs) => {
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
            key_space: 40,
            ..FuzzConfig::default()
        };
        differential_kvserve("elim-abtree", 3, (4, 1.0), &cfg).expect("service is correct");
    }
}
