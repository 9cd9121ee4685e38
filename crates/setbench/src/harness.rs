//! The benchmark harness: one cell of any figure — load, timed measured
//! phase, key-sum validation (paper §6 "Methodology").
//!
//! Every cell runs through the same measured phase: `threads` workers each
//! open one session, draw operations from their own seeded stream until
//! the cell's duration elapses, and tally what they inserted and deleted;
//! the key sum left in the structure must then equal what the load phase
//! put in plus those tallies.  A cell's [`Workload`] decides only the two
//! things that differ between a SetBench mix and a YCSB index workload: how
//! the structure is loaded, and the per-op step.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::prelude::*;
use workload::{KeyDistribution, Operation, OperationMix, YcsbOp, YcsbWorkload};

use abebr::SmrPolicy;
use abtree::{ConcurrentMap, MapHandle};

use crate::registry::make_structure_smr;
use crate::report::BenchResult;

/// What a cell runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The SetBench microbenchmark (Figures 12-15 and 17, Table 1, the
    /// ablations): prefill half the key range with random keys, then
    /// `update_percent`% updates split evenly between inserts and deletes,
    /// the rest finds.
    SetBench {
        /// Percentage of operations that are updates.
        update_percent: u32,
    },
    /// YCSB Workload A with the structure as the index (Figure 16): load
    /// every record in a seeded hashed order (YCSB's `insertorder=hashed`),
    /// then 50% reads / 50% updates.  A YCSB update writes the row, not the
    /// index (paper §6.2), so it is an index read plus a write to a
    /// per-thread row sink.
    YcsbA,
    /// YCSB Workload E (Figure 18): the same load, then 95% scans of
    /// `1..=max_scan_len` keys / 5% inserts.
    YcsbE {
        /// Upper bound of the uniform scan-length distribution.
        max_scan_len: u64,
    },
}

/// Configuration of one cell of any figure.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Registry name of the structure (the row label for [`run_cell_on`]).
    pub structure: String,
    /// The workload and its one parameter.
    pub workload: Workload,
    /// Key range of a SetBench cell; record count of a YCSB cell.
    pub size: u64,
    /// Zipf parameter of the key (request) distribution; 0 = uniform.
    pub zipf: f64,
    /// Number of worker threads.
    pub threads: usize,
    /// Length of the measured phase.
    pub duration: Duration,
    /// RNG seed (each thread derives its own stream).
    pub seed: u64,
    /// SMR backend for the structure's reclamation collector
    /// (`--smr ebr|hp` of the `figures` runner).
    pub smr: SmrPolicy,
}

impl Default for CellConfig {
    fn default() -> Self {
        Self {
            structure: "elim-abtree".into(),
            workload: Workload::SetBench { update_percent: 50 },
            size: 1_000,
            zipf: 0.0,
            threads: 1,
            duration: Duration::from_millis(50),
            seed: 1,
            smr: SmrPolicy::default(),
        }
    }
}

/// A cell's per-op step, built once and shared by its workers.
enum Step {
    Mix(OperationMix, KeyDistribution),
    Ycsb(YcsbWorkload),
}

/// One worker's tallies for the checksum validation, plus the scratch its
/// steps reuse.
#[derive(Default)]
struct Worker {
    ops: u64,
    scan_ops: u64,
    inserted_sum: i128,
    deleted_sum: i128,
    /// The "database rows" behind a YCSB index: what updates and scans read.
    row_sink: u64,
    scan_buf: Vec<(u64, u64)>,
}

impl Worker {
    fn insert(&mut self, session: &mut dyn MapHandle, key: u64) {
        if session.insert(key, key).is_none() {
            self.inserted_sum += key as i128;
        }
    }
}

impl Step {
    fn new(cfg: &CellConfig) -> Self {
        match cfg.workload {
            Workload::SetBench { update_percent } => Step::Mix(
                OperationMix::from_update_percent(update_percent),
                KeyDistribution::from_zipf_parameter(cfg.size, cfg.zipf),
            ),
            Workload::YcsbA => Step::Ycsb(YcsbWorkload::workload_a(cfg.size, cfg.zipf)),
            Workload::YcsbE { max_scan_len } => Step::Ycsb(
                YcsbWorkload::workload_e(cfg.size, cfg.zipf).with_max_scan_len(max_scan_len.max(1)),
            ),
        }
    }

    /// Worker `thread`'s stream; each workload keeps its own salt, so a seed
    /// draws the same operations in every cell it ever drew them in.
    fn rng(&self, seed: u64, thread: usize) -> StdRng {
        let salt = match self {
            Step::Mix(..) => 0xBEEF + 31 * thread as u64,
            Step::Ycsb(_) => 0xFACE + 17 * thread as u64,
        };
        StdRng::seed_from_u64(seed ^ salt)
    }

    /// How many distinct keys the load phase puts in: half the key range
    /// for SetBench (its steady-state size, paper §6), every record for YCSB.
    fn load_target(&self, cfg: &CellConfig) -> u64 {
        match self {
            Step::Mix(..) => cfg.size / 2,
            Step::Ycsb(workload) => workload.record_count(),
        }
    }

    /// Loader `thread`'s keys: uniformly random ones from the key range for
    /// SetBench, its slice of the workload's hashed record order for YCSB.
    fn load_keys<'a>(
        &'a self,
        cfg: &CellConfig,
        thread: usize,
        threads: usize,
    ) -> Box<dyn Iterator<Item = u64> + 'a> {
        match self {
            Step::Mix(..) => {
                let size = cfg.size;
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5EED + thread as u64));
                Box::new(std::iter::repeat_with(move || rng.gen_range(0..size)))
            }
            Step::Ycsb(workload) => Box::new(workload.load_keys(thread, threads, cfg.seed)),
        }
    }

    /// Draws one operation and runs it on `session`.
    #[inline]
    fn run(&self, session: &mut dyn MapHandle, rng: &mut StdRng, w: &mut Worker) {
        match self {
            Step::Mix(mix, dist) => {
                let key = dist.sample(rng);
                match mix.sample(rng) {
                    Operation::Insert => w.insert(session, key),
                    Operation::Delete => {
                        if session.delete(key).is_some() {
                            w.deleted_sum += key as i128;
                        }
                    }
                    Operation::Find => {
                        std::hint::black_box(session.get(key));
                    }
                    other => unreachable!("a SetBench mix is point-only, drew {other:?}"),
                }
            }
            Step::Ycsb(workload) => match workload.next_op(rng) {
                YcsbOp::Read(k) => {
                    std::hint::black_box(session.get(k));
                }
                YcsbOp::Update(k) => {
                    if let Some(row) = session.get(k) {
                        w.row_sink = w.row_sink.wrapping_add(row);
                    }
                }
                YcsbOp::Insert(k) => w.insert(session, k),
                YcsbOp::Scan(k, len) => {
                    session.range(k, k.saturating_add(len - 1), &mut w.scan_buf);
                    for &(_, row) in &w.scan_buf {
                        w.row_sink = w.row_sink.wrapping_add(row);
                    }
                    w.scan_ops += 1;
                }
            },
        }
        w.ops += 1;
    }

    /// The row's update percentage: the mix's, or the YCSB workload's
    /// nominal one.
    fn update_percent(&self) -> u32 {
        match self {
            Step::Mix(mix, _) => mix.update_percent(),
            Step::Ycsb(workload) => match workload.kind() {
                workload::YcsbWorkloadKind::A => 50,
                workload::YcsbWorkloadKind::E => 5,
            },
        }
    }

    /// The row's experiment label until a figure stamps its own: the mix
    /// (`"u50"`) or the YCSB workload (`"ycsb-e"`).
    fn label(&self) -> String {
        match self {
            Step::Mix(mix, _) => mix.label(),
            Step::Ycsb(workload) => workload.label().into(),
        }
    }
}

/// The load phase: `cfg.threads` loaders (at least one) each insert the
/// keys of their own stream until the load's target of distinct keys has
/// gone in or their stream ends.  Returns the key sum inserted.
fn load(map: &dyn ConcurrentMap, cfg: &CellConfig, step: &Step) -> i128 {
    let threads = cfg.threads.max(1);
    let target = step.load_target(cfg);
    let inserted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let inserted = &inserted;
                scope.spawn(move || {
                    let mut session = map.handle();
                    let mut keys = step.load_keys(cfg, t, threads);
                    let mut sum = 0i128;
                    while inserted.load(Ordering::Relaxed) < target {
                        let Some(key) = keys.next() else { break };
                        if session.insert(key, key).is_none() {
                            inserted.fetch_add(1, Ordering::Relaxed);
                            sum += key as i128;
                        }
                    }
                    sum
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .sum()
    })
}

/// End-of-run reclamation columns for a result row: the backend label plus
/// the `unreclaimed` / lag gauges scraped from the structure's collector
/// (`"none"` and zeros for structures that don't reclaim through one).
fn reclamation_columns(map: &dyn ConcurrentMap, policy: SmrPolicy) -> (String, u64, u64) {
    match map.ebr_stats() {
        Some(stats) => (
            policy.name().to_string(),
            stats.unreclaimed,
            stats.oldest_epoch_age,
        ),
        None => ("none".to_string(), 0, 0),
    }
}

/// Runs one cell on the registry structure `cfg.structure`, built with its
/// collector on `cfg.smr`.
pub fn run_cell(cfg: &CellConfig) -> BenchResult {
    run_cell_on(make_structure_smr(&cfg.structure, cfg.smr), cfg)
}

/// Runs one cell — load, measured phase, validation — on a map the caller
/// built.  It exists apart from [`run_cell`] for tree variants the registry
/// cannot name (the lock ablation's `AbTree<false, TatasLock>` reports the
/// same `name()` as the MCS tree).  `cfg.structure` is only the row label
/// here, and the caller builds `map` on a `cfg.smr` collector so the `smr`
/// column is true.
pub fn run_cell_on(map: Box<dyn ConcurrentMap>, cfg: &CellConfig) -> BenchResult {
    let map = &*map;
    let step = &Step::new(cfg);
    let loaded_sum = load(map, cfg, step);

    let stop = &AtomicBool::new(false);
    let started = Instant::now();
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                scope.spawn(move || {
                    // One session per worker for the whole measured phase:
                    // the handle API's intended usage (and what makes
                    // per-op pinning a local epoch bump).
                    let mut session = map.handle();
                    let mut rng = step.rng(cfg.seed, t);
                    let mut worker = Worker::default();
                    while !stop.load(Ordering::Relaxed) {
                        // A few operations per stop-flag check.
                        for _ in 0..64 {
                            step.run(&mut *session, &mut rng, &mut worker);
                        }
                    }
                    std::hint::black_box(worker.row_sink);
                    worker
                })
            })
            .collect();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let total_ops: u64 = workers.iter().map(|w| w.ops).sum();
    let net: i128 = loaded_sum
        + workers
            .iter()
            .map(|w| w.inserted_sum - w.deleted_sum)
            .sum::<i128>();
    let (smr, unreclaimed, reclaim_lag) = reclamation_columns(map, cfg.smr);
    BenchResult {
        experiment: step.label(),
        structure: cfg.structure.clone(),
        threads: cfg.threads,
        key_range: cfg.size,
        update_percent: step.update_percent(),
        zipf: cfg.zipf,
        total_ops,
        scan_ops: workers.iter().map(|w| w.scan_ops).sum(),
        duration_secs: elapsed.as_secs_f64(),
        throughput_mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        validated: map.key_sum() as i128 == net,
        smr,
        unreclaimed,
        reclaim_lag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The YCSB load through the one load loop: three loaders together put
    /// in every record exactly once.
    #[test]
    fn ycsb_load_inserts_every_record_once() {
        let cfg = CellConfig {
            workload: Workload::YcsbE { max_scan_len: 1 },
            size: 1_000,
            threads: 3,
            seed: 0x5CA7,
            ..Default::default()
        };
        let map = make_structure_smr(&cfg.structure, cfg.smr);
        let step = Step::new(&cfg);
        assert_eq!(load(&*map, &cfg, &step), (0..1_000).sum::<i128>());
        let mut rows = Vec::new();
        map.handle().range(0, abtree::EMPTY_KEY - 1, &mut rows);
        let keys: Vec<u64> = rows.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (0..1_000).collect::<Vec<_>>());
    }
}
