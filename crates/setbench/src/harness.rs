//! The benchmark harness: one cell of any figure — load, timed measured
//! phase, key-sum validation (paper §6 "Methodology").
//!
//! Every cell runs through the same measured phase: `threads` workers each
//! open one session, draw operations from their own seeded stream until
//! the cell's duration elapses, and tally what they inserted and deleted;
//! the key sum left in the structure must then equal what the load phase
//! put in plus those tallies.  Every stream is an operation mix over a key
//! distribution; a cell's [`Workload`] picks that stream and how the
//! structure is loaded, and nothing else differs between a SetBench mix and
//! a YCSB index workload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::prelude::*;
use workload::{KeyDistribution, Operation, OperationMix};

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
    /// index (paper §6.2), so at the index both are a find whose row goes
    /// to a per-thread row sink: the cell's mix is all finds.
    YcsbA,
    /// YCSB Workload E (Figure 18): the same load, then 95% scans of
    /// `1..=max_scan_len` keys / 5% inserts.  Each insert is a fresh record
    /// past the loaded ones (YCSB inserts past `recordcount`): worker `t` of
    /// `threads` inserts `size + t`, `size + t + threads`, and so on.
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

/// A cell's operation stream, built once and shared by its workers: an
/// operation mix over a key distribution, and the load it runs against.
struct Step {
    mix: OperationMix,
    keys: KeyDistribution,
    /// Scan lengths are drawn uniformly from `1..=max_scan_len`.
    max_scan_len: u64,
    load: Load,
    /// `Some(worker count)` for YCSB, `None` for SetBench.  A YCSB insert
    /// takes the worker's next fresh key instead of the drawn one (one
    /// worker's fresh keys lie that far apart, so no two workers insert
    /// the same key), and a YCSB request's rank is scrambled onto the
    /// records present when it is drawn (see [`Step::run`]).
    fresh_stride: Option<u64>,
    /// The row's experiment label until a figure stamps its own.
    label: String,
}

/// How a cell fills the structure before its measured phase.
enum Load {
    /// Uniformly random keys until half the key range is in (SetBench's
    /// steady-state size, paper §6).
    Random,
    /// Every record once, each loader taking a slice of the seeded hashed
    /// order (YCSB's `insertorder=hashed`).
    Hashed,
}

/// One worker's tallies for the checksum validation, plus the scratch its
/// steps reuse.
#[derive(Default)]
struct Worker {
    ops: u64,
    scan_ops: u64,
    inserted_sum: i128,
    deleted_sum: i128,
    /// The "database rows" behind the index: what finds and scans read.
    row_sink: u64,
    scan_buf: Vec<(u64, u64)>,
    /// The key this worker's next fresh insert writes.
    fresh_key: u64,
}

impl Worker {
    /// Worker `thread`'s tallies, with its fresh keys starting just past
    /// the cell's records.
    fn new(cfg: &CellConfig, thread: usize) -> Self {
        Self {
            fresh_key: cfg.size + thread as u64,
            ..Self::default()
        }
    }
}

impl Step {
    /// Maps a figure's workload onto a stream.  A YCSB request draws a
    /// Zipf rank and scrambles it, as YCSB's request distribution does.
    /// Workload A's reads and updates are both index lookups — an update
    /// writes the row, not the index (paper §6.2) — so its index-level mix
    /// is all finds.
    /// Workload E is 95% scans and 5% inserts of fresh records.
    fn new(cfg: &CellConfig) -> Self {
        let ycsb = |mix, max_scan_len, label: &str| Self {
            mix,
            keys: KeyDistribution::zipfian(cfg.size, cfg.zipf),
            max_scan_len,
            load: Load::Hashed,
            fresh_stride: Some(cfg.threads.max(1) as u64),
            label: label.into(),
        };
        match cfg.workload {
            Workload::SetBench { update_percent } => {
                let mix = OperationMix::from_update_percent(update_percent);
                Self {
                    mix,
                    keys: KeyDistribution::zipfian(cfg.size, cfg.zipf),
                    max_scan_len: 1,
                    load: Load::Random,
                    fresh_stride: None,
                    label: mix.label(),
                }
            }
            Workload::YcsbA => ycsb(OperationMix::from_update_percent(0), 1, "ycsb-a"),
            Workload::YcsbE { max_scan_len } => {
                let mix = OperationMix::try_new(5, 0, 0, 95, 0, 0).expect("shares sum to 100");
                ycsb(mix, max_scan_len.max(1), "ycsb-e")
            }
        }
    }

    /// Worker `thread`'s stream.
    fn rng(seed: u64, thread: usize) -> StdRng {
        StdRng::seed_from_u64(seed ^ (0xBEEF + 31 * thread as u64))
    }

    /// How many distinct keys the load phase puts in.
    fn load_target(&self, cfg: &CellConfig) -> u64 {
        match self.load {
            Load::Random => cfg.size / 2,
            Load::Hashed => cfg.size,
        }
    }

    /// Loader `thread`'s keys.
    fn load_keys(
        &self,
        cfg: &CellConfig,
        thread: usize,
        threads: usize,
    ) -> Box<dyn Iterator<Item = u64>> {
        let size = cfg.size;
        match self.load {
            Load::Random => {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5EED + thread as u64));
                Box::new(std::iter::repeat_with(move || rng.gen_range(0..size)))
            }
            Load::Hashed => Box::new(workload::ycsb::load_keys(size, thread, threads, cfg.seed)),
        }
    }

    /// Draws one operation — key, kind, then a scan's length — and runs it
    /// on `session`.
    ///
    /// A YCSB key is the drawn rank scattered ([`workload::scatter`]) onto
    /// the records present: the loaded ones plus one stride of fresh keys
    /// per insert this worker has made, so E's scans also read the records
    /// its inserts wrote, as YCSB's key chooser covers the records inserted
    /// during the run.
    /// Workload A inserts nothing, so its keys stay on the loaded records.
    #[inline]
    fn run(&self, session: &mut dyn MapHandle, rng: &mut StdRng, w: &mut Worker) {
        let key = match self.fresh_stride {
            Some(stride) => {
                let loaded = self.keys.range();
                let present = loaded + (w.fresh_key - loaded) / stride * stride;
                workload::scatter(self.keys.sample(rng), present)
            }
            None => self.keys.sample(rng),
        };
        match self.mix.sample(rng) {
            Operation::Insert => {
                let key = match self.fresh_stride {
                    Some(stride) => {
                        let fresh = w.fresh_key;
                        w.fresh_key += stride;
                        fresh
                    }
                    None => key,
                };
                if session.insert(key, key).is_none() {
                    w.inserted_sum += key as i128;
                }
            }
            Operation::Delete => {
                if session.delete(key).is_some() {
                    w.deleted_sum += key as i128;
                }
            }
            Operation::Find => {
                if let Some(row) = session.get(key) {
                    w.row_sink = w.row_sink.wrapping_add(row);
                }
            }
            Operation::Scan => {
                let len = rng.gen_range(1..=self.max_scan_len);
                session.range(key, key.saturating_add(len - 1), &mut w.scan_buf);
                for &(_, row) in &w.scan_buf {
                    w.row_sink = w.row_sink.wrapping_add(row);
                }
                w.scan_ops += 1;
            }
            other => unreachable!("a figure cell draws no batches, drew {other:?}"),
        }
        w.ops += 1;
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
/// does not hold (the lock ablation's `AbTree<false, TatasLock>`).
/// `cfg.structure` is the row label, the only name such a map has, and the
/// caller builds `map` on a `cfg.smr` collector so the `smr` column is
/// true.
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
                    let mut rng = Step::rng(cfg.seed, t);
                    let mut worker = Worker::new(cfg, t);
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
        experiment: step.label.clone(),
        structure: cfg.structure.clone(),
        threads: cfg.threads,
        key_range: cfg.size,
        update_percent: step.mix.update_percent(),
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
    use std::collections::BTreeSet;

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

    /// Loads `cfg`'s cell on a fresh structure and runs `ops` operations of
    /// its stream, worker 0's, on one session; `after` sees the worker after
    /// each one.  Returns the structure and the worker.
    fn drive(
        cfg: &CellConfig,
        ops: usize,
        mut after: impl FnMut(&Worker),
    ) -> (Box<dyn ConcurrentMap>, Worker) {
        let map = make_structure_smr(&cfg.structure, cfg.smr);
        let step = Step::new(cfg);
        load(&*map, cfg, &step);
        let mut session = map.handle();
        let mut rng = Step::rng(cfg.seed, 0);
        let mut worker = Worker::new(cfg, 0);
        for _ in 0..ops {
            step.run(&mut *session, &mut rng, &mut worker);
            after(&worker);
        }
        drop(session);
        (map, worker)
    }

    /// YCSB-E draws 95% scans and 5% inserts.
    #[test]
    fn a_ycsb_e_cell_is_mostly_scans() {
        let cfg = CellConfig {
            workload: Workload::YcsbE { max_scan_len: 10 },
            size: 2_000,
            zipf: 0.5,
            seed: 0xE5,
            ..Default::default()
        };
        let (_, w) = drive(&cfg, 10_000, |_| {});
        let share = w.scan_ops as f64 / w.ops as f64;
        assert!((0.9..1.0).contains(&share), "scan share {share}");
    }

    /// YCSB-E's inserts write fresh records past the loaded ones, so every
    /// one of them goes in: the index grows by exactly the inserts, and
    /// their keys continue the record range.
    #[test]
    fn ycsb_e_inserts_add_fresh_records() {
        let cfg = CellConfig {
            workload: Workload::YcsbE { max_scan_len: 4 },
            size: 2_000,
            zipf: 0.5,
            seed: 0xE6,
            ..Default::default()
        };
        let (map, w) = drive(&cfg, 4_000, |_| {});
        let inserts = w.fresh_key - cfg.size;
        assert!(w.inserted_sum > 0, "no insert went in");
        let mut rows = Vec::new();
        map.handle().range(0, abtree::EMPTY_KEY - 1, &mut rows);
        assert_eq!(rows.len() as u64, cfg.size + inserts);
        let fresh: i128 = (cfg.size..cfg.size + inserts).map(i128::from).sum();
        assert_eq!(w.inserted_sum, fresh);
        assert_eq!(
            map.key_sum() as i128,
            (0..cfg.size + inserts).map(i128::from).sum()
        );
    }

    /// YCSB-E's requests cover the records its inserts wrote: some scans
    /// start past the loaded records and return a fresh one.
    #[test]
    fn ycsb_e_scans_read_fresh_records() {
        let cfg = CellConfig {
            workload: Workload::YcsbE { max_scan_len: 10 },
            size: 2_000,
            zipf: 0.5,
            seed: 0xE7,
            ..Default::default()
        };
        let (mut scans, mut fresh_scans) = (0, 0);
        drive(&cfg, 5_000, |w| {
            if w.scan_ops == scans {
                return;
            }
            scans = w.scan_ops;
            // Every loaded record is present, so a window whose first key
            // is fresh started past the loaded ones.
            if w.scan_buf.first().is_some_and(|&(k, _)| k >= cfg.size) {
                fresh_scans += 1;
            }
        });
        assert!(fresh_scans > 0, "no scan of {scans} read a fresh record");
    }

    /// Every YCSB-E scan covers a window of `1..=max_scan_len` keys, and
    /// every length in that range is drawn.  Every record is loaded and one
    /// worker's fresh keys follow them with no gap, so a window holds one
    /// key per slot it spans; only a window that reaches the last key
    /// present can be cut short.
    #[test]
    fn every_ycsb_e_scan_window_spans_one_to_max_scan_len_keys() {
        let max = 8;
        let cfg = CellConfig {
            workload: Workload::YcsbE { max_scan_len: max },
            size: 2_000,
            zipf: 0.5,
            seed: 0x5CA9,
            ..Default::default()
        };
        let mut lens = BTreeSet::new();
        let mut scans = 0;
        drive(&cfg, 5_000, |w| {
            if w.scan_ops == scans {
                return;
            }
            scans = w.scan_ops;
            let keys: Vec<u64> = w.scan_buf.iter().map(|&(k, _)| k).collect();
            assert!((1..=max as usize).contains(&keys.len()), "window {keys:?}");
            assert!(keys.windows(2).all(|p| p[1] == p[0] + 1), "window {keys:?}");
            if keys.last() != Some(&(w.fresh_key - 1)) {
                lens.insert(keys.len());
            }
        });
        assert!(lens.into_iter().eq(1..=max as usize));
    }
}
