//! The benchmark harness: prefill, timed measured phase, validation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;
use workload::{
    KeyDistribution, Operation, OperationMix, YcsbOp, YcsbWorkload, YcsbWorkloadKind,
    DEFAULT_MAX_SCAN_LEN,
};

use abebr::SmrPolicy;
use abtree::ConcurrentMap;

use crate::registry::make_structure_smr;
use crate::report::BenchResult;

/// Configuration of one microbenchmark run (one cell of Figures 12-15/17/18
/// and Table 1).
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// Registry name of the data structure to run.
    pub structure: String,
    /// Number of distinct keys.
    pub key_range: u64,
    /// Percentage of operations that are updates (split evenly between
    /// inserts and deletes).
    pub update_percent: u32,
    /// Percentage of operations that are range scans (taken out of the find
    /// share; 0 reproduces the paper's point-operation mixes).
    pub scan_percent: u32,
    /// Upper bound of the uniform `1..=max` scan-length distribution.
    pub max_scan_len: u64,
    /// Zipf parameter (0 = uniform, the paper also uses 1.0; YCSB uses 0.5).
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

impl Default for MicrobenchConfig {
    fn default() -> Self {
        Self {
            structure: "elim-abtree".into(),
            key_range: 1_000,
            update_percent: 50,
            scan_percent: 0,
            max_scan_len: DEFAULT_MAX_SCAN_LEN,
            zipf: 0.0,
            threads: 1,
            duration: Duration::from_millis(50),
            seed: 1,
            smr: SmrPolicy::default(),
        }
    }
}

/// Configuration of one YCSB run (Figure 16 for Workload A, Figure 18 for
/// the scan Workload E).
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Registry name of the data structure used as the index.
    pub structure: String,
    /// Which YCSB core workload to run.
    pub kind: YcsbWorkloadKind,
    /// Number of records loaded before the measured phase.
    pub records: u64,
    /// Request-distribution Zipf factor (0.5 for Workload A in the paper).
    pub zipf: f64,
    /// Upper bound of the uniform scan-length distribution (Workload E).
    pub max_scan_len: u64,
    /// Number of worker threads.
    pub threads: usize,
    /// Length of the measured phase.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
    /// SMR backend for the structure's reclamation collector.
    pub smr: SmrPolicy,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        Self {
            structure: "elim-abtree".into(),
            kind: YcsbWorkloadKind::A,
            records: 10_000,
            zipf: 0.5,
            max_scan_len: DEFAULT_MAX_SCAN_LEN,
            threads: 1,
            duration: Duration::from_millis(50),
            seed: 1,
            smr: SmrPolicy::default(),
        }
    }
}

/// The nominal update percentage of a YCSB workload (for the result row).
fn ycsb_update_percent(kind: YcsbWorkloadKind) -> u32 {
    match kind {
        YcsbWorkloadKind::A => 50,
        YcsbWorkloadKind::B | YcsbWorkloadKind::D | YcsbWorkloadKind::E => 5,
        YcsbWorkloadKind::C => 0,
    }
}

/// Per-thread tally used for the paper's checksum validation.
#[derive(Default)]
struct ThreadTally {
    ops: u64,
    scan_ops: u64,
    inserted_sum: i128,
    deleted_sum: i128,
}

/// Keys per batched multi-get/multi-put when a mix draws
/// [`Operation::MGet`]/[`Operation::MPut`] (a batch counts as one
/// operation, like a scan).
pub const BATCH_OP_SIZE: usize = 8;

/// Reusable buffers for batched operations drawn from an operation mix —
/// the "draw a [`BATCH_OP_SIZE`]-key batch and run it through the session's
/// batch op" policy.
#[derive(Default)]
struct BatchScratch {
    keys: Vec<u64>,
    pairs: Vec<(u64, u64)>,
    results: Vec<Option<u64>>,
}

impl BatchScratch {
    /// Draws a [`BATCH_OP_SIZE`]-key batch (starting with `key`) and runs it
    /// through `session.get_batch`.
    fn mget<H: abtree::MapHandle + ?Sized>(
        &mut self,
        session: &mut H,
        dist: &KeyDistribution,
        key: u64,
        rng: &mut StdRng,
    ) {
        self.keys.clear();
        self.keys.push(key);
        for _ in 1..BATCH_OP_SIZE {
            self.keys.push(dist.sample(rng));
        }
        session.get_batch(&self.keys, &mut self.results);
        std::hint::black_box(self.results.len());
    }

    /// Draws a [`BATCH_OP_SIZE`]-pair batch (starting with `key`) and runs
    /// it through `session.insert_batch`, returning the key-sum of the pairs
    /// actually inserted (for the checksum validation).
    fn mput<H: abtree::MapHandle + ?Sized>(
        &mut self,
        session: &mut H,
        dist: &KeyDistribution,
        key: u64,
        rng: &mut StdRng,
    ) -> i128 {
        self.pairs.clear();
        self.pairs.push((key, key));
        for _ in 1..BATCH_OP_SIZE {
            let k = dist.sample(rng);
            self.pairs.push((k, k));
        }
        session.insert_batch(&self.pairs, &mut self.results);
        self.pairs
            .iter()
            .zip(&self.results)
            .filter(|(_, prev)| prev.is_none())
            .map(|(&(k, _), _)| k as i128)
            .sum()
    }
}

/// Parallel prefill to the steady-state size, tracking the key checksum of
/// everything successfully inserted.
fn prefill_parallel(
    map: &Arc<Box<dyn ConcurrentMap>>,
    key_range: u64,
    target: u64,
    threads: usize,
    seed: u64,
) -> i128 {
    let inserted = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0)); // wrapping sum of keys (mod 2^64)
    let mut sum_i128 = 0i128;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads.max(1) {
            let map = Arc::clone(map);
            let inserted = Arc::clone(&inserted);
            let checksum = Arc::clone(&checksum);
            handles.push(scope.spawn(move || {
                let mut session = map.handle();
                let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED + t as u64));
                let mut local_sum = 0i128;
                while inserted.load(Ordering::Relaxed) < target {
                    let key = rng.gen_range(0..key_range);
                    if session.insert(key, key).is_none() {
                        inserted.fetch_add(1, Ordering::Relaxed);
                        checksum.fetch_add(key, Ordering::Relaxed);
                        local_sum += key as i128;
                    }
                }
                local_sum
            }));
        }
        for h in handles {
            sum_i128 += h.join().expect("prefill thread panicked");
        }
    });
    sum_i128
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

/// Runs one microbenchmark cell on the registry structure `cfg.structure`,
/// built with its collector on `cfg.smr`.
pub fn run_microbench(cfg: &MicrobenchConfig) -> BenchResult {
    run_microbench_on(make_structure_smr(&cfg.structure, cfg.smr), cfg)
}

/// Runs one microbenchmark cell — prefill, measured phase, validation — on
/// a map the caller built.  This is the one measured op loop; it exists
/// apart from [`run_microbench`] for tree variants the registry cannot name
/// (the lock ablation's `AbTree<false, TatasLock>` reports the same `name()`
/// as the MCS tree).  `cfg.structure` is only the row label here, and the
/// caller builds `map` on a `cfg.smr` collector so the `smr` column is true.
pub fn run_microbench_on(map: Box<dyn ConcurrentMap>, cfg: &MicrobenchConfig) -> BenchResult {
    let map = Arc::new(map);
    let mix = OperationMix::from_update_and_scan_percent(cfg.update_percent, cfg.scan_percent);
    let dist = KeyDistribution::from_zipf_parameter(cfg.key_range, cfg.zipf);

    // Prefill to half the key range (§6 "Methodology").
    let target = cfg.key_range / 2;
    let prefill_sum = prefill_parallel(&map, cfg.key_range, target, cfg.threads, cfg.seed);

    // Measured phase.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut tallies: Vec<ThreadTally> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            let dist = dist.clone();
            let seed = cfg.seed;
            let max_scan_len = cfg.max_scan_len.max(1);
            handles.push(scope.spawn(move || {
                // One session per worker for the whole measured phase: this
                // is the handle API's intended usage (and what makes per-op
                // pinning a local epoch bump).
                let mut session = map.handle();
                let mut rng = StdRng::seed_from_u64(seed ^ (0xBEEF + 31 * t as u64));
                let mut tally = ThreadTally::default();
                let mut scan_buf: Vec<(u64, u64)> = Vec::new();
                let mut batch = BatchScratch::default();
                while !stop.load(Ordering::Relaxed) {
                    // Batch a few operations per stop-flag check.
                    for _ in 0..64 {
                        let key = dist.sample(&mut rng);
                        match mix.sample(&mut rng) {
                            Operation::Insert => {
                                if session.insert(key, key).is_none() {
                                    tally.inserted_sum += key as i128;
                                }
                            }
                            Operation::Delete => {
                                if session.delete(key).is_some() {
                                    tally.deleted_sum += key as i128;
                                }
                            }
                            Operation::Find => {
                                std::hint::black_box(session.get(key));
                            }
                            Operation::Scan => {
                                let len = rng.gen_range(1..=max_scan_len);
                                session.range(key, key.saturating_add(len - 1), &mut scan_buf);
                                std::hint::black_box(scan_buf.len());
                                tally.scan_ops += 1;
                            }
                            Operation::MGet => {
                                batch.mget(&mut session, &dist, key, &mut rng);
                            }
                            Operation::MPut => {
                                tally.inserted_sum +=
                                    batch.mput(&mut session, &dist, key, &mut rng);
                            }
                        }
                        tally.ops += 1;
                    }
                }
                tally
            }));
        }
        // Sleep for the measured duration, then stop the workers.
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            tallies.push(h.join().expect("worker thread panicked"));
        }
    });
    let elapsed = started.elapsed();

    let total_ops: u64 = tallies.iter().map(|t| t.ops).sum();
    let scan_ops: u64 = tallies.iter().map(|t| t.scan_ops).sum();
    let net: i128 = prefill_sum
        + tallies.iter().map(|t| t.inserted_sum).sum::<i128>()
        - tallies.iter().map(|t| t.deleted_sum).sum::<i128>();
    let validated = map.key_sum() as i128 == net;
    let (smr, unreclaimed, reclaim_lag) = reclamation_columns(map.as_ref().as_ref(), cfg.smr);

    BenchResult {
        experiment: String::new(),
        structure: cfg.structure.clone(),
        threads: cfg.threads,
        key_range: cfg.key_range,
        update_percent: cfg.update_percent,
        zipf: cfg.zipf,
        total_ops,
        scan_ops,
        duration_secs: elapsed.as_secs_f64(),
        throughput_mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        validated,
        smr,
        unreclaimed,
        reclaim_lag,
    }
}

/// Runs one YCSB cell (Figure 16 for Workload A, Figure 18 for Workload E):
/// load phase then a timed request phase.  Writes in Workload A touch the
/// row, not the index (paper §6.2), so both reads and updates are index
/// lookups; only inserts (Workloads D/E) modify the index.  Workload E scans
/// drive `ConcurrentMap::range` over the requested key window.
pub fn run_ycsb(cfg: &YcsbConfig) -> BenchResult {
    let map: Arc<Box<dyn ConcurrentMap>> = Arc::new(make_structure_smr(&cfg.structure, cfg.smr));
    let workload = YcsbWorkload::new(cfg.kind, cfg.records, cfg.zipf)
        .with_max_scan_len(cfg.max_scan_len.max(1));

    // Load phase: insert every record, split across threads.
    let mut load_sum = 0i128;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let chunk = cfg.records / cfg.threads.max(1) as u64 + 1;
        for t in 0..cfg.threads.max(1) as u64 {
            let map = Arc::clone(&map);
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(cfg.records);
            handles.push(scope.spawn(move || {
                let mut session = map.handle();
                let mut sum = 0i128;
                for key in lo..hi {
                    if session.insert(key, key).is_none() {
                        sum += key as i128;
                    }
                }
                sum
            }));
        }
        for h in handles {
            load_sum += h.join().expect("load thread panicked");
        }
    });

    // Request phase.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut tallies: Vec<ThreadTally> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            let workload = workload.clone();
            let seed = cfg.seed;
            handles.push(scope.spawn(move || {
                let mut session = map.handle();
                let mut rng = StdRng::seed_from_u64(seed ^ (0xFACE + 17 * t as u64));
                let mut tally = ThreadTally::default();
                // The "database rows" behind the index: a per-thread sink that
                // models the row write of a YCSB update.
                let mut row_sink: u64 = 0;
                let mut scan_buf: Vec<(u64, u64)> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        match workload.next_op(&mut rng) {
                            YcsbOp::Read(k) => {
                                std::hint::black_box(session.get(k));
                            }
                            YcsbOp::Update(k) => {
                                if let Some(row) = session.get(k) {
                                    row_sink = row_sink.wrapping_add(row);
                                }
                            }
                            YcsbOp::Insert(k) => {
                                if session.insert(k, k).is_none() {
                                    tally.inserted_sum += k as i128;
                                }
                            }
                            YcsbOp::Scan(k, len) => {
                                session.range(k, k.saturating_add(len - 1), &mut scan_buf);
                                for &(_, row) in &scan_buf {
                                    row_sink = row_sink.wrapping_add(row);
                                }
                                tally.scan_ops += 1;
                            }
                        }
                        tally.ops += 1;
                    }
                }
                std::hint::black_box(row_sink);
                tally
            }));
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            tallies.push(h.join().expect("worker thread panicked"));
        }
    });
    let elapsed = started.elapsed();

    let total_ops: u64 = tallies.iter().map(|t| t.ops).sum();
    let scan_ops: u64 = tallies.iter().map(|t| t.scan_ops).sum();
    let net: i128 = load_sum + tallies.iter().map(|t| t.inserted_sum).sum::<i128>();
    let validated = map.key_sum() as i128 == net;
    let (smr, unreclaimed, reclaim_lag) = reclamation_columns(map.as_ref().as_ref(), cfg.smr);

    BenchResult {
        experiment: workload.label().into(),
        structure: cfg.structure.clone(),
        threads: cfg.threads,
        key_range: cfg.records,
        update_percent: ycsb_update_percent(cfg.kind),
        zipf: cfg.zipf,
        total_ops,
        scan_ops,
        duration_secs: elapsed.as_secs_f64(),
        throughput_mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        validated,
        smr,
        unreclaimed,
        reclaim_lag,
    }
}
