//! YCSB-style workloads (paper §6.2, Figures 16 and 18).
//!
//! The Yahoo! Cloud Serving Benchmark drives a key-value store with a mix of
//! reads, updates, inserts and scans over a keyspace whose popularity follows
//! a (scrambled) Zipfian distribution.  The paper runs **Workload A** (50%
//! reads / 50% updates, request Zipf factor 0.5) against each data structure
//! used as the database *index*, and notes that "the writes in the YCSB
//! workload are to the database itself, not the index.  That is, a YCSB write
//! simply reads the row pointer from the index, then locks the row, updates
//! it, and unlocks it (without modifying the index)."
//!
//! Accordingly [`YcsbOp::Update`] is an index *read* followed by a simulated
//! row write; only [`YcsbOp::Insert`] (Workload E's 5%) modifies the index.
//!
//! **Workload E** (95% scans / 5% inserts) is the standard scan benchmark:
//! each scan starts at a key drawn from the request distribution and covers
//! a request length drawn uniformly from `1..=max_scan_len` (the YCSB
//! default is uniform 1–100).  The harness turns each scan request into a
//! `MapHandle::range` call over that key window.
//!
//! Only the two workloads a figure runs are here; the other core letters
//! (B, C, D) are not reproduced.

use rand::Rng;

use crate::zipf::KeyDistribution;

/// The YCSB default upper bound for uniform scan lengths (Workload E).
pub const DEFAULT_MAX_SCAN_LEN: u64 = 100;

/// The YCSB core workload letters reproduced here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkloadKind {
    /// 50% reads, 50% updates (update = row write through the index).
    A,
    /// 95% range scans, 5% inserts (the scan workload; inserts grow the
    /// index).
    E,
}

/// One YCSB request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbOp {
    /// Read the row behind `key` (index lookup).
    Read(u64),
    /// Update the row behind `key` (index lookup + row write; the index is
    /// not modified).
    Update(u64),
    /// Insert a new row with `key` (modifies the index).
    Insert(u64),
    /// Scan the rows behind the key window `[key, key + len)` (ordered index
    /// traversal; the index is not modified).
    Scan(u64, u64),
}

impl YcsbOp {
    /// The key this request touches (the start key for scans).
    pub fn key(&self) -> u64 {
        match *self {
            YcsbOp::Read(k) | YcsbOp::Update(k) | YcsbOp::Insert(k) | YcsbOp::Scan(k, _) => k,
        }
    }
}

/// A YCSB workload generator.
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    kind: YcsbWorkloadKind,
    request_dist: KeyDistribution,
    key_range: u64,
    max_scan_len: u64,
}

impl YcsbWorkload {
    /// Creates the paper's Figure 16 configuration: Workload A with the given
    /// record count and request Zipf factor (0.5 in the paper; pass 0.0 for a
    /// uniform request distribution).
    pub fn workload_a(records: u64, zipf_factor: f64) -> Self {
        Self::new(YcsbWorkloadKind::A, records, zipf_factor)
    }

    /// Creates the scan workload (E): 95% scans / 5% inserts, scan lengths
    /// uniform in `1..=`[`DEFAULT_MAX_SCAN_LEN`].
    pub fn workload_e(records: u64, zipf_factor: f64) -> Self {
        Self::new(YcsbWorkloadKind::E, records, zipf_factor)
    }

    /// Creates any of the supported workloads.
    pub fn new(kind: YcsbWorkloadKind, records: u64, zipf_factor: f64) -> Self {
        let request_dist = if zipf_factor == 0.0 {
            KeyDistribution::uniform(records)
        } else {
            // YCSB scrambles the Zipfian ranks across the keyspace.
            KeyDistribution::zipfian_with(records, zipf_factor, true)
        };
        Self {
            kind,
            request_dist,
            key_range: records,
            max_scan_len: DEFAULT_MAX_SCAN_LEN,
        }
    }

    /// Sets the upper bound of the uniform `1..=max` scan-length
    /// distribution (Workload E only; ignored by the other workloads).
    pub fn with_max_scan_len(mut self, max: u64) -> Self {
        assert!(max >= 1, "scan lengths are drawn from 1..=max");
        self.max_scan_len = max;
        self
    }

    /// The configured scan-length upper bound.
    pub fn max_scan_len(&self) -> u64 {
        self.max_scan_len
    }

    /// Number of records the index should be loaded with before the run.
    pub fn record_count(&self) -> u64 {
        self.key_range
    }

    /// The workload letter.
    pub fn kind(&self) -> YcsbWorkloadKind {
        self.kind
    }

    /// Human-readable label (e.g. `"ycsb-a"`).
    pub fn label(&self) -> &'static str {
        match self.kind {
            YcsbWorkloadKind::A => "ycsb-a",
            YcsbWorkloadKind::E => "ycsb-e",
        }
    }

    /// Loader `thread`'s share of the load phase when `threads` loaders
    /// insert the records together: one contiguous slice of a seeded
    /// permutation of `0..records`, YCSB's `insertorder=hashed`.  The slices
    /// partition the records, and none of them is in key order: loading
    /// ascending keys would turn an unbalanced tree into a list.
    pub fn load_keys(&self, thread: usize, threads: usize, seed: u64) -> impl Iterator<Item = u64> {
        let records = self.key_range;
        let chunk = records.div_ceil(threads.max(1) as u64);
        let start = (thread as u64 * chunk).min(records);
        (start..(start + chunk).min(records)).map(move |i| hashed_index(i, records, seed))
    }

    /// Samples the next request.
    pub fn next_op<R: Rng + ?Sized>(&self, rng: &mut R) -> YcsbOp {
        let key = self.request_dist.sample(rng);
        let p = rng.gen_range(0..100u32);
        match self.kind {
            YcsbWorkloadKind::A => {
                if p < 50 {
                    YcsbOp::Read(key)
                } else {
                    YcsbOp::Update(key)
                }
            }
            YcsbWorkloadKind::E => {
                if p < 95 {
                    let len = rng.gen_range(1..=self.max_scan_len);
                    YcsbOp::Scan(key, len)
                } else {
                    YcsbOp::Insert(key)
                }
            }
        }
    }
}

/// The `i`-th record of a seeded permutation of `0..records`: a bijective
/// mix of the smallest power-of-two domain that holds `records`, walked
/// until it lands inside the range (the domain is under twice the range, so
/// a walk takes fewer than two steps on average).
fn hashed_index(i: u64, records: u64, seed: u64) -> u64 {
    let bits = records.next_power_of_two().trailing_zeros();
    let mask = (1u64 << bits) - 1;
    let half = (bits / 2).max(1);
    let mut x = i;
    loop {
        // Each step is a bijection of `0..=mask`: xor with a constant,
        // xor with a right shift of itself, multiplication by an odd number.
        x = (x ^ seed) & mask;
        x ^= x >> half;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
        x ^= x >> half;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & mask;
        x ^= x >> half;
        if x < records {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn workload_a_is_half_reads_half_updates() {
        let w = YcsbWorkload::workload_a(100_000, 0.5);
        let mut rng = StdRng::seed_from_u64(0);
        let (mut reads, mut updates, mut inserts) = (0u32, 0u32, 0u32);
        for _ in 0..50_000 {
            match w.next_op(&mut rng) {
                YcsbOp::Read(_) => reads += 1,
                YcsbOp::Update(_) => updates += 1,
                YcsbOp::Insert(_) => inserts += 1,
                YcsbOp::Scan(..) => panic!("workload A never scans"),
            }
        }
        assert_eq!(inserts, 0);
        assert!((23_000..27_000).contains(&reads));
        assert!((23_000..27_000).contains(&updates));
        assert_eq!(w.label(), "ycsb-a");
    }

    #[test]
    fn keys_stay_in_range() {
        let w = YcsbWorkload::workload_a(5_000, 0.99);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10_000 {
            assert!(w.next_op(&mut rng).key() < 5_000);
        }
    }

    #[test]
    fn load_keys_cover_range() {
        for records in [1, 2, 3, 100, 1_024, 1_025] {
            let w = YcsbWorkload::workload_a(records, 0.5);
            let mut keys: Vec<u64> = w.load_keys(0, 1, 7).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..records).collect::<Vec<_>>(), "{records} records");
        }
    }

    /// YCSB's `insertorder=hashed`: every loader's slice is out of key
    /// order, the slices are disjoint and together insert exactly
    /// `0..records`, and the order follows the seed.
    #[test]
    fn load_order_is_hashed_and_partitions_the_records() {
        let w = YcsbWorkload::workload_e(1_000, 0.5);
        for threads in [1, 2, 3, 8] {
            let mut all = Vec::new();
            for t in 0..threads {
                let keys: Vec<u64> = w.load_keys(t, threads, 0xFEED).collect();
                assert!(
                    !keys.windows(2).all(|p| p[0] < p[1]),
                    "loader {t} of {threads} inserts in ascending order"
                );
                all.extend(keys);
            }
            all.sort_unstable();
            assert_eq!(all, (0..1_000).collect::<Vec<_>>(), "{threads} loaders");
        }
        let first = |seed| w.load_keys(0, 1, seed).take(10).collect::<Vec<_>>();
        assert_ne!(first(1), first(2));
    }

    #[test]
    fn workload_e_is_scan_heavy_with_default_lengths() {
        let w = YcsbWorkload::workload_e(10_000, 0.5);
        assert_eq!(w.label(), "ycsb-e");
        assert_eq!(w.max_scan_len(), DEFAULT_MAX_SCAN_LEN);
        let mut rng = StdRng::seed_from_u64(2);
        let (mut scans, mut inserts) = (0u32, 0u32);
        let mut seen_lens = std::collections::HashSet::new();
        for _ in 0..50_000 {
            match w.next_op(&mut rng) {
                YcsbOp::Scan(start, len) => {
                    assert!(start < 10_000);
                    assert!((1..=DEFAULT_MAX_SCAN_LEN).contains(&len), "len = {len}");
                    seen_lens.insert(len);
                    scans += 1;
                }
                YcsbOp::Insert(_) => inserts += 1,
                other => panic!("workload E only scans and inserts, got {other:?}"),
            }
        }
        assert!((46_000..49_000).contains(&scans), "scans = {scans}");
        assert!((1_500..3_500).contains(&inserts), "inserts = {inserts}");
        // Uniform 1..=100: essentially every length shows up in 47k draws.
        assert!(seen_lens.len() > 95, "lengths drawn: {}", seen_lens.len());
    }

    #[test]
    fn workload_e_scan_length_is_configurable() {
        let w = YcsbWorkload::workload_e(1_000, 0.0).with_max_scan_len(7);
        assert_eq!(w.max_scan_len(), 7);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            if let YcsbOp::Scan(_, len) = w.next_op(&mut rng) {
                assert!((1..=7).contains(&len));
            }
        }
    }
}
