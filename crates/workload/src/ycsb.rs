//! The YCSB load order (paper §6.2, Figures 16 and 18).
//!
//! The Yahoo! Cloud Serving Benchmark loads its records before the run, and
//! its default `insertorder=hashed` inserts them in a hashed, not a key,
//! order.  The figures' YCSB cells do the same; their requests are an
//! ordinary [`OperationMix`](crate::OperationMix) over a scrambled Zipfian
//! [`KeyDistribution`](crate::KeyDistribution), as YCSB's core workloads
//! are operation proportions over a request distribution.

/// Loader `thread`'s share of the load phase when `threads` loaders insert
/// `records` records together: one contiguous slice of a seeded permutation
/// of `0..records`, YCSB's `insertorder=hashed`.  The slices partition the
/// records, and none of them is in key order: loading ascending keys would
/// turn an unbalanced tree into a list.
pub fn load_keys(
    records: u64,
    thread: usize,
    threads: usize,
    seed: u64,
) -> impl Iterator<Item = u64> {
    let chunk = records.div_ceil(threads.max(1) as u64);
    let start = (thread as u64 * chunk).min(records);
    (start..(start + chunk).min(records)).map(move |i| hashed_index(i, records, seed))
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

    #[test]
    fn load_keys_cover_range() {
        for records in [1, 2, 3, 100, 1_024, 1_025] {
            let mut keys: Vec<u64> = load_keys(records, 0, 1, 7).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..records).collect::<Vec<_>>(), "{records} records");
        }
    }

    /// YCSB's `insertorder=hashed`: every loader's slice is out of key
    /// order, the slices are disjoint and together insert exactly
    /// `0..records`, and the order follows the seed.
    #[test]
    fn load_order_is_hashed_and_partitions_the_records() {
        for threads in [1, 2, 3, 8] {
            let mut all = Vec::new();
            for t in 0..threads {
                let keys: Vec<u64> = load_keys(1_000, t, threads, 0xFEED).collect();
                assert!(
                    !keys.windows(2).all(|p| p[0] < p[1]),
                    "loader {t} of {threads} inserts in ascending order"
                );
                all.extend(keys);
            }
            all.sort_unstable();
            assert_eq!(all, (0..1_000).collect::<Vec<_>>(), "{threads} loaders");
        }
        let first = |seed| load_keys(1_000, 0, 1, seed).take(10).collect::<Vec<_>>();
        assert_ne!(first(1), first(2));
    }
}
