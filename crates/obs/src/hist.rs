//! The fixed-bucket power-of-two histogram.
//!
//! Everything here is lock-free (plain relaxed atomics) and allocation-free
//! on the record path, so services can update histograms inline without
//! perturbing the workload they measure.  The build environment is offline,
//! so this is a purpose-built fixed-bucket power-of-two histogram (the
//! shape HdrHistogram-style recorders degrade to at low resolution) rather
//! than an external crate: 64 buckets, bucket *i* holding values whose
//! highest set bit is *i*, i.e. `[2^i, 2^(i+1))`.  Quantiles are resolved
//! to the bucket upper bound, giving ~2x-resolution p50/p99 — ample for
//! distinguishing "100ns point get" from "10µs cross-shard scan".

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets (one per possible highest set bit of a
/// `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram over `u64` samples.
///
/// `record` is wait-free (one relaxed fetch-add); quantile queries walk the
/// 64 buckets.  Used for latencies (nanoseconds) and batch sizes.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index holding `value`: the position of its highest set bit
    /// (0 for values 0 and 1).
    #[inline]
    fn bucket_of(value: u64) -> usize {
        63 - (value | 1).leading_zeros() as usize
    }

    /// The *exclusive-ish* upper bound of bucket `i` (the largest value the
    /// bucket holds): `2^(i+1) - 1`, saturating to `u64::MAX` for the top
    /// bucket.
    #[inline]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one sample.  A no-op when telemetry is compiled out.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::ENABLED {
            return;
        }
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket counts, for exposition and
    /// snapshot frames.  Racy-but-monotone under concurrent `record`s, same
    /// contract as [`count`](Self::count).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or `None` for an empty histogram.  Resolution is
    /// the bucket width, i.e. within 2x of the true quantile.
    ///
    /// An empty histogram has no quantiles: returning any in-band number
    /// (this function used to return 0, a value inside bucket 0) lets "no
    /// traffic" masquerade as "sub-nanosecond latency" in reports.  Samples
    /// that land in the top bucket resolve to `Some(u64::MAX)`, a *saturated*
    /// reading meaning "at least 2^63" — distinguishable from the empty case.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // The rank of the requested quantile, 1-based, clamped into range
        // (also forgiving of q outside [0, 1] and NaN, which clamp to the
        // extremes).
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1 << (i + 1)) - 1
                });
            }
        }
        // Unreachable when counts are stable; concurrent `record`s between
        // the `count` above and the walk can only increase `seen`.
        Some(u64::MAX)
    }

    /// Median, or `None` when no samples were recorded (see
    /// [`quantile`](Self::quantile) for resolution and saturation).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile, or `None` when no samples were recorded (see
    /// [`quantile`](Self::quantile) for resolution and saturation).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Zeroes every bucket.  Quiescent only: concurrent `record`s may be
    /// lost or survive, so call it between phases (e.g. after prefill),
    /// never under traffic.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets, detached from the
/// atomics — what snapshot frames and the exposition writer consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket *i* holds `[2^i, 2^(i+1))`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total number of samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

// The record path is compiled out under the `compile-out` feature, so
// these tests only hold in the default (telemetry-on) build.
#[cfg(all(test, not(feature = "compile-out")))]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1.
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 2);
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 2);
        assert_eq!(h.buckets[63].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 6, upper bound 127
        }
        h.record(1 << 20); // one outlier
        assert_eq!(h.p50(), Some(127));
        assert_eq!(h.p99(), Some(127));
        assert_eq!(h.quantile(1.0), Some((1 << 21) - 1));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q = {q}");
        }
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        // A single bucket-0 sample is `Some` — the empty sentinel must not
        // be confusable with a real (tiny) quantile.
        h.record(0);
        assert_eq!(h.p50(), Some(1));
        assert_ne!(h.p50(), None);
        // ... and reset returns the histogram to the no-quantiles state.
        h.reset();
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn quantile_of_max_value_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.p50(), Some(u64::MAX), "saturated, not None");
        // Out-of-range and NaN quantiles clamp instead of panicking.
        assert_eq!(h.quantile(-3.0), Some(u64::MAX));
        assert_eq!(h.quantile(42.0), Some(u64::MAX));
        assert_eq!(h.quantile(f64::NAN), Some(u64::MAX));
    }

    #[test]
    fn snapshot_detaches_from_the_atomics() {
        let h = Histogram::new();
        h.record(100);
        h.record(100);
        let snap = h.snapshot();
        h.record(100);
        assert_eq!(snap.count(), 2, "a snapshot is a copy, not a view");
        assert_eq!(h.count(), 3);
        assert_eq!(snap.buckets[6], 2);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(Histogram::bucket_upper_bound(0), 1);
        assert_eq!(Histogram::bucket_upper_bound(6), 127);
        assert_eq!(Histogram::bucket_upper_bound(62), u64::MAX / 2);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
    }
}
