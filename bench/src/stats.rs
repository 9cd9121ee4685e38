//! Exact statistics: raw `u64` latency samples and the median/quartile
//! summaries every metric is reported with.
//!
//! `kvserve::stats::Histogram` buckets by powers of two (a p50 reads 32767
//! or 65535), which cannot resolve a 10% change; here every sample is kept.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];
/// A percentile is reported only with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Raw latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        self.sort();
        let n = self.ns.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.ns.get(rank - 1).copied()
    }

    /// The median, resolved below the clock's tick: the mean of the samples
    /// between the 45th and 55th percentile.  A plain p50 of whole
    /// nanoseconds can read the same on every run of a 70 ns operation.
    pub fn p50(&mut self) -> Option<f64> {
        self.sort();
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let (lo, hi) = (n * 45 / 100, (n * 55 / 100).max(n * 45 / 100 + 1));
        let mid = &self.ns[lo..hi.min(n)];
        Some(mid.iter().map(|&v| v as f64).sum::<f64>() / mid.len() as f64)
    }

    pub fn max(&mut self) -> Option<u64> {
        self.sort();
        self.ns.last().copied()
    }

    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, and its value: `(percentile, ns)`.
    pub fn tail(&mut self) -> Option<(f64, u64)> {
        let p = tail_percentile(self.ns.len())?;
        Some((p, self.quantile(p)?))
    }
}

/// The highest ladder percentile that `n` samples support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|p| {
        let rank = (p * n as f64).ceil() as usize;
        n >= rank + MIN_BEYOND
    })
}

/// Median and quartiles of a small set of trial values, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so the
/// spreads printed here are the ones the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; like Python, positions
        // outside the data extrapolate from the nearest pair.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        // Descending, so sorting is exercised.
        (1..=n).rev().for_each(|v| s.record(v));
        s
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "p50 of 19 has 9 beyond");
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5), "p90 of 99 has 9 beyond");
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn tail_value_is_the_nearest_rank() {
        let mut s = samples(1_000);
        assert_eq!(s.tail(), Some((0.99, 990)));
        assert_eq!(s.quantile(0.5), Some(500));
        assert_eq!(s.max(), Some(1_000));
        assert_eq!(samples(5).tail(), None);
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn p50_resolves_between_ticks() {
        // 60% of ops read 70 ns, 40% read 71 ns: nearest rank says 70; the
        // mid-mean moves as the share moves.
        let mut s = Samples::default();
        (0..600).for_each(|_| s.record(70));
        (0..400).for_each(|_| s.record(71));
        assert_eq!(s.quantile(0.5), Some(70));
        assert_eq!(s.p50(), Some(70.0));
        let mut t = Samples::default();
        (0..500).for_each(|_| t.record(70));
        (0..500).for_each(|_| t.record(71));
        assert_eq!(t.p50(), Some(70.5));
        assert_eq!(samples(1).p50(), Some(1.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]).median, 7.0);
    }
}
