//! Key distributions: uniform and Zipfian.
//!
//! The Zipfian sampler implements Hörmann & Derflinger's rejection-inversion
//! method ("Rejection-inversion to generate variates from monotone discrete
//! distributions", 1996), the same algorithm used by `rand_distr` and the
//! YCSB-style generators: it draws a rank `k ∈ {1..n}` with
//! `P(k) ∝ 1/k^s` in O(1) expected time and without precomputing the
//! generalized harmonic number, which matters for the paper's largest key
//! ranges (10M and 100M keys).

use rand::Rng;

/// A distribution over the key range `0..range`.
#[derive(Debug, Clone)]
pub enum KeyDistribution {
    /// Every key equally likely (the paper's "Zipf parameter = 0" columns).
    Uniform {
        /// Number of distinct keys.
        range: u64,
    },
    /// Zipfian with the given exponent (the paper uses 1.0; YCSB-A uses 0.5).
    Zipfian {
        /// Number of distinct keys.
        range: u64,
        /// Skew exponent `s`.
        exponent: f64,
        /// Whether ranks are scattered over the key space with a bijective
        /// hash (YCSB-style "scrambled zipfian").  When `false` (the paper's
        /// SetBench setting) rank `k` maps to key `k - 1`, so the hottest
        /// keys are adjacent and share leaves — the high-contention regime
        /// publishing elimination targets.
        scramble: bool,
        /// Precomputed sampler state.
        sampler: ZipfSampler,
    },
}

impl KeyDistribution {
    /// Uniform distribution over `0..range`.
    pub fn uniform(range: u64) -> Self {
        assert!(range > 0);
        KeyDistribution::Uniform { range }
    }

    /// Zipfian distribution over `0..range` with exponent `s` (un-scrambled,
    /// matching the paper's microbenchmark).  An exponent of `0` degenerates
    /// to the uniform distribution.
    pub fn zipfian(range: u64, exponent: f64) -> Self {
        Self::zipfian_with(range, exponent, false)
    }

    /// Zipfian distribution with explicit control over rank scrambling.
    pub fn zipfian_with(range: u64, exponent: f64, scramble: bool) -> Self {
        assert!(range > 0);
        assert!(exponent >= 0.0);
        if exponent == 0.0 {
            return Self::uniform(range);
        }
        KeyDistribution::Zipfian {
            range,
            exponent,
            scramble,
            sampler: ZipfSampler::new(range, exponent),
        }
    }

    /// The size of the key range.
    pub fn range(&self) -> u64 {
        match *self {
            KeyDistribution::Uniform { range } => range,
            KeyDistribution::Zipfian { range, .. } => range,
        }
    }

    /// Human-readable label used in benchmark output.
    pub fn label(&self) -> String {
        match self {
            KeyDistribution::Uniform { .. } => "uniform".to_string(),
            KeyDistribution::Zipfian { exponent, .. } => format!("zipf({exponent})"),
        }
    }

    /// Samples a key in `0..range`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            KeyDistribution::Uniform { range } => rng.gen_range(0..*range),
            KeyDistribution::Zipfian {
                range,
                scramble,
                sampler,
                ..
            } => {
                let rank = sampler.sample(rng); // 1..=range
                let key = rank - 1;
                if *scramble {
                    scatter(key, *range)
                } else {
                    key
                }
            }
        }
    }
}

/// Scatters popularity rank `rank` (0 is the hottest) over the keys
/// `0..range` with a multiplicative hash followed by a modulo fold: the
/// scrambled Zipf's key for that rank when `range` is its own range.
/// Approximately bijective; collisions only change which concrete keys are
/// hot, not the popularity profile.  YCSB request keys call it with a
/// growing `range`, the records present when the request is drawn.
#[inline]
pub fn scatter(rank: u64, range: u64) -> u64 {
    // Fibonacci hashing constant; the +1 keeps rank 0 from mapping to key 0.
    (rank + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % range
}

/// Hörmann rejection-inversion sampler for `P(k) ∝ k^{-s}`, `k ∈ 1..=n`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    shift: f64,
}

impl ZipfSampler {
    /// Creates a sampler for ranks `1..=n` with exponent `s > 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0);
        assert!(s > 0.0);
        let nf = n as f64;
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(nf + 0.5, s);
        let shift = 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s);
        Self {
            n: nf,
            s,
            h_x1,
            h_n,
            shift,
        }
    }

    /// Draws a rank in `1..=n`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n);
            // Accept if k is close enough to x, or by the exact test.
            if (k - x).abs() <= self.shift || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64;
            }
        }
    }
}

/// H(x) = ∫ x^{-s} dx, the integral of the unnormalized density.
#[inline]
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// h(x) = x^{-s}.
#[inline]
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of `h_integral`.
#[inline]
fn h_integral_inverse(x: f64, s: f64) -> f64 {
    let mut t = x * (1.0 - s);
    if t < -1.0 {
        // Numerical guard (can only trip through rounding).
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// helper1(x) = ln(1+x)/x, stable near 0.
#[inline]
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// helper2(x) = (exp(x)-1)/x, stable near 0.
#[inline]
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(dist: &KeyDistribution, samples: usize, buckets: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hist = vec![0usize; buckets];
        let range = dist.range();
        for _ in 0..samples {
            let k = dist.sample(&mut rng);
            assert!(k < range, "sample {k} out of range {range}");
            hist[(k as usize * buckets) / range as usize] += 1;
        }
        hist
    }

    #[test]
    fn uniform_is_flat() {
        let dist = KeyDistribution::uniform(10_000);
        let hist = histogram(&dist, 100_000, 10);
        let min = *hist.iter().min().unwrap() as f64;
        let max = *hist.iter().max().unwrap() as f64;
        assert!(max / min < 1.25, "uniform histogram too skewed: {hist:?}");
    }

    #[test]
    fn zipf_rank_one_is_most_frequent() {
        let sampler = ZipfSampler::new(1_000, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0u64; 1_001];
        for _ in 0..200_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        let c1 = counts[1] as f64;
        let c2 = counts[2] as f64;
        let c10 = counts[10] as f64;
        assert!(c1 > c2, "rank 1 ({c1}) must beat rank 2 ({c2})");
        // For s = 1, P(1)/P(10) = 10; allow generous sampling noise.
        assert!(
            c1 / c10 > 5.0 && c1 / c10 < 20.0,
            "rank1/rank10 = {}",
            c1 / c10
        );
    }

    #[test]
    fn zipf_skew_concentrates_mass() {
        let dist = KeyDistribution::zipfian(100_000, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut top_100 = 0usize;
        const N: usize = 100_000;
        for _ in 0..N {
            if dist.sample(&mut rng) < 100 {
                top_100 += 1;
            }
        }
        // With s=1 and n=1e5, the top 100 ranks carry ~ H(100)/H(1e5) ≈ 43%
        // of the mass.
        assert!(
            top_100 > N * 30 / 100,
            "expected heavy concentration, got {top_100}/{N}"
        );
    }

    #[test]
    fn zipf_parameter_zero_is_uniform() {
        let dist = KeyDistribution::zipfian(1_000, 0.0);
        assert!(matches!(dist, KeyDistribution::Uniform { .. }));
        assert_eq!(dist.label(), "uniform");
    }

    #[test]
    fn zipf_half_exponent_is_less_skewed_than_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let d_half = KeyDistribution::zipfian(10_000, 0.5);
        let d_one = KeyDistribution::zipfian(10_000, 1.0);
        let count_hot = |d: &KeyDistribution, rng: &mut StdRng| {
            let mut hot = 0;
            for _ in 0..50_000 {
                if d.sample(rng) < 10 {
                    hot += 1;
                }
            }
            hot
        };
        let hot_half = count_hot(&d_half, &mut rng);
        let hot_one = count_hot(&d_one, &mut rng);
        assert!(
            hot_one > hot_half,
            "s=1 ({hot_one}) should be more concentrated than s=0.5 ({hot_half})"
        );
    }

    #[test]
    fn scrambled_zipf_spreads_hot_keys() {
        let dist = KeyDistribution::zipfian_with(1_000_000, 1.0, true);
        let mut rng = StdRng::seed_from_u64(9);
        // With scrambling the most frequent key should *not* be key 0.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(dist.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let (&hottest, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_ne!(hottest, 0, "scrambling should move the hottest key");
        assert_eq!(dist.label(), "zipf(1)");
    }

    #[test]
    fn sampler_covers_full_range_for_tiny_n() {
        let sampler = ZipfSampler::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..10_000 {
            seen[sampler.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }
}
