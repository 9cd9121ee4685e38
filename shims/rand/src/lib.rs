//! Offline shim for the subset of the `rand` 0.8 API used by this workspace.
//!
//! The build environment has no access to crates.io, so this local crate
//! stands in for the real `rand`.  It implements the call surface the
//! workspace actually uses — `StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::{gen, gen_range, gen_bool}`, `thread_rng`, and
//! `seq::SliceRandom::shuffle` — with xoshiro256** as the generator
//! (seeded via SplitMix64, the same construction the xoshiro authors
//! recommend).  Swapping back to the real crate is a one-line change in the
//! workspace manifest; no call site needs to change.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};

/// Low-level generator interface: a source of uniformly random bits.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// A generator that can be deterministically seeded.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that [`Rng::gen`] can produce from raw bits.
pub trait Standard: Sized {
    /// Draws one value from the generator's output.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniformly random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Integer types [`Rng::gen_range`] can sample uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)`; `lo < hi` must hold.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;

    /// Uniform sample from `[lo, hi]`; `lo <= hi` must hold.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased uniform `u64` in `[0, span)` via Lemire's widening-multiply
/// method with rejection.
#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                lo + uniform_u64(rng, (hi - lo) as u64) as $t
            }

            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    // Only reachable for the full u64 range.
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_uniform_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + uniform_u64(rng, span) as i128) as $t
            }

            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    // Only reachable for the full i64 range.
                    return rng.next_u64() as i64 as $t;
                }
                (lo as i128 + uniform_u64(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_unsigned!(u8, u16, u32, u64, usize);
impl_sample_uniform_signed!(i8, i16, i32, i64, isize);

/// Range shapes [`Rng::gen_range`] accepts (half-open and inclusive), as in
/// the real `rand` 0.8 API.
pub trait SampleRange<T: SampleUniform> {
    /// Uniform sample from the range; panics if it is empty.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range called with empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range called with empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// User-facing generator interface, automatically implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` (e.g. `rng.gen::<f64>()` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform sample from a half-open (`lo..hi`) or inclusive (`lo..=hi`)
    /// `range`; panics if it is empty.
    fn gen_range<T: SampleUniform, Ra: SampleRange<T>>(&mut self, range: Ra) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::from_rng(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// SplitMix64 step, used for seed expansion.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Generator implementations (`rand::rngs`).
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; SplitMix64 cannot
            // produce four zero outputs in a row, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E3779B97F4A7C15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub use rngs::StdRng;

thread_local! {
    static THREAD_RNG: RefCell<StdRng> = {
        static COUNTER: AtomicU64 = AtomicU64::new(0x7_EAD);
        let nonce = COUNTER.fetch_add(1, Ordering::Relaxed);
        // Mix in the address of a stack local so distinct processes diverge
        // even without a time source.
        let addr = &nonce as *const _ as u64;
        RefCell::new(StdRng::seed_from_u64(nonce.wrapping_mul(0xA24BAED4963EE407) ^ addr))
    };
}

/// Handle to a lazily-initialized per-thread generator.
#[derive(Debug, Clone)]
pub struct ThreadRng;

impl RngCore for ThreadRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        THREAD_RNG.with(|r| r.borrow_mut().next_u64())
    }
}

/// Returns the per-thread generator handle.
pub fn thread_rng() -> ThreadRng {
    ThreadRng
}

/// Sequence helpers (`rand::seq`).
pub mod seq {
    use super::{uniform_u64, RngCore};

    /// Extension trait providing random slice operations.
    pub trait SliceRandom {
        /// Shuffles the slice in place (Fisher-Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_u64(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

/// The customary glob-import module.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{thread_rng, Rng, RngCore, SeedableRng, ThreadRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_and_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut c = StdRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(0..10u64);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let v = rng.gen_range(-5..5i64);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn gen_range_inclusive_is_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(1..=10u64);
            assert!((1..=10).contains(&v));
            seen[v as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s), "every bound-inclusive value drawn");
        // Single-point and full-range extremes must not panic or bias.
        for _ in 0..100 {
            assert_eq!(rng.gen_range(7..=7u32), 7);
            let _ = rng.gen_range(0..=u64::MAX);
            let _ = rng.gen_range(i64::MIN..=i64::MAX);
        }
    }

    #[test]
    fn gen_bool_roughly_matches_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u64> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in sorted order");
    }

    #[test]
    fn works_through_unsized_rng_refs() {
        fn sample(rng: &mut (impl super::Rng + ?Sized)) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!(sample(&mut rng) < 100);
        assert!(sample(&mut thread_rng()) < 100);
    }
}
