//! Hot-path timestamps: [`Stamp`], a nanosecond reading cheap enough to
//! take several times per request.
//!
//! `Instant::now` is a vDSO `clock_gettime` (~20-25ns); a stage-traced
//! point request takes five or six timestamps, which alone would eat most
//! of a <3% telemetry budget on a microsecond-scale operation.  On x86-64
//! a [`Stamp`] therefore reads the invariant TSC directly (`rdtsc`,
//! ~6-10ns) and converts ticks to nanoseconds with a ratio calibrated
//! once per process against the monotonic clock — the standard
//! benchmark-harness technique (SetBench and friends time operations the
//! same way).  On other architectures it falls back to `Instant`.
//!
//! Either way a stamp is a plain `u64` of nanoseconds since a
//! process-local epoch, so durations are single subtractions and two
//! stamps from different threads are comparable (the TSC is
//! socket-invariant on every CPU this targets; a skewed reading would
//! skew latency *values*, never corrupt memory or counters).
//!
//! With the `compile-out` feature, [`Stamp`] is a ZST: `now()` reads no
//! clock and every duration is 0 — the honest "no telemetry" baseline.

#[cfg(not(feature = "compile-out"))]
use std::sync::OnceLock;
#[cfg(not(feature = "compile-out"))]
use std::time::Instant;

/// Sentinel nanosecond value marking an untraced stamp (see
/// [`Stamp::NONE`]).  Out of band: a process would need ~584 years of
/// uptime to reach it.
#[cfg(not(feature = "compile-out"))]
const UNTRACED: u64 = u64::MAX;

/// A cheap monotonic timestamp (nanoseconds since a process-local epoch).
///
/// Obtain one with [`Stamp::now`]; measure with
/// [`elapsed_ns`](Stamp::elapsed_ns) or [`since`](Stamp::since).  The
/// sentinel [`Stamp::NONE`] marks a request that is *not* being stage
/// traced (sampled tracing carries it through queues for free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    #[cfg(not(feature = "compile-out"))]
    ns: u64,
}

impl Stamp {
    /// The untraced sentinel: [`is_traced`](Stamp::is_traced) is `false`,
    /// and durations measured against it are meaningless (callers must
    /// check first).
    pub const NONE: Stamp = Stamp {
        #[cfg(not(feature = "compile-out"))]
        ns: UNTRACED,
    };

    /// The current time.  Free (no clock read) when telemetry is compiled
    /// out.
    #[inline]
    pub fn now() -> Stamp {
        Stamp {
            #[cfg(not(feature = "compile-out"))]
            ns: now_ns(),
        }
    }

    /// Whether this stamp carries a real time (i.e. is not
    /// [`Stamp::NONE`]).  Always `false` when telemetry is compiled out.
    #[inline]
    pub fn is_traced(self) -> bool {
        #[cfg(not(feature = "compile-out"))]
        {
            self.ns != UNTRACED
        }
        #[cfg(feature = "compile-out")]
        {
            false
        }
    }

    /// Nanoseconds from `earlier` to `self`, saturating at 0.
    #[inline]
    pub fn since(self, earlier: Stamp) -> u64 {
        #[cfg(not(feature = "compile-out"))]
        {
            self.ns.saturating_sub(earlier.ns)
        }
        #[cfg(feature = "compile-out")]
        {
            let _ = earlier;
            0
        }
    }

    /// Nanoseconds from `self` to now (reads the clock once).
    #[inline]
    pub fn elapsed_ns(self) -> u64 {
        Stamp::now().since(self)
    }
}

/// Nanoseconds since the process-local epoch — the raw reading behind
/// [`Stamp::now`].
#[cfg(all(target_arch = "x86_64", not(feature = "compile-out")))]
#[inline]
fn now_ns() -> u64 {
    // (base_ticks, nanoseconds per tick), calibrated once.
    static CALIBRATION: OnceLock<(u64, f64)> = OnceLock::new();
    let &(base, ns_per_tick) = CALIBRATION.get_or_init(|| {
        // Measure the TSC rate against the monotonic clock over a ~2ms
        // spin: a 3GHz TSC accumulates ~6M ticks, so clock-read overhead
        // (~tens of ns on each edge) perturbs the ratio by well under
        // 0.01%.  A one-time ~2ms cost on first use, during setup in
        // every real caller.
        let t0 = rdtsc();
        let i0 = Instant::now();
        let mut elapsed = i0.elapsed();
        while elapsed < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
            elapsed = i0.elapsed();
        }
        let ticks = rdtsc().wrapping_sub(t0).max(1);
        // Clamped as a backstop against a broken/virtualized TSC: worst
        // case, latency *values* are scaled, never negative or wrapped.
        let ns_per_tick = (elapsed.as_nanos() as f64 / ticks as f64).clamp(0.001, 100.0);
        (t0, ns_per_tick)
    });
    // The min keeps a garbage TSC reading from colliding with the
    // UNTRACED sentinel (float-to-int casts saturate at u64::MAX).
    ((rdtsc().wrapping_sub(base) as f64 * ns_per_tick) as u64).min(UNTRACED - 1)
}

#[cfg(all(target_arch = "x86_64", not(feature = "compile-out")))]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC is unprivileged and baseline on x86-64; it reads the
    // timestamp counter and touches no memory.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(all(not(target_arch = "x86_64"), not(feature = "compile-out")))]
#[inline]
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u64::MAX as u128 - 1) as u64
}

#[cfg(all(test, not(feature = "compile-out")))]
mod tests {
    use super::*;

    #[test]
    fn stamps_advance_and_roughly_track_the_wall_clock() {
        let start = Stamp::now();
        let wall = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let measured = start.elapsed_ns();
        let actual = wall.elapsed().as_nanos() as u64;
        // The calibrated ratio must put a 20ms sleep within 2x of the
        // monotonic clock's reading (in practice it is within ~0.1%; the
        // slack absorbs scheduler noise and virtualized-TSC weirdness).
        assert!(
            measured > actual / 2 && measured < actual * 2,
            "measured {measured}ns vs monotonic {actual}ns"
        );
    }

    #[test]
    fn since_saturates_and_orders() {
        let a = Stamp::now();
        let b = Stamp::now();
        assert_eq!(a.since(b), 0, "earlier.since(later) saturates to 0");
        assert!(b.since(a) < 1_000_000_000, "back-to-back stamps are close");
    }

    #[test]
    fn the_none_sentinel_is_untraced() {
        assert!(!Stamp::NONE.is_traced());
        assert!(Stamp::now().is_traced());
    }

    /// Manual probe for the per-read cost of [`Stamp::now`] on this
    /// machine (virtualized TSCs vary wildly):
    /// `cargo test -p obs --release -- --ignored --nocapture stamp_cost`
    #[test]
    #[ignore = "timing probe, run manually in release mode"]
    fn stamp_cost_probe() {
        const READS: u64 = 10_000_000;
        let _ = Stamp::now(); // calibrate outside the measured region
        let wall = Instant::now();
        for _ in 0..READS {
            std::hint::black_box(Stamp::now());
        }
        let per_read = wall.elapsed().as_nanos() as f64 / READS as f64;
        println!("Stamp::now(): {per_read:.1} ns/read");
    }
}
