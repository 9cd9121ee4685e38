//! Flush/fence primitives, persist modes, and statistics.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::tracker;

/// Cache-line size assumed by the flush granularity (64 bytes on all the
/// x86-64 machines the paper targets).
pub const CACHE_LINE: usize = 64;

/// How flush/fence calls behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistMode {
    /// Do nothing at all (volatile execution).  Flush/fence statistics are
    /// still not recorded; this is what the volatile trees effectively use.
    NoOp,
    /// Count flushes and fences (and feed the tracker) but execute nothing.
    /// This is the default and is what correctness tests use.
    CountOnly,
    /// Execute real x86 cache-line write-backs (`clflushopt` when available,
    /// otherwise `clflush`) and `sfence` instructions on DRAM.
    Real,
    /// Like [`PersistMode::Real`] semantics-wise, but instead of touching the
    /// cache hierarchy each flush/fence busy-waits for the configured number
    /// of nanoseconds, modelling Optane DCPMM latency.
    Simulated {
        /// Busy-wait applied to each cache-line flush.
        flush_ns: u32,
        /// Busy-wait applied to each store fence.
        fence_ns: u32,
    },
}

const MODE_NOOP: u8 = 0;
const MODE_COUNT: u8 = 1;
const MODE_REAL: u8 = 2;
const MODE_SIM: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_COUNT);
static SIM_FLUSH_NS: AtomicU32 = AtomicU32::new(0);
static SIM_FENCE_NS: AtomicU32 = AtomicU32::new(0);

static FLUSHES: AtomicU64 = AtomicU64::new(0);
static FENCES: AtomicU64 = AtomicU64::new(0);

/// Point-in-time flush/fence counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmStats {
    /// Number of cache-line flushes issued since the last reset.
    pub flushes: u64,
    /// Number of store fences issued since the last reset.
    pub fences: u64,
}

/// Sets the process-global persist mode.
///
/// The mode is global because flush calls are issued from deep inside the
/// tree node code on the hot path, where threading a handle through every
/// call would distort the very overhead being measured.  Benchmarks set the
/// mode once before starting worker threads.
pub fn set_mode(mode: PersistMode) {
    match mode {
        PersistMode::NoOp => MODE.store(MODE_NOOP, Ordering::SeqCst),
        PersistMode::CountOnly => MODE.store(MODE_COUNT, Ordering::SeqCst),
        PersistMode::Real => MODE.store(MODE_REAL, Ordering::SeqCst),
        PersistMode::Simulated { flush_ns, fence_ns } => {
            SIM_FLUSH_NS.store(flush_ns, Ordering::SeqCst);
            SIM_FENCE_NS.store(fence_ns, Ordering::SeqCst);
            MODE.store(MODE_SIM, Ordering::SeqCst);
        }
    }
}

/// Returns the current persist mode.
pub fn mode() -> PersistMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_NOOP => PersistMode::NoOp,
        MODE_COUNT => PersistMode::CountOnly,
        MODE_REAL => PersistMode::Real,
        _ => PersistMode::Simulated {
            flush_ns: SIM_FLUSH_NS.load(Ordering::Relaxed),
            fence_ns: SIM_FENCE_NS.load(Ordering::Relaxed),
        },
    }
}

/// Returns flush/fence counters accumulated since the last
/// [`reset_stats`].
pub fn stats() -> PmStats {
    PmStats {
        flushes: FLUSHES.load(Ordering::Relaxed),
        fences: FENCES.load(Ordering::Relaxed),
    }
}

/// Resets the flush/fence counters to zero.
pub fn reset_stats() {
    FLUSHES.store(0, Ordering::Relaxed);
    FENCES.store(0, Ordering::Relaxed);
}

#[cfg(target_arch = "x86_64")]
mod hw {
    /// Writes back (evicts) the cache line containing `p`.
    ///
    /// The paper uses `clwb`; the closest instruction exposed by the stable
    /// Rust intrinsics on this toolchain is `clflush`, which additionally
    /// invalidates the line.  That makes the measured per-flush cost an upper
    /// bound on `clwb`/`clflushopt`, which is acceptable for reproducing the
    /// *relative* persistence overheads of Table 1 (README, "Hardware notes").
    pub(super) fn flush_line(p: *const u8) {
        // SAFETY: clflush is unconditionally available on x86-64 and may be
        // applied to any mapped address; `p` points into a live object.
        unsafe { core::arch::x86_64::_mm_clflush(p.cast()) };
    }

    /// Issues a store fence.
    pub(super) fn store_fence() {
        // SAFETY: sfence has no preconditions.
        unsafe { core::arch::x86_64::_mm_sfence() };
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod hw {
    /// Portable fallback: an atomic fence orders stores; there is no
    /// architectural cache-line write-back to perform.
    pub(super) fn flush_line(_p: *const u8) {}

    pub(super) fn store_fence() {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

fn busy_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        core::hint::spin_loop();
    }
}

/// Flushes (writes back) every cache line overlapping `[ptr, ptr + len)`.
///
/// This corresponds to the `clwb` loop of the paper's flush primitive; it
/// does **not** include the trailing fence (see [`sfence`] / [`persist`]).
pub fn flush(ptr: *const u8, len: usize) {
    if len == 0 {
        return;
    }
    let m = MODE.load(Ordering::Relaxed);
    if m == MODE_NOOP {
        return;
    }
    let start = ptr as usize & !(CACHE_LINE - 1);
    let end = ptr as usize + len;
    let mut line = start;
    let mut count = 0u64;
    while line < end {
        match m {
            MODE_REAL => hw::flush_line(line as *const u8),
            MODE_SIM => busy_wait(Duration::from_nanos(
                SIM_FLUSH_NS.load(Ordering::Relaxed) as u64
            )),
            _ => {}
        }
        count += 1;
        line += CACHE_LINE;
    }
    FLUSHES.fetch_add(count, Ordering::Relaxed);
    tracker::record_flush(ptr as usize, len);
}

/// Issues a store fence ordering all previously issued flushes.
pub fn sfence() {
    let m = MODE.load(Ordering::Relaxed);
    if m == MODE_NOOP {
        return;
    }
    match m {
        MODE_REAL => hw::store_fence(),
        MODE_SIM => busy_wait(Duration::from_nanos(
            SIM_FENCE_NS.load(Ordering::Relaxed) as u64
        )),
        _ => {}
    }
    FENCES.fetch_add(1, Ordering::Relaxed);
    tracker::record_fence();
}

/// Flush followed by fence: the paper's "flush" ( `clwb` + `sfence`).
pub fn persist(ptr: *const u8, len: usize) {
    flush(ptr, len);
    sfence();
}

/// Flushes the cache lines occupied by `value` (no fence).
pub fn flush_value<T>(value: &T) {
    flush(value as *const T as *const u8, std::mem::size_of::<T>());
}

/// Flushes the cache lines occupied by `value` and fences.
pub fn persist_value<T>(value: &T) {
    persist(value as *const T as *const u8, std::mem::size_of::<T>());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::TrackingSession;

    #[test]
    fn mode_round_trip() {
        let _s = TrackingSession::start();
        let original = mode();
        set_mode(PersistMode::Simulated {
            flush_ns: 123,
            fence_ns: 45,
        });
        assert_eq!(
            mode(),
            PersistMode::Simulated {
                flush_ns: 123,
                fence_ns: 45
            }
        );
        set_mode(PersistMode::NoOp);
        assert_eq!(mode(), PersistMode::NoOp);
        set_mode(original);
    }

    #[test]
    fn noop_mode_counts_nothing() {
        let _s = TrackingSession::start();
        let original = mode();
        set_mode(PersistMode::NoOp);
        reset_stats();
        let x = [0u8; 128];
        persist(x.as_ptr(), x.len());
        assert_eq!(stats(), PmStats::default());
        set_mode(original);
    }

    #[test]
    fn unaligned_ranges_cover_all_lines() {
        let _s = TrackingSession::start();
        let original = mode();
        set_mode(PersistMode::CountOnly);
        reset_stats();
        // A 2-byte object straddling a line boundary needs 2 flushes.
        let buf = vec![0u8; 256];
        let base = buf.as_ptr() as usize;
        let aligned = (base + CACHE_LINE - 1) & !(CACHE_LINE - 1);
        let straddle = (aligned + CACHE_LINE - 1) as *const u8;
        flush(straddle, 2);
        assert_eq!(stats().flushes, 2);
        set_mode(original);
    }

    #[test]
    fn zero_len_flush_is_free() {
        let _s = TrackingSession::start();
        reset_stats();
        flush(std::ptr::null(), 0);
        assert_eq!(stats().flushes, 0);
    }
}
