//! Flush/fence primitives, persist modes, and statistics.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Cache-line size assumed by the flush granularity (64 bytes on all the
/// x86-64 machines the paper targets).
pub const CACHE_LINE: usize = 64;

/// How flush/fence calls behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistMode {
    /// Count flushes and fences but execute nothing.
    /// This is the default and is what correctness tests use.
    CountOnly,
    /// Execute real x86 cache-line write-backs (`clwb`, the paper's
    /// instruction, when the CPU has it, otherwise `clflush`) and `sfence`
    /// instructions on DRAM.
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

const MODE_COUNT: u8 = 1;
/// [`PersistMode::Real`] on a CPU without `clwb`.
const MODE_CLFLUSH: u8 = 2;
const MODE_SIM: u8 = 3;
/// [`PersistMode::Real`] on a CPU with `clwb`; stored only after
/// `hw::has_clwb` said so.
const MODE_CLWB: u8 = 4;

static MODE: AtomicU8 = AtomicU8::new(MODE_COUNT);
static SIM_FLUSH_NS: AtomicU32 = AtomicU32::new(0);
static SIM_FENCE_NS: AtomicU32 = AtomicU32::new(0);

/// One thread's share of the flush/fence counters, alone on its cache line
/// so that concurrent flushers write no common line.
#[repr(align(64))]
struct Stripe {
    flushes: AtomicU64,
    fences: AtomicU64,
}

/// Threads take stripes round-robin; past this many threads some share a
/// stripe, which stays exact (every add is atomic) but shares its line.
const STRIPES: usize = 32;

static COUNTERS: [Stripe; STRIPES] = [const {
    Stripe {
        flushes: AtomicU64::new(0),
        fences: AtomicU64::new(0),
    }
}; STRIPES];

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, taken on its first flush or fence.
    static STRIPE: &'static Stripe =
        &COUNTERS[NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES];
}

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
        PersistMode::CountOnly => MODE.store(MODE_COUNT, Ordering::SeqCst),
        PersistMode::Real => MODE.store(
            if hw::has_clwb() {
                MODE_CLWB
            } else {
                MODE_CLFLUSH
            },
            Ordering::SeqCst,
        ),
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
        MODE_COUNT => PersistMode::CountOnly,
        MODE_CLFLUSH | MODE_CLWB => PersistMode::Real,
        _ => PersistMode::Simulated {
            flush_ns: SIM_FLUSH_NS.load(Ordering::Relaxed),
            fence_ns: SIM_FENCE_NS.load(Ordering::Relaxed),
        },
    }
}

/// Returns flush/fence counters accumulated since the last
/// [`reset_stats`]: the sum over every thread's stripe, exact once the
/// flushing threads are joined.
pub fn stats() -> PmStats {
    COUNTERS
        .iter()
        .fold(PmStats::default(), |sum, stripe| PmStats {
            flushes: sum.flushes + stripe.flushes.load(Ordering::Relaxed),
            fences: sum.fences + stripe.fences.load(Ordering::Relaxed),
        })
}

/// Resets the flush/fence counters to zero.
pub fn reset_stats() {
    for stripe in &COUNTERS {
        stripe.flushes.store(0, Ordering::Relaxed);
        stripe.fences.store(0, Ordering::Relaxed);
    }
}

#[cfg(target_arch = "x86_64")]
mod hw {
    /// Whether this CPU has `clwb`: CPUID leaf 7, sub-leaf 0, EBX bit 24.
    pub(super) fn has_clwb() -> bool {
        use core::arch::x86_64::{__cpuid, __cpuid_count};
        __cpuid(0).eax >= 7 && __cpuid_count(7, 0).ebx & (1 << 24) != 0
    }

    /// Writes back the cache line containing `p` and leaves it cached: the
    /// paper's `clwb`.  Stable Rust has no intrinsic for it, hence `asm!`.
    ///
    /// # Safety
    /// The CPU must have `clwb` ([`has_clwb`]): on one without it the same
    /// encoding can decode as another instruction.
    pub(super) unsafe fn clwb(p: *const u8) {
        // SAFETY: the caller checked that `clwb` exists; it writes back the
        // line holding `p` without changing any memory contents, and `p`
        // points into a live object, so its line is mapped.
        unsafe { core::arch::asm!("clwb [{}]", in(reg) p, options(nostack, preserves_flags)) };
    }

    /// Writes back and invalidates the cache line containing `p`: the
    /// fallback where the CPU has no `clwb`, dearer by the refill.
    pub(super) fn clflush(p: *const u8) {
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

/// Portable fallback: an atomic fence orders stores; there is no
/// architectural cache-line write-back to perform.
#[cfg(not(target_arch = "x86_64"))]
mod hw {
    pub(super) fn has_clwb() -> bool {
        false
    }

    /// # Safety
    /// None needed; never called, since [`has_clwb`] is false here.
    pub(super) unsafe fn clwb(_p: *const u8) {}

    pub(super) fn clflush(_p: *const u8) {}

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
    let start = ptr as usize & !(CACHE_LINE - 1);
    let end = ptr as usize + len;
    let mut line = start;
    let mut count = 0u64;
    while line < end {
        match m {
            // SAFETY: `MODE_CLWB` is stored only once `has_clwb` held.
            MODE_CLWB => unsafe { hw::clwb(line as *const u8) },
            MODE_CLFLUSH => hw::clflush(line as *const u8),
            MODE_SIM => busy_wait(Duration::from_nanos(
                SIM_FLUSH_NS.load(Ordering::Relaxed) as u64
            )),
            _ => {}
        }
        count += 1;
        line += CACHE_LINE;
    }
    STRIPE.with(|stripe| stripe.flushes.fetch_add(count, Ordering::Relaxed));
}

/// Issues a store fence ordering all previously issued flushes.
pub fn sfence() {
    match MODE.load(Ordering::Relaxed) {
        MODE_CLFLUSH | MODE_CLWB => hw::store_fence(),
        MODE_SIM => busy_wait(Duration::from_nanos(
            SIM_FENCE_NS.load(Ordering::Relaxed) as u64
        )),
        _ => {}
    }
    STRIPE.with(|stripe| stripe.fences.fetch_add(1, Ordering::Relaxed));
}

/// Flush followed by fence: the paper's "flush" ( `clwb` + `sfence`).
pub fn persist(ptr: *const u8, len: usize) {
    flush(ptr, len);
    sfence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    #[test]
    fn mode_round_trip() {
        let _s = serial();
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
        // `clwb` or `clflush` underneath, `Real` either way.
        set_mode(PersistMode::Real);
        assert_eq!(mode(), PersistMode::Real);
        set_mode(original);
    }

    #[test]
    fn concurrent_flushers_are_counted_exactly() {
        let _s = serial();
        let original = mode();
        set_mode(PersistMode::CountOnly);
        reset_stats();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let x = 7u64;
                    for _ in 0..10_000 {
                        persist((&x as *const u64).cast(), 8);
                    }
                });
            }
        });
        assert_eq!(
            stats(),
            PmStats {
                flushes: 40_000,
                fences: 40_000
            }
        );
        set_mode(original);
    }

    #[test]
    fn unaligned_ranges_cover_all_lines() {
        let _s = serial();
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
        let _s = serial();
        reset_stats();
        flush(std::ptr::null(), 0);
        assert_eq!(stats().flushes, 0);
    }
}
