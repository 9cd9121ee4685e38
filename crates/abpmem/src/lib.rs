//! Persistent-memory model for the durable trees (p-OCC-ABtree,
//! p-Elim-ABtree) and the persistent baselines.
//!
//! The paper evaluates on a machine with Intel Optane DCPMM and persists data
//! with `clwb` followed by `sfence` (§5: "a flush refers to a `clwb`
//! instruction followed by an `sfence`").  That hardware is not available
//! here, so — per the reproduction's substitution policy (README,
//! "Hardware notes") — this crate models persistent memory on ordinary DRAM
//! while keeping the *algorithmic* properties that the paper's evaluation
//! measures:
//!
//! * every flush and fence executed by the durable trees goes through this
//!   crate, so their number and position on the critical path are identical
//!   to the paper's algorithms;
//! * in [`PersistMode::Real`] the actual x86 cache-line write-back
//!   instructions and `sfence` are executed, so the instruction-level
//!   overhead is real even though the target lines live in DRAM.  The
//!   write-back is the paper's `clwb`, issued through `asm!` (stable Rust
//!   has no intrinsic for it) when CPUID leaf 7 reports it; otherwise
//!   `clflush`, which also invalidates the line and so costs more;
//! * in [`PersistMode::Simulated`] an additional busy-wait models Optane's
//!   higher write latency, which lets the persistence-overhead experiment
//!   (Table 1) be reproduced with a tunable gap between volatile and durable
//!   runs;
//! * in [`PersistMode::CountOnly`] the calls are counted but cost nothing —
//!   useful for unit tests that assert on flush/fence counts.  The order of
//!   a tree's flushes is checked in `abtree`, through a test-only `Persist`
//!   policy that logs each thread's flushes and fences.
//!
//! The counters behind [`stats`] stay off the durable write path's shared
//! state: they are cache-line-padded stripes, each thread adds to its own,
//! [`stats`] sums them and [`reset_stats`] zeroes them, so concurrent
//! flushers write no common cache line and the totals are exact once the
//! flushing threads are joined.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod persist;

pub use persist::{
    flush, persist, reset_stats, set_mode, sfence, stats, PersistMode, PmStats, CACHE_LINE,
};

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::*;

    /// The persist mode and the counters are process-global, so every test
    /// in this crate that sets or reads them holds this lock.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn default_mode_counts() {
        let _serial = serial();
        set_mode(PersistMode::CountOnly);
        reset_stats();
        let x = 42u64;
        persist((&x as *const u64).cast(), 8);
        let s = stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn flush_spans_cache_lines() {
        let _serial = serial();
        set_mode(PersistMode::CountOnly);
        reset_stats();
        // An object larger than one cache line must issue multiple flushes.
        let buf = [0u8; 256];
        flush(buf.as_ptr(), buf.len());
        let s = stats();
        assert!(
            s.flushes >= 4,
            "256 bytes should need at least 4 line flushes, got {}",
            s.flushes
        );
        assert_eq!(s.fences, 0);
    }

    #[test]
    fn real_mode_executes_without_fault() {
        let _serial = serial();
        set_mode(PersistMode::Real);
        reset_stats();
        let data = vec![1u8; 1024];
        persist(data.as_ptr(), data.len());
        let s = stats();
        assert!(s.flushes >= 16);
        assert_eq!(s.fences, 1);
        set_mode(PersistMode::CountOnly);
    }

    #[test]
    fn simulated_mode_adds_latency() {
        let _serial = serial();
        set_mode(PersistMode::Simulated {
            flush_ns: 200,
            fence_ns: 100,
        });
        reset_stats();
        let start = std::time::Instant::now();
        let x = 7u64;
        for _ in 0..50 {
            persist((&x as *const u64).cast(), 8);
        }
        let elapsed = start.elapsed();
        // 50 * (200 + 100) ns = 15 µs minimum.
        assert!(
            elapsed.as_nanos() >= 10_000,
            "simulated latency not applied: {elapsed:?}"
        );
        set_mode(PersistMode::CountOnly);
    }
}
