//! Hardware-parallelism detection for the few tests that need it.
//!
//! Concurrency tests run everywhere, one CPU included: threads then
//! interleave at preemption points, which is slower and less adversarial
//! but still exercises every code path the test checks, so they size their
//! thread counts from [`detected_parallelism`] (clamped to at least 2) and
//! never skip.  The exceptions are tests asserting timing statistics only
//! true parallelism produces (the CA tree's contention-adaptation splits,
//! the persistent trees' elimination rates): on one hardware thread the
//! structure correctly never produces them, so those tests skip below 2.

/// The machine's detected hardware parallelism (at least 1).
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
