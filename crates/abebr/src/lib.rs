//! Safe memory reclamation with pluggable backends: DEBRA-style epochs
//! (the default) or hazard pointers.
//!
//! The paper's evaluation (§6, "Memory reclamation") runs every data
//! structure with DEBRA, an epoch-based reclamation (EBR) scheme: a node that
//! is unlinked from a structure cannot be freed immediately because
//! concurrent readers may still hold pointers into it (the OCC-ABtree's
//! searches read nodes without locks, and its correctness argument explicitly
//! relies on unlinked nodes keeping their contents — invariant 3 of
//! Theorem 3.5).  Instead the unlinker *retires* the node, and the node is
//! freed only once every thread has passed through a quiescent state.
//!
//! The default backend implements the classic three-epoch variant used by
//! DEBRA and crossbeam:
//!
//! * a global epoch counter,
//! * one announcement slot per registered thread (the thread's view of the
//!   epoch while it is *pinned*, or a quiescent marker while it is not),
//! * per-thread retirement bags tagged with the epoch at retirement time.
//!
//! The global epoch can be advanced from `e` to `e + 1` once every pinned
//! thread has announced `e`; garbage retired at epoch `e` is safe to free
//! once the global epoch reaches `e + 2`.
//!
//! EBR's production failure mode is the **stalled reader**: one thread
//! parked inside a pinned region freezes the epoch, and every thread's
//! garbage accumulates behind it without bound.  [`Collector::new_hp`]
//! selects a **hazard-pointer backend** ([`hp`]) whose fine-mode readers
//! ([`LocalHandle::pin_fine`] + [`Guard::protect`]) name the O(1) nodes
//! they actually hold — a stalled reader then blocks at most
//! [`HAZARD_SLOTS`] objects plus what was retired after it pinned, and
//! everything else keeps reclaiming.  [`SmrPolicy`] selects a backend by
//! name (`"ebr"`/`"hp"`); guards and handles are backend-agnostic, so
//! structure code runs under either.
//!
//! # Usage
//!
//! A thread registers once and pins, retires and flushes through the owned
//! [`LocalHandle`] it gets back (the per-thread `MapHandle` sessions of the
//! `abtree` crate hold one each):
//!
//! ```
//! use abebr::Collector;
//!
//! let collector = Collector::new();
//! let local = collector.register(); // once per thread
//! let guard = local.pin(); // per operation: a local epoch announcement
//! let node = Box::into_raw(Box::new(42u64));
//! // ... unlink `node` from the shared structure ...
//! unsafe { guard.defer_drop(node) };
//! drop(guard);
//! local.flush(); // optional: try to advance and reclaim promptly
//! ```
//!
//! [`CollectorStats::registrations`] and [`CollectorStats::local_pins`]
//! count registrations and pins separately, so a workload can assert it
//! registers once per thread rather than once per operation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod collector;
mod guard;
pub mod hp;
mod local;
mod smr;

pub use collector::CollectorStats;
pub use guard::Guard;
pub use local::LocalHandle;
pub use smr::{Collector, RegisterError, SmrPolicy};

/// Maximum number of threads that can be registered with one [`Collector`]
/// at the same time.  The paper's largest machine exposes 144 hardware
/// threads; 512 leaves generous headroom for oversubscription in tests.
pub const MAX_THREADS: usize = 512;

/// Number of per-pointer hazard slots each thread owns under the
/// hazard-pointer backend (the bound on how much a stalled fine-mode
/// reader can block).  Tree descents use 3 (grandparent/parent/child);
/// the rest are headroom for richer traversals.
pub const HAZARD_SLOTS: usize = 8;

/// Number of retirements after which a thread attempts to advance the global
/// epoch (or scan hazards) and reclaim its garbage.
pub(crate) const COLLECT_THRESHOLD: usize = 64;

/// Every this-many outermost unpins, a thread checks the shared stash of
/// garbage inherited from exited threads and drains what has become safe —
/// the guarantee that a long-lived server whose surviving threads are
/// read-only still reclaims after workers exit.
pub(crate) const STASH_DRAIN_INTERVAL: usize = 64;

/// Announcement value meaning "this thread is not pinned" (an epoch
/// announcement under EBR, a retire-sequence watermark under HP).
pub(crate) const QUIESCENT: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A heap object whose drop increments a shared counter, used to verify
    /// that retired objects are dropped exactly once.
    struct DropCounted {
        counter: Arc<AtomicUsize>,
        _payload: [u64; 4],
    }

    impl Drop for DropCounted {
        fn drop(&mut self) {
            self.counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn new_counted(counter: &Arc<AtomicUsize>) -> *mut DropCounted {
        Box::into_raw(Box::new(DropCounted {
            counter: Arc::clone(counter),
            _payload: [0; 4],
        }))
    }

    #[test]
    fn single_thread_retire_and_reclaim() {
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let local = collector.register();
            let drops = Arc::new(AtomicUsize::new(0));
            const N: usize = 1000;
            for _ in 0..N {
                let guard = local.pin();
                let p = new_counted(&drops);
                unsafe { guard.defer_drop(p) };
            }
            // Repeated flushing with no other threads must reclaim everything.
            for _ in 0..8 {
                local.flush();
            }
            assert_eq!(drops.load(Ordering::SeqCst), N, "{policy}");
            assert_eq!(collector.stats().retired, N as u64, "{policy}");
            assert_eq!(collector.stats().freed, N as u64, "{policy}");
        }
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let drops = Arc::new(AtomicUsize::new(0));

            // A long-lived guard on another thread prevents the epoch from
            // advancing far enough to reclaim (under HP: its coarse
            // watermark keeps everything retired after it).
            let collector2 = collector.clone();
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
            let blocker = std::thread::spawn(move || {
                let local = collector2.register();
                let _guard = local.pin();
                ready_tx.send(()).unwrap();
                rx.recv().unwrap();
            });
            ready_rx.recv().unwrap();

            let local = collector.register();
            {
                let guard = local.pin();
                let p = new_counted(&drops);
                unsafe { guard.defer_drop(p) };
            }
            for _ in 0..8 {
                local.flush();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "{policy}: object reclaimed while another thread was pinned"
            );

            tx.send(()).unwrap();
            blocker.join().unwrap();
            for _ in 0..8 {
                local.flush();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 1, "{policy}");
        }
    }

    #[test]
    fn reentrant_pin() {
        let collector = Collector::new();
        let local = collector.register();
        let g1 = local.pin();
        let g2 = local.pin();
        drop(g1);
        // The thread must still be considered pinned while g2 lives.
        assert!(collector.debug_any_thread_pinned());
        drop(g2);
        assert!(!collector.debug_any_thread_pinned());
    }

    #[test]
    fn garbage_from_exited_threads_is_reclaimed_on_drop() {
        for policy in SmrPolicy::ALL {
            let drops = Arc::new(AtomicUsize::new(0));
            {
                let collector = Collector::with_policy(policy);
                let drops2 = Arc::clone(&drops);
                let collector2 = collector.clone();
                std::thread::spawn(move || {
                    let local = collector2.register();
                    let guard = local.pin();
                    for _ in 0..100 {
                        let p = new_counted(&drops2);
                        unsafe { guard.defer_drop(p) };
                    }
                })
                .join()
                .unwrap();
                // Some garbage may or may not have been reclaimed already;
                // the rest must be reclaimed when the collector is dropped.
            }
            assert_eq!(drops.load(Ordering::SeqCst), 100, "{policy}");
        }
    }

    #[test]
    fn multi_threaded_stress_no_leak_no_double_free() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let drops = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                let collector = collector.clone();
                let drops = Arc::clone(&drops);
                handles.push(std::thread::spawn(move || {
                    let local = collector.register();
                    for i in 0..PER_THREAD {
                        let guard = local.pin();
                        let p = new_counted(&drops);
                        unsafe { guard.defer_drop(p) };
                        drop(guard);
                        if i % 128 == 0 {
                            local.flush();
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            drop(collector);
            assert_eq!(
                drops.load(Ordering::SeqCst),
                THREADS * PER_THREAD,
                "{policy}"
            );
        }
    }

    #[test]
    fn registry_vs_local_pin_accounting() {
        const THREADS: u64 = 2;
        const OPS: u64 = 500;
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        let local = collector.register();
                        for _ in 0..OPS {
                            let _g = local.pin();
                        }
                    });
                }
            });
            let s = collector.stats();
            assert_eq!(
                s.registrations, THREADS,
                "{policy}: a handle-driven loop registers exactly once per thread"
            );
            assert_eq!(
                s.local_pins,
                THREADS * OPS,
                "{policy}: every local pin counted, flushed on handle drop"
            );
        }
    }

    #[test]
    fn stats_are_consistent() {
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let local = collector.register();
            {
                let guard = local.pin();
                for _ in 0..10 {
                    let p = Box::into_raw(Box::new(7u32));
                    unsafe { guard.defer_drop(p) };
                }
            }
            for _ in 0..8 {
                local.flush();
            }
            let s = collector.stats();
            assert_eq!(s.retired, 10, "{policy}");
            assert_eq!(s.freed, 10, "{policy}");
            assert_eq!(s.unreclaimed, 0, "{policy}");
            assert!(s.epoch >= 2, "{policy}");
        }
    }
}
