//! Lifecycle and pin-accounting tests for the per-thread session handles.
//!
//! The acceptance bar for the handle API: a handle-driven workload must
//! register with the reclamation collector once per thread (at `handle()`
//! acquisition), never per operation — verified
//! through `abebr::CollectorStats` — and handles must be safe through the
//! awkward parts of their lifecycle (drop while a guard is live, several
//! handles on one thread, handles outliving a completed run).

use std::sync::Arc;

use abtree::{ConcurrentMap, ElimABTree, OccABTree};
use rand::prelude::*;

/// A handle-driven workload registers once per thread, not once per
/// operation: the `CollectorStats`-backed check that the trees' per-operation
/// paths only pin through the session's own registration.
#[test]
fn handle_workload_registers_once_per_thread() {
    const THREADS: u64 = 4;
    const OPS: u64 = 2_000;
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let baseline = tree.collector().stats();

    let mut workers = Vec::new();
    for t in 0..THREADS {
        let tree = Arc::clone(&tree);
        workers.push(std::thread::spawn(move || {
            let mut session = tree.handle();
            let mut rng = StdRng::seed_from_u64(t);
            let mut scan_buf = Vec::new();
            for i in 0..OPS {
                let k = rng.gen_range(0..512u64);
                match i % 4 {
                    0 => {
                        session.insert(k, k);
                    }
                    1 => {
                        session.delete(k);
                    }
                    2 => {
                        session.get(k);
                    }
                    _ => session.range(k, k + 16, &mut scan_buf),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let stats = tree.collector().stats();
    let registrations = stats.registrations - baseline.registrations;
    assert_eq!(
        registrations, THREADS,
        "expected exactly one registration per worker (the handle \
         acquisition), got {registrations} for {THREADS} threads x {OPS} ops"
    );
    // Every operation pinned, and every one of those pins was a cheap local
    // re-pin through the session's own registration.
    assert!(
        stats.local_pins >= THREADS * OPS,
        "local re-pins ({}) must cover all {} operations",
        stats.local_pins,
        THREADS * OPS
    );
}

/// Two independent handles on one thread observe each other's writes and
/// can be dropped in either order.
#[test]
fn two_handles_on_one_thread() {
    let tree: OccABTree = OccABTree::new();
    let mut a = tree.handle();
    let mut b = tree.handle();
    assert_eq!(a.insert(1, 10), None);
    assert_eq!(b.insert(2, 20), None);
    assert_eq!(a.get(2), Some(20));
    assert_eq!(b.get(1), Some(10));
    drop(a);
    // The surviving handle keeps working after its sibling is gone.
    assert_eq!(b.delete(1), Some(10));
    assert_eq!(b.scan_len(0, 100), 1);
    drop(b);
    assert_eq!(tree.key_sum(), 2);
}

/// Dropping the EBR registration while one of its guards is still alive
/// must keep the registration (and the pinned epoch) alive until the guard
/// goes away; nothing is freed under the guard and nothing leaks after it.
#[test]
fn drop_handle_while_pinned_guard_outlives_it() {
    let collector = abebr::Collector::new();
    let handle = collector.register();
    let guard = handle.pin();
    drop(handle); // handle gone, guard still pinning the thread
    assert!(collector.debug_any_thread_pinned());
    let p = Box::into_raw(Box::new(0xAB_u64));
    // SAFETY: `p` is a fresh `Box` allocation that nothing else holds,
    // retired exactly once.
    unsafe { guard.defer_drop(p) };
    drop(guard);
    assert!(!collector.debug_any_thread_pinned());
    // The registration is gone and its bag stashed; another handle's
    // collection drains the stash.
    let flusher = collector.register();
    for _ in 0..8 {
        flusher.flush();
    }
    assert_eq!(collector.stats().freed, 1, "retired object reclaimed");
}

/// A handle opened before a benchmark-style run remains fully usable after
/// the run's worker threads (and their handles) are gone, and agrees with
/// the quiescent key-sum.
#[test]
fn handle_outlives_a_completed_run() {
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let mut survivor = tree.handle();
    survivor.insert(1_000_000, 1);

    let mut net: i128 = 1_000_000;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..3u64 {
            let tree = Arc::clone(&tree);
            workers.push(scope.spawn(move || {
                let mut session = tree.handle();
                let mut rng = StdRng::seed_from_u64(0xD0 + t);
                let mut local: i128 = 0;
                for _ in 0..5_000 {
                    let k = rng.gen_range(0..256u64);
                    if rng.gen_bool(0.5) {
                        if session.insert(k, k).is_none() {
                            local += k as i128;
                        }
                    } else if session.delete(k).is_some() {
                        local -= k as i128;
                    }
                }
                local
            }));
        }
        for w in workers {
            net += w.join().unwrap();
        }
    });

    // The pre-run handle still operates and sees the run's results.
    assert_eq!(survivor.get(1_000_000), Some(1));
    assert_eq!(survivor.delete(1_000_000), Some(1));
    net -= 1_000_000;
    assert_eq!(tree.key_sum() as i128, net, "paper §6 key-sum validation");
    survivor.check_invariants().unwrap();
}

/// N threads x 1 handle each, hammering a small key range, validated
/// against the `key_sum` checksum: the pin/unpin protocol under contention
/// (on one CPU the threads interleave at preemption points).
#[test]
fn n_threads_one_handle_each_stress_keysum() {
    const THREADS: u64 = 8;
    const OPS: u64 = 30_000;
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let tree = Arc::clone(&tree);
        workers.push(std::thread::spawn(move || {
            let mut session = tree.handle();
            let mut rng = StdRng::seed_from_u64(0x57E55 + t);
            let mut net: i128 = 0;
            for _ in 0..OPS {
                let k = rng.gen_range(0..128u64);
                if rng.gen_bool(0.5) {
                    if session.insert(k, k).is_none() {
                        net += k as i128;
                    }
                } else if session.delete(k).is_some() {
                    net -= k as i128;
                }
            }
            net
        }));
    }
    let mut net = 0i128;
    for w in workers {
        net += w.join().unwrap();
    }
    tree.check_invariants().unwrap();
    assert_eq!(ConcurrentMap::key_sum(&*tree) as i128, net);
}

/// The object-safe factory path (`Box<dyn ConcurrentMap>`) produces working
/// sessions too — the registry/harness shape.
#[test]
fn dyn_factory_sessions() {
    let boxed: Box<dyn ConcurrentMap> = Box::new(OccABTree::<absync::McsLock>::new());
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let map: &dyn ConcurrentMap = &*boxed;
            scope.spawn(move || {
                let mut session = map.handle();
                for k in 0..500u64 {
                    session.insert(t * 1_000 + k, k);
                }
                assert_eq!(session.scan_len(t * 1_000, 500), 500);
            });
        }
    });
}
