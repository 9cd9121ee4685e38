//! Multi-threaded stress tests for the OCC-ABtree and Elim-ABtree.
//!
//! The key validation technique mirrors the paper's §6 "Validation": every
//! thread tracks the sum of keys it successfully inserted and deleted; at the
//! end, (sum inserted - sum deleted) across all threads must equal the sum of
//! keys remaining in the tree.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use absync::RawNodeLock;
use abtree::{AbTree, ElimABTree, OccABTree};
use rand::prelude::*;

mod common;

fn thread_count() -> usize {
    abtree::par::detected_parallelism().clamp(2, 8)
}

/// Runs a mixed insert/delete/find workload and validates the key-sum
/// invariant plus the structural invariants.
fn run_mixed_workload<const ELIM: bool, L: RawNodeLock>(
    tree: Arc<AbTree<ELIM, L>>,
    key_range: u64,
    ops_per_thread: usize,
    update_percent: u32,
) {
    let threads = thread_count();
    let mut handles = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(&tree);
        handles.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + t as u64);
            let mut inserted_sum: i128 = 0;
            let mut deleted_sum: i128 = 0;
            for _ in 0..ops_per_thread {
                let key = rng.gen_range(0..key_range);
                let p = rng.gen_range(0..100u32);
                if p < update_percent / 2 {
                    if tree.insert(key, key.wrapping_mul(31)).is_none() {
                        inserted_sum += key as i128;
                    }
                } else if p < update_percent {
                    if tree.delete(key).is_some() {
                        deleted_sum += key as i128;
                    }
                } else {
                    // Reads must observe only values we actually store.
                    if let Some(v) = tree.get(key) {
                        assert_eq!(v, key.wrapping_mul(31), "corrupt value for {key}");
                    }
                }
            }
            inserted_sum - deleted_sum
        }));
    }
    let mut net: i128 = 0;
    for h in handles {
        net += h.join().unwrap();
    }
    tree.check_invariants().expect("invariants violated");
    assert_eq!(
        tree.key_sum() as i128,
        net,
        "key-sum validation failed (paper §6 validation scheme)"
    );
}

#[test]
fn occ_uniform_update_heavy() {
    let tree: Arc<OccABTree> = Arc::new(OccABTree::new());
    run_mixed_workload(tree, 10_000, 40_000, 100);
}

#[test]
fn occ_uniform_mixed() {
    let tree: Arc<OccABTree> = Arc::new(OccABTree::new());
    run_mixed_workload(tree, 50_000, 40_000, 40);
}

#[test]
fn elim_uniform_update_heavy() {
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    run_mixed_workload(tree, 10_000, 40_000, 100);
}

#[test]
fn elim_high_contention_few_keys() {
    // A tiny key range concentrates all updates on one or two leaves, which
    // is exactly the regime where publishing elimination fires.
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    run_mixed_workload(tree, 16, 60_000, 100);
}

#[test]
fn occ_high_contention_few_keys() {
    let tree: Arc<OccABTree> = Arc::new(OccABTree::new());
    run_mixed_workload(tree, 16, 60_000, 100);
}

#[test]
fn elim_single_hot_key() {
    // Every thread repeatedly inserts/deletes the *same* key: the most
    // extreme elimination scenario (paper Fig. 11's setting).
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let mut main_session = tree.handle();
    // Surround the hot key so the leaf never becomes the root-only case.
    for k in 0..8u64 {
        main_session.insert(k * 100, 0);
    }
    let threads = thread_count();
    let mut handles = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(&tree);
        handles.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut rng = StdRng::seed_from_u64(t as u64);
            let mut net = 0i64;
            for _ in 0..50_000 {
                if rng.gen_bool(0.5) {
                    if tree.insert(42, 4242).is_none() {
                        net += 1;
                    }
                } else if tree.delete(42).is_some() {
                    net -= 1;
                }
            }
            net
        }));
    }
    let mut net = 0i64;
    for h in handles {
        net += h.join().unwrap();
    }
    tree.check_invariants().unwrap();
    let present = main_session.get(42).is_some();
    assert_eq!(net, if present { 1 } else { 0 });
    // The value, when present, must be the one every inserter writes.
    if present {
        assert_eq!(main_session.get(42), Some(4242));
    }
}

#[test]
fn concurrent_readers_never_see_phantoms() {
    // Writers insert keys from a fixed "legal" set; readers assert that any
    // key they observe maps to the writer's value function.
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    for t in 0..thread_count() / 2 {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut rng = StdRng::seed_from_u64(77 + t as u64);
            while !stop.load(Ordering::Relaxed) {
                let k = rng.gen_range(0..2_000u64);
                if rng.gen_bool(0.5) {
                    tree.insert(k, k + 1);
                } else {
                    tree.delete(k);
                }
            }
        }));
    }
    let mut readers = Vec::new();
    for t in 0..thread_count() / 2 {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut rng = StdRng::seed_from_u64(999 + t as u64);
            let mut observed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = rng.gen_range(0..2_000u64);
                if let Some(v) = tree.get(k) {
                    assert_eq!(v, k + 1, "reader observed a value never written");
                    observed += 1;
                }
            }
            observed
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    tree.check_invariants().unwrap();
}

/// Scanners racing inserters must only ever observe atomic snapshots.
///
/// Each writer inserts the keys of a disjoint block in **ascending** order,
/// so any linearization of the execution leaves each block's present keys a
/// contiguous prefix of the block.  A non-atomic scan can observe a key
/// while missing an earlier-inserted (smaller) key of the same block; the
/// validated leaf-walking scan must never do so, and consequently each
/// block's observed key-sum must be one a linearization permits (the sum of
/// a prefix).  On one CPU the race is rarer (preemption points only) but
/// the property is the same.
#[test]
fn scans_racing_inserters_observe_only_linearizable_snapshots() {
    const WRITERS: u64 = 3;
    const BLOCK: u64 = 4_000;
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let stop = Arc::new(AtomicBool::new(false));

    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let tree = Arc::clone(&tree);
        writers.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            for i in 0..BLOCK {
                let k = w * BLOCK + i;
                assert_eq!(tree.insert(k, k), None);
            }
        }));
    }

    let mut scanners = Vec::new();
    for s in 0..2 {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        scanners.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut rng = StdRng::seed_from_u64(0x5CA + s as u64);
            let mut out = Vec::new();
            let mut scans = 0u64;
            loop {
                let done = stop.load(Ordering::Acquire);
                // Mix whole-space scans with random sub-windows.
                let (lo, hi) = if rng.gen_bool(0.5) {
                    (0, WRITERS * BLOCK - 1)
                } else {
                    let a = rng.gen_range(0..WRITERS * BLOCK);
                    let b = rng.gen_range(0..WRITERS * BLOCK);
                    (a.min(b), a.max(b))
                };
                tree.range(lo, hi, &mut out);
                assert!(
                    out.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan output must be sorted and duplicate-free"
                );
                for w in 0..WRITERS {
                    let base = w * BLOCK;
                    // Keys of block `w` inside the scanned window, in order.
                    let observed: Vec<u64> = out
                        .iter()
                        .map(|e| e.0)
                        .filter(|&k| k >= base && k < base + BLOCK)
                        .collect();
                    // The window clips the block to [from, ..]; an atomic
                    // snapshot must contain a *contiguous run* starting at
                    // the clip point: key `k` present implies every earlier-
                    // inserted key of the block (down to the clip) present.
                    let from = lo.max(base);
                    for (i, &k) in observed.iter().enumerate() {
                        assert_eq!(
                            k,
                            from + i as u64,
                            "scan saw key {k} but missed an earlier-inserted \
                             key of block {w}: not an atomic snapshot"
                        );
                    }
                    let n = observed.len() as u64;
                    let lin_sum = n * from + n.saturating_sub(1) * n / 2;
                    assert_eq!(
                        observed.iter().sum::<u64>(),
                        lin_sum,
                        "block {w} key-sum is one no linearization permits"
                    );
                }
                scans += 1;
                if done {
                    return scans;
                }
            }
        }));
    }

    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    for s in scanners {
        assert!(s.join().unwrap() > 0, "scanner never completed a scan");
    }
    // After the race, a scan sees exactly everything.
    let mut out = Vec::new();
    tree.handle().range(0, WRITERS * BLOCK - 1, &mut out);
    assert_eq!(out.len() as u64, WRITERS * BLOCK);
    tree.check_invariants().unwrap();
}

#[test]
fn grow_concurrently_then_verify_contents() {
    // Threads insert disjoint key ranges; afterwards every key must be
    // present exactly once with its own value.
    let tree: Arc<OccABTree> = Arc::new(OccABTree::new());
    let per_thread = 20_000u64;
    let threads = thread_count() as u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(&tree);
        handles.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let base = t * per_thread;
            for k in base..base + per_thread {
                assert_eq!(tree.insert(k, !k), None);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    tree.check_invariants().unwrap();
    assert_eq!(tree.len() as u64, threads * per_thread);
    let mut rng = StdRng::seed_from_u64(3);
    let mut session = tree.handle();
    for _ in 0..10_000 {
        let k = rng.gen_range(0..threads * per_thread);
        assert_eq!(session.get(k), Some(!k));
    }
}

#[test]
fn concurrent_deletes_shrink_to_empty() {
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let n = 50_000u64;
    let mut prefill = tree.handle();
    for k in 0..n {
        prefill.insert(k, k);
    }
    drop(prefill);
    let threads = thread_count() as u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(&tree);
        handles.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut deleted = 0u64;
            let mut k = t;
            while k < n {
                if tree.delete(k).is_some() {
                    deleted += 1;
                }
                k += threads;
            }
            deleted
        }));
    }
    let mut total = 0u64;
    for h in handles {
        total += h.join().unwrap();
    }
    assert_eq!(total, n);
    tree.check_invariants().unwrap();
    assert!(tree.is_empty());
}

#[test]
fn contended_inserts_of_same_keys_agree() {
    // All threads try to insert the same key set with different values; for
    // each key exactly one thread must win, and the stored value must be the
    // winner's.
    let tree: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    let threads = thread_count() as u64;
    let keys = 5_000u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(&tree);
        handles.push(std::thread::spawn(move || {
            let mut tree = tree.handle();
            let mut wins = Vec::new();
            for k in 0..keys {
                if tree.insert(k, t).is_none() {
                    wins.push(k);
                }
            }
            wins
        }));
    }
    let mut all_wins = vec![0u32; keys as usize];
    let mut winner_of = vec![u64::MAX; keys as usize];
    for (t, h) in handles.into_iter().enumerate() {
        for k in h.join().unwrap() {
            all_wins[k as usize] += 1;
            winner_of[k as usize] = t as u64;
        }
    }
    assert!(all_wins.iter().all(|&c| c == 1), "every key has one winner");
    let mut session = tree.handle();
    for k in 0..keys {
        assert_eq!(session.get(k), Some(winner_of[k as usize]));
    }
    tree.check_invariants().unwrap();
}

/// A batch's lockstep pass, which prefetches every node it walks, and its
/// ops walk nodes that two threads are splitting, merging and retiring
/// (the `asan` job checks they touch none after it is freed).
#[test]
fn prefetch_walks_paths_while_two_threads_split_and_merge() {
    common::apply_while_splits_and_merges_run(Arc::new(ElimABTree::new()));
    common::apply_while_splits_and_merges_run(Arc::new(OccABTree::new()));
}
