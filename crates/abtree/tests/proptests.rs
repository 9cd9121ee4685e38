//! Randomized oracle tests: the trees must behave exactly like a sequential
//! ordered map for any sequence of operations, and their structural
//! invariants must hold after any such sequence.
//!
//! These were originally `proptest` properties; the offline build cannot use
//! the `proptest` crate, so the same properties are driven by seeded
//! pseudo-random workloads (64 cases each, like the original
//! `ProptestConfig::with_cases(64)`).  Every failure message includes the
//! case seed, so a failing workload can be replayed deterministically.

use std::collections::{BTreeMap, BTreeSet};

use abtree::{ConcurrentMap, ElimABTree, OccABTree};
use rand::prelude::*;

const CASES: u64 = 64;

/// An operation in a generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
    Get(u64),
}

fn random_ops(rng: &mut StdRng, key_space: u64, max_len: usize) -> Vec<Op> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            let k = rng.gen_range(0..key_space);
            match rng.gen_range(0..3u32) {
                0 => Op::Insert(k, rng.gen::<u64>()),
                1 => Op::Delete(k),
                _ => Op::Get(k),
            }
        })
        .collect()
}

/// Applies `ops` (through a per-thread session handle, as real callers do)
/// to both the tree under test and a `BTreeMap` oracle, asserting identical
/// observable behaviour, then checks invariants.
fn oracle_test<M>(tree: &M, ops: &[Op], collect: impl Fn(&M) -> Vec<(u64, u64)>, seed: u64)
where
    M: ConcurrentMap,
{
    let mut session = tree.handle();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let expected = match oracle.get(&k) {
                    Some(&old) => Some(old),
                    None => {
                        oracle.insert(k, v);
                        None
                    }
                };
                assert_eq!(
                    session.insert(k, v),
                    expected,
                    "insert({k}, {v}) [seed {seed}]"
                );
            }
            Op::Delete(k) => {
                let expected = oracle.remove(&k);
                assert_eq!(session.delete(k), expected, "delete({k}) [seed {seed}]");
            }
            Op::Get(k) => {
                let expected = oracle.get(&k).copied();
                assert_eq!(session.get(k), expected, "get({k}) [seed {seed}]");
            }
        }
    }
    drop(session);
    let collected = collect(tree);
    let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(
        collected, expected,
        "final contents differ from oracle [seed {seed}]"
    );
}

/// Small key space: lots of duplicate inserts/deletes of the same key,
/// exercising the "already present"/"already absent" paths and the
/// elimination record logic.
#[test]
fn occ_matches_btreemap_small_keyspace() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0CC_0001 ^ seed);
        let ops = random_ops(&mut rng, 32, 600);
        let tree: OccABTree = OccABTree::new();
        oracle_test(&tree, &ops, |t| t.collect(), seed);
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("invariants [seed {seed}]: {e:?}"));
    }
}

#[test]
fn elim_matches_btreemap_small_keyspace() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE11_0001 ^ seed);
        let ops = random_ops(&mut rng, 32, 600);
        let tree: ElimABTree = ElimABTree::new();
        oracle_test(&tree, &ops, |t| t.collect(), seed);
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("invariants [seed {seed}]: {e:?}"));
    }
}

/// Larger key space: the tree grows several levels, exercising splitting
/// inserts, fixTagged and fixUnderfull along random shapes.
#[test]
fn occ_matches_btreemap_large_keyspace() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0CC_0002 ^ seed);
        let ops = random_ops(&mut rng, 10_000, 1_000);
        let tree: OccABTree = OccABTree::new();
        oracle_test(&tree, &ops, |t| t.collect(), seed);
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("invariants [seed {seed}]: {e:?}"));
    }
}

#[test]
fn elim_matches_btreemap_large_keyspace() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE11_0002 ^ seed);
        let ops = random_ops(&mut rng, 10_000, 1_000);
        let tree: ElimABTree = ElimABTree::new();
        oracle_test(&tree, &ops, |t| t.collect(), seed);
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("invariants [seed {seed}]: {e:?}"));
    }
}

/// Insert-then-delete-everything must always return to an empty tree with
/// a single root leaf.
#[test]
fn insert_all_delete_all_returns_to_empty() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDE1_0003 ^ seed);
        let len = rng.gen_range(1..800usize);
        let keys: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..100_000u64)).collect();

        let tree: ElimABTree = ElimABTree::new();
        let mut tree = tree.handle();
        for &k in &keys {
            assert_eq!(tree.insert(k, k ^ 0xdead), None, "[seed {seed}]");
        }
        assert_eq!(tree.len(), keys.len(), "[seed {seed}]");
        assert!(tree.check_invariants().is_ok(), "[seed {seed}]");
        for &k in &keys {
            assert_eq!(tree.delete(k), Some(k ^ 0xdead), "[seed {seed}]");
        }
        assert!(tree.is_empty(), "[seed {seed}]");
        assert!(tree.check_invariants().is_ok(), "[seed {seed}]");
        let stats = tree.stats();
        assert_eq!(stats.height, 1, "[seed {seed}]");
        assert_eq!(stats.leaves, 1, "[seed {seed}]");
    }
}

/// The native leaf-walking `range` agrees with a `BTreeMap` oracle at every
/// point of a randomized insert/delete interleaving, across window shapes:
/// random `[lo, hi]` windows, single points, inverted bounds (`lo > hi`),
/// and the whole key space (which spans every leaf boundary).
#[test]
fn native_range_matches_btreemap_oracle() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5CA_0005 ^ seed);
        // Alternate between a dense small key space (leaves churn through
        // splits and merges) and a sparse large one.
        let key_space: u64 = if seed % 2 == 0 { 64 } else { 20_000 };
        let tree: ElimABTree = ElimABTree::new();
        let mut tree = tree.handle();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut out = Vec::new();
        for step in 0..800 {
            let k = rng.gen_range(0..key_space);
            if rng.gen_bool(0.6) {
                if tree.insert(k, k ^ seed).is_none() {
                    oracle.insert(k, k ^ seed);
                }
            } else {
                assert_eq!(tree.delete(k), oracle.remove(&k), "[seed {seed}]");
            }
            if step % 16 != 0 {
                continue;
            }
            let (lo, hi) = match rng.gen_range(0..4u32) {
                0 => {
                    let a = rng.gen_range(0..key_space);
                    let b = rng.gen_range(0..key_space);
                    (a.min(b), a.max(b))
                }
                1 => {
                    let a = rng.gen_range(0..key_space);
                    (a, a) // single point
                }
                2 => {
                    let a = rng.gen_range(1..key_space);
                    (a, a - 1) // inverted: must come back empty
                }
                _ => (0, u64::MAX - 1), // whole key space
            };
            tree.range(lo, hi, &mut out);
            let expected: Vec<(u64, u64)> = if lo > hi {
                Vec::new()
            } else {
                oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
            };
            assert_eq!(out, expected, "range({lo}, {hi}) [seed {seed}]");
            if lo <= hi {
                assert_eq!(
                    tree.scan_len(lo, hi - lo + 1),
                    expected.len(),
                    "scan_len({lo}, {}) [seed {seed}]",
                    hi - lo + 1
                );
            }
        }
    }
}

/// Deterministic leaf-boundary sweep: with contiguous keys the tree packs
/// leaves tightly, so stepping windows across the space crosses every leaf
/// boundary; deleting a band afterwards moves the boundaries and the windows
/// must still agree with the oracle.
#[test]
fn range_windows_across_leaf_boundaries() {
    fn check(
        tree: &mut abtree::TreeHandle<'_, false>,
        oracle: &BTreeMap<u64, u64>,
        out: &mut Vec<(u64, u64)>,
    ) {
        for lo in (0..1_000u64).step_by(37) {
            for width in [0u64, 1, 10, 150] {
                let hi = lo + width;
                tree.range(lo, hi, out);
                let expected: Vec<(u64, u64)> =
                    oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(*out, expected, "range({lo}, {hi})");
            }
        }
    }

    let tree: OccABTree = OccABTree::new();
    let mut tree = tree.handle();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for k in 0..1_000u64 {
        tree.insert(k, k * 3);
        oracle.insert(k, k * 3);
    }
    let mut out = Vec::new();
    check(&mut tree, &oracle, &mut out);
    // Delete a band in the middle (forces merges/redistributions) and a
    // comb pattern elsewhere, then sweep again.
    for k in 400..600u64 {
        tree.delete(k);
        oracle.remove(&k);
    }
    for k in (0..400u64).step_by(3) {
        tree.delete(k);
        oracle.remove(&k);
    }
    tree.check_invariants().unwrap();
    check(&mut tree, &oracle, &mut out);
}

/// The key-sum validation used by the benchmark harness agrees with the
/// actual contents for arbitrary workloads.
#[test]
fn key_sum_matches_contents() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5F3_0004 ^ seed);
        let ops = random_ops(&mut rng, 4_000, 800);
        let tree: OccABTree = OccABTree::new();
        let mut tree = tree.handle();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    tree.insert(k, v);
                }
                Op::Delete(k) => {
                    tree.delete(k);
                }
                Op::Get(k) => {
                    tree.get(k);
                }
            }
        }
        let expected: u128 = tree.collect().iter().map(|&(k, _)| k as u128).sum();
        assert_eq!(tree.key_sum(), expected, "[seed {seed}]");
    }
}
