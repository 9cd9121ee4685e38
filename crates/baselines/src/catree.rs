//! Contention-adapting search tree (CATree) baseline.
//!
//! Sagonas & Winblad's CATree (paper §2, "Distribution/contention aware data
//! structures") is, per the paper's own figures, the fastest competitor on
//! uniform update-heavy workloads, which makes it the key baseline for the
//! "up to 2x faster" OCC-ABtree claim.  It is an external binary tree whose
//! leaves ("base nodes") each hold a lock-protected *sequential* dictionary —
//! an AVL tree here, as in the paper's evaluation.  Every operation locks the
//! base node it lands in; the lock acquisition doubles as a contention probe:
//! contended acquisitions increase a statistic, uncontended ones decay it,
//! and a base node whose statistic crosses the high threshold is split in two
//! under a new routing node.
//!
//! Simplification relative to the original: base nodes are split on high
//! contention but never *joined* back on low contention.  The paper's
//! workloads have stationary contention, so the join path is not exercised
//! by the experiments reproduced here; see the substitution note in the
//! crate docs.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Mutex, TryLockError};

use abebr::{Collector, Guard};
use abtree::{ConcurrentMap, MapHandle};

use crate::avl::Avl;
use crate::{lock, OpCx, SessionHandle, SessionOps};

/// Contention statistic added on a contended lock acquisition.
const STAT_CONTENDED: i32 = 250;
/// Contention statistic subtracted on an uncontended acquisition.
const STAT_UNCONTENDED: i32 = 1;
/// Splitting threshold.
const STAT_SPLIT: i32 = 1000;

/// Mutable state of a base node, protected by its lock.
struct BaseData {
    tree: Avl,
    stat: i32,
}

/// A leaf of the routing tree: a lock-protected sequential AVL tree.
struct BaseNode {
    data: Mutex<BaseData>,
    /// Cleared when this base node has been replaced (by a split).
    valid: AtomicBool,
}

/// A node of the contention-adapting tree.
enum CaNode {
    /// Routing node: immutable key, mutable children.
    Route {
        /// Routing key: keys `< key` go left, keys `>= key` go right.
        key: u64,
        /// Left child.
        left: AtomicPtr<CaNode>,
        /// Right child.
        right: AtomicPtr<CaNode>,
    },
    /// Base node.
    Base(BaseNode),
}

/// The contention-adapting search tree.
pub struct CaTree {
    root: AtomicPtr<CaNode>,
    collector: Collector,
}

// SAFETY: shared state is behind atomics and locks; node lifetime is managed
// by epoch-based reclamation.
unsafe impl Send for CaTree {}
unsafe impl Sync for CaTree {}

impl Default for CaTree {
    fn default() -> Self {
        Self::new()
    }
}

fn new_base(tree: Avl, stat: i32) -> *mut CaNode {
    Box::into_raw(Box::new(CaNode::Base(BaseNode {
        data: Mutex::new(BaseData { tree, stat }),
        valid: AtomicBool::new(true),
    })))
}

impl CaTree {
    /// Creates an empty tree consisting of a single empty base node.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty tree reclaiming through an existing [`Collector`]
    /// (which selects the SMR backend — epochs or hazard pointers).
    pub fn with_collector(collector: Collector) -> Self {
        Self {
            root: AtomicPtr::new(new_base(Avl::new(), 0)),
            collector,
        }
    }

    /// Applies `f` to the base node responsible for `key` while holding its
    /// lock, handling contention adaptation and splitting.  `guard` is the
    /// calling session's pin, which keeps unlinked base nodes alive.
    fn with_base<R>(&self, key: u64, guard: &Guard, f: impl FnOnce(&mut Avl) -> R) -> R {
        loop {
            // Descend the routing tree (no locks).
            let mut parent: *mut CaNode = ptr::null_mut();
            let mut went_left = false;
            let mut cur = self.root.load(Ordering::Acquire);
            let base = loop {
                // SAFETY: nodes reachable while pinned stay allocated.
                match unsafe { &*cur } {
                    CaNode::Route {
                        key: rkey,
                        left,
                        right,
                    } => {
                        parent = cur;
                        went_left = key < *rkey;
                        cur = if went_left { left } else { right }.load(Ordering::Acquire);
                    }
                    CaNode::Base(b) => break b,
                }
            };

            // Lock the base node, detecting contention exactly like the
            // original: "how often a lock is already acquired when a thread
            // attempts to acquire it".
            let (mut data, contended) = match base.data.try_lock() {
                Ok(g) => (g, false),
                Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), false),
                Err(TryLockError::WouldBlock) => (lock(&base.data), true),
            };
            if !base.valid.load(Ordering::Acquire) {
                drop(data);
                continue;
            }

            let result = f(&mut data.tree);

            // Contention adaptation.
            data.stat += if contended {
                STAT_CONTENDED
            } else {
                -STAT_UNCONTENDED
            };
            if data.stat > STAT_SPLIT {
                if let Some((low, split_key, high)) = data.tree.split_in_half() {
                    let new_left = new_base(low, 0);
                    let new_right = new_base(high, 0);
                    let route = Box::into_raw(Box::new(CaNode::Route {
                        key: split_key,
                        left: AtomicPtr::new(new_left),
                        right: AtomicPtr::new(new_right),
                    }));
                    // Publish the new subtree in place of this base node.
                    if parent.is_null() {
                        self.root.store(route, Ordering::Release);
                    } else {
                        // SAFETY: route nodes are never reclaimed (no joins).
                        match unsafe { &*parent } {
                            CaNode::Route { left, right, .. } => {
                                if went_left {
                                    left.store(route, Ordering::Release);
                                } else {
                                    right.store(route, Ordering::Release);
                                }
                            }
                            CaNode::Base(_) => unreachable!("parent is a route node"),
                        }
                    }
                    base.valid.store(false, Ordering::Release);
                    drop(data);
                    // SAFETY: the old base node was just unlinked.
                    unsafe { guard.defer_drop(cur) };
                    return result;
                }
                data.stat = 0;
            } else if data.stat < -STAT_SPLIT {
                // Joins are not implemented; clamp the statistic.
                data.stat = -STAT_SPLIT;
            }
            return result;
        }
    }

    /// Number of base nodes currently in the tree (quiescent only) — a proxy
    /// for how far contention adaptation has split the structure.
    pub fn base_node_count(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self.root.load(Ordering::Acquire)];
        while let Some(ptr) = stack.pop() {
            if ptr.is_null() {
                continue;
            }
            // SAFETY: quiescent access.
            match unsafe { &*ptr } {
                CaNode::Route { left, right, .. } => {
                    stack.push(left.load(Ordering::Acquire));
                    stack.push(right.load(Ordering::Acquire));
                }
                CaNode::Base(_) => count += 1,
            }
        }
        count
    }
}

impl SessionOps for CaTree {
    fn collector(&self) -> Option<&Collector> {
        Some(&self.collector)
    }

    fn op_insert(&self, key: u64, value: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        self.with_base(key, cx.guard(), |avl| avl.insert(key, value))
    }

    fn op_delete(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        self.with_base(key, cx.guard(), |avl| avl.remove(key))
    }

    fn op_get(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        // The CATree locks base nodes even for searches (paper §6.1: "All of
        // the CATree's operations (even searches) require locking a leaf").
        self.with_base(key, cx.guard(), |avl| avl.get(key))
    }

    /// Walks the routing tree in key order, pruned to the window, and takes
    /// each base node's share under its lock.  The stack holds child slots
    /// rather than nodes: a base found invalid was replaced by a split, and
    /// re-reading its slot yields the route node that took its place.
    fn op_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, cx: &mut OpCx<'_>) {
        let _guard = cx.guard();
        let mut slots = vec![&self.root];
        while let Some(slot) = slots.pop() {
            let node = slot.load(Ordering::Acquire);
            // SAFETY: pinned, so a base unlinked after this load stays
            // allocated; route nodes, and the slots borrowed from them,
            // live as long as the tree.
            match unsafe { &*node } {
                CaNode::Route { key, left, right } => {
                    // Right first, so the left subtree (keys < `key`) pops
                    // first.
                    if hi >= *key {
                        slots.push(right);
                    }
                    if lo < *key {
                        slots.push(left);
                    }
                }
                CaNode::Base(base) => {
                    let data = lock(&base.data);
                    if base.valid.load(Ordering::Acquire) {
                        data.tree.range(lo, hi, out);
                    } else {
                        // The split stored its route node in this slot before
                        // invalidating the base, both under the lock just
                        // taken.
                        slots.push(slot);
                    }
                }
            }
        }
    }
}

impl ConcurrentMap for CaTree {
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(SessionHandle::try_new(self)?))
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        SessionOps::collector(self).map(Collector::stats)
    }
}

impl Drop for CaTree {
    fn drop(&mut self) {
        let mut stack = vec![self.root.load(Ordering::Relaxed)];
        while let Some(ptr) = stack.pop() {
            if ptr.is_null() {
                continue;
            }
            // SAFETY: exclusive access during drop; every reachable node is
            // freed exactly once (invalidated nodes are unreachable and are
            // owned by the collector's garbage bags).
            let node = unsafe { Box::from_raw(ptr) };
            if let CaNode::Route { left, right, .. } = &*node {
                stack.push(left.load(Ordering::Relaxed));
                stack.push(right.load(Ordering::Relaxed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::sync::Arc;

    #[test]
    fn sequential_oracle_comparison() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = CaTree::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..3_000u64);
            if rng.gen_bool(0.5) {
                let expected = oracle.get(&k).copied();
                if expected.is_none() {
                    oracle.insert(k, k);
                }
                assert_eq!(h.insert(k, k), expected);
            } else {
                assert_eq!(h.delete(k), oracle.remove(&k));
            }
        }
        let keys: Vec<u64> = crate::entries(&t).iter().map(|&(k, _)| k).collect();
        let expected: Vec<u64> = oracle.keys().copied().collect();
        assert_eq!(keys, expected);
    }

    /// Raises the contention statistic of the base node covering `key`
    /// past the split threshold, so the next operation landing there
    /// splits it.  Splits need true contention otherwise, which one
    /// hardware thread never produces.  The caller must be the only thread
    /// that splits (or otherwise frees) base nodes.
    fn heat(t: &CaTree, key: u64) {
        let mut cur = t.root.load(Ordering::Acquire);
        loop {
            // SAFETY: route nodes live as long as the tree, and base nodes
            // are freed only by splits, which only the caller performs.
            match unsafe { &*cur } {
                CaNode::Route {
                    key: rkey,
                    left,
                    right,
                } => {
                    cur = if key < *rkey { left } else { right }.load(Ordering::Acquire);
                }
                CaNode::Base(base) => {
                    lock(&base.data).stat = STAT_SPLIT + STAT_UNCONTENDED + 1;
                    return;
                }
            }
        }
    }

    #[test]
    fn forced_splits_keep_ranges_exact() {
        let mut rng = StdRng::seed_from_u64(0xCA7);
        let t = CaTree::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..4_000 {
            let k = rng.gen_range(0..2_000u64);
            if h.insert(k, k + 1).is_none() {
                oracle.insert(k, k + 1);
            }
        }
        for round in 0..40u64 {
            let k = rng.gen_range(0..2_000u64);
            heat(&t, k);
            assert_eq!(h.get(k), oracle.get(&k).copied());
            assert_eq!(
                t.base_node_count(),
                round as usize + 2,
                "one split per heated op"
            );
        }
        let mut out = Vec::new();
        for _ in 0..200 {
            let lo = rng.gen_range(0..2_100u64);
            let hi = lo + rng.gen_range(0..300);
            h.range(lo, hi, &mut out);
            let expected: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(
                out,
                expected,
                "range({lo}, {hi}) across {} bases",
                t.base_node_count()
            );
        }
        assert_eq!(crate::entries(&t), oracle.into_iter().collect::<Vec<_>>());
    }

    /// Splits never change the contents, so a scan racing them must return
    /// exactly the prefilled pairs, whether it finds a base still valid or
    /// re-reads the slot a split replaced it in.
    #[test]
    fn scans_racing_splits_see_every_pair() {
        let t = CaTree::new();
        let mut h = t.handle();
        let expected: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k * 2)).collect();
        for &(k, v) in &expected {
            h.insert(k, v);
        }
        let splitting = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            let scanner = scope.spawn(|| {
                let mut h = t.handle();
                let (mut out, mut scans) = (Vec::new(), 0);
                while splitting.load(Ordering::Relaxed) || scans < 20 {
                    h.range(0, 3_000, &mut out);
                    assert_eq!(out, expected);
                    scans += 1;
                }
            });
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..300 {
                let k = rng.gen_range(0..3_000u64);
                heat(&t, k);
                h.get(k);
            }
            splitting.store(false, Ordering::Relaxed);
            scanner.join().unwrap();
        });
        assert!(t.base_node_count() > 100);
    }

    #[test]
    fn contention_causes_splits() {
        // Contention adaptation counts `try_lock` failures, which require
        // true parallelism: on a single hardware thread the lock is almost
        // always free when sampled (a preemption adds one contended event
        // per scheduling quantum while thousands of uncontended operations
        // each subtract one), so a CA tree correctly never splits there,
        // and this test would fail for the right behavior.
        if abtree::par::detected_parallelism() < 2 {
            eprintln!("skipping contention_causes_splits: needs >1 hardware thread");
            return;
        }
        let t = Arc::new(CaTree::new());
        let mut h = t.handle();
        for k in 0..20_000u64 {
            h.insert(k, k);
        }
        assert_eq!(t.base_node_count(), 1, "no contention yet, single base");
        // How much contention one fixed-size round sees depends on how the
        // scheduler interleaves the workers (on two busy cores, sometimes
        // hardly at all), so run rounds until the first split — splits are
        // never undone — or a deadline no working adaptation comes near.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut rounds = 0u64;
        while t.base_node_count() == 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "contended workload should split base nodes ({rounds} rounds did not)"
            );
            let workers: Vec<_> = (0..8u64)
                .map(|tid| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        let mut h = t.handle();
                        let mut rng = StdRng::seed_from_u64(rounds * 8 + tid);
                        for _ in 0..30_000 {
                            let k = rng.gen_range(0..20_000u64);
                            if rng.gen_bool(0.5) {
                                h.insert(k, k);
                            } else {
                                h.delete(k);
                            }
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
            rounds += 1;
        }
    }

    #[test]
    fn concurrent_key_sum_validation() {
        let t = Arc::new(CaTree::new());
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                let mut rng = StdRng::seed_from_u64(100 + tid);
                let mut net: i128 = 0;
                for _ in 0..20_000 {
                    let k = rng.gen_range(0..5_000u64);
                    if rng.gen_bool(0.5) {
                        if h.insert(k, k).is_none() {
                            net += k as i128;
                        }
                    } else if h.delete(k).is_some() {
                        net -= k as i128;
                    }
                }
                net
            }));
        }
        let mut net = 0i128;
        for h in handles {
            net += h.join().unwrap();
        }
        assert_eq!(t.key_sum() as i128, net);
    }
}
