//! Lock-based external (leaf-oriented) binary search tree.
//!
//! This is the "distribution-naïve BST" baseline category of the paper's
//! evaluation (DGT15, and the lock-based relatives of Ellen et al. / NM14):
//! an *external* BST stores all key/value pairs in leaves; internal nodes
//! carry only routing keys.  Searches are lock-free; an insert locks the
//! leaf's parent and replaces the leaf with a three-node subtree; a delete
//! locks the grandparent and parent and splices the leaf (and its parent)
//! out.  Unlinked nodes are retired through epoch-based reclamation.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use abebr::Collector;
use abtree::{ConcurrentMap, MapHandle};
use absync::TatasLock;

use crate::{OpCx, SessionHandle, SessionOps};

/// Sentinel routing key larger than every user key (`u64::MAX` is reserved).
const INF: u64 = u64::MAX;

struct BstNode {
    key: u64,
    value: u64,
    is_leaf: bool,
    left: AtomicPtr<BstNode>,
    right: AtomicPtr<BstNode>,
    lock: TatasLock,
    marked: AtomicBool,
}

impl BstNode {
    fn leaf(key: u64, value: u64) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value,
            is_leaf: true,
            left: AtomicPtr::new(ptr::null_mut()),
            right: AtomicPtr::new(ptr::null_mut()),
            lock: TatasLock::new(),
            marked: AtomicBool::new(false),
        }))
    }

    fn internal(key: u64, left: *mut Self, right: *mut Self) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value: 0,
            is_leaf: false,
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
            lock: TatasLock::new(),
            marked: AtomicBool::new(false),
        }))
    }

    fn child(&self, go_left: bool) -> *mut Self {
        if go_left {
            self.left.load(Ordering::Acquire)
        } else {
            self.right.load(Ordering::Acquire)
        }
    }

    fn set_child(&self, go_left: bool, new: *mut Self) {
        if go_left {
            self.left.store(new, Ordering::Release);
        } else {
            self.right.store(new, Ordering::Release);
        }
    }
}

/// A lock-based external binary search tree.
pub struct LockExtBst {
    /// Sentinel root: an internal node with key `INF` whose left subtree
    /// holds all user keys and whose right child is a sentinel leaf.
    root: *mut BstNode,
    collector: Collector,
}

// SAFETY: shared state behind atomics/locks; reclamation via EBR.
unsafe impl Send for LockExtBst {}
unsafe impl Sync for LockExtBst {}

impl Default for LockExtBst {
    fn default() -> Self {
        Self::new()
    }
}

struct SearchResult {
    gp: *mut BstNode,
    gp_left: bool,
    p: *mut BstNode,
    p_left: bool,
    leaf: *mut BstNode,
}

impl LockExtBst {
    /// Creates an empty tree (two sentinel leaves under a sentinel root).
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty tree reclaiming through an existing [`Collector`]
    /// (which selects the SMR backend — epochs or hazard pointers).
    pub fn with_collector(collector: Collector) -> Self {
        let left_sentinel = BstNode::leaf(INF, 0);
        let right_sentinel = BstNode::leaf(INF, 0);
        let root = BstNode::internal(INF, left_sentinel, right_sentinel);
        Self { root, collector }
    }

    /// Routing: go left iff `key < node.key`.
    fn search(&self, key: u64) -> SearchResult {
        let mut gp = ptr::null_mut();
        let mut gp_left = false;
        let mut p = self.root;
        let mut p_left = true;
        // SAFETY: root is never reclaimed.
        let mut cur = unsafe { &*p }.child(true);
        loop {
            // SAFETY: nodes reachable while the caller is pinned.
            let node = unsafe { &*cur };
            if node.is_leaf {
                return SearchResult {
                    gp,
                    gp_left,
                    p,
                    p_left,
                    leaf: cur,
                };
            }
            gp = p;
            gp_left = p_left;
            p = cur;
            p_left = key < node.key;
            cur = node.child(p_left);
        }
    }
}

impl SessionOps for LockExtBst {
    fn collector(&self) -> Option<&Collector> {
        Some(&self.collector)
    }

    fn op_get(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        // Bind the session's pin explicitly: the lock-free search relies on
        // it, and this fails loudly if `collector()` ever stops arming it.
        let _guard = cx.guard();
        let res = self.search(key);
        // SAFETY: protected by the pinned epoch.
        let leaf = unsafe { &*res.leaf };
        if leaf.key == key {
            Some(leaf.value)
        } else {
            None
        }
    }

    fn op_insert(&self, key: u64, value: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        debug_assert_ne!(key, INF);
        let guard = cx.guard();
        loop {
            let res = self.search(key);
            // SAFETY: protected by the pinned epoch.
            let leaf = unsafe { &*res.leaf };
            if leaf.key == key {
                return Some(leaf.value);
            }
            // SAFETY: as above.
            let parent = unsafe { &*res.p };
            let _pg = parent.lock.lock_guard();
            if parent.marked.load(Ordering::Acquire) || parent.child(res.p_left) != res.leaf {
                continue;
            }
            // Replace the leaf with an internal node holding both leaves.
            let new_leaf = BstNode::leaf(key, value);
            let (routing, left, right) = if key < leaf.key {
                (leaf.key, new_leaf, res.leaf)
            } else {
                (key, res.leaf, new_leaf)
            };
            let new_internal = BstNode::internal(routing, left, right);
            parent.set_child(res.p_left, new_internal);
            drop(_pg);
            let _ = guard;
            return None;
        }
    }

    fn op_delete(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        let guard = cx.guard();
        loop {
            let res = self.search(key);
            // SAFETY: protected by the pinned epoch.
            let leaf = unsafe { &*res.leaf };
            if leaf.key != key {
                return None;
            }
            if res.gp.is_null() {
                // The leaf's parent is the sentinel root: cannot happen for
                // user keys because the root's left subtree always contains
                // at least the left sentinel leaf.
                return None;
            }
            // Lock top-down (grandparent then parent): all writers order
            // their acquisitions by depth, so no deadlock.
            // SAFETY: as above.
            let gparent = unsafe { &*res.gp };
            let parent = unsafe { &*res.p };
            let _gg = gparent.lock.lock_guard();
            if gparent.marked.load(Ordering::Acquire) || gparent.child(res.gp_left) != res.p {
                continue;
            }
            let _pg = parent.lock.lock_guard();
            if parent.marked.load(Ordering::Acquire) || parent.child(res.p_left) != res.leaf {
                continue;
            }
            let value = leaf.value;
            // Splice out the parent and the leaf: the grandparent adopts the
            // leaf's sibling.
            let sibling = parent.child(!res.p_left);
            parent.marked.store(true, Ordering::Release);
            // SAFETY: the leaf is still reachable (checked above).
            unsafe { &*res.leaf }.marked.store(true, Ordering::Release);
            gparent.set_child(res.gp_left, sibling);
            drop(_pg);
            drop(_gg);
            // SAFETY: parent and leaf were just unlinked.
            unsafe {
                guard.defer_drop(res.p);
                guard.defer_drop(res.leaf);
            }
            return Some(value);
        }
    }

    /// An in-order walk from the root with an explicit stack, pruned to
    /// the window.  Leaves are immutable and every node reached keeps the
    /// search-tree order, so each leaf found lies on its key's search path:
    /// the walk is one lock-free search per key.
    fn op_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, cx: &mut OpCx<'_>) {
        let _guard = cx.guard();
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            // SAFETY: the root is never reclaimed, and every other node was
            // read from a child pointer while pinned, which keeps it
            // allocated even if it is unlinked meanwhile.
            let node = unsafe { &*p };
            if node.is_leaf {
                if node.key != INF && (lo..=hi).contains(&node.key) {
                    out.push((node.key, node.value));
                }
                continue;
            }
            // Right first, so the left subtree (keys < `node.key`) pops
            // first.
            if hi >= node.key {
                stack.push(node.child(false));
            }
            if lo < node.key {
                stack.push(node.child(true));
            }
        }
    }
}

impl ConcurrentMap for LockExtBst {
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        Box::new(SessionHandle::new(self))
    }

    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(SessionHandle::try_new(self)?))
    }

    fn name(&self) -> &'static str {
        "ext-bst-lock"
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        SessionOps::collector(self).map(Collector::stats)
    }
}

impl Drop for LockExtBst {
    fn drop(&mut self) {
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            // SAFETY: exclusive access during drop.
            let node = unsafe { Box::from_raw(p) };
            if !node.is_leaf {
                stack.push(node.left.load(Ordering::Relaxed));
                stack.push(node.right.load(Ordering::Relaxed));
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
    fn sequential_oracle() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = LockExtBst::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..2_000u64);
            if rng.gen_bool(0.5) {
                let expected = oracle.get(&k).copied();
                if expected.is_none() {
                    oracle.insert(k, k + 1);
                }
                assert_eq!(h.insert(k, k + 1), expected);
            } else {
                assert_eq!(h.delete(k), oracle.remove(&k));
            }
        }
        let got = crate::entries(&t);
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn concurrent_key_sum_validation() {
        let t = Arc::new(LockExtBst::new());
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                let mut rng = StdRng::seed_from_u64(tid);
                let mut net: i128 = 0;
                for _ in 0..20_000 {
                    let k = rng.gen_range(0..1_000u64);
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

    #[test]
    fn delete_down_to_empty_and_reuse() {
        let t = LockExtBst::new();
        let mut h = t.handle();
        for k in 0..1_000u64 {
            h.insert(k, k);
        }
        for k in 0..1_000u64 {
            assert_eq!(h.delete(k), Some(k));
        }
        assert!(crate::entries(&t).is_empty());
        for k in 0..100u64 {
            assert_eq!(h.insert(k, k * 2), None);
            assert_eq!(h.get(k), Some(k * 2));
        }
    }
}
