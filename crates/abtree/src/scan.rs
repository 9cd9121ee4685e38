//! Linearizable range scans over the (a,b)-trees.
//!
//! The paper's trees only expose point operations, but the structure is an
//! ordered index, so a scan needs no new synchronization — only a careful
//! read protocol.  A scan of `[lo, hi]`:
//!
//! 1. descends from the entry node to the leaf whose key range contains the
//!    scan cursor, recording the **upper bound** of that leaf's key range
//!    (the tightest routing key to the right of the descent path);
//! 2. snapshots the leaf's pairs in `[lo, hi]` with one optimistic read,
//!    `Node::read` — the even/odd version double-collect of `searchLeaf`
//!    (Fig. 2) — whose reader also requires the leaf to be unmarked;
//! 3. advances the cursor to the recorded upper bound and repeats until the
//!    bound passes `hi`;
//! 4. finally **re-validates** every collected leaf: its version must be
//!    unchanged and it must still be unmarked.  If any check fails the whole
//!    scan retries.
//!
//! Linearizability argument: every structural update marks a node *before*
//! unlinking it (the replace step in `rebalance.rs`), so a leaf that is
//! unmarked at validation time is still reachable, and an unchanged (even)
//! version means its contents are exactly what the scan collected.  All
//! collection therefore finished before validation began, and every leaf's
//! `[collect, validate]` interval contains the instant validation started;
//! at that instant each collected leaf was simultaneously reachable with the
//! collected contents.  Since the reachable leaves partition the key space,
//! the concatenated snapshot is the tree's entire `[lo, hi]` content at that
//! instant — the scan's linearization point.

use abebr::Guard;
use absync::{Backoff, RawNodeLock};

use crate::node::Node;
use crate::persist::Persist;
use crate::tree::AbTree;
use crate::EMPTY_KEY;

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Collects every `(key, value)` pair with `lo <= key <= hi`, sorted by
    /// key, as a linearizable snapshot (see the module docs for the
    /// protocol).  `out` is cleared first; `lo > hi` yields an empty result.
    /// The caller's session guard keeps the traversed leaves alive; see
    /// [`crate::TreeHandle::range`] for the public entry point.
    pub(crate) fn range_in(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, guard: &Guard) {
        out.clear();
        if lo > hi || lo == EMPTY_KEY {
            return;
        }
        let hi = hi.min(EMPTY_KEY - 1);
        let mut backoff = Backoff::new();
        loop {
            out.clear();
            if self.try_range(lo, hi, out, guard) {
                out.sort_unstable_by_key(|e| e.0);
                return;
            }
            backoff.wait();
        }
    }

    /// One attempt of the scan: collect leaves left to right, then
    /// re-validate all of them.  Returns `false` if a torn snapshot, a
    /// marked leaf, or the final validation forces a retry.
    fn try_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, guard: &Guard) -> bool {
        // (leaf, even version it was collected at)
        let mut collected: Vec<(*mut Node<L>, u64)> = Vec::new();
        let mut cursor = lo;
        loop {
            let (leaf_ptr, upper) = self.scan_descend(cursor, guard);
            // SAFETY: read during the pinned descent.
            let leaf = unsafe { self.deref(leaf_ptr, guard) };
            // The leaf's pairs in `[lo, hi]`, in one optimistic read that
            // takes none from a marked leaf.
            let base = out.len();
            let (ver, unmarked) = leaf.read(|leaf| {
                out.truncate(base);
                let unmarked = !leaf.is_marked();
                if unmarked {
                    out.extend(leaf.entries().filter(|&(k, _)| (lo..=hi).contains(&k)));
                }
                unmarked
            });
            if !unmarked {
                return false; // leaf was unlinked under us; re-descend fresh
            }
            collected.push((leaf_ptr, ver));
            if upper == EMPTY_KEY || upper > hi {
                break;
            }
            debug_assert!(upper > cursor, "scan cursor must advance");
            cursor = upper;
        }
        // Validation phase: every collected leaf must still be reachable
        // (unmarked — nodes are marked before they are unlinked) and
        // unchanged, which pins a single instant at which all collected
        // contents co-existed in the tree.
        collected.iter().all(|&(ptr, ver)| {
            // SAFETY: collected during the pinned scan.
            let leaf = unsafe { self.deref(ptr, guard) };
            leaf.version() == ver && !leaf.is_marked()
        })
    }

    /// Descends to the leaf whose key range contains `key`, returning it
    /// together with the upper bound of that range: the tightest routing key
    /// to the right of the descent path ([`EMPTY_KEY`] if the leaf is the
    /// rightmost).  Routing keys of internal nodes are immutable, so the
    /// bound is exact for the tree shape the descent traversed; a stale
    /// shape is caught by the marked/version validation on the leaf itself.
    fn scan_descend(&self, key: u64, guard: &Guard) -> (*mut Node<L>, u64) {
        let mut n = self.entry_ptr();
        let mut upper = EMPTY_KEY;
        loop {
            // SAFETY: `n` is the entry or was read from a reachable node
            // while pinned.
            let node = unsafe { self.deref(n, guard) };
            if node.is_leaf() {
                return (n, upper);
            }
            let idx = node.child_index(key);
            if idx + 1 < node.len() {
                upper = upper.min(node.key(idx));
            }
            n = self.read_child(node, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ConcurrentMap, ElimABTree, OccABTree};

    #[test]
    fn empty_tree_scans_empty() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        let mut out = vec![(1, 1)];
        t.range(0, u64::MAX - 1, &mut out);
        assert!(out.is_empty(), "out must be cleared");
        assert_eq!(t.scan_len(0, 100), 0);
    }

    #[test]
    fn inverted_and_degenerate_bounds() {
        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        t.insert(5, 50);
        let mut out = Vec::new();
        t.range(7, 3, &mut out);
        assert!(out.is_empty(), "lo > hi must be empty");
        t.range(5, 5, &mut out);
        assert_eq!(out, vec![(5, 50)]);
        assert_eq!(t.scan_len(5, 0), 0);
        assert_eq!(t.scan_len(5, 1), 1);
        assert_eq!(t.scan_len(6, 1), 0);
    }

    #[test]
    fn range_spans_many_leaves_sorted() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        // Insert in a scattered order so leaves hold unsorted slots.
        for k in (0..2_000u64).rev() {
            t.insert(k.wrapping_mul(7) % 2_000, k);
        }
        let mut out = Vec::new();
        t.range(100, 1_499, &mut out);
        assert_eq!(out.len(), 1_400);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted, unique");
        assert_eq!(out.first().unwrap().0, 100);
        assert_eq!(out.last().unwrap().0, 1_499);
    }

    #[test]
    fn native_and_trait_scan_agree() {
        let t: ElimABTree = ElimABTree::new();
        let mut h = t.handle();
        for k in 0..500u64 {
            if k % 3 != 0 {
                h.insert(k, k + 1);
            }
        }
        let mut native = Vec::new();
        h.range(10, 400, &mut native);
        // The trait-object session must hit the same (overridden) native
        // scan.
        let dynamic: &dyn ConcurrentMap = &t;
        let mut dyn_h = dynamic.handle();
        let mut via_trait = Vec::new();
        dyn_h.range(10, 400, &mut via_trait);
        assert_eq!(native, via_trait);
        assert_eq!(dyn_h.scan_len(0, 500), h.scan_len(0, 500));
    }
}
