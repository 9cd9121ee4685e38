//! Quiescent validation, statistics and whole-tree iteration.
//!
//! Everything here is a callback of `AbTree::visit`, the tree's one
//! quiescent walk (see [`crate::tree`]), and runs **without
//! synchronization**: call it while no other thread is operating on the tree
//! (after a benchmark's measured phase, or in single-threaded tests).
//! [`AbTree::check_invariants`] checks, in one walk, the structural
//! invariants of Theorem 3.5:
//!
//! 1. the reachable nodes form a relaxed (a,b)-tree (search-tree property,
//!    size bounds, uniform leaf depth up to tags),
//! 2. every node's keys lie inside its key range,
//! 4. keys appear at most once,
//! 6. `size` matches the actual number of keys / children.

use absync::RawNodeLock;

use crate::node::NodeKind;
use crate::persist::Persist;
use crate::tree::{AbTree, Visit};
use crate::{EMPTY_KEY, MAX_KEYS, MIN_KEYS};

/// Structural statistics of a quiescent tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeStats {
    /// Number of levels, counting the root (leaf-only tree has height 1).
    pub height: u64,
    /// Number of internal (non-tagged) nodes.
    pub internal_nodes: u64,
    /// Number of tagged internal nodes (should be 0 once quiescent).
    pub tagged_nodes: u64,
    /// Number of leaves.
    pub leaves: u64,
    /// Number of keys stored.
    pub keys: u64,
}

impl TreeStats {
    /// Counts a node the walk met; the entry sentinel (depth 0) is not part
    /// of the tree.
    pub(crate) fn count<L: RawNodeLock>(&mut self, v: &Visit<L>) {
        if v.depth == 0 {
            return;
        }
        self.height = self.height.max(v.depth);
        let node = v.node();
        match node.kind {
            NodeKind::Leaf => {
                self.leaves += 1;
                self.keys += node.entries().count() as u64;
            }
            NodeKind::Internal => self.internal_nodes += 1,
            NodeKind::TaggedInternal => self.tagged_nodes += 1,
        }
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Collects every key/value pair, sorted by key.
    ///
    /// Quiescent only: concurrent updates make the result unspecified.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.visit(|v| {
            if v.node().is_leaf() {
                out.extend(v.node().entries());
            }
        });
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Number of keys currently stored.  Quiescent only.
    pub fn len(&self) -> usize {
        self.stats().keys as usize
    }

    /// Returns `true` if the tree stores no keys.  Quiescent only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all keys stored in the tree, used by the harness's validation
    /// step exactly as in the paper's §6 ("the grand total must match the sum
    /// of keys in the data structure").  Quiescent only.
    pub fn key_sum(&self) -> u128 {
        let mut sum = 0u128;
        self.visit(|v| {
            if v.node().is_leaf() {
                sum += v.node().entries().map(|(k, _)| k as u128).sum::<u128>();
            }
        });
        sum
    }

    /// Structural statistics.  Quiescent only.
    pub fn stats(&self) -> TreeStats {
        let mut stats = TreeStats::default();
        self.visit(|v| stats.count(v));
        stats
    }

    /// Checks the structural invariants of the (quiescent) tree in one walk,
    /// returning a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.entry().child(0).is_null() {
            return Err("entry has a null root pointer".into());
        }
        let mut first = Ok(());
        let (mut tagged, mut min_leaf, mut max_leaf) = (0u64, u64::MAX, 0u64);
        self.visit(|v| {
            if v.depth == 0 || first.is_err() {
                return;
            }
            match v.node().kind {
                NodeKind::Leaf => {
                    min_leaf = min_leaf.min(v.depth);
                    max_leaf = max_leaf.max(v.depth);
                }
                NodeKind::TaggedInternal => tagged += 1,
                NodeKind::Internal => {}
            }
            first = check_local(v);
        });
        first?;
        // Leaves must all be at the same depth, except below tagged nodes
        // (which represent a temporary +1 imbalance).  Quiescent trees have
        // no tags, so require equality then.
        if tagged == 0 && min_leaf != max_leaf {
            return Err(format!(
                "leaves at different depths: min {min_leaf}, max {max_leaf}"
            ));
        }
        Ok(())
    }
}

/// The invariants of one node that its routing range `[v.lo, v.hi)` (`hi ==
/// EMPTY_KEY` is unbounded) and its own fields decide.
fn check_local<L: RawNodeLock>(v: &Visit<L>) -> Result<(), String> {
    let (node, lo, hi, is_root) = (v.node(), v.lo, v.hi, v.depth == 1);
    if node.is_marked() {
        return Err(format!("reachable node is marked: {node:?}"));
    }
    let in_range = |k: u64| k >= lo && (hi == EMPTY_KEY || k < hi);
    if !(in_range(node.search_key) || (is_root && node.is_leaf())) {
        // The initial root leaf's search_key (0) is always in range since
        // lo starts at 0; other nodes must honour their range.
        return Err(format!(
            "search_key {} outside range [{lo}, {hi})",
            node.search_key
        ));
    }
    if node.is_leaf() {
        let keys = node.entries().count();
        if keys != node.len() {
            return Err(format!(
                "leaf size field {} != stored keys {keys}",
                node.len()
            ));
        }
        if !is_root && keys < MIN_KEYS {
            // Non-root leaves may transiently be underfull in a concurrent
            // execution, but a quiescent tree should have fixed them.
            return Err(format!("non-root leaf underfull: {keys} < {MIN_KEYS}"));
        }
        if keys > MAX_KEYS {
            return Err(format!("leaf overfull: {keys}"));
        }
        // Every node's routing keys are checked sorted and inside its range,
        // and a child's range is the slice of its parent's range between two
        // of them, so distinct leaves have disjoint ranges: a key stored in
        // two leaves lies outside one leaf's range.  Only a key stored twice
        // in one leaf is left to find.
        for (i, (k, _)) in node.entries().enumerate() {
            if !in_range(k) {
                return Err(format!("leaf key {k} outside range [{lo}, {hi})"));
            }
            if node.entries().skip(i + 1).any(|(other, _)| other == k) {
                return Err(format!("duplicate key {k}"));
            }
        }
        return Ok(());
    }
    let size = node.len();
    if !(1..=MAX_KEYS).contains(&size) {
        return Err(format!("internal node with invalid size {size}"));
    }
    if size != node.linked_children() {
        return Err(format!(
            "internal size field {size} != linked children {}",
            node.linked_children()
        ));
    }
    if node.is_tagged() && size != 2 {
        return Err(format!("tagged node with {size} children"));
    }
    if !is_root && size < MIN_KEYS && !node.is_tagged() {
        return Err(format!(
            "non-root internal node underfull: {size} < {MIN_KEYS}"
        ));
    }
    for i in 0..size - 1 {
        let k = node.key(i);
        if i > 0 && node.key(i - 1) >= k {
            return Err(format!(
                "routing keys not sorted: {} >= {k}",
                node.key(i - 1)
            ));
        }
        if !in_range(k) {
            return Err(format!("routing key {k} outside range [{lo}, {hi})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use absync::McsLock;

    use crate::node::Node;
    use crate::{ElimABTree, OccABTree, EMPTY_KEY, MIN_KEYS};

    /// A tree of keys `0..2_000` (height 3 or more), checked healthy before
    /// a test plants its fault.
    fn healthy_tree() -> OccABTree {
        let t: OccABTree = OccABTree::new();
        let mut h = t.handle();
        for k in 0..2_000u64 {
            h.insert(k, k);
        }
        drop(h);
        assert!(t.stats().height >= 3);
        t.check_invariants().unwrap();
        t
    }

    /// The leaf whose routing range holds `key`.
    fn leaf_of(t: &OccABTree, key: u64) -> &Node<McsLock> {
        let local = t.collector().register();
        let guard = local.pin();
        let leaf = t.search(key, std::ptr::null_mut(), &guard).n;
        // SAFETY: the tests are single-threaded and plant faults without
        // unlinking a node, so the leaf stays reachable and alive as long
        // as `t`.
        unsafe { &*leaf }
    }

    /// Stores `key` in a free slot of `leaf` and counts it in `size`, so
    /// the only fault is where the key is.
    fn plant_key(leaf: &Node<McsLock>, key: u64) {
        let slot = leaf.locked_empty_slot().expect("a leaf with a free slot");
        leaf.keys[slot].store(key, Ordering::Relaxed);
        leaf.set_len(leaf.len() + 1);
    }

    fn flagged(t: &OccABTree, what: &str) -> String {
        match t.check_invariants() {
            Ok(()) => panic!("check_invariants missed {what}"),
            Err(e) => e,
        }
    }

    #[test]
    fn flags_a_leaf_size_field_that_disagrees_with_its_keys() {
        let t = healthy_tree();
        let leaf = leaf_of(&t, 1_000);
        leaf.set_len(leaf.len() + 1);
        let e = flagged(&t, "a wrong size field");
        assert!(e.contains("size"), "{e}");
    }

    #[test]
    fn flags_a_non_root_leaf_below_min_keys() {
        let t = healthy_tree();
        let leaf = leaf_of(&t, 1_000);
        for slot in 0..crate::MAX_KEYS {
            if leaf.len() < MIN_KEYS {
                break;
            }
            if leaf.key(slot) != EMPTY_KEY {
                leaf.keys[slot].store(EMPTY_KEY, Ordering::Relaxed);
                leaf.set_len(leaf.len() - 1);
            }
        }
        let e = flagged(&t, "an underfull leaf");
        assert!(e.contains("underfull"), "{e}");
    }

    #[test]
    fn flags_a_key_outside_its_leafs_routing_range() {
        let t = healthy_tree();
        // 10_000 is in no leaf, and above the range of the leaf holding 0.
        plant_key(leaf_of(&t, 0), 10_000);
        let e = flagged(&t, "a key outside its range");
        assert!(e.contains("outside range"), "{e}");
    }

    #[test]
    fn flags_one_key_stored_in_two_leaves() {
        let t = healthy_tree();
        assert_ne!(
            std::ptr::from_ref(leaf_of(&t, 0)),
            std::ptr::from_ref(leaf_of(&t, 1_999))
        );
        plant_key(leaf_of(&t, 0), 1_999);
        flagged(&t, "a key in two leaves");
    }

    #[test]
    fn flags_one_key_stored_twice_in_a_leaf() {
        let t = healthy_tree();
        let leaf = leaf_of(&t, 1_000);
        plant_key(leaf, 1_000);
        let e = flagged(&t, "a key twice in one leaf");
        assert!(e.contains("duplicate"), "{e}");
    }

    #[test]
    fn flags_a_reachable_marked_node() {
        let t = healthy_tree();
        leaf_of(&t, 1_000).mark();
        let e = flagged(&t, "a marked node");
        assert!(e.contains("marked"), "{e}");
    }

    #[test]
    fn empty_tree_stats() {
        let t: OccABTree = OccABTree::new();
        let s = t.stats();
        assert_eq!(s.height, 1);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.keys, 0);
        assert!(t.is_empty());
        assert_eq!(t.key_sum(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn collect_returns_sorted_pairs() {
        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 10);
        }
        assert_eq!(
            t.collect(),
            vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]
        );
        assert_eq!(t.len(), 5);
        assert_eq!(t.key_sum(), 25);
    }

    #[test]
    fn invariants_hold_after_random_workload() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..500u64);
            if rng.gen_bool(0.5) {
                let expected = match oracle.insert(k, k) {
                    // Our insert does not overwrite; put the old value back.
                    Some(old) => {
                        oracle.insert(k, old);
                        Some(old)
                    }
                    None => None,
                };
                assert_eq!(t.insert(k, k), expected);
            } else {
                let expected = oracle.remove(&k);
                assert_eq!(t.delete(k), expected);
            }
        }
        t.check_invariants().unwrap();
        let collected: Vec<u64> = t.collect().into_iter().map(|(k, _)| k).collect();
        let expected: Vec<u64> = oracle.keys().copied().collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn stats_count_matches_len() {
        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        for k in 0..500u64 {
            t.insert(k, 0);
        }
        let s = t.stats();
        assert_eq!(s.keys as usize, t.len());
        assert_eq!(s.keys, 500);
        assert_eq!(s.tagged_nodes, 0, "quiescent tree must have no tags");
        assert!(s.height >= 2);
    }
}
