//! Quiescent validation, statistics and whole-tree iteration.
//!
//! The functions in this module walk the tree **without synchronization** and
//! are meant to be called while no other thread is operating on it (after a
//! benchmark's measured phase, or in single-threaded tests).  They verify the
//! structural invariants of Theorem 3.5:
//!
//! 1. the reachable nodes form a relaxed (a,b)-tree (search-tree property,
//!    size bounds, uniform leaf depth up to tags),
//! 2. every node's keys lie inside its key range,
//! 4. keys appear at most once,
//! 6. `size` matches the actual number of keys / children.

use absync::RawNodeLock;

use crate::node::{Node, NodeKind};
use crate::persist::Persist;
use crate::tree::AbTree;
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

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Collects every key/value pair, sorted by key.
    ///
    /// Quiescent only: concurrent updates make the result unspecified.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.walk_leaves(|leaf| out.extend(leaf.locked_entries()));
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Number of keys currently stored.  Quiescent only.
    pub fn len(&self) -> usize {
        let mut n = 0usize;
        self.walk_leaves(|leaf| n += leaf.locked_entries().len());
        n
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
        self.walk_leaves(|leaf| {
            for (k, _) in leaf.locked_entries() {
                sum += k as u128;
            }
        });
        sum
    }

    /// Structural statistics.  Quiescent only.
    pub fn stats(&self) -> TreeStats {
        let mut stats = TreeStats::default();
        let root = self.entry().child(0);
        let mut depth_of_leaves: Vec<u64> = Vec::new();
        // (node, depth)
        let mut stack: Vec<(*mut Node<L>, u64)> = vec![(root, 1)];
        while let Some((ptr, depth)) = stack.pop() {
            if ptr.is_null() {
                continue;
            }
            // SAFETY: quiescent tree; all reachable nodes are alive.
            let node = unsafe { &*ptr };
            stats.height = stats.height.max(depth);
            match node.kind {
                NodeKind::Leaf => {
                    stats.leaves += 1;
                    stats.keys += node.locked_entries().len() as u64;
                    depth_of_leaves.push(depth);
                }
                NodeKind::Internal => {
                    stats.internal_nodes += 1;
                    for i in 0..node.len() {
                        stack.push((node.child(i), depth + 1));
                    }
                }
                NodeKind::TaggedInternal => {
                    stats.tagged_nodes += 1;
                    for i in 0..node.len() {
                        stack.push((node.child(i), depth + 1));
                    }
                }
            }
        }
        stats
    }

    /// Checks the structural invariants of the (quiescent) tree, returning a
    /// description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let root = self.entry().child(0);
        if root.is_null() {
            return Err("entry has a null root pointer".into());
        }
        let mut seen_keys = std::collections::HashSet::new();
        let mut leaf_depths = Vec::new();
        self.check_node(root, 0, EMPTY_KEY, true, 1, &mut seen_keys, &mut leaf_depths)?;
        // Leaves must all be at the same depth, except below tagged nodes
        // (which represent a temporary +1 imbalance).  Quiescent trees have
        // no tags, so require equality then.
        if self.stats().tagged_nodes == 0 {
            if let (Some(min), Some(max)) = (leaf_depths.iter().min(), leaf_depths.iter().max()) {
                if min != max {
                    return Err(format!(
                        "leaves at different depths: min {min}, max {max}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn walk_leaves(&self, mut f: impl FnMut(&Node<L>)) {
        let mut stack = vec![self.entry().child(0)];
        while let Some(ptr) = stack.pop() {
            if ptr.is_null() {
                continue;
            }
            // SAFETY: quiescent tree; all reachable nodes are alive.
            let node = unsafe { &*ptr };
            if node.is_leaf() {
                f(node);
            } else {
                for i in 0..node.len() {
                    stack.push(node.child(i));
                }
            }
        }
    }

    /// Recursive range/size/sortedness check.  `lo`/`hi` bound the node's key
    /// range (`hi == EMPTY_KEY` means unbounded).
    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        ptr: *mut Node<L>,
        lo: u64,
        hi: u64,
        is_root: bool,
        depth: u64,
        seen: &mut std::collections::HashSet<u64>,
        leaf_depths: &mut Vec<u64>,
    ) -> Result<(), String> {
        if ptr.is_null() {
            return Err("null child pointer".into());
        }
        // SAFETY: quiescent tree; all reachable nodes are alive.
        let node = unsafe { &*ptr };
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
        match node.kind {
            NodeKind::Leaf => {
                leaf_depths.push(depth);
                let entries = node.locked_entries();
                if entries.len() != node.len() {
                    return Err(format!(
                        "leaf size field {} != stored keys {}",
                        node.len(),
                        entries.len()
                    ));
                }
                if !is_root && entries.len() < MIN_KEYS {
                    // Non-root leaves may transiently be underfull in a
                    // concurrent execution, but a quiescent tree should have
                    // fixed them; report it.
                    return Err(format!(
                        "non-root leaf underfull: {} < {MIN_KEYS}",
                        entries.len()
                    ));
                }
                if entries.len() > MAX_KEYS {
                    return Err(format!("leaf overfull: {}", entries.len()));
                }
                for (k, _) in entries {
                    if !in_range(k) {
                        return Err(format!("leaf key {k} outside range [{lo}, {hi})"));
                    }
                    if !seen.insert(k) {
                        return Err(format!("duplicate key {k}"));
                    }
                }
                Ok(())
            }
            NodeKind::Internal | NodeKind::TaggedInternal => {
                let size = node.len();
                if !(1..=MAX_KEYS).contains(&size) {
                    return Err(format!("internal node with invalid size {size}"));
                }
                if node.kind == NodeKind::TaggedInternal && size != 2 {
                    return Err(format!("tagged node with {size} children"));
                }
                if !is_root && size < MIN_KEYS && node.kind == NodeKind::Internal {
                    return Err(format!(
                        "non-root internal node underfull: {size} < {MIN_KEYS}"
                    ));
                }
                let keys: Vec<u64> = (0..size - 1).map(|i| node.key(i)).collect();
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("routing keys not sorted: {} >= {}", w[0], w[1]));
                    }
                }
                for &k in &keys {
                    if !in_range(k) {
                        return Err(format!("routing key {k} outside range [{lo}, {hi})"));
                    }
                }
                for i in 0..size {
                    let child_lo = if i == 0 { lo } else { keys[i - 1] };
                    let child_hi = if i == size - 1 { hi } else { keys[i] };
                    self.check_node(
                        node.child(i),
                        child_lo,
                        child_hi,
                        false,
                        depth + 1,
                        seen,
                        leaf_depths,
                    )?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ElimABTree, OccABTree};

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
