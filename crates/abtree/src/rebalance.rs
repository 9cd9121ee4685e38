//! Rebalancing steps: `fixTagged` (paper Fig. 7) and `fixUnderfull`
//! (paper Fig. 9).
//!
//! Both steps follow Larsen & Fagerberg's relaxed (a,b)-tree sub-operations:
//! each locks a handful of adjacent nodes (bottom-up, ties broken
//! left-to-right, which is what makes the tree deadlock-free — paper §3.3.5),
//! validates that nothing was concurrently replaced (via the `marked` bits),
//! and then atomically swings a single child pointer of a still-reachable
//! node to a freshly built replacement subtree.  Replaced nodes are marked
//! and retired through epoch-based reclamation.
//!
//! A note on the distribute/merge condition: the paper's prose (§3.2) states
//! that `fixUnderfull` *distributes* "if doing so does not make one of the
//! new nodes underfull" (i.e. when the combined size is at least `2a`) and
//! *merges* otherwise; Fig. 9's pseudocode swaps the two branch bodies, which
//! would create underfull halves.  We implement the prose (and Larsen &
//! Fagerberg's original definition).

use abebr::Guard;
use absync::RawNodeLock;

use crate::node::{Node, NodeKind};
use crate::persist::Persist;
use crate::tree::AbTree;
use crate::{MAX_KEYS, MIN_KEYS};

/// Releases a set of node locks acquired with the given tokens.
macro_rules! unlock_nodes {
    ($(($n:expr, $t:expr)),+ $(,)?) => {
        $(
            // SAFETY: each (node, token) pair was locked by this thread in
            // this function invocation and the token has not moved since.
            unsafe { $n.lock.unlock(&mut $t) };
        )+
    };
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Removes a tagged node created by a splitting insert, possibly creating
    /// (and then removing) further tagged nodes higher up the tree.
    pub(crate) fn fix_tagged(&self, node_ptr: *mut Node<L>, guard: &Guard) {
        let mut next = Some(node_ptr);
        while let Some(target) = next.take() {
            next = self.fix_tagged_once(target, guard);
        }
    }

    /// One `fixTagged` application.  Returns a new tagged node if the split
    /// case pushed the imbalance one level up.
    fn fix_tagged_once(&self, node_ptr: *mut Node<L>, guard: &Guard) -> Option<*mut Node<L>> {
        // SAFETY: `node_ptr` was created by this thread (or read while
        // pinned) and is protected by the pinned epoch.
        let node = unsafe { self.deref(node_ptr, guard) };
        debug_assert!(node.is_tagged());

        loop {
            if node.is_marked() {
                // Another thread already removed this tagged node.
                return None;
            }
            let path = self.search(node.search_key, node_ptr, guard);
            if path.n != node_ptr {
                return None;
            }
            // SAFETY: path pointers were read while pinned.
            let parent = unsafe { self.deref(path.p, guard) };

            if path.gp.is_null() {
                // The tagged node is the root (its parent is the entry
                // sentinel).  Remove the tag by replacing the root with an
                // ordinary Internal copy.
                let mut node_tok = L::Token::default();
                let mut p_tok = L::Token::default();
                node.lock.lock(&mut node_tok);
                parent.lock.lock(&mut p_tok);
                if node.is_marked() {
                    unlock_nodes!((parent, p_tok), (node, node_tok));
                    continue;
                }
                let keys: Vec<u64> = (0..node.len() - 1).map(|i| node.key(i)).collect();
                let children: Vec<*mut Node<L>> = (0..node.len()).map(|i| node.child(i)).collect();
                let new_root = Node::new_internal_from(
                    NodeKind::Internal,
                    node.search_key,
                    &keys,
                    &children,
                );
                self.persist_new_nodes(&[new_root]);
                // Mark before unlinking (scan snapshot validation relies on
                // "unmarked implies still reachable"; see `scan.rs`).
                node.mark();
                self.link_child(parent, 0, new_root);
                unlock_nodes!((parent, p_tok), (node, node_tok));
                // SAFETY: the old root was just unlinked and is never
                // unlinked twice.
                unsafe { Node::retire(node_ptr, guard) };
                return None;
            }

            // SAFETY: path pointers were read while pinned.
            let gparent = unsafe { self.deref(path.gp, guard) };

            // Lock bottom-up: node, parent, grandparent.
            let mut node_tok = L::Token::default();
            let mut p_tok = L::Token::default();
            let mut gp_tok = L::Token::default();
            node.lock.lock(&mut node_tok);
            parent.lock.lock(&mut p_tok);
            gparent.lock.lock(&mut gp_tok);

            if node.is_marked()
                || parent.is_marked()
                || gparent.is_marked()
                || parent.is_tagged()
            {
                unlock_nodes!((gparent, gp_tok), (parent, p_tok), (node, node_tok));
                if node.is_marked() {
                    return None;
                }
                // If the parent is tagged, wait for its creator to remove the
                // tag; otherwise simply re-search.
                core::hint::spin_loop();
                continue;
            }

            node.mark();
            parent.mark();

            // Build the parent's contents with the tagged node replaced by
            // its two children and its single routing key spliced in.
            let n_idx = path.n_idx;
            debug_assert_eq!(node.len(), 2, "tagged nodes always have two children");
            let mut comb_children: Vec<*mut Node<L>> = Vec::with_capacity(parent.len() + 1);
            for i in 0..parent.len() {
                if i == n_idx {
                    comb_children.push(node.child(0));
                    comb_children.push(node.child(1));
                } else {
                    comb_children.push(parent.child(i));
                }
            }
            let mut comb_keys: Vec<u64> = Vec::with_capacity(parent.len());
            for i in 0..parent.len().saturating_sub(1) {
                if i == n_idx {
                    comb_keys.push(node.key(0));
                }
                comb_keys.push(parent.key(i));
            }
            if n_idx == parent.len() - 1 {
                comb_keys.push(node.key(0));
            }
            debug_assert_eq!(comb_keys.len() + 1, comb_children.len());

            let result = if comb_children.len() <= MAX_KEYS {
                // Merge case (paper Fig. 3 step 5): absorb the tagged node
                // into a copy of its parent.
                let new_node = Node::new_internal_from(
                    NodeKind::Internal,
                    parent.search_key,
                    &comb_keys,
                    &comb_children,
                );
                self.persist_new_nodes(&[new_node]);
                self.link_child(gparent, path.p_idx, new_node);
                None
            } else {
                // Split case (paper Fig. 6): the combined node would be too
                // large, so split it into two and push the imbalance up.
                let left_n = comb_children.len() / 2;
                let up_key = comb_keys[left_n - 1];
                let left = Node::new_internal_from(
                    NodeKind::Internal,
                    comb_keys[0],
                    &comb_keys[..left_n - 1],
                    &comb_children[..left_n],
                );
                let right = Node::new_internal_from(
                    NodeKind::Internal,
                    up_key,
                    &comb_keys[left_n..],
                    &comb_children[left_n..],
                );
                // The top node is tagged unless it becomes the new root.
                let top_kind = if path.gp == self.entry_ptr() {
                    NodeKind::Internal
                } else {
                    NodeKind::TaggedInternal
                };
                let top = Node::new_internal_from(
                    top_kind,
                    parent.search_key,
                    &[up_key],
                    &[left, right],
                );
                self.persist_new_nodes(&[left, right, top]);
                self.link_child(gparent, path.p_idx, top);
                if top_kind == NodeKind::TaggedInternal {
                    Some(top)
                } else {
                    None
                }
            };

            unlock_nodes!((gparent, gp_tok), (parent, p_tok), (node, node_tok));
            // SAFETY: both nodes were just unlinked (marked + replaced).
            unsafe {
                Node::retire(node_ptr, guard);
                Node::retire(path.p, guard);
            }
            return result;
        }
    }

    /// Fixes an underfull node by redistributing with, or merging into, a
    /// sibling (paper Fig. 9).  Further nodes made underfull by a merge are
    /// processed iteratively.
    pub(crate) fn fix_underfull(&self, node_ptr: *mut Node<L>, guard: &Guard) {
        let mut work = vec![node_ptr];
        while let Some(target) = work.pop() {
            self.fix_underfull_once(target, guard, &mut work);
        }
    }

    /// One `fixUnderfull` application on `node_ptr`; newly underfull nodes
    /// are appended to `work`.
    fn fix_underfull_once(
        &self,
        node_ptr: *mut Node<L>,
        guard: &Guard,
        work: &mut Vec<*mut Node<L>>,
    ) {
        // SAFETY: protected by the pinned epoch.
        let node = unsafe { self.deref(node_ptr, guard) };

        loop {
            // The entry sentinel and the root are allowed to be underfull.
            if node_ptr == self.entry_ptr() || node_ptr == self.entry().child(0) {
                return;
            }
            if node.is_marked() {
                return;
            }
            let path = self.search(node.search_key, node_ptr, guard);
            if path.n != node_ptr {
                return;
            }
            if path.gp.is_null() {
                // The node is (now) the root.
                return;
            }
            // SAFETY: path pointers were read while pinned.
            let parent = unsafe { self.deref(path.p, guard) };
            let gparent = unsafe { self.deref(path.gp, guard) };

            if parent.len() < 2 {
                // No sibling exists; the parent is itself underfull and the
                // operation that made it so will fix it, changing the
                // topology — re-search.
                core::hint::spin_loop();
                continue;
            }

            let n_idx = path.n_idx;
            let s_idx = if n_idx == 0 { 1 } else { n_idx - 1 };
            let sib_ptr = parent.child(s_idx);
            if sib_ptr.is_null() {
                core::hint::spin_loop();
                continue;
            }
            // SAFETY: read from a reachable parent while pinned.
            let sibling = unsafe { self.deref(sib_ptr, guard) };

            // Lock bottom-up; among the two siblings, left before right.
            let mut t_first = L::Token::default();
            let mut t_second = L::Token::default();
            let mut t_parent = L::Token::default();
            let mut t_gparent = L::Token::default();
            let (first, second) = if s_idx < n_idx {
                (sibling, node)
            } else {
                (node, sibling)
            };
            first.lock.lock(&mut t_first);
            second.lock.lock(&mut t_second);
            parent.lock.lock(&mut t_parent);
            gparent.lock.lock(&mut t_gparent);

            if node.len() >= MIN_KEYS {
                // Someone already refilled the node.
                unlock_nodes!(
                    (gparent, t_gparent),
                    (parent, t_parent),
                    (second, t_second),
                    (first, t_first)
                );
                return;
            }
            if parent.len() < MIN_KEYS
                || node.is_marked()
                || sibling.is_marked()
                || parent.is_marked()
                || gparent.is_marked()
                || node.is_tagged()
                || sibling.is_tagged()
                || parent.is_tagged()
            {
                unlock_nodes!(
                    (gparent, t_gparent),
                    (parent, t_parent),
                    (second, t_second),
                    (first, t_first)
                );
                if node.is_marked() {
                    return;
                }
                core::hint::spin_loop();
                continue;
            }

            debug_assert_eq!(
                node.is_leaf(),
                sibling.is_leaf(),
                "untagged siblings must be at the same level"
            );

            // Identify left/right roles and the routing key between them.
            let (left, right, left_idx) = if s_idx < n_idx {
                (sibling, node, s_idx)
            } else {
                (node, sibling, n_idx)
            };
            let between_key = parent.key(left_idx);
            let total = node.len() + sibling.len();

            // Copies of the parent's contents for building its replacement.
            let mut pkeys: Vec<u64> = (0..parent.len() - 1).map(|i| parent.key(i)).collect();
            let mut pchildren: Vec<*mut Node<L>> =
                (0..parent.len()).map(|i| parent.child(i)).collect();

            if total >= 2 * MIN_KEYS {
                // ---------------- distribute (paper Fig. 8) ----------------
                let (new_left, new_right, up_key) = if node.is_leaf() {
                    let mut entries = left.locked_entries();
                    entries.extend(right.locked_entries());
                    entries.sort_unstable_by_key(|e| e.0);
                    let mid = entries.len() / 2;
                    let up = entries[mid].0;
                    (
                        Node::new_leaf_from(entries[0].0, &entries[..mid]),
                        Node::new_leaf_from(up, &entries[mid..]),
                        up,
                    )
                } else {
                    let mut children: Vec<*mut Node<L>> =
                        (0..left.len()).map(|i| left.child(i)).collect();
                    children.extend((0..right.len()).map(|i| right.child(i)));
                    let mut keys: Vec<u64> =
                        (0..left.len().saturating_sub(1)).map(|i| left.key(i)).collect();
                    keys.push(between_key);
                    keys.extend((0..right.len().saturating_sub(1)).map(|i| right.key(i)));
                    debug_assert_eq!(keys.len() + 1, children.len());
                    let c1 = children.len() / 2;
                    let up = keys[c1 - 1];
                    (
                        Node::new_internal_from(
                            NodeKind::Internal,
                            keys[0],
                            &keys[..c1 - 1],
                            &children[..c1],
                        ),
                        Node::new_internal_from(
                            NodeKind::Internal,
                            up,
                            &keys[c1..],
                            &children[c1..],
                        ),
                        up,
                    )
                };
                pkeys[left_idx] = up_key;
                pchildren[left_idx] = new_left;
                pchildren[left_idx + 1] = new_right;
                let new_parent = Node::new_internal_from(
                    NodeKind::Internal,
                    parent.search_key,
                    &pkeys,
                    &pchildren,
                );
                self.persist_new_nodes(&[new_left, new_right, new_parent]);
                // Mark before unlinking (see `scan.rs`).
                node.mark();
                sibling.mark();
                parent.mark();
                self.link_child(gparent, path.p_idx, new_parent);
                unlock_nodes!(
                    (gparent, t_gparent),
                    (parent, t_parent),
                    (second, t_second),
                    (first, t_first)
                );
                // SAFETY: the three nodes were just unlinked.
                unsafe {
                    Node::retire(node_ptr, guard);
                    Node::retire(sib_ptr, guard);
                    Node::retire(path.p, guard);
                }
                return;
            }

            // ------------------- merge (paper Fig. 3 step 2) ---------------
            let merged_ptr = if node.is_leaf() {
                let mut entries = left.locked_entries();
                entries.extend(right.locked_entries());
                Node::new_leaf_from(node.search_key, &entries)
            } else {
                let mut children: Vec<*mut Node<L>> =
                    (0..left.len()).map(|i| left.child(i)).collect();
                children.extend((0..right.len()).map(|i| right.child(i)));
                let mut keys: Vec<u64> =
                    (0..left.len().saturating_sub(1)).map(|i| left.key(i)).collect();
                keys.push(between_key);
                keys.extend((0..right.len().saturating_sub(1)).map(|i| right.key(i)));
                Node::new_internal_from(NodeKind::Internal, node.search_key, &keys, &children)
            };

            if path.gp == self.entry_ptr() && parent.len() == 2 {
                // The merged node becomes the new root (paper lines 174-177).
                self.persist_new_nodes(&[merged_ptr]);
                // Mark before unlinking (see `scan.rs`).
                node.mark();
                sibling.mark();
                parent.mark();
                self.link_child(gparent, 0, merged_ptr);
                unlock_nodes!(
                    (gparent, t_gparent),
                    (parent, t_parent),
                    (second, t_second),
                    (first, t_first)
                );
                // SAFETY: the three nodes were just unlinked.
                unsafe {
                    Node::retire(node_ptr, guard);
                    Node::retire(sib_ptr, guard);
                    Node::retire(path.p, guard);
                }
                return;
            }

            // General merge: the parent loses one child.
            pchildren[left_idx] = merged_ptr;
            pchildren.remove(left_idx + 1);
            pkeys.remove(left_idx);
            let new_parent = Node::new_internal_from(
                NodeKind::Internal,
                parent.search_key,
                &pkeys,
                &pchildren,
            );
            self.persist_new_nodes(&[merged_ptr, new_parent]);
            // Mark before unlinking (see `scan.rs`).
            node.mark();
            sibling.mark();
            parent.mark();
            self.link_child(gparent, path.p_idx, new_parent);
            unlock_nodes!(
                (gparent, t_gparent),
                (parent, t_parent),
                (second, t_second),
                (first, t_first)
            );
            // SAFETY: the three nodes were just unlinked.
            unsafe {
                Node::retire(node_ptr, guard);
                Node::retire(sib_ptr, guard);
                Node::retire(path.p, guard);
            }

            // The merged node and/or the shrunk parent may themselves be
            // underfull (paper lines 183-184).
            // SAFETY: freshly created nodes owned by the tree.
            let merged_len = unsafe { (*merged_ptr).len() };
            if merged_len < MIN_KEYS {
                work.push(merged_ptr);
            }
            let new_parent_len = unsafe { (*new_parent).len() };
            if new_parent_len < MIN_KEYS {
                work.push(new_parent);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ElimABTree, OccABTree, MAX_KEYS};

    /// Inserting far more keys than fit in one leaf exercises splitting
    /// inserts and fixTagged; deleting them all exercises fixUnderfull's
    /// distribute and merge cases down to an empty tree.
    #[test]
    fn grow_then_shrink_occ() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        const N: u64 = 5_000;
        for k in 0..N {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), N as usize);
        for k in 0..N {
            assert_eq!(t.delete(k), Some(k), "delete {k}");
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn grow_then_shrink_interleaved_elim() {
        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        const N: u64 = 4_000;
        // Interleave inserts and deletes so rebalancing happens while the
        // tree contains a mix of sparse and dense regions.
        for k in 0..N {
            t.insert(k, k * 2);
            if k % 3 == 0 && k > 10 {
                assert_eq!(t.delete(k - 10), Some((k - 10) * 2));
            }
        }
        t.check_invariants().unwrap();
        let expected: Vec<u64> = (0..N)
            .filter(|k| !(k + 10 < N && (k + 10) % 3 == 0))
            .collect();
        assert_eq!(t.len(), expected.len());
        for k in expected {
            assert_eq!(t.get(k), Some(k * 2));
        }
    }

    #[test]
    fn deep_tree_structure_is_valid() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        // Enough keys for height >= 3 with b = 11.
        const N: u64 = 30_000;
        for k in 0..N {
            t.insert(k.wrapping_mul(2654435761) % 1_000_000, k);
        }
        t.check_invariants().unwrap();
        let stats = t.stats();
        assert!(stats.height >= 3, "expected height >= 3, got {}", stats.height);
        assert!(stats.leaves > (MAX_KEYS as u64), "tree should have many leaves");
    }

    #[test]
    fn shrink_to_root_again() {
        // Grow enough to create internal levels, then delete everything; the
        // tree must collapse back to a single (root) leaf without violating
        // invariants, exercising the root-replacement merge case.
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        let keys: Vec<u64> = (0..1_000u64).map(|k| k * 7 % 1_000).collect();
        for &k in &keys {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        for &k in &keys {
            t.delete(k);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 0);
        let stats = t.stats();
        assert_eq!(stats.height, 1, "empty tree should be a single root leaf");
    }
}
