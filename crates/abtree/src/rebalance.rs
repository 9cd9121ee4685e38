//! Rebalancing steps — `fixTagged` (paper Fig. 7) and `fixUnderfull`
//! (paper Fig. 9) — and the replace step that every structural update,
//! the splitting insert (`update.rs`) included, ends with.
//!
//! Each structural update is one of Larsen & Fagerberg's relaxed
//! (a,b)-tree sub-operations and reads the same way: lock a handful of
//! adjacent nodes (bottom-up, ties broken left-to-right, which is what makes
//! the tree deadlock-free — paper §3.3.5) and validate that none was
//! concurrently replaced (via the `marked` bits); gather their contents into
//! a fixed-size `Run`; build the replacement subtree from it; and hand
//! the locks and the new nodes to `AbTree::replace`, which swings one
//! child pointer of the last node locked.  The replace step does, in order:
//!
//! 1. **Persist the new nodes** (`persist_new_nodes`; a no-op for volatile
//!    trees).  Paper §5: a new node is flushed and fenced before any
//!    pointer to it is written, so a crash can never leave a durable
//!    pointer to contents that are not.
//! 2. **Mark every replaced node.**  Range scans validate a snapshot by
//!    "unmarked implies still reachable" (`scan.rs`), and a fine-grained
//!    hazard pointer is validated the same way (`search` in `tree.rs`), so
//!    a node is marked before the pointer swing that unlinks it, never
//!    after.
//! 3. **Link the new subtree** (`link_child`): the single pointer swing,
//!    which is the step's linearization point.  Durable trees link and
//!    persist it (write dirty-marked, flush, unmark).
//! 4. **Escalate the guard** (`Guard::escalate`; a no-op under EBR or on a
//!    coarse guard).  The caller may go on to traverse the tree without the
//!    fine-mode hazard protocol (a splitting insert continues into
//!    `fixTagged`), so a fine guard upgrades while the locks still pin its
//!    foothold.
//! 5. **Unlock**, in reverse lock order (dropping `Locks`).
//! 6. **Retire the replaced nodes**, last: they are unreachable and marked,
//!    and retiring can run a reclamation pass, which must not hold up the
//!    threads waiting on these locks.
//!
//! A note on the distribute/merge condition: the paper's prose (§3.2) states
//! that `fixUnderfull` *distributes* "if doing so does not make one of the
//! new nodes underfull" (i.e. when the combined size is at least `2a`) and
//! *merges* otherwise; Fig. 9's pseudocode swaps the two branch bodies, which
//! would create underfull halves.  We implement the prose (and Larsen &
//! Fagerberg's original definition).

use std::marker::PhantomData;
use std::ops::Range;
use std::ptr;

use abebr::Guard;
use absync::RawNodeLock;

use crate::node::{Node, NodeKind};
use crate::persist::Persist;
use crate::tree::AbTree;
use crate::{EMPTY_KEY, MAX_KEYS, MIN_KEYS};

/// Locks one step can hold: `fixUnderfull` takes the most, four.
pub(crate) const MAX_LOCKS: usize = 4;

/// Slots in a [`Run`]: one more than a node holds, which bounds every run
/// gathered — a full leaf plus the inserted pair, a full parent with a
/// tagged child's two children in place of one, and two siblings of which
/// one is underfull.
const RUN: usize = MAX_KEYS + 1;

/// The nodes a step has locked, in lock order, with the tokens that locked
/// them.  Dropping it unlocks them in reverse order.  The tokens are
/// borrowed, so a locked MCS queue node cannot move while it is queued.
pub(crate) struct Locks<'t, 'g, L: RawNodeLock> {
    tokens: &'t mut [L::Token; MAX_LOCKS],
    nodes: [Option<(*mut Node<L>, &'g Node<L>)>; MAX_LOCKS],
    len: usize,
    /// A lock belongs to the thread that took it.
    _thread: PhantomData<*mut ()>,
}

impl<'t, 'g, L: RawNodeLock> Locks<'t, 'g, L> {
    pub(crate) fn new(tokens: &'t mut [L::Token; MAX_LOCKS]) -> Self {
        Self {
            tokens,
            nodes: [None; MAX_LOCKS],
            len: 0,
            _thread: PhantomData,
        }
    }

    /// Locks `node` (reached through `ptr`), waiting if it is held.
    pub(crate) fn lock(&mut self, ptr: *mut Node<L>, node: &'g Node<L>) {
        node.lock.lock(&mut self.tokens[self.len]);
        self.held(ptr, node);
    }

    /// Locks `node` (reached through `ptr`) if it is free.
    pub(crate) fn try_lock(&mut self, ptr: *mut Node<L>, node: &'g Node<L>) -> bool {
        let locked = node.lock.try_lock(&mut self.tokens[self.len]);
        if locked {
            self.held(ptr, node);
        }
        locked
    }

    fn held(&mut self, ptr: *mut Node<L>, node: &'g Node<L>) {
        // `replace` retires through `ptr`.
        assert!(ptr::eq(ptr, node), "a lock's pointer and node disagree");
        self.nodes[self.len] = Some((ptr, node));
        self.len += 1;
    }
}

impl<L: RawNodeLock> Drop for Locks<'_, '_, L> {
    fn drop(&mut self) {
        for i in (0..self.len).rev() {
            if let Some((_, node)) = self.nodes[i] {
                // SAFETY: `tokens[i]` locked `node` on this thread (`Locks`
                // is not `Send`) and has not moved: it is borrowed by `self`.
                unsafe { node.lock.unlock(&mut self.tokens[i]) };
            }
        }
    }
}

/// The contents of the nodes a step replaces, gathered under their locks in
/// key order: a leaf run's entries, or an internal run's children with the
/// routing key between each adjacent pair.
pub(crate) struct Run<L: RawNodeLock> {
    leaf: bool,
    /// Entries (leaf) or children (internal) gathered so far.
    pub(crate) len: usize,
    entries: [(u64, u64); RUN],
    /// `keys[i]` separates `children[i]` from `children[i + 1]`.
    keys: [u64; RUN],
    children: [*mut Node<L>; RUN],
}

impl<L: RawNodeLock> Run<L> {
    fn empty(leaf: bool) -> Self {
        Self {
            leaf,
            len: 0,
            entries: [(0, 0); RUN],
            keys: [0; RUN],
            children: [ptr::null_mut(); RUN],
        }
    }

    /// The contents of `node`, which the caller has locked.
    pub(crate) fn of(node: &Node<L>) -> Self {
        let mut run = Self::empty(node.is_leaf());
        run.push_node(node, 0);
        run
    }

    /// `parent`'s children with those in `at` replaced by `children`, which
    /// `keys` separate (paper Figs. 6-9 build every new parent this way).
    pub(crate) fn splice(
        parent: &Node<L>,
        at: Range<usize>,
        children: &[*mut Node<L>],
        keys: &[u64],
    ) -> Self {
        let mut run = Self::empty(false);
        run.push_children(parent, 0..at.start, 0);
        for (j, &child) in children.iter().enumerate() {
            // Before the first new child goes the parent's key before `at`
            // (unused when `at` starts the node: the run is still empty).
            let between = match j {
                0 => parent.key(at.start.saturating_sub(1)),
                _ => keys[j - 1],
            };
            run.push_child(between, child);
        }
        run.push_children(parent, at.end..parent.len(), 0);
        run
    }

    /// Appends the contents of `node`, which the caller has locked.  In an
    /// internal run, `between` separates them from the run so far.
    fn push_node(&mut self, node: &Node<L>, between: u64) {
        if !self.leaf {
            return self.push_children(node, 0..node.len(), between);
        }
        for i in 0..MAX_KEYS {
            let key = node.key(i);
            if key != EMPTY_KEY {
                self.push_entry(key, node.val(i));
            }
        }
    }

    pub(crate) fn push_entry(&mut self, key: u64, val: u64) {
        self.entries[self.len] = (key, val);
        self.len += 1;
    }

    /// Appends children `range` of internal `node`; `between` is the key
    /// before child 0.
    fn push_children(&mut self, node: &Node<L>, range: Range<usize>, between: u64) {
        for i in range {
            let key = if i == 0 { between } else { node.key(i - 1) };
            self.push_child(key, node.child(i));
        }
    }

    fn push_child(&mut self, between: u64, child: *mut Node<L>) {
        if self.len > 0 {
            self.keys[self.len - 1] = between;
        }
        self.children[self.len] = child;
        self.len += 1;
    }

    /// One new node holding the whole run.
    pub(crate) fn node(&self, search_key: u64) -> *mut Node<L> {
        self.build(search_key, 0..self.len)
    }

    /// Two new nodes holding the run's halves, and the routing key between
    /// them (the splitting insert, Fig. 6's split and Fig. 8's distribute).
    pub(crate) fn split(&mut self) -> (*mut Node<L>, *mut Node<L>, u64) {
        let mid = self.len / 2;
        let (first, up) = if self.leaf {
            self.entries[..self.len].sort_unstable_by_key(|e| e.0);
            (self.entries[0].0, self.entries[mid].0)
        } else {
            (self.keys[0], self.keys[mid - 1])
        };
        let left = self.build(first, 0..mid);
        (left, self.build(up, mid..self.len), up)
    }

    fn build(&self, search_key: u64, range: Range<usize>) -> *mut Node<L> {
        if self.leaf {
            return Node::new_leaf_from(search_key, &self.entries[range]);
        }
        let keys = &self.keys[range.start..range.end - 1];
        Node::new_internal_from(NodeKind::Internal, search_key, keys, &self.children[range])
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// The replace step (see the module docs).  `locks` holds the nodes
    /// being replaced and, last, the node whose child `slot` receives the
    /// new subtree; `new` lists the new nodes bottom-up, its root last.
    ///
    /// # Safety
    /// Under `locks` the caller checked every node unmarked; all but the last
    /// hang from the last one's child `slot`, and `new` links none of them.
    pub(crate) unsafe fn replace(
        &self,
        locks: Locks<'_, '_, L>,
        new: &[*mut Node<L>],
        slot: usize,
        guard: &Guard,
    ) {
        let nodes = locks.nodes;
        let (_, parent) = nodes[locks.len - 1].expect("a replace step holds its parent's lock");
        let replaced = &nodes[..locks.len - 1];
        self.persist_new_nodes(new);
        for &(_, node) in replaced.iter().flatten() {
            node.mark();
        }
        self.link_child(parent, slot, new[new.len() - 1]);
        guard.escalate();
        drop(locks);
        for &(ptr, _) in replaced.iter().flatten() {
            // SAFETY: the swing above unlinked it (per the contract), and
            // only once: it was locked and unmarked until this step marked it.
            unsafe { Node::retire(ptr, guard) };
        }
    }

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
            // Lock bottom-up: node, parent, then any grandparent.
            let mut tokens = Default::default();
            let mut locks = Locks::new(&mut tokens);
            locks.lock(node_ptr, node);
            locks.lock(path.p, parent);

            if path.gp.is_null() {
                // The tagged node is the root (its parent is the entry
                // sentinel).  Remove the tag by replacing the root with an
                // ordinary Internal copy.
                if node.is_marked() {
                    continue;
                }
                let new_root = Run::of(node).node(node.search_key);
                // SAFETY: `node` is unmarked under the locks, so still the
                // entry's one child.
                unsafe { self.replace(locks, &[new_root], 0, guard) };
                return None;
            }

            // SAFETY: path pointers were read while pinned.
            let gparent = unsafe { self.deref(path.gp, guard) };
            locks.lock(path.gp, gparent);
            if node.is_marked() || parent.is_marked() || gparent.is_marked() || parent.is_tagged() {
                drop(locks);
                if node.is_marked() {
                    return None;
                }
                // If the parent is tagged, wait for its creator to remove the
                // tag; otherwise simply re-search.
                core::hint::spin_loop();
                continue;
            }

            // The parent's contents with the tagged node replaced by its two
            // children and its single routing key spliced in.
            debug_assert_eq!(node.len(), 2, "tagged nodes always have two children");
            let n_idx = path.n_idx;
            let mut run = Run::splice(
                parent,
                n_idx..n_idx + 1,
                &[node.child(0), node.child(1)],
                &[node.key(0)],
            );
            if run.len <= MAX_KEYS {
                // Merge case (paper Fig. 3 step 5): absorb the tagged node
                // into a copy of its parent.
                let new_node = run.node(parent.search_key);
                // SAFETY: all three unmarked under the locks, so `search`'s
                // path still holds.
                unsafe { self.replace(locks, &[new_node], path.p_idx, guard) };
                return None;
            }
            // Split case (paper Fig. 6): the combined node would be too
            // large, so split it into two and push the imbalance up.  The top
            // node is tagged unless it becomes the new root.
            let (left, right, up_key) = run.split();
            let top_kind = if path.gp == self.entry_ptr() {
                NodeKind::Internal
            } else {
                NodeKind::TaggedInternal
            };
            let top =
                Node::new_internal_from(top_kind, parent.search_key, &[up_key], &[left, right]);
            // SAFETY: all three unmarked under the locks, so `search`'s path
            // still holds.
            unsafe { self.replace(locks, &[left, right, top], path.p_idx, guard) };
            return (top_kind == NodeKind::TaggedInternal).then_some(top);
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
            let (parent, gparent) =
                unsafe { (self.deref(path.p, guard), self.deref(path.gp, guard)) };

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
            let (left, right, left_idx) = if s_idx < n_idx {
                ((sib_ptr, sibling), (node_ptr, node), s_idx)
            } else {
                ((node_ptr, node), (sib_ptr, sibling), n_idx)
            };
            let mut tokens = Default::default();
            let mut locks = Locks::new(&mut tokens);
            locks.lock(left.0, left.1);
            locks.lock(right.0, right.1);
            locks.lock(path.p, parent);
            locks.lock(path.gp, gparent);

            if node.len() >= MIN_KEYS {
                // Someone already refilled the node.
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
                drop(locks);
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
            // The two siblings' contents, with the routing key between them.
            let mut run = Run::of(left.1);
            run.push_node(right.1, parent.key(left_idx));
            let pair = left_idx..left_idx + 2;

            if run.len >= 2 * MIN_KEYS {
                // Distribute (paper Fig. 8).
                let (new_left, new_right, up_key) = run.split();
                let new_parent = Run::splice(parent, pair, &[new_left, new_right], &[up_key])
                    .node(parent.search_key);
                let new = [new_left, new_right, new_parent];
                // SAFETY: all four unmarked under the locks, so `search`'s
                // path, and the sibling read from the parent, still hold.
                unsafe { self.replace(locks, &new, path.p_idx, guard) };
                return;
            }

            // Merge (paper Fig. 3 step 2).
            let merged = run.node(node.search_key);
            if path.gp == self.entry_ptr() && parent.len() == 2 {
                // The merged node becomes the new root (paper lines 174-177).
                // SAFETY: as for distribute; `gparent` is the entry.
                unsafe { self.replace(locks, &[merged], 0, guard) };
                return;
            }
            // General merge: the parent loses one child.
            let parent_len = parent.len() - 1;
            let new_parent = Run::splice(parent, pair, &[merged], &[]).node(parent.search_key);
            // SAFETY: as for distribute.
            unsafe { self.replace(locks, &[merged, new_parent], path.p_idx, guard) };
            // The merged node and/or the shrunk parent may themselves be
            // underfull (paper lines 183-184).
            if run.len < MIN_KEYS {
                work.push(merged);
            }
            if parent_len < MIN_KEYS {
                work.push(new_parent);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use absync::McsLock;

    use crate::node::{Node, DIRTY_BIT};
    use crate::persist::recording::{Event, Recording, EVENTS};
    use crate::{AbTree, ElimABTree, OccABTree, EMPTY_KEY, MAX_KEYS};

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
        assert!(
            stats.height >= 3,
            "expected height >= 3, got {}",
            stats.height
        );
        assert!(
            stats.leaves > (MAX_KEYS as u64),
            "tree should have many leaves"
        );
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

    /// Paper §5's publish order, at every pointer swing: each line of the
    /// node a child-slot link publishes was flushed since the previous link,
    /// and a fence followed those flushes before the link.
    ///
    /// Which input reaches which swing:
    /// * the first insert into a full root leaf: a splitting insert, then
    ///   fixTagged's root case (height 1 -> 2);
    /// * later inserts into full leaves: splitting inserts, then fixTagged's
    ///   absorb case while the parent has room, and its split case when it
    ///   has none (the top is the new root at height 2 -> 3, and tagged
    ///   below that from height 3 on);
    /// * the deletes interleaved with the inserts, and then every key
    ///   deleted in ascending order: fixUnderfull's distribute case while
    ///   the right sibling has keys to spare, its merge case once it has
    ///   not, and its root-merge case as the height falls back to 1.
    #[test]
    fn every_swing_flushes_and_fences_the_new_node_before_linking_it() {
        let tree: AbTree<false, McsLock, Recording> = AbTree::new();
        let mut t = tree.handle();
        EVENTS.with(|e| e.borrow_mut().clear());
        // Keys and values are even, so an 8-byte flush of a word with the
        // dirty bit set is a link (or an emptied key slot, `EMPTY_KEY`).
        const N: u64 = 4_000;
        for k in 0..N {
            assert_eq!(t.insert(2 * k, 4 * k), None);
            if k % 4 == 3 {
                assert_eq!(t.delete(2 * (k - 2)), Some(4 * (k - 2)));
            }
        }
        let height = t.stats().height;
        assert!(height >= 3, "height only reached {height}");
        for k in (0..N).filter(|k| k % 4 != 1) {
            assert_eq!(t.delete(2 * k), Some(4 * k), "delete {}", 2 * k);
        }
        t.check_invariants().unwrap();
        assert_eq!((t.len(), t.stats().height), (0, 1));

        let events = EVENTS.with(|e| e.take());
        let node_bytes = std::mem::size_of::<Node<McsLock>>();
        let mut window_start = 0;
        let mut links = 0;
        for (i, event) in events.iter().enumerate() {
            let word = match *event {
                Event::Flush {
                    word: Some(word), ..
                } if word & DIRTY_BIT as u64 != 0 && word != EMPTY_KEY => word,
                _ => continue,
            };
            let node = (word & !(DIRTY_BIT as u64)) as usize;
            let window = &events[window_start..i];
            let mut last_flush = 0;
            for line in node / 64..=(node + node_bytes - 1) / 64 {
                let flushed = window.iter().rposition(|e| {
                    matches!(*e, Event::Flush { addr, len, .. }
                        if addr / 64 <= line && line <= (addr + len - 1) / 64)
                });
                let Some(at) = flushed else {
                    panic!("link {links}: line {line} of the new node was not flushed first");
                };
                last_flush = last_flush.max(at);
            }
            assert!(
                window[last_flush..].contains(&Event::Fence),
                "link {links}: no fence between the new node's flushes and its link"
            );
            links += 1;
            window_start = i + 1;
        }
        assert!(links > N / 4, "only {links} links recorded");
    }
}
