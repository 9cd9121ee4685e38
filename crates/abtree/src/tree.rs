//! The tree structure, its searches and its quiescent whole-tree walk.
//!
//! This module contains the parts of the OCC-ABtree / Elim-ABtree that are
//! shared verbatim between the two variants: construction, the lock-free
//! `search` descent (paper Fig. 2) and its lockstep form for a batch of
//! keys (`search_lockstep`), `find` (whose `searchLeaf` is one
//! optimistic read of the leaf, `Node::read`), the one quiescent walk of
//! the whole tree, §5 recovery and teardown.  The
//! update operations live in [`crate::update`] and the rebalancing steps in
//! [`crate::rebalance`].
//!
//! # The quiescent walk
//!
//! `AbTree::visit` is the only traversal of the whole tree.  It starts at
//! the entry sentinel, reads an internal node's children (untagged, up to
//! the first null slot) before it hands the node to its callback, and gives
//! each node its depth and its routing range.  Recovery and teardown
//! (below), the statistics, iteration and invariant checks of
//! [`crate::validate`], and [`AbTree::has_dirty_links`] are callbacks of it,
//! so they share one definition of which nodes are reachable.

use std::ptr;
use std::sync::atomic::Ordering;

use abebr::{Collector, Guard};
use absync::{McsLock, RawNodeLock};

use crate::node::{is_dirty, tag_dirty, untag, Node};
use crate::persist::{Persist, VolatilePersist};
use crate::validate::TreeStats;
use crate::EMPTY_KEY;

/// Result of a root-to-leaf search: the leaf (or target node) reached, its
/// parent and grandparent, and the child indices linking them (paper Fig. 1,
/// `PathInfo`).
pub(crate) struct PathInfo<L: RawNodeLock> {
    /// Grandparent of `n` (null if `n`'s parent is the entry sentinel).
    pub gp: *mut Node<L>,
    /// Parent of `n` (the entry sentinel if `n` is the root).
    pub p: *mut Node<L>,
    /// Index of `p` within `gp`'s child array.
    pub p_idx: usize,
    /// The node at which the search stopped (a leaf, or the target node).
    pub n: *mut Node<L>,
    /// Index of `n` within `p`'s child array.
    pub n_idx: usize,
}

// Copied by hand: a derive would require `L: Copy`.
impl<L: RawNodeLock> Clone for PathInfo<L> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<L: RawNodeLock> Copy for PathInfo<L> {}

impl<L: RawNodeLock> PathInfo<L> {
    /// A placeholder for a buffer of paths that a search fills.
    pub(crate) const UNSET: Self = Self {
        gp: ptr::null_mut(),
        p: ptr::null_mut(),
        p_idx: 0,
        n: ptr::null_mut(),
        n_idx: 0,
    };
}

/// A node met by [`AbTree::visit`], with where the walk met it.
pub(crate) struct Visit<L: RawNodeLock> {
    ptr: *mut Node<L>,
    /// Levels below the entry sentinel: the entry is 0, the root 1.
    pub depth: u64,
    /// Lower bound of the node's routing range `[lo, hi)`.
    pub lo: u64,
    /// Upper bound of the node's routing range; [`EMPTY_KEY`] is unbounded.
    pub hi: u64,
}

impl<L: RawNodeLock> Visit<L> {
    /// The node itself.
    #[inline]
    pub(crate) fn node(&self) -> &Node<L> {
        // SAFETY: only `visit` makes a `Visit`, for a node reachable in a
        // quiescent tree, and lends it to one callback; only `Drop`'s frees
        // the node, and then reads it no more (nor does the walk).
        unsafe { &*self.ptr }
    }
}

/// A concurrent relaxed (a,b)-tree.
///
/// * `ELIM = false` — the OCC-ABtree of paper §3.
/// * `ELIM = true` — the Elim-ABtree of paper §4 (publishing elimination).
///
/// The lock type `L` is the per-node lock; the paper's configuration (and the
/// default) is the MCS queue lock.
///
/// Keys and values are `u64`; the key [`EMPTY_KEY`] is reserved.
pub struct AbTree<const ELIM: bool, L: RawNodeLock = McsLock, P: Persist = VolatilePersist> {
    /// Sentinel entry node: never removed, has no keys, exactly one child
    /// pointer (to the root).  Owned by the tree; freed by its `Drop`.
    entry: *mut Node<L>,
    /// Epoch-based reclamation collector through which unlinked nodes are
    /// retired.
    pub(crate) collector: Collector,
    /// Number of operations completed via publishing elimination (only ever
    /// incremented by the Elim-ABtree; exposed for benchmarks and tests).
    pub(crate) elim_count: std::sync::atomic::AtomicU64,
    /// Persistence policy marker (no runtime state).
    pub(crate) _persist: std::marker::PhantomData<P>,
}

// SAFETY: all shared state is reached through atomics / node locks, and node
// lifetime is governed by epoch-based reclamation.
unsafe impl<const ELIM: bool, L: RawNodeLock, P: Persist> Send for AbTree<ELIM, L, P> {}
unsafe impl<const ELIM: bool, L: RawNodeLock, P: Persist> Sync for AbTree<ELIM, L, P> {}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> Default for AbTree<ELIM, L, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Creates an empty tree: the entry sentinel pointing at an empty root
    /// leaf.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty tree sharing an existing reclamation [`Collector`]
    /// (useful when many structures are benchmarked in one process).
    pub fn with_collector(collector: Collector) -> Self {
        let root = Node::new_leaf(0);
        if P::DURABLE {
            // The initial root and entry must be durable before the tree is
            // used (paper §5: recovery starts from the entry node, which is
            // "in a known location").
            P::persist_range(root as *const u8, std::mem::size_of::<Node<L>>());
        }
        let entry = Node::new_entry(root);
        if P::DURABLE {
            P::persist_range(entry as *const u8, std::mem::size_of::<Node<L>>());
        }
        Self {
            entry,
            collector,
            elim_count: std::sync::atomic::AtomicU64::new(0),
            _persist: std::marker::PhantomData,
        }
    }

    /// Number of operations that completed through publishing elimination
    /// (always 0 for the OCC-ABtree).
    pub fn elimination_count(&self) -> u64 {
        self.elim_count.load(Ordering::Relaxed)
    }

    /// The reclamation collector used by this tree.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Whether this instance uses publishing elimination.
    pub const fn uses_elimination(&self) -> bool {
        ELIM
    }

    /// Raw pointer to the entry sentinel.
    #[inline]
    pub(crate) fn entry_ptr(&self) -> *mut Node<L> {
        self.entry
    }

    /// The entry sentinel.
    #[inline]
    pub(crate) fn entry(&self) -> &Node<L> {
        // SAFETY: the entry lives exactly as long as the tree.
        unsafe { &*self.entry }
    }

    /// Dereferences a node pointer obtained while `_guard` is pinned.
    ///
    /// # Safety
    /// `ptr` was read from the tree while the guard was pinned, or is the entry sentinel.
    #[inline]
    pub(crate) unsafe fn deref<'g>(&self, ptr: *mut Node<L>, _guard: &'g Guard) -> &'g Node<L> {
        debug_assert!(!ptr.is_null());
        // SAFETY: per the function contract the node is protected by the
        // pinned epoch (invariant 3 of Theorem 3.5 guarantees its contents
        // stay meaningful even if it has just been unlinked).
        unsafe { &*ptr }
    }

    /// The paper's `search(key, targetNode)` (Fig. 2): descends from the
    /// entry node following routing keys until it reaches a leaf or the
    /// target node, never acquiring locks.
    pub(crate) fn search(&self, key: u64, target: *mut Node<L>, guard: &Guard) -> PathInfo<L> {
        // Fine-mode hazard-pointer guards only keep a pointer alive once it
        // has been published in a hazard slot *and* re-validated as still
        // reachable.  The descent keeps the last three nodes (gp, p, n) in a
        // rotating window of three slots, so the returned `PathInfo` stays
        // dereferenceable for the caller.  Coarse guards (and EBR) protect
        // everything read while pinned, so the protocol is skipped.
        let fine = guard.needs_protect();
        'restart: loop {
            let mut gp: *mut Node<L> = ptr::null_mut();
            let mut p: *mut Node<L> = ptr::null_mut();
            let mut p_idx = 0usize;
            let mut n: *mut Node<L> = self.entry_ptr();
            let mut n_idx = 0usize;
            let mut rot = 0usize;

            loop {
                // SAFETY: `n` is the entry (never retired), a hazard validated
                // below (fine mode), or read from a reachable node under the
                // blanket pin (coarse / EBR).
                let node = unsafe { self.deref(n, guard) };
                if node.is_leaf() {
                    break;
                }
                if !target.is_null() && n == target {
                    break;
                }
                gp = p;
                p = n;
                p_idx = n_idx;
                n_idx = node.child_index(key);
                n = self.read_child(node, n_idx);
                if fine {
                    // Publish, then re-validate reachability: if the parent
                    // has been marked for unlinking or its child slot no
                    // longer points at `n`, `n` may already have been
                    // retired before the hazard became visible — restart
                    // from the entry (mark-before-unlink makes a validated
                    // hazard sound; see "Why the watermark is sound" in
                    // `abebr`'s `hp.rs`).
                    guard.protect(rot, n);
                    rot = (rot + 1) % 3;
                    if node.is_marked() || untag(node.child_raw(n_idx)) != n {
                        continue 'restart;
                    }
                }
            }
            return PathInfo {
                gp,
                p,
                p_idx,
                n,
                n_idx,
            };
        }
    }

    /// The paper's `find(key)`: returns the associated value, or `None`.
    /// Never restarts and never acquires locks.  The caller's session guard
    /// keeps the traversed nodes alive; see [`crate::TreeHandle::get`] for
    /// the public entry point.
    pub(crate) fn get_in(&self, key: u64, guard: &Guard) -> Option<u64> {
        debug_assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved");
        let path = self.search(key, ptr::null_mut(), guard);
        self.get_at(key, &path, guard)
    }

    /// The paper's `searchLeaf` (Fig. 2) on the leaf a pinned search of
    /// `key` reached: one optimistic read.
    #[inline]
    pub(crate) fn get_at(&self, key: u64, path: &PathInfo<L>, guard: &Guard) -> Option<u64> {
        // SAFETY: `path.n` was read during a search pinned by `guard`.
        let leaf = unsafe { self.deref(path.n, guard) };
        leaf.read(|leaf| leaf.find(key)).1.map(|(_, value)| value)
    }

    /// The paper's search (Fig. 2) for many keys at once, in lockstep:
    /// every cursor descends one level per round and prefetches the node
    /// it steps to, so the cache misses of the descents overlap instead of
    /// queueing one after another (group prefetching).  `paths[i]` gets
    /// the `PathInfo` that `search(keys[i], null)` would return.
    ///
    /// Each step routes with [`Node::child_index_branchless`] (the cursors'
    /// keys defeat the branch predictor) and follows the link through
    /// [`AbTree::read_child`], so a dirty link is helped, as `search`
    /// helps it.  A cursor drops out once it stands on a leaf (already
    /// prefetched).  At most [`LOCKSTEP_CURSORS`] keys per call.
    ///
    /// `guard` must be a coarse pin: the nodes are not protected one by
    /// one, so under hazard pointers only a coarse pin keeps the returned
    /// paths dereferenceable (under EBR every pin is coarse).  The paths
    /// are only as fresh as the pass: a caller that writes before it uses
    /// a later path must apply the stale-leaf rule of
    /// [`crate::TreeHandle::apply`].
    pub(crate) fn search_lockstep(&self, keys: &[u64], paths: &mut [PathInfo<L>], guard: &Guard) {
        debug_assert!(!guard.needs_protect(), "needs a coarse pin");
        debug_assert!(keys.len() == paths.len() && keys.len() <= LOCKSTEP_CURSORS);
        // Every path starts at the root: read its link once.
        let root = self.read_child(self.entry(), 0);
        Node::prefetch(root);
        let start = PathInfo {
            gp: ptr::null_mut(),
            p: self.entry_ptr(),
            p_idx: 0,
            n: root,
            n_idx: 0,
        };
        paths.fill(start);
        // The cursors still descending, by index into `paths`.
        let mut walking = [0u8; LOCKSTEP_CURSORS];
        let mut live = keys.len();
        for (i, w) in walking[..live].iter_mut().enumerate() {
            *w = i as u8;
        }
        while live > 0 {
            let mut w = 0;
            while w < live {
                let i = usize::from(walking[w]);
                let path = &mut paths[i];
                // SAFETY: `path.n` is the root link read above, or a child
                // link read from a node reached from it, under `guard`'s
                // coarse pin.
                let node = unsafe { self.deref(path.n, guard) };
                if node.is_leaf() {
                    live -= 1;
                    walking[w] = walking[live];
                    continue;
                }
                let n_idx = node.child_index_branchless(keys[i]);
                let child = self.read_child(node, n_idx);
                Node::prefetch(child);
                *path = PathInfo {
                    gp: path.p,
                    p: path.n,
                    p_idx: path.n_idx,
                    n: child,
                    n_idx,
                };
                w += 1;
            }
        }
    }
}

/// Most keys [`AbTree::search_lockstep`] walks in one pass; longer
/// batches go in chunks.
pub(crate) const LOCKSTEP_CURSORS: usize = 64;

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// The one walk of the whole tree, for quiescent use only: calls `f` on
    /// every node reachable from the entry sentinel (the entry included,
    /// at depth 0), parents before children and siblings left to right.
    ///
    /// An internal node's children are its child slots up to the first null
    /// one, untagged; the walk reads them, and their routing ranges, before
    /// `f` sees the node, so `f` may even free it.
    pub(crate) fn visit(&self, mut f: impl FnMut(&Visit<L>)) {
        let mut stack = vec![Visit {
            ptr: self.entry,
            depth: 0,
            lo: 0,
            hi: EMPTY_KEY,
        }];
        while let Some(v) = stack.pop() {
            let node = v.node();
            if !node.is_leaf() {
                let n = node.linked_children();
                // Last child first, so the stack pops them left to right.
                for i in (0..n).rev() {
                    stack.push(Visit {
                        ptr: node.child(i),
                        depth: v.depth + 1,
                        lo: if i == 0 { v.lo } else { node.key(i - 1) },
                        hi: if i + 1 == n { v.hi } else { node.key(i) },
                    });
                }
            }
            f(&v);
        }
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> Drop for AbTree<ELIM, L, P> {
    fn drop(&mut self) {
        // Exclusive access: return every node still reachable from the
        // entry (the entry included) to the slab.  Nodes that were unlinked
        // earlier are owned by the collector's retirement bags and are freed
        // when the collector (or the exiting threads' local handles) drop.
        self.visit(|v| {
            // SAFETY: nothing else reaches a dropped tree's nodes; the walk
            // meets each node once (no two parents share a child), has read
            // its children already and never returns to it.
            unsafe { Node::<L>::free(v.ptr.cast()) }
        });
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> std::fmt::Debug for AbTree<ELIM, L, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbTree")
            .field("elimination", &ELIM)
            .field("lock", &L::algorithm_name())
            .finish_non_exhaustive()
    }
}

/// Persistence plumbing shared by the volatile and durable instantiations.
///
/// With the [`VolatilePersist`] policy every branch below folds to the plain
/// volatile behaviour; with a durable policy they implement the paper's §5
/// flush/fence placement and the link-and-persist rule.
impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Reads child `i` of `node`.  In a durable tree, a pointer still carrying
    /// the dirty mark has been written but possibly not yet flushed; the
    /// reader helps by flushing the pointer and clearing the mark before
    /// acting on it, so no operation ever depends on unpersisted data
    /// (the paper's "operations must only follow persisted pointers").
    #[inline]
    pub(crate) fn read_child(&self, node: &Node<L>, i: usize) -> *mut Node<L> {
        let raw = node.child_raw(i);
        if !P::DURABLE || !is_dirty(raw) {
            return untag(raw);
        }
        let clean = untag(raw);
        node.persist_slot::<P>(i);
        node.cas_child(i, raw, clean);
        clean
    }

    /// Publishes `new` as child `i` of `node` (which the caller has locked).
    /// Durable trees use link-and-persist: store the pointer with the dirty
    /// mark, flush it, then clear the mark.
    #[inline]
    pub(crate) fn link_child(&self, node: &Node<L>, i: usize, new: *mut Node<L>) {
        if !P::DURABLE {
            node.set_child(i, new);
            return;
        }
        node.set_child(i, tag_dirty(new));
        node.persist_slot::<P>(i);
        node.cas_child(i, tag_dirty(new), new);
    }

    /// Flushes freshly created nodes and fences, so that the subsequent
    /// child-pointer write can safely make them reachable (paper §5:
    /// "flushing the new nodes before changing the pointer").  No-op for
    /// volatile trees.
    #[inline]
    pub(crate) fn persist_new_nodes(&self, nodes: &[*mut Node<L>]) {
        if !P::DURABLE {
            return;
        }
        for &n in nodes {
            P::flush_range(n as *const u8, std::mem::size_of::<Node<L>>());
        }
        P::fence();
    }

    /// Post-crash recovery (paper §5) in one quiescent walk (`visit`) from
    /// the entry node: re-initializes every non-persisted field of each
    /// node it meets — the leaf versions, the marked bits, the elimination
    /// records and the `size` fields (recounted from the persisted keys /
    /// child pointers) — and clears any dirty marks left on child pointers.
    /// Returns the statistics of the tree it leaves behind, counted in the
    /// same walk.
    ///
    /// Must be called while no other thread accesses the tree (recovery is
    /// single-threaded, as in the paper).  It is also safe (and a no-op
    /// semantically) to call on a volatile tree, which the tests use to check
    /// idempotence.
    pub fn recover(&self) -> TreeStats {
        let mut stats = TreeStats::default();
        self.visit(|v| {
            let node = v.node();
            node.marked.store(false, Ordering::Relaxed);
            node.ver.store(0, Ordering::Relaxed);
            node.rec_key.store(EMPTY_KEY, Ordering::Relaxed);
            node.rec_val.store(0, Ordering::Relaxed);
            node.rec_ver.store(0, Ordering::Relaxed);
            if node.is_leaf() {
                node.set_len(node.entries().count());
            } else {
                // The walk's child count is the persisted one: slots past
                // the last child are null (the entry has exactly one).
                let n = node.linked_children();
                for i in 0..n {
                    let raw = node.child_raw(i);
                    if is_dirty(raw) {
                        node.set_child(i, untag(raw));
                    }
                }
                node.set_len(n);
            }
            stats.count(v);
        });
        if P::DURABLE {
            P::fence();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use absync::McsLock;

    use super::{PathInfo, LOCKSTEP_CURSORS};
    use crate::node::{is_dirty, tag_dirty};
    use crate::persist::recording::{Recording, EVENTS};
    use crate::{AbTree, ElimABTree, OccABTree};

    #[test]
    fn empty_tree_finds_nothing() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(42), None);
    }

    #[test]
    fn search_reaches_the_single_leaf() {
        let t: OccABTree = OccABTree::new();
        let local = t.collector().register();
        let guard = local.pin();
        let path = t.search(5, std::ptr::null_mut(), &guard);
        assert!(!path.n.is_null());
        assert_eq!(path.p, t.entry_ptr());
        assert!(path.gp.is_null());
        // SAFETY: read by the search above while `guard` was pinned.
        let leaf = unsafe { t.deref(path.n, &guard) };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.len(), 0);
    }

    /// The parts of a path, comparable.
    fn parts<L: absync::RawNodeLock>(p: &PathInfo<L>) -> [usize; 5] {
        [p.gp as usize, p.p as usize, p.p_idx, p.n as usize, p.n_idx]
    }

    /// On trees of one to four levels the lockstep pass returns, for every
    /// key present or absent, the path `search` returns, in chunks of one,
    /// of a few and of the most cursors a pass walks.
    #[test]
    fn lockstep_search_returns_the_paths_search_returns() {
        let mut heights = Vec::new();
        for n in [0u64, 9, 60, 400, 1_000] {
            let tree: ElimABTree = ElimABTree::new();
            let mut t = tree.handle();
            for k in 0..n {
                assert_eq!(t.insert(k * 3, k), None);
            }
            heights.push(t.stats().height);
            let keys: Vec<u64> = (0..3 * n + 64).chain([crate::EMPTY_KEY - 1]).collect();
            let local = tree.collector().register();
            let guard = local.pin();
            let mut paths = [PathInfo::UNSET; LOCKSTEP_CURSORS];
            for chunk_len in [1, 7, LOCKSTEP_CURSORS] {
                for chunk in keys.chunks(chunk_len) {
                    let paths = &mut paths[..chunk.len()];
                    tree.search_lockstep(chunk, paths, &guard);
                    for (&key, path) in chunk.iter().zip(paths.iter()) {
                        let searched = tree.search(key, std::ptr::null_mut(), &guard);
                        assert_eq!(parts(path), parts(&searched), "{n} keys, key {key}");
                    }
                }
            }
        }
        assert_eq!(heights, [1, 1, 2, 3, 4]);
    }

    /// Like `search`, the pass helps the dirty links it follows (crashsim's
    /// planted root link, and the root's link to its first child): it
    /// flushes and clears them, logging what a search logs.
    #[test]
    fn lockstep_search_helps_a_dirty_link_as_search_does() {
        let tree: AbTree<true, McsLock, Recording> = AbTree::new();
        let mut t = tree.handle();
        for k in 0..2_000u64 {
            assert_eq!(t.insert(k * 7, k), None);
        }
        assert!(t.stats().height >= 3);
        // SAFETY: one thread and no deletes, so the root stays linked and
        // alive for the whole test.
        let root = unsafe { &*tree.entry().child(0) };
        let plant = || {
            root.set_child(0, tag_dirty(root.child(0)));
            tree.force_dirty_root_link();
            EVENTS.with(|e| e.borrow_mut().clear());
        };
        let dirty = || [tree.entry().child_raw(0), root.child_raw(0)].map(is_dirty);
        let local = tree.collector().register();
        let guard = local.pin();

        plant();
        let mut paths = [PathInfo::UNSET; 2];
        tree.search_lockstep(&[0, 1], &mut paths, &guard);
        let by_pass = EVENTS.with(|e| e.take());
        assert_eq!(dirty(), [false, false], "the pass left a dirty link");

        plant();
        let searched = tree.search(0, std::ptr::null_mut(), &guard);
        assert_eq!(dirty(), [false, false], "a search helps both links");
        assert_eq!(parts(&paths[0]), parts(&searched));
        assert!(!by_pass.is_empty());
        assert_eq!(by_pass, EVENTS.with(|e| e.take()));
    }

    #[test]
    fn elim_flag_reporting() {
        let occ: OccABTree = OccABTree::new();
        let elim: ElimABTree = ElimABTree::new();
        assert!(!occ.uses_elimination());
        assert!(elim.uses_elimination());
    }

    #[test]
    fn debug_format_mentions_lock() {
        let occ: OccABTree = OccABTree::new();
        let s = format!("{occ:?}");
        assert!(s.contains("mcs"));
    }

    #[test]
    fn node_kind_is_public_enough_for_tests() {
        use crate::node::NodeKind;
        // NodeKind is crate-visible; make sure variants exist.
        let k = NodeKind::TaggedInternal;
        assert_ne!(k, NodeKind::Leaf);
    }
}
