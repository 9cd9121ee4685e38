//! The tree structure, its searches and its quiescent whole-tree walk.
//!
//! This module contains the parts of the OCC-ABtree / Elim-ABtree that are
//! shared verbatim between the two variants: construction, the lock-free
//! `search` descent (paper Fig. 2), `find` (whose `searchLeaf` is one
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
        // SAFETY: `path.n` was read during the pinned search.
        let leaf = unsafe { self.deref(path.n, guard) };
        // The paper's `searchLeaf` (Fig. 2) is one optimistic read.
        leaf.read(|leaf| leaf.find(key)).1.map(|(_, value)| value)
    }

    /// Group prefetching over the paper's search (Fig. 2): walks the
    /// root-to-leaf paths of `keys` in lockstep, one level per round, and
    /// prefetches every line of each next node, so the cache misses of
    /// many descents overlap instead of queueing one after another.  A
    /// cursor drops out once it stands on a leaf (already prefetched).
    ///
    /// Strictly read-only: no lock, no version check, no flush, and a dirty
    /// link is followed untagged, not helped — the operations that follow
    /// do their own validated search.  `guard` must be a coarse pin (the
    /// nodes are not protected one by one).  At most [`PREFETCH_CURSORS`]
    /// paths are walked at once, in a stack array; longer inputs go in
    /// chunks.
    pub(crate) fn prefetch_paths_in(&self, keys: &[u64], guard: &Guard) {
        debug_assert!(!guard.needs_protect(), "needs a coarse pin");
        let mut at = [ptr::null_mut(); PREFETCH_CURSORS];
        let mut key = [0u64; PREFETCH_CURSORS];
        for chunk in keys.chunks(PREFETCH_CURSORS) {
            // Every path starts at the root: read its link once per chunk.
            let root = self.entry().child(0);
            Node::prefetch(root);
            let mut live = chunk.len();
            key[..live].copy_from_slice(chunk);
            at[..live].fill(root);
            while live > 0 {
                let mut i = 0;
                while i < live {
                    // SAFETY: `at[i]` is a child pointer read from the entry,
                    // or from a node reached from it, under `guard`'s coarse
                    // pin.
                    let node = unsafe { self.deref(at[i], guard) };
                    let child = if node.is_leaf() {
                        ptr::null_mut()
                    } else {
                        node.child(node.child_index_branchless(key[i]))
                    };
                    if child.is_null() {
                        live -= 1;
                        at[i] = at[live];
                        key[i] = key[live];
                        continue;
                    }
                    Node::prefetch(child);
                    at[i] = child;
                    i += 1;
                }
            }
        }
    }
}

/// Most paths [`AbTree::prefetch_paths_in`] walks in one lockstep pass.
const PREFETCH_CURSORS: usize = 64;

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

    /// The prefetch pass is read-only even on a durable tree: over planted
    /// dirty links (the root link, and the root's link to its first child)
    /// it issues no flush and no fence and leaves both dirty bits set,
    /// where a real search helps (flushes and clears them).
    #[test]
    fn prefetch_neither_flushes_nor_fences_nor_helps_a_dirty_link() {
        let tree: AbTree<true, McsLock, Recording> = AbTree::new();
        let mut t = tree.handle();
        let keys: Vec<u64> = (0..2_000).map(|k| k * 7).collect();
        for &k in &keys {
            assert_eq!(t.insert(k, k), None);
        }
        assert!(t.stats().height >= 3);
        // SAFETY: one thread and no deletes, so the root stays linked and
        // alive for the whole test.
        let root = unsafe { &*tree.entry().child(0) };
        root.set_child(0, tag_dirty(root.child(0)));
        tree.force_dirty_root_link();
        let dirty = || [tree.entry().child_raw(0), root.child_raw(0)].map(is_dirty);
        EVENTS.with(|e| e.borrow_mut().clear());
        t.prefetch(&keys);
        assert_eq!(EVENTS.with(|e| e.take()), [], "prefetch flushed or fenced");
        assert_eq!(dirty(), [true, true], "prefetch helped a dirty link");
        assert_eq!(t.get(0), Some(0));
        assert_eq!(dirty(), [false, false], "a search helps both links");
        assert!(!EVENTS.with(|e| e.take()).is_empty());
    }

    /// Prefetching any number of keys, in one chunk or several, leaves the
    /// tree exactly as it was.
    #[test]
    fn prefetch_leaves_contents_and_shape_unchanged() {
        let tree: ElimABTree = ElimABTree::new();
        let mut t = tree.handle();
        for k in 0..5_000u64 {
            t.insert(k * 3, k);
        }
        let (sum, stats) = (t.key_sum(), t.stats());
        for n in [0u64, 1, 64, 65, 500] {
            let keys: Vec<u64> = (0..n)
                .map(|i| i.wrapping_mul(0x9E37_79B9) % 20_000)
                .collect();
            t.prefetch(&keys);
            assert_eq!(t.key_sum(), sum, "{n} keys");
            assert_eq!(t.stats(), stats, "{n} keys");
            t.check_invariants().unwrap();
        }
        // A tree that is one root leaf, and the largest key a caller may use.
        let empty: OccABTree = OccABTree::new();
        empty.handle().prefetch(&[0, 1, crate::EMPTY_KEY - 1]);
        assert_eq!(empty.key_sum(), 0);
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
