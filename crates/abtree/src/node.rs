//! Tree node representation shared by the OCC-ABtree and Elim-ABtree.
//!
//! The paper (Fig. 1) uses three node types — `Leaf`, `Internal` and
//! `TaggedInternal` — that share the key array, lock, size and marked bit.
//! Like the authors' C++ artifact we use a single allocation layout for all
//! three and discriminate with a [`NodeKind`] field: nodes are referenced
//! through raw pointers from multiple threads, so a single layout keeps the
//! unsafe surface small.
//!
//! The layout is *one* key array plus *one* array of 11 payload `slots`
//! shared by the roles: a leaf never has children and an internal node
//! never has values, so slot `i` holds `keys[i]`'s value in a leaf and the
//! address of child `i` in an internal node.  With `size` packed beside
//! `kind` and `marked` that makes a node 232 bytes (separate value and
//! pointer arrays made it 328), which every layer above inherits as
//! memory, and the durable trees as fewer lines per whole-node flush.  The
//! slots are private to this module: the rest of the crate goes through
//! [`Node::val`]/[`Node::set_val`] and
//! [`Node::child`]/[`Node::child_raw`]/[`Node::set_child`]/
//! [`Node::cas_child`]/[`Node::persist_slot`], which is also what keeps a
//! later split into separate leaf and internal types (ROADMAP item 7(b)) local.
//!
//! Nodes do not come from malloc.  Each is built in place in a 232-byte
//! slot of the [`crate::slab`], and goes back there by one of two paths:
//! [`Node::retire`] hands an unlinked node to the reclamation collector,
//! which releases it through [`Node::free`] once no pinned thread can reach
//! it, and the tree's `Drop` walk frees what is still linked.
//!
//! Field roles (paper §3.1):
//!
//! * `keys` — up to [`MAX_KEYS`] keys.  In leaves the array is **unsorted**
//!   and may contain [`EMPTY_KEY`] holes; in internal nodes the first
//!   `size - 1` entries are sorted routing keys and never change after the
//!   node is created.
//! * `slots` — leaf: values, parallel to `keys`; internal: child pointers
//!   (as addresses, low bit = link-and-persist dirty mark), the only
//!   mutable part of an internal node.
//! * `ver` — leaf version: even when stable, odd while a locked writer is
//!   modifying the leaf.  The second increment (odd → even) is the
//!   linearization point of simple inserts and successful deletes.
//! * `marked` — set (permanently) when the node is unlinked from the tree.
//! * `size` — number of keys (leaf) or children (internal).
//! * `rec_*` — the Elim-ABtree's publishing-elimination record (§4.1): the
//!   key, value and odd version of the last simple insert / successful delete
//!   applied to this leaf.
//! * `search_key` — a key guaranteed to lie in this node's key range, used by
//!   `fixTagged`/`fixUnderfull` to re-locate the node from the root.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use abebr::Guard;
use absync::{McsLock, RawNodeLock, TatasLock};

use crate::persist::Persist;
use crate::slab;
use crate::{EMPTY_KEY, MAX_KEYS};

// A slot holds either a value or a child address.
const _: () = assert!(std::mem::size_of::<usize>() <= std::mem::size_of::<u64>());

// The layout gate: one payload array, `size` beside `kind` and `marked`.
// A wider lock or a second array does not fit the slab's slot.
const _: () = assert!(std::mem::size_of::<Node<McsLock>>() == slab::SLOT_BYTES);
const _: () = assert!(std::mem::size_of::<Node<TatasLock>>() <= slab::SLOT_BYTES);

/// Dirty-bit used by the link-and-persist technique (paper §5): a child
/// pointer whose least-significant bit is set has been written but not yet
/// flushed to persistent memory, so operations must not act on it until the
/// bit is cleared (after the flush).  Volatile trees never set the bit.
pub(crate) const DIRTY_BIT: usize = 1;

/// Tags a pointer as "written but not yet persisted".
#[inline]
pub(crate) fn tag_dirty<L: RawNodeLock>(p: *mut Node<L>) -> *mut Node<L> {
    (p as usize | DIRTY_BIT) as *mut Node<L>
}

/// Removes the dirty tag (if any) from a pointer.
#[inline]
pub(crate) fn untag<L: RawNodeLock>(p: *mut Node<L>) -> *mut Node<L> {
    (p as usize & !DIRTY_BIT) as *mut Node<L>
}

/// Is the dirty tag set?
#[inline]
pub(crate) fn is_dirty<L: RawNodeLock>(p: *mut Node<L>) -> bool {
    (p as usize & DIRTY_BIT) != 0
}

/// Discriminates the three node roles of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A leaf holding key/value pairs in unsorted slots.
    Leaf,
    /// A routing node with sorted, immutable keys and mutable child pointers.
    Internal,
    /// A temporary two-child internal node produced by a splitting insert;
    /// removed by the `fixTagged` rebalancing step.
    TaggedInternal,
}

/// A tree node.  See the module documentation for field roles.
pub struct Node<L: RawNodeLock> {
    /// Per-node lock (MCS in the paper's configuration).
    pub(crate) lock: L,
    /// Role of this node; never changes after creation.
    pub(crate) kind: NodeKind,
    /// A key inside this node's key range (constant).
    pub(crate) search_key: u64,
    /// Set once the node has been unlinked from the tree.
    pub(crate) marked: AtomicBool,
    /// Number of keys (leaf) or children (internal).
    pub(crate) size: AtomicU32,
    /// Leaf version (even = stable, odd = being modified).
    pub(crate) ver: AtomicU64,
    /// Keys (leaf: unsorted with holes; internal: sorted routing keys).
    pub(crate) keys: [AtomicU64; MAX_KEYS],
    /// Leaf: values, parallel to `keys`.  Internal: child addresses (see
    /// the module docs).  Private: use the accessors.
    slots: [AtomicU64; MAX_KEYS],
    /// Publishing-elimination record: key of the last leaf-modifying update.
    pub(crate) rec_key: AtomicU64,
    /// Publishing-elimination record: value inserted / deleted by it.
    pub(crate) rec_val: AtomicU64,
    /// Publishing-elimination record: the odd version it published.
    pub(crate) rec_ver: AtomicU64,
}

impl<L: RawNodeLock> std::fmt::Debug for Node<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind)
            .field("search_key", &self.search_key)
            .field("size", &self.size.load(Ordering::Relaxed))
            .field("marked", &self.marked.load(Ordering::Relaxed))
            .field("ver", &self.ver.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn empty_keys() -> [AtomicU64; MAX_KEYS] {
    std::array::from_fn(|_| AtomicU64::new(EMPTY_KEY))
}

/// Zero is both the default value and the null child address.
fn zero_slots() -> [AtomicU64; MAX_KEYS] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

impl<L: RawNodeLock> Node<L> {
    fn blank(kind: NodeKind, search_key: u64) -> Self {
        Self {
            lock: L::default(),
            kind,
            search_key,
            marked: AtomicBool::new(false),
            size: AtomicU32::new(0),
            ver: AtomicU64::new(0),
            keys: empty_keys(),
            slots: zero_slots(),
            rec_key: AtomicU64::new(EMPTY_KEY),
            rec_val: AtomicU64::new(0),
            rec_ver: AtomicU64::new(0),
        }
    }

    /// A blank node of `kind`, built in place in a fresh slab slot.
    fn alloc(kind: NodeKind, search_key: u64) -> *mut Self {
        const {
            assert!(std::mem::size_of::<Self>() <= slab::SLOT_BYTES);
            assert!(std::mem::align_of::<Self>() <= slab::SLOT_ALIGN);
        }
        let node = slab::alloc().cast::<Self>();
        // SAFETY: a fresh slot, large and aligned enough for a node (above).
        unsafe { node.write(Self::blank(kind, search_key)) };
        node
    }

    /// Creates an empty leaf.
    pub(crate) fn new_leaf(search_key: u64) -> *mut Self {
        Self::alloc(NodeKind::Leaf, search_key)
    }

    /// Creates a leaf pre-populated with `entries` (placed in slots
    /// `0..entries.len()`).
    pub(crate) fn new_leaf_from(search_key: u64, entries: &[(u64, u64)]) -> *mut Self {
        debug_assert!(entries.len() <= MAX_KEYS);
        let ptr = Self::alloc(NodeKind::Leaf, search_key);
        // SAFETY: built just above and not yet shared.
        let node = unsafe { &*ptr };
        for (i, &(k, v)) in entries.iter().enumerate() {
            debug_assert_ne!(k, EMPTY_KEY);
            node.keys[i].store(k, Ordering::Relaxed);
            node.set_val(i, v);
        }
        node.set_len(entries.len());
        ptr
    }

    /// Creates an internal (or tagged internal) node with the given sorted
    /// routing keys and children.  `children.len()` must equal
    /// `keys.len() + 1`.
    pub(crate) fn new_internal_from(
        kind: NodeKind,
        search_key: u64,
        routing_keys: &[u64],
        children: &[*mut Node<L>],
    ) -> *mut Self {
        debug_assert!(matches!(
            kind,
            NodeKind::Internal | NodeKind::TaggedInternal
        ));
        debug_assert_eq!(children.len(), routing_keys.len() + 1);
        debug_assert!(children.len() <= MAX_KEYS);
        debug_assert!(routing_keys.windows(2).all(|w| w[0] < w[1]));
        let ptr = Self::alloc(kind, search_key);
        // SAFETY: built just above and not yet shared.
        let node = unsafe { &*ptr };
        for (i, &k) in routing_keys.iter().enumerate() {
            node.keys[i].store(k, Ordering::Relaxed);
        }
        for (i, &c) in children.iter().enumerate() {
            node.set_child(i, c);
        }
        node.set_len(children.len());
        ptr
    }

    /// Creates the sentinel entry node pointing at `root`.
    pub(crate) fn new_entry(root: *mut Node<L>) -> *mut Self {
        Self::new_internal_from(NodeKind::Internal, 0, &[], &[root])
    }

    /// Destroys a node and returns its slot to the slab.
    ///
    /// # Safety
    ///
    /// `ptr` is a node made by one of the constructors above, nothing can
    /// reach it any more, and it is not freed twice.
    pub(crate) unsafe fn free(ptr: *mut u8) {
        // SAFETY: per the contract, `ptr` is a live node in a slab slot.
        unsafe {
            std::ptr::drop_in_place(ptr.cast::<Self>());
            slab::release(ptr);
        }
    }

    /// Retires an unlinked node through `guard`'s collector, which frees it
    /// once no pinned thread can still reach it.
    ///
    /// # Safety
    ///
    /// `ptr` is a node made by one of the constructors above that has been
    /// unlinked (threads pinning after this call cannot reach it), and it is
    /// retired once.
    pub(crate) unsafe fn retire(ptr: *mut Self, guard: &Guard) {
        // SAFETY: forwarded from this function's contract; `free` is how a
        // slab node is destroyed, on any thread.
        unsafe { guard.defer_free(ptr.cast(), Self::free) }
    }

    // ----- basic accessors ------------------------------------------------

    /// Is this a leaf?
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.kind == NodeKind::Leaf
    }

    /// Is this a tagged internal node?
    #[inline]
    pub(crate) fn is_tagged(&self) -> bool {
        self.kind == NodeKind::TaggedInternal
    }

    /// Current size (keys for leaves, children for internal nodes).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed) as usize
    }

    /// Sets the size; caller holds the node's lock, or the node is not yet
    /// published (or the tree is quiescent).
    #[inline]
    pub(crate) fn set_len(&self, len: usize) {
        self.size.store(len as u32, Ordering::Relaxed);
    }

    /// Has this node been unlinked from the tree?
    #[inline]
    pub(crate) fn is_marked(&self) -> bool {
        self.marked.load(Ordering::Acquire)
    }

    /// Marks this node as unlinked (never unmarked).
    #[inline]
    pub(crate) fn mark(&self) {
        self.marked.store(true, Ordering::Release);
    }

    /// Relaxed read of `keys[i]`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        self.keys[i].load(Ordering::Relaxed)
    }

    /// Relaxed read of leaf value `i`.
    #[inline]
    pub(crate) fn val(&self, i: usize) -> u64 {
        debug_assert!(self.is_leaf());
        self.slots[i].load(Ordering::Relaxed)
    }

    /// Relaxed store of leaf value `i`.  Caller holds the leaf's lock inside
    /// a version-bracketed write (or the leaf is not yet published).
    #[inline]
    pub(crate) fn set_val(&self, i: usize, val: u64) {
        debug_assert!(self.is_leaf());
        self.slots[i].store(val, Ordering::Relaxed);
    }

    /// Loads child pointer `i` (acquire, so the child's immutable fields are
    /// visible), stripping any link-and-persist dirty tag.
    #[inline]
    pub(crate) fn child(&self, i: usize) -> *mut Node<L> {
        untag(self.child_raw(i))
    }

    /// Loads child pointer `i` without stripping the dirty tag (used by the
    /// durable trees' helping reads and by recovery).
    #[inline]
    pub(crate) fn child_raw(&self, i: usize) -> *mut Node<L> {
        debug_assert!(!self.is_leaf());
        self.slots[i].load(Ordering::Acquire) as usize as *mut Node<L>
    }

    /// Stores child pointer `i` (release).  Only called while holding this
    /// node's lock (or during construction or quiescent recovery).
    #[inline]
    pub(crate) fn set_child(&self, i: usize, child: *mut Node<L>) {
        debug_assert!(!self.is_leaf());
        self.slots[i].store(child as usize as u64, Ordering::Release);
    }

    /// Replaces child pointer `i` with `new` if it still is `current`
    /// (dirty tag included); used to clear a link-and-persist dirty mark
    /// without undoing a concurrent relink.
    #[inline]
    pub(crate) fn cas_child(&self, i: usize, current: *mut Node<L>, new: *mut Node<L>) -> bool {
        debug_assert!(!self.is_leaf());
        self.slots[i]
            .compare_exchange(
                current as usize as u64,
                new as usize as u64,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Flushes and fences slot `i` (a leaf value or a child pointer) under
    /// persistence policy `P`.
    #[inline]
    pub(crate) fn persist_slot<P: Persist>(&self, i: usize) {
        P::persist_value(&self.slots[i]);
    }

    /// Routing step of the paper's `search` (Fig. 2 lines 51-52): the index
    /// of the child whose key range contains `key`.
    #[inline]
    pub(crate) fn child_index(&self, key: u64) -> usize {
        let size = self.len();
        let mut idx = 0;
        while idx < size.saturating_sub(1) && key >= self.key(idx) {
            idx += 1;
        }
        idx
    }

    // ----- leaf version protocol -----------------------------------------

    /// Acquire-load of the leaf version.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.ver.load(Ordering::Acquire)
    }

    /// Starts a leaf modification: bumps the version to an odd value.
    /// Caller must hold the leaf's lock.  Returns the odd version.
    #[inline]
    pub(crate) fn begin_write(&self) -> u64 {
        let v = self.ver.load(Ordering::Relaxed);
        debug_assert_eq!(v % 2, 0, "begin_write on an in-progress leaf");
        self.ver.store(v + 1, Ordering::Relaxed);
        // Order the version bump before the subsequent data writes.
        std::sync::atomic::fence(Ordering::Release);
        v + 1
    }

    /// Ends a leaf modification: bumps the version back to even.  This is the
    /// linearization point of simple inserts and successful deletes.
    #[inline]
    pub(crate) fn end_write(&self) {
        let v = self.ver.load(Ordering::Relaxed);
        debug_assert_eq!(v % 2, 1, "end_write without begin_write");
        self.ver.store(v + 1, Ordering::Release);
    }

    // ----- locked leaf helpers --------------------------------------------

    /// Scans the leaf for `key`; caller must hold the leaf's lock (or accept
    /// an unvalidated answer).  Returns the slot index and value.
    pub(crate) fn locked_find(&self, key: u64) -> Option<(usize, u64)> {
        for i in 0..MAX_KEYS {
            if self.key(i) == key {
                return Some((i, self.val(i)));
            }
        }
        None
    }

    /// Finds an empty slot; caller must hold the leaf's lock.
    pub(crate) fn locked_empty_slot(&self) -> Option<usize> {
        (0..MAX_KEYS).find(|&i| self.key(i) == EMPTY_KEY)
    }

    /// Collects all key/value pairs; caller must hold the leaf's lock (or the
    /// tree must be quiescent).
    pub(crate) fn locked_entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len());
        self.locked_entries_into(&mut out);
        out
    }

    /// Appends all key/value pairs to `out` (same locking contract as
    /// [`Node::locked_entries`]); lets hot paths reuse a scratch buffer.
    pub(crate) fn locked_entries_into(&self, out: &mut Vec<(u64, u64)>) {
        for i in 0..MAX_KEYS {
            let k = self.key(i);
            if k != EMPTY_KEY {
                out.push((k, self.val(i)));
            }
        }
    }

    // ----- publishing elimination record ----------------------------------

    /// Publishes the elimination record for an update with the given odd
    /// version.  Caller must hold the lock and have already bumped the
    /// version to `odd_ver`.
    #[inline]
    pub(crate) fn publish_record(&self, key: u64, val: u64, odd_ver: u64) {
        debug_assert_eq!(odd_ver % 2, 1);
        self.rec_key.store(key, Ordering::Relaxed);
        self.rec_val.store(val, Ordering::Relaxed);
        self.rec_ver.store(odd_ver, Ordering::Relaxed);
    }

    /// Relaxed read of the elimination record fields.
    #[inline]
    pub(crate) fn read_record(&self) -> (u64, u64, u64) {
        (
            self.rec_key.load(Ordering::Relaxed),
            self.rec_val.load(Ordering::Relaxed),
            self.rec_ver.load(Ordering::Relaxed),
        )
    }
}

// SAFETY: all shared mutable state inside a Node is accessed through atomics
// or under the node's lock; raw child pointers are managed by the tree's
// epoch-based reclamation discipline.
unsafe impl<L: RawNodeLock> Send for Node<L> {}
unsafe impl<L: RawNodeLock> Sync for Node<L> {}

#[cfg(test)]
mod tests {
    use super::*;

    type N = Node<McsLock>;

    /// A test's node: freed back to the slab when the test is done with it.
    struct Owned(*mut N);

    impl std::ops::Deref for Owned {
        type Target = N;
        fn deref(&self) -> &N {
            // SAFETY: built by a constructor, freed only on drop.
            unsafe { &*self.0 }
        }
    }

    impl Drop for Owned {
        fn drop(&mut self) {
            // SAFETY: never shared, freed once.
            unsafe { N::free(self.0.cast()) }
        }
    }

    /// Four cache lines, exactly one slab slot (the layout gate itself is
    /// the compile-time assert at the top of the module).
    #[test]
    fn a_node_is_four_cache_lines() {
        assert_eq!(std::mem::size_of::<N>(), slab::SLOT_BYTES);
        assert_eq!(slab::SLOT_BYTES.div_ceil(64), 4);
    }

    #[test]
    fn new_leaf_is_empty_and_unmarked() {
        let leaf = Owned(N::new_leaf(5));
        assert!(leaf.is_leaf());
        assert!(!leaf.is_tagged());
        assert_eq!(leaf.len(), 0);
        assert!(!leaf.is_marked());
        assert_eq!(leaf.version(), 0);
        assert!(leaf.locked_find(1).is_none());
        assert_eq!(leaf.locked_empty_slot(), Some(0));
    }

    #[test]
    fn leaf_from_entries() {
        let leaf = Owned(N::new_leaf_from(10, &[(10, 100), (20, 200), (30, 300)]));
        assert_eq!(leaf.len(), 3);
        assert_eq!(leaf.locked_find(20), Some((1, 200)));
        assert_eq!(leaf.locked_entries(), vec![(10, 100), (20, 200), (30, 300)]);
        assert_eq!(leaf.locked_empty_slot(), Some(3));
    }

    #[test]
    fn internal_routing() {
        let leaves = [
            Owned(N::new_leaf(0)),
            Owned(N::new_leaf(10)),
            Owned(N::new_leaf(20)),
        ];
        let [l1, l2, l3] = [leaves[0].0, leaves[1].0, leaves[2].0];
        let internal = Owned(N::new_internal_from(
            NodeKind::Internal,
            10,
            &[10, 20],
            &[l1, l2, l3],
        ));
        assert_eq!(internal.len(), 3);
        assert_eq!(internal.child_index(5), 0);
        assert_eq!(internal.child_index(10), 1);
        assert_eq!(internal.child_index(15), 1);
        assert_eq!(internal.child_index(20), 2);
        assert_eq!(internal.child_index(u64::MAX - 1), 2);
        assert_eq!(internal.child(0), l1);
        assert_eq!(internal.child(2), l3);
    }

    #[test]
    fn version_protocol() {
        let leaf = Owned(N::new_leaf(0));
        let odd = leaf.begin_write();
        assert_eq!(odd, 1);
        assert_eq!(leaf.version(), 1);
        leaf.end_write();
        assert_eq!(leaf.version(), 2);
    }

    #[test]
    fn elimination_record_round_trip() {
        let leaf = Owned(N::new_leaf(0));
        assert_eq!(leaf.read_record().0, EMPTY_KEY);
        leaf.publish_record(7, 70, 3);
        assert_eq!(leaf.read_record(), (7, 70, 3));
    }

    #[test]
    fn mark_is_sticky() {
        let leaf = Owned(N::new_leaf(0));
        leaf.mark();
        assert!(leaf.is_marked());
    }

    #[test]
    fn entry_node_points_to_root() {
        let root = Owned(N::new_leaf(0));
        let entry = Owned(N::new_entry(root.0));
        assert_eq!(entry.len(), 1);
        assert_eq!(entry.child(0), root.0);
        assert_eq!(entry.child_index(12345), 0);
    }
}
