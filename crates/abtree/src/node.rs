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
//! [`Node::val`], [`Node::write_entry`] (the leaf protocol below) and
//! [`Node::child`]/[`Node::child_raw`]/[`Node::set_child`]/
//! [`Node::cas_child`]/[`Node::persist_slot`], which is also what keeps a
//! later split into separate leaf and internal types (ROADMAP item 8(a))
//! local.
//!
//! # The leaf version protocol
//!
//! Both sides of it live here.  A writer holds the leaf's lock and brackets
//! its stores with [`Node::begin_write`] (version odd) and
//! [`Node::end_write`] (even again).  A reader takes no lock:
//! [`Node::try_read`] reads an even version, runs the reader's loads,
//! fences and re-reads the version, and the loads count only if it has not
//! moved ([`Node::read`] retries until they do).  That double-collect is
//! the paper's `searchLeaf` (Fig. 2) and `lockOrElim`'s record snapshot
//! (Fig. 10); `find`, the Elim-ABtree's pre-lock read, `lockOrElim` and the
//! scan's leaf snapshot are its only callers.  A simple update's stores to
//! a live leaf are [`Node::write_entry`] and [`Node::clear_entry`], in
//! paper §5's persist order; the torn updates of `crashsim` call the same
//! two, so a constructed crash state holds exactly what a real one would.
//!
//! Nodes do not come from malloc.  Each is built in place in a 232-byte
//! slot of the [`crate::slab`], whose 2 MiB blocks are huge pages once the
//! slab has carved 8 MiB, so a descent of a big tree costs no page walk per
//! level (the cost is at most 2 MiB resident but not yet carved, in the
//! newest block).  A node goes back to its slot by one of two paths:
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

use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};

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
// `child_index_branchless`'s four steps cover at most 15 routing keys.
const _: () = assert!(MAX_KEYS - 1 < 16);

/// Dirty-bit used by the link-and-persist technique (paper §5): a child
/// pointer whose least-significant bit is set has been written but not yet
/// flushed to persistent memory, so operations must not act on it until the
/// bit is cleared (after the flush).  Volatile trees never set the bit.
pub(crate) const DIRTY_BIT: usize = 1;

/// The cache-line size [`Node::prefetch`] steps by.
const CACHE_LINE: usize = 64;

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
            node.slots[i].store(v, Ordering::Relaxed);
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
    /// `ptr` is a node made by one of the constructors above, unlinked so
    /// that threads pinning after this call cannot reach it, retired once.
    pub(crate) unsafe fn retire(ptr: *mut Self, guard: &Guard) {
        // SAFETY: forwarded from this function's contract; `free` is how a
        // slab node is destroyed, on any thread.
        unsafe { guard.defer_free(ptr.cast(), Self::free) }
    }

    /// Asks the CPU to start loading every cache line of the node at `ptr`
    /// (`_mm_prefetch` T0 on x86-64; nothing elsewhere).  A hint only: it
    /// reads nothing the caller can see and writes nothing, so `ptr` may
    /// be stale or retired.
    ///
    /// It probes every [`CACHE_LINE`] bytes from the node's first byte and
    /// then its last: no two probes are more than a line apart, so each
    /// line the node overlaps gets one, whatever its alignment.  The probe
    /// offsets are constants, so the loop unrolls; deriving the lines from
    /// the address instead cost the lockstep pass ~30% more time (x86-64
    /// Xeon, 2 vCPUs).
    #[inline(always)]
    pub(crate) fn prefetch(ptr: *const Self) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let size = std::mem::size_of::<Self>();
            let base = ptr.cast::<i8>();
            let mut offset = 0;
            while offset < size {
                // SAFETY: a prefetch never faults and never writes, whatever
                // the address; `sse` is part of the x86-64 baseline.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(offset)) };
                offset += CACHE_LINE;
            }
            // SAFETY: as above.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(size - 1)) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = ptr;
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

    /// Number of child slots before the first null one.  Slots past an
    /// internal node's last child stay null, so in a quiescent tree this is
    /// its child count whatever `size` says (recovery recounts `size` so).
    #[inline]
    pub(crate) fn linked_children(&self) -> usize {
        (0..MAX_KEYS)
            .take_while(|&i| !self.child(i).is_null())
            .count()
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

    /// [`child_index`](Self::child_index) without a data-dependent branch:
    /// a fixed four-step binary search over the routing keys, slots past
    /// them counting as larger than any key.  The lockstep search uses
    /// it: it steps many cursors whose keys the branch predictor cannot learn, and
    /// a mispredicted scan exit per node made the pass cost ~35% more
    /// (x86-64 Xeon, 2 vCPUs).  The operations keep the scan (ROADMAP
    /// 8(b)).  The result never exceeds `len() - 1`, whatever the keys
    /// hold, so a racing writer can mislead the pass but not send it past
    /// the node's children.
    #[inline]
    pub(crate) fn child_index_branchless(&self, key: u64) -> usize {
        let routing = self.len().saturating_sub(1);
        let mut idx = 0;
        for step in [8, 4, 2, 1] {
            let probe = idx + step - 1;
            let right = (probe < routing) & (key >= self.key(probe.min(MAX_KEYS - 1)));
            idx += step & usize::from(right).wrapping_neg();
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

    /// One optimistic read of the leaf (the double-collect of the module
    /// docs): reads an even version, runs `f`, and re-reads the version
    /// after an acquire fence.  Returns that version and `f`'s value if no
    /// write overlapped `f`; `None` if the version was odd or has moved.
    /// `f` may meet a torn leaf, so it only computes its value.
    #[inline]
    pub(crate) fn try_read<T>(&self, f: impl FnOnce(&Self) -> T) -> Option<(u64, T)> {
        let v1 = self.version();
        if v1 % 2 == 1 {
            return None;
        }
        let value = f(self);
        // Order `f`'s loads before the validating version re-read.
        fence(Ordering::Acquire);
        (self.ver.load(Ordering::Relaxed) == v1).then_some((v1, value))
    }

    /// [`try_read`](Self::try_read), retried until no write overlaps it.
    #[inline]
    pub(crate) fn read<T>(&self, mut f: impl FnMut(&Self) -> T) -> (u64, T) {
        loop {
            if let Some(read) = self.try_read(&mut f) {
                return read;
            }
            core::hint::spin_loop();
        }
    }

    /// Stores `key -> value` in the empty slot `slot` in paper §5's order:
    /// the value, persisted, then the key, persisted, so the pair is durable
    /// once its key is.  Caller holds the leaf's lock between
    /// [`begin_write`](Self::begin_write) and
    /// [`end_write`](Self::end_write), or builds a crash state on a
    /// quiescent tree.
    #[inline]
    pub(crate) fn write_entry<P: Persist>(&self, slot: usize, key: u64, value: u64) {
        debug_assert!(self.is_leaf());
        self.slots[slot].store(value, Ordering::Relaxed);
        P::persist_value(&self.slots[slot]);
        self.keys[slot].store(key, Ordering::Relaxed);
        P::persist_value(&self.keys[slot]);
    }

    /// Empties slot `slot` and persists it: a delete is durable once its
    /// emptied key slot is (paper §5).  Caller as for
    /// [`write_entry`](Self::write_entry).
    #[inline]
    pub(crate) fn clear_entry<P: Persist>(&self, slot: usize) {
        self.keys[slot].store(EMPTY_KEY, Ordering::Relaxed);
        P::persist_value(&self.keys[slot]);
    }

    // ----- leaf lookups ---------------------------------------------------

    /// The slot and value of `key`, if the leaf holds it.  Exact under the
    /// leaf's lock; inside [`try_read`](Self::try_read), once validated.
    pub(crate) fn find(&self, key: u64) -> Option<(usize, u64)> {
        (0..MAX_KEYS)
            .find(|&i| self.key(i) == key)
            .map(|i| (i, self.val(i)))
    }

    /// Finds an empty slot; caller must hold the leaf's lock.
    pub(crate) fn locked_empty_slot(&self) -> Option<usize> {
        (0..MAX_KEYS).find(|&i| self.key(i) == EMPTY_KEY)
    }

    /// The leaf's key/value pairs in slot order; caller holds the leaf's
    /// lock, reads inside [`try_read`](Self::try_read), or the tree is
    /// quiescent.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..MAX_KEYS).filter_map(|i| {
            let key = self.key(i);
            (key != EMPTY_KEY).then(|| (key, self.val(i)))
        })
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

    /// Relaxed read of the elimination record fields (inside
    /// [`try_read`](Self::try_read) for a consistent snapshot).
    #[inline]
    pub(crate) fn read_record(&self) -> (u64, u64, u64) {
        (
            self.rec_key.load(Ordering::Relaxed),
            self.rec_val.load(Ordering::Relaxed),
            self.rec_ver.load(Ordering::Relaxed),
        )
    }
}

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
        assert!(leaf.find(1).is_none());
        assert_eq!(leaf.locked_empty_slot(), Some(0));
    }

    #[test]
    fn leaf_from_entries() {
        let leaf = Owned(N::new_leaf_from(10, &[(10, 100), (20, 200), (30, 300)]));
        assert_eq!(leaf.len(), 3);
        assert_eq!(leaf.find(20), Some((1, 200)));
        assert_eq!(
            leaf.entries().collect::<Vec<_>>(),
            vec![(10, 100), (20, 200), (30, 300)]
        );
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

    /// The branchless routing step agrees with the scan for every routing
    /// key count and every key around the routing keys.
    #[test]
    fn branchless_routing_matches_the_scan() {
        for children in 1..=MAX_KEYS {
            let keys: Vec<u64> = (1..children as u64).map(|i| i * 10).collect();
            let node = Owned(N::new_internal_from(
                NodeKind::Internal,
                0,
                &keys,
                &vec![std::ptr::null_mut(); children],
            ));
            for key in (0..children as u64 * 10 + 5).chain([EMPTY_KEY - 1]) {
                assert_eq!(
                    node.child_index_branchless(key),
                    node.child_index(key),
                    "{children} children, key {key}"
                );
            }
        }
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

    /// The one optimistic read: refused while a write is in progress,
    /// refused when a write overlaps it (`f` running one stands in for a
    /// concurrent writer), and otherwise the even version and `f`'s value.
    #[test]
    fn try_read_validates_against_overlapping_writes() {
        let leaf = Owned(N::new_leaf_from(10, &[(10, 100), (20, 200)]));
        leaf.begin_write();
        assert_eq!(leaf.try_read(|l| l.find(20)), None, "odd version");
        leaf.end_write();
        let overlapped = leaf.try_read(|l| {
            let found = l.find(20);
            l.begin_write();
            l.end_write();
            found
        });
        assert_eq!(overlapped, None, "a write overlapped the read");
        assert_eq!(leaf.try_read(|l| l.find(20)), Some((4, Some((1, 200)))));
        assert_eq!(leaf.read(|l| l.find(30)), (4, None));
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
