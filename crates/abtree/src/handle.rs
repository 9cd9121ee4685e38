//! Per-thread session handles over the (a,b)-trees.
//!
//! The paper's C++ engine hands every worker a per-thread context — its EBR
//! slot, elimination scratch, and RNG — and threads it through every
//! operation.  [`TreeHandle`] is that context for this port: acquired once
//! per thread via [`AbTree::handle`], it owns
//!
//! * the thread's [`abebr::LocalHandle`], so each operation pins with a
//!   cheap local epoch announcement;
//! * a reusable scan buffer backing [`TreeHandle::scan_len`];
//! * operation scratch: a small per-thread RNG that jitters the
//!   elimination path's backoff so contending threads don't retry in
//!   lockstep.
//!
//! The handle dereferences to the tree, so quiescent accessors
//! (`check_invariants`, `key_sum`, `len`, `collect`, `recover`, ...) remain
//! reachable through it.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use absync::{McsLock, RawNodeLock};

use crate::persist::{Persist, VolatilePersist};
use crate::tree::AbTree;
use crate::{ConcurrentMap, MapHandle};

/// A tiny per-handle xorshift* PRNG used for backoff jitter and other
/// per-thread randomness (e.g. skiplist tower heights in the baselines).
///
/// Not cryptographic and not reproducible across runs — each instance is
/// seeded from a global counter so that every handle gets a distinct
/// stream without consulting thread-local state on the hot path.
#[derive(Debug, Clone)]
pub struct HandleRng(u64);

/// Seed counter behind [`HandleRng::new`].
static RNG_SEQ: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

impl Default for HandleRng {
    fn default() -> Self {
        Self::new()
    }
}

impl HandleRng {
    /// Creates a generator with a process-unique seed.
    pub fn new() -> Self {
        // splitmix64 of a global counter: cheap, and distinct per handle.
        let mut z = RNG_SEQ.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    /// Creates a generator from an explicit seed (tests).
    pub fn from_seed(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// Next pseudo-random 64-bit value (xorshift64*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniformly random boolean.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() & (1 << 32) != 0
    }
}

/// Reusable per-thread operation scratch threaded through the update paths.
#[derive(Debug, Default)]
pub(crate) struct OpScratch {
    /// Per-thread RNG for elimination backoff jitter.
    pub(crate) rng: HandleRng,
}

/// A per-thread session on an [`AbTree`] (see the module docs).
///
/// All point and range operations of the tree live here and take
/// `&mut self`; the shared tree only exposes construction and quiescent
/// accessors.  `TreeHandle` implements [`MapHandle`], and [`Deref`]s to the
/// tree for the quiescent API.
pub struct TreeHandle<'m, const ELIM: bool, L: RawNodeLock = McsLock, P: Persist = VolatilePersist>
{
    tree: &'m AbTree<ELIM, L, P>,
    /// Owned EBR registration: `ebr.pin()` is a local epoch bump.
    ebr: abebr::LocalHandle,
    /// Reusable buffer behind [`TreeHandle::scan_len`].
    scan_buf: Vec<(u64, u64)>,
    scratch: OpScratch,
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Opens a per-thread session handle.
    ///
    /// Registers the calling thread with the tree's reclamation collector
    /// (the only point at which its slot table is consulted) and
    /// sets up the session's scratch state.  Call once per worker thread and
    /// reuse the handle for the whole run; the handle must stay on the
    /// thread that opened it.
    pub fn handle(&self) -> TreeHandle<'_, ELIM, L, P> {
        self.try_handle()
            .unwrap_or_else(|e| panic!("abtree: {e}"))
    }

    /// Fallible variant of [`AbTree::handle`]: returns an error instead of
    /// panicking when the reclamation collector's thread-slot table is full
    /// ([`abebr::MAX_THREADS`] concurrent registrations), so services can
    /// degrade gracefully instead of crashing a worker.
    pub fn try_handle(&self) -> Result<TreeHandle<'_, ELIM, L, P>, abebr::RegisterError> {
        Ok(TreeHandle {
            tree: self,
            ebr: self.collector().try_register()?,
            scan_buf: Vec::new(),
            scratch: OpScratch::default(),
        })
    }
}

impl<'m, const ELIM: bool, L: RawNodeLock, P: Persist> TreeHandle<'m, ELIM, L, P> {
    /// Inserts `key -> value` if `key` is absent.  Returns the pre-existing
    /// value (leaving the tree unchanged) if `key` was present, `None` if
    /// the pair was inserted (paper Fig. 4).
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        // Point operations pin in fine mode: under the hazard-pointer
        // backend the descent names its O(1) foothold (see `tree::search`)
        // instead of taking a blanket pin, so a stalled operation cannot
        // block reclamation tree-wide.  Under EBR this is a plain pin.
        let guard = self.ebr.pin_fine();
        self.tree.insert_in(key, value, &guard, &mut self.scratch)
    }

    /// Removes `key`, returning its value if it was present (paper Fig. 5).
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        let guard = self.ebr.pin_fine();
        self.tree.delete_in(key, &guard, &mut self.scratch)
    }

    /// The paper's `find(key)`: returns the associated value, or `None`.
    /// Never restarts and never acquires locks.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let guard = self.ebr.pin_fine();
        self.tree.get_in(key, &guard)
    }

    /// Warms the cache for a batch of operations on `keys`, with no effect
    /// on the map's contents: walks their root-to-leaf paths in lockstep
    /// and prefetches every node on them, so the batch's cache misses
    /// overlap (group prefetching).  It takes no lock, writes nothing and
    /// flushes nothing; like a search it may run beside other sessions'
    /// updates, but not beside [`crate::AbTree::recover`] or a crash
    /// simulation, which need the tree to themselves.  Pins coarsely,
    /// which is sound under both SMR backends.
    pub fn prefetch(&mut self, keys: &[u64]) {
        let guard = self.ebr.pin();
        self.tree.prefetch_paths_in(keys, &guard);
    }

    /// Collects every `(key, value)` pair with `lo <= key <= hi`, sorted by
    /// key, as a linearizable snapshot (see [`crate::scan`] for the
    /// protocol).  `out` is cleared first; `lo > hi` yields an empty result.
    pub fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        let guard = self.ebr.pin();
        self.tree.range_in(lo, hi, out, &guard)
    }

    /// Number of keys stored in the window `[lo, lo + len)` (the shape of a
    /// YCSB-E scan request), collected into the handle's reusable buffer
    /// (delegates to the [`MapHandle::scan_len`] default, the single copy of
    /// the buffer-recycling protocol).
    pub fn scan_len(&mut self, lo: u64, len: u64) -> usize {
        MapHandle::scan_len(self, lo, len)
    }

    /// The shared tree this session operates on.
    pub fn map(&self) -> &'m AbTree<ELIM, L, P> {
        self.tree
    }
}

/// Quiescent accessors of the shared tree remain reachable through the
/// session handle.
impl<const ELIM: bool, L: RawNodeLock, P: Persist> Deref for TreeHandle<'_, ELIM, L, P> {
    type Target = AbTree<ELIM, L, P>;

    fn deref(&self) -> &Self::Target {
        self.tree
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> std::fmt::Debug
    for TreeHandle<'_, ELIM, L, P>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeHandle")
            .field("tree", self.tree)
            .field("pinned", &self.ebr.is_pinned())
            .finish_non_exhaustive()
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> MapHandle for TreeHandle<'_, ELIM, L, P> {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        TreeHandle::insert(self, key, value)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        TreeHandle::delete(self, key)
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        TreeHandle::get(self, key)
    }

    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        TreeHandle::range(self, lo, hi, out)
    }

    // `scan_len` keeps its trait default, which recycles the buffer through
    // the take/put pair below.

    fn take_scan_buf(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.scan_buf)
    }

    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>) {
        self.scan_buf = buf;
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> ConcurrentMap for AbTree<ELIM, L, P> {
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        Box::new(AbTree::handle(self))
    }

    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(AbTree::try_handle(self)?))
    }

    fn name(&self) -> &'static str {
        match (ELIM, P::DURABLE) {
            (false, false) => "occ-abtree",
            (true, false) => "elim-abtree",
            (false, true) => "p-occ-abtree",
            (true, true) => "p-elim-abtree",
        }
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        Some(self.collector().stats())
    }

    fn key_sum(&self) -> u128 {
        AbTree::key_sum(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ElimABTree, OccABTree};

    #[test]
    fn handle_round_trip_and_deref() {
        let tree: OccABTree = OccABTree::new();
        let mut h = tree.handle();
        assert_eq!(h.insert(5, 50), None);
        assert_eq!(h.insert(5, 51), Some(50));
        assert_eq!(h.get(5), Some(50));
        assert!(h.get(5).is_some());
        // Quiescent API through Deref.
        assert_eq!(h.len(), 1);
        assert_eq!(h.key_sum(), 5);
        h.check_invariants().unwrap();
        assert_eq!(h.delete(5), Some(50));
        assert!(h.is_empty());
    }

    #[test]
    fn scan_len_reuses_the_handle_buffer() {
        let tree: ElimABTree = ElimABTree::new();
        let mut h = tree.handle();
        for k in 0..100u64 {
            h.insert(k, k);
        }
        assert_eq!(h.scan_len(10, 20), 20);
        let cap_after_first = h.scan_buf.capacity();
        assert!(cap_after_first >= 20);
        for _ in 0..16 {
            assert_eq!(h.scan_len(10, 20), 20);
        }
        assert_eq!(
            h.scan_buf.capacity(),
            cap_after_first,
            "repeated scans must reuse the same allocation"
        );
    }

    #[test]
    fn two_handles_same_thread_interleave() {
        let tree: ElimABTree = ElimABTree::new();
        let mut a = tree.handle();
        let mut b = tree.handle();
        assert_eq!(a.insert(1, 10), None);
        assert_eq!(b.get(1), Some(10));
        assert_eq!(b.insert(1, 99), Some(10));
        assert_eq!(b.delete(1), Some(10));
        assert_eq!(a.get(1), None);
    }

    #[test]
    fn trait_object_session() {
        let tree: ElimABTree = ElimABTree::new();
        let map: &dyn ConcurrentMap = &tree;
        assert_eq!(map.name(), "elim-abtree");
        let mut h = map.handle();
        assert_eq!(h.insert(9, 90), None);
        assert!(h.get(9).is_some());
        assert_eq!(h.scan_len(0, 100), 1);
        assert_eq!(h.delete(9), Some(90));
    }

    #[test]
    fn handle_rng_streams_differ_and_advance() {
        let mut a = HandleRng::new();
        let mut b = HandleRng::new();
        let (a1, a2) = (a.next_u64(), a.next_u64());
        assert_ne!(a1, a2);
        let b1 = b.next_u64();
        assert_ne!(a1, b1, "handles must get distinct streams");
        let mut c = HandleRng::from_seed(42);
        let heads = (0..1_000).filter(|_| c.coin()).count();
        assert!((200..800).contains(&heads), "coin is not degenerate: {heads}");
    }
}
