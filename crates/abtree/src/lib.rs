//! OCC-ABtree and Elim-ABtree: concurrent relaxed (a,b)-trees with optional
//! publishing elimination.
//!
//! This crate implements the two volatile data structures contributed by
//! *"Elimination (a,b)-trees with fast, durable updates"* (Srivastava &
//! Brown, PPoPP 2022):
//!
//! * [`OccABTree`] — an optimistic-concurrency-control relaxed (a,b)-tree
//!   (paper §3).  Leaves keep their keys **unsorted** with empty slots, so
//!   simple inserts and deletes never shift other keys; every node carries an
//!   MCS lock; leaves additionally carry an even/odd version counter so that
//!   searches can read them without locking (the `searchLeaf` double-collect
//!   of Fig. 2).  Structural changes (splits, merges, redistributions, tag
//!   removal) follow Larsen & Fagerberg's relaxed (a,b)-tree sub-operations,
//!   each of which atomically replaces a single child pointer.
//!
//! * [`ElimABTree`] — the same tree with **publishing elimination** (paper
//!   §4): each leaf stores a record (`key`, `value`, `version`) of the last
//!   simple insert or successful delete that modified it.  A concurrent
//!   insert or delete of the *same* key that observes contention can use the
//!   record to linearize itself immediately before/after that operation and
//!   return without writing to the tree at all, which is what makes the tree
//!   fast under highly skewed (Zipfian) update-heavy workloads.
//!
//! Both trees are generic over the per-node lock (any
//! [`absync::RawNodeLock`]); the paper's configuration uses MCS locks, which
//! is the default.  The lock-type ablation benchmark instantiates the TATAS
//! variant.
//!
//! # Sessions: the map/handle split
//!
//! Like the paper's C++ engine — which threads a per-worker context (EBR
//! slot, elimination scratch, RNG) through every operation — the API is split
//! in two levels:
//!
//! * the **shared map** (the tree itself, [`ConcurrentMap`]): construction
//!   and the quiescent accessors ([`key_sum`](ConcurrentMap::key_sum),
//!   `len`, `collect`, `check_invariants`, ...);
//! * a **per-thread session handle** ([`MapHandle`], concretely
//!   [`TreeHandle`]), obtained once per worker via `map.handle()` (or
//!   `map.try_handle()`, which returns the collector's
//!   [`abebr::RegisterError`] instead of panicking), through which all
//!   point and range operations run.  The handle owns the thread's
//!   epoch-reclamation registration (so each operation pins with a cheap
//!   local epoch announcement) and a reusable scan buffer.
//!
//! [`TreeHandle`] dereferences to the tree, so a handle can also be used
//! wherever quiescent read-only access to the shared map is needed.
//!
//! # Keys and values
//!
//! Like the paper's evaluation, the engine stores 8-byte keys and 8-byte
//! values (`u64`); the value [`EMPTY_KEY`] (`u64::MAX`) is reserved as the
//! "no key" sentinel used for empty leaf slots.
//!
//! # Example
//!
//! ```
//! use abtree::ElimABTree;
//!
//! let tree: ElimABTree = ElimABTree::new();
//! let mut session = tree.handle(); // one per thread
//! assert_eq!(session.insert(10, 100), None);
//! assert_eq!(session.insert(10, 200), Some(100)); // already present
//! assert_eq!(session.get(10), Some(100));
//! assert_eq!(session.delete(10), Some(100));
//! assert_eq!(session.get(10), None);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[doc(hidden)]
pub mod crashsim;
pub mod handle;
pub(crate) mod node;
pub mod par;
pub mod persist;
pub mod rebalance;
pub mod scan;
pub mod slab;
pub mod tree;
pub mod update;
pub mod validate;

use absync::McsLock;

/// Maximum number of keys in a leaf / children in an internal node (the
/// paper's `MAX_SIZE` = `b` = 11).
pub const MAX_KEYS: usize = 11;

/// Minimum number of keys in a non-root leaf / children in a non-root
/// internal node (the paper's `MIN_SIZE` = `a` = 2).
pub const MIN_KEYS: usize = 2;

/// Reserved sentinel meaning "empty slot"; user keys must be smaller.
pub const EMPTY_KEY: u64 = u64::MAX;

// (a,b)-trees require 2 <= a <= b/2 so that splits/merges stay in bounds;
// enforced at compile time.
const _: () = assert!(MIN_KEYS >= 2 && MIN_KEYS <= MAX_KEYS / 2);

pub use handle::{PointOp, TreeHandle};
pub use persist::{Persist, VolatilePersist};
pub use tree::AbTree;
pub use validate::TreeStats;

/// The OCC-ABtree of paper §3 (no elimination), with MCS node locks.
pub type OccABTree<L = McsLock> = AbTree<false, L, VolatilePersist>;

/// The Elim-ABtree of paper §4 (publishing elimination), with MCS node locks.
pub type ElimABTree<L = McsLock> = AbTree<true, L, VolatilePersist>;

/// A per-thread session on a concurrent ordered dictionary over 8-byte keys
/// and values.
///
/// Handles are obtained from [`ConcurrentMap::try_handle`] (or its
/// panicking form [`ConcurrentMap::handle`]), one per worker thread, and
/// hold that thread's operation state: its epoch-reclamation registration,
/// a reusable scan buffer, and any per-thread scratch the structure needs
/// (the skiplist's RNG, for instance).  Operations therefore take
/// `&mut self`; a handle must not be shared across threads (and cannot be —
/// handles are `!Send` by construction since they own thread-bound
/// reclamation state).
///
/// Semantics follow the paper's §3:
///
/// * **`insert(k, v)` rejects rather than replaces**: it returns the
///   *existing* value if `k` was already present — in which case the map is
///   left completely unchanged (first-writer-wins, the paper's
///   `insertIfAbsent`) — and `None` if the pair was inserted.  The
///   elimination records of §4 linearize same-key operations against each
///   other under exactly these semantics, so every structure driven by the
///   harness must implement them;
/// * `delete(k)` returns the removed value, or `None` if `k` was absent;
/// * `get(k)` returns the current value associated with `k`, if any;
/// * `range(lo, hi, out)` walks the structure's own key order.
///
/// Every data path is required; the only provided method is
/// [`scan_len`](Self::scan_len).  A batch is a loop over `get`/`insert` on
/// the session, and membership is `get(k).is_some()`.
pub trait MapHandle {
    /// Inserts `key -> value` if `key` is absent; returns the existing value
    /// (leaving it **unchanged** — insert never overwrites) otherwise.
    fn insert(&mut self, key: u64, value: u64) -> Option<u64>;

    /// Removes `key`, returning its value if it was present.
    fn delete(&mut self, key: u64) -> Option<u64>;

    /// Returns the value associated with `key`, if any.
    fn get(&mut self, key: u64) -> Option<u64>;

    /// Collects every `(key, value)` pair with `lo <= key <= hi` into `out`,
    /// sorted by key (`out` is cleared first).  `lo > hi` yields an empty
    /// result.
    ///
    /// Every structure walks its own key order.  The (a,b)-trees validate
    /// node versions, so their whole result is one linearizable snapshot;
    /// the baselines promise each element's presence and value
    /// individually, not the window jointly.
    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>);

    /// Convenience wrapper over [`range`](Self::range): the number of keys
    /// stored in the window `[lo, lo + len)`, the shape of a YCSB-E scan
    /// request.  Collects into the handle's reusable scan buffer, so it
    /// allocates at most once per handle, not once per call.
    fn scan_len(&mut self, lo: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let mut buf = self.take_scan_buf();
        self.range(lo, lo.saturating_add(len - 1), &mut buf);
        let n = buf.len();
        self.put_scan_buf(buf);
        n
    }

    /// Detaches the handle's reusable scan buffer (plumbing for the default
    /// [`scan_len`](Self::scan_len); pair with
    /// [`put_scan_buf`](Self::put_scan_buf)).
    fn take_scan_buf(&mut self) -> Vec<(u64, u64)>;

    /// Returns a buffer taken with [`take_scan_buf`](Self::take_scan_buf) so
    /// its capacity is reused by the next scan.
    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>);
}

/// The one copy of the engine's scan-window rule: the inclusive window
/// `[lo, hi]` covered by a length-shaped scan request (`lo`, `len`), with
/// the upper bound saturated and clamped below the reserved [`EMPTY_KEY`]
/// sentinel.  `None` for a zero-length request (scan nothing).
///
/// Every layer that converts `(lo, len)` into bounds — the service layer's
/// scatter-gather scan, the conctest recorder and fuzzer — must call this,
/// so a future change to the rule (or to the sentinel) cannot desynchronize
/// what was *requested* from what a recorder *logs* as scanned.
#[inline]
pub fn scan_window(lo: u64, len: u64) -> Option<(u64, u64)> {
    if len == 0 {
        return None;
    }
    Some((lo, lo.saturating_add(len - 1).min(EMPTY_KEY - 1)))
}

/// The shared, thread-safe side of a concurrent ordered dictionary: a
/// factory for per-thread [`MapHandle`] sessions.
///
/// This is the interface the benchmark harness drives; every data structure
/// in this repository (the paper's trees, the persistent trees and all
/// baselines) implements it.  Each worker thread opens one session and runs
/// its whole workload through it; quiescent validation goes through
/// [`key_sum`](ConcurrentMap::key_sum).  Implementing this trait is all a
/// structure needs to be benchmarkable, fuzzable and servable as a shard.
/// A structure's name lives in the benchmark registry
/// (`setbench::registry`), not here.
pub trait ConcurrentMap: Send + Sync {
    /// Opens a per-thread session, or returns the error when the
    /// structure's reclamation collector has no free thread slot
    /// ([`abebr::MAX_THREADS`] concurrent registrations), so a service can
    /// reject a session instead of crashing its worker.  Cheap but not
    /// free (it registers the thread with the collector and sets up
    /// scratch buffers): call it once per thread, not once per operation.
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError>;

    /// [`try_handle`](ConcurrentMap::try_handle) for callers that treat a
    /// full collector as a bug: panics with the [`abebr::RegisterError`].
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        self.try_handle().unwrap_or_else(|e| panic!("abtree: {e}"))
    }

    /// Point-in-time statistics of the structure's epoch-based-reclamation
    /// collector, or `None` for structures that do not reclaim through
    /// EBR.  This is how embedders that only hold a `dyn ConcurrentMap`
    /// (the service layer's shards, and through them the telemetry
    /// scrape) surface reclamation health — epoch, retired/freed totals,
    /// and the reclamation-lag gauges — without knowing the concrete
    /// structure.
    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        None
    }

    /// Sum of all keys currently stored, the accessor behind the harness's
    /// checksum validation (paper §6 "Validation": the keys each thread
    /// successfully inserted minus those it deleted must equal the keys
    /// left in the structure).  Quiescent only: callers must ensure no
    /// concurrent operations are in flight.
    ///
    /// The default sums one full-window [`MapHandle::range`] through a
    /// fresh session, so a structure's one ordered walk also validates it.
    fn key_sum(&self) -> u128 {
        let mut entries = Vec::new();
        self.handle().range(0, EMPTY_KEY - 1, &mut entries);
        entries.iter().map(|&(key, _)| u128::from(key)).sum()
    }
}

/// Boxed maps are maps too, so registry-built `Box<dyn ConcurrentMap>`
/// values can flow anywhere a `ConcurrentMap` is expected — the service
/// layer's shards are built this way.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for Box<M> {
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        (**self).try_handle()
    }
    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        (**self).ebr_stats()
    }
    fn key_sum(&self) -> u128 {
        (**self).key_sum()
    }
}

/// A shared-ownership map: wraps an `Arc` so an embedder can hand clones
/// of one tree to a service shard factory while retaining its own handle
/// for restart and recovery (the durable-shard pattern).  A deliberate
/// newtype rather than a blanket `impl ConcurrentMap for Arc<M>`: the
/// blanket impl's `handle()` would shadow concrete trees' inherent
/// sessions behind every `Arc`, silently boxing monomorphized handles.
pub struct SharedMap<M: ?Sized>(pub std::sync::Arc<M>);

impl<M: ConcurrentMap + ?Sized> ConcurrentMap for SharedMap<M> {
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        self.0.try_handle()
    }
    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        self.0.ebr_stats()
    }
    fn key_sum(&self) -> u128 {
        self.0.key_sum()
    }
}

/// Boxed sessions are sessions too, so `Box<dyn MapHandle>` (what
/// [`ConcurrentMap::handle`] returns) can flow into generic code written
/// against `H: MapHandle`.
impl<H: MapHandle + ?Sized> MapHandle for Box<H> {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        (**self).insert(key, value)
    }
    fn delete(&mut self, key: u64) -> Option<u64> {
        (**self).delete(key)
    }
    fn get(&mut self, key: u64) -> Option<u64> {
        (**self).get(key)
    }
    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        (**self).range(lo, hi, out)
    }
    fn scan_len(&mut self, lo: u64, len: u64) -> usize {
        (**self).scan_len(lo, len)
    }
    fn take_scan_buf(&mut self) -> Vec<(u64, u64)> {
        (**self).take_scan_buf()
    }
    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>) {
        (**self).put_scan_buf(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_aliases_compile_and_work() {
        let occ: OccABTree = OccABTree::new();
        let elim: ElimABTree = ElimABTree::new();
        let mut occ_h = occ.handle();
        let mut elim_h = elim.handle();
        assert_eq!(occ_h.insert(1, 2), None);
        assert_eq!(elim_h.insert(1, 2), None);
        assert_eq!(occ_h.get(1), Some(2));
        assert_eq!(elim_h.get(1), Some(2));
    }

    #[test]
    fn boxed_maps_are_maps() {
        let tree: ElimABTree = ElimABTree::new();
        let boxed: Box<dyn ConcurrentMap> = Box::new(tree);
        let mut session = boxed.handle();
        assert_eq!(session.insert(3, 30), None);
        assert_eq!(session.get(3), Some(30));
        drop(session);
        assert_eq!(boxed.key_sum(), 3);
    }
}
