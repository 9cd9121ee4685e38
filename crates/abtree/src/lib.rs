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
//! * the **shared map** (the tree itself, [`ConcurrentMap`]): construction,
//!   [`name`](ConcurrentMap::name), and the quiescent accessors
//!   ([`KeySum`], `len`, `collect`, `check_invariants`, ...);
//! * a **per-thread session handle** ([`MapHandle`], concretely
//!   [`TreeHandle`]), obtained once per worker via `map.handle()`, through
//!   which all point and range operations run.  The handle owns the
//!   thread's epoch-reclamation registration (so each operation pins with a
//!   cheap local epoch announcement), a
//!   reusable scan buffer, and per-thread elimination/RNG scratch.
//!
//! [`TreeHandle`] dereferences to the tree, so a handle can also be used
//! wherever quiescent read-only access to the shared map is needed.
//!
//! # Keys and values
//!
//! Like the paper's evaluation, the engine stores 8-byte keys and 8-byte
//! values (`u64`); the value [`EMPTY_KEY`] (`u64::MAX`) is reserved as the
//! "no key" sentinel used for empty leaf slots.  The [`typed`] module
//! provides an order-preserving typed wrapper for other fixed-size key and
//! value types.
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
pub mod typed;
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

pub use handle::{HandleRng, TreeHandle};
pub use persist::{Persist, VolatilePersist};
pub use tree::AbTree;
pub use typed::{KeyCodec, TypedHandle, TypedTree, ValueCodec};
pub use validate::TreeStats;

/// The OCC-ABtree of paper §3 (no elimination), with MCS node locks.
pub type OccABTree<L = McsLock> = AbTree<false, L, VolatilePersist>;

/// The Elim-ABtree of paper §4 (publishing elimination), with MCS node locks.
pub type ElimABTree<L = McsLock> = AbTree<true, L, VolatilePersist>;

/// A per-thread session on a concurrent ordered dictionary over 8-byte keys
/// and values.
///
/// Handles are obtained from [`ConcurrentMap::handle`], one per worker
/// thread, and hold that thread's operation state: its epoch-reclamation
/// registration, a reusable scan buffer, and any per-thread scratch the
/// structure needs (elimination buffers, RNG).  Operations therefore take
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
/// * `get(k)` returns the current value associated with `k`, if any.
pub trait MapHandle {
    /// Inserts `key -> value` if `key` is absent; returns the existing value
    /// (leaving it **unchanged** — insert never overwrites) otherwise.
    fn insert(&mut self, key: u64, value: u64) -> Option<u64>;

    /// Removes `key`, returning its value if it was present.
    fn delete(&mut self, key: u64) -> Option<u64>;

    /// Returns the value associated with `key`, if any.
    fn get(&mut self, key: u64) -> Option<u64>;

    /// Returns `true` if `key` is present.
    fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Collects every `(key, value)` pair with `lo <= key <= hi` into `out`,
    /// sorted by key (`out` is cleared first).  `lo > hi` yields an empty
    /// result.
    ///
    /// The default implementation is [`fallback_range`]: it probes every key
    /// in the window with [`get`](Self::get), so it costs `O(hi - lo)` point
    /// lookups and each element is only individually (not jointly)
    /// linearizable.  Structures with native scans override this with an
    /// ordered traversal; the (a,b)-trees additionally validate node
    /// versions so the whole result is a linearizable snapshot.  Callers
    /// should keep windows modest when the fallback may be in use (the
    /// YCSB-E scan lengths are <= a few hundred).
    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        fallback_range(|key| self.get(key), lo, hi, out)
    }

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

    /// Looks up every key in `keys`, pushing one `Option<u64>` per key onto
    /// `out` (cleared first) in input order.
    ///
    /// The default implementation loops over [`get`](Self::get), but on the
    /// *concrete* session type: through a `Box<dyn MapHandle>`, a batch of
    /// `n` lookups therefore costs one virtual dispatch instead of `n`, which
    /// is what makes batched multi-gets cheaper than `n` single gets in the
    /// service layer.  Structures may override it with a genuinely batched
    /// traversal.
    fn get_batch(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.reserve(keys.len());
        for &key in keys {
            out.push(self.get(key));
        }
    }

    /// Inserts every `(key, value)` pair (insert-if-absent semantics, see
    /// [`insert`](Self::insert)), pushing each pair's result onto `out`
    /// (cleared first) in input order.
    ///
    /// Same dispatch story as [`get_batch`](Self::get_batch): the default
    /// loops over `insert` on the concrete session type, so a boxed session
    /// pays one virtual call per batch, not per pair.
    fn insert_batch(&mut self, pairs: &[(u64, u64)], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.reserve(pairs.len());
        for &(key, value) in pairs {
            out.push(self.insert(key, value));
        }
    }

    /// Detaches the handle's reusable scan buffer (plumbing for the default
    /// [`scan_len`](Self::scan_len); pair with
    /// [`put_scan_buf`](Self::put_scan_buf)).
    fn take_scan_buf(&mut self) -> Vec<(u64, u64)>;

    /// Returns a buffer taken with [`take_scan_buf`](Self::take_scan_buf) so
    /// its capacity is reused by the next scan.
    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>);
}

/// The point-lookup fallback behind [`MapHandle::range`]'s default: probes
/// every key in `[lo, hi]` (clamped below the reserved [`EMPTY_KEY`]) with
/// `get` and appends the hits to `out` (cleared first), in key order.
///
/// Exposed so alternative session implementations (e.g. the baseline
/// structures' internal session plumbing) can share the one copy of the
/// clamp-and-probe rule instead of re-implementing it.
pub fn fallback_range(
    mut get: impl FnMut(u64) -> Option<u64>,
    lo: u64,
    hi: u64,
    out: &mut Vec<(u64, u64)>,
) {
    out.clear();
    if lo > hi {
        return;
    }
    // EMPTY_KEY is reserved in every structure driven by the harness.
    let hi = hi.min(EMPTY_KEY - 1);
    for key in lo..=hi {
        if let Some(value) = get(key) {
            out.push((key, value));
        }
    }
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
/// factory for per-thread [`MapHandle`] sessions plus the structure's
/// benchmark name.
///
/// This is the interface the benchmark harness drives; every data structure
/// in this repository (the paper's trees, the persistent trees and all
/// baselines) implements it.  Each worker thread calls
/// [`handle`](ConcurrentMap::handle) once and runs its whole workload
/// through the returned session.  Quiescent validation goes through the
/// separate [`KeySum`] trait.
pub trait ConcurrentMap: Send + Sync {
    /// Opens a per-thread session.  Cheap but not free (it registers the
    /// thread with the structure's memory-reclamation collector and sets up
    /// scratch buffers): call it once per thread, not once per operation.
    fn handle(&self) -> Box<dyn MapHandle + '_>;

    /// Fallible variant of [`handle`](ConcurrentMap::handle): returns an
    /// error instead of panicking when the structure's reclamation
    /// collector has no free thread slot ([`abebr::MAX_THREADS`] concurrent
    /// registrations), so a service can reject a session instead of
    /// crashing its worker.  Structures whose sessions never register
    /// (or that don't reclaim) keep the infallible default.
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(self.handle())
    }

    /// Short name used in benchmark output (e.g. `"elim-abtree"`).
    fn name(&self) -> &'static str;

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
}

/// Boxed maps are maps too, so registry-built `Box<dyn ...>` values (e.g.
/// the benchmark registry's `Box<dyn Benchable>`) can flow anywhere a
/// `ConcurrentMap` is expected — the service layer's shards are built this
/// way.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for Box<M> {
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        (**self).handle()
    }
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        (**self).try_handle()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        (**self).ebr_stats()
    }
}

/// Companion to the boxed-[`ConcurrentMap`] impl: quiescent validation stays
/// reachable through the box.
impl<M: KeySum + ?Sized> KeySum for Box<M> {
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
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        self.0.handle()
    }
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        self.0.try_handle()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        self.0.ebr_stats()
    }
}

impl<M: KeySum + ?Sized> KeySum for SharedMap<M> {
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
    fn contains(&mut self, key: u64) -> bool {
        (**self).contains(key)
    }
    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        (**self).range(lo, hi, out)
    }
    fn get_batch(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        (**self).get_batch(keys, out)
    }
    fn insert_batch(&mut self, pairs: &[(u64, u64)], out: &mut Vec<Option<u64>>) {
        (**self).insert_batch(pairs, out)
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

/// Statically-dispatched sibling of [`ConcurrentMap`]: a map whose concrete
/// per-thread session type is known at compile time.
///
/// [`ConcurrentMap::handle`] must stay object-safe for the benchmark
/// registry's `Box<dyn Benchable>` values, so it returns a boxed session
/// and every operation through it is a virtual call.  Generic code that
/// holds a concrete map type (the Criterion ablation benches, the typed
/// wrapper) can instead bound on `SessionMap` and open a monomorphized
/// session, keeping the per-op overhead this crate's session API exists to
/// remove.  Not object-safe (by design); implemented by the trees (session
/// type [`TreeHandle`]).
pub trait SessionMap: ConcurrentMap {
    /// The concrete session type.
    type Session<'m>: MapHandle
    where
        Self: 'm;

    /// Opens a concrete, statically-dispatched per-thread session
    /// (semantics of [`ConcurrentMap::handle`]).
    fn session(&self) -> Self::Session<'_>;
}

/// A map that can report the sum of its keys, the accessor behind the
/// harness's checksum validation (paper §6 "Validation": the keys each
/// thread successfully inserted minus those it deleted must equal the keys
/// left in the structure).
///
/// Implementing this trait (plus [`ConcurrentMap`]) is all a structure needs
/// to be benchmarkable: the `setbench` registry provides a blanket
/// `Benchable` implementation for every `ConcurrentMap + KeySum` type.
pub trait KeySum {
    /// Sum of all keys currently stored.  Quiescent only: callers must
    /// ensure no concurrent operations are in flight.
    fn key_sum(&self) -> u128;
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
        assert_eq!(boxed.name(), "elim-abtree");
    }

    #[test]
    fn batch_defaults_match_singles() {
        let tree: OccABTree = OccABTree::new();
        let mut session = tree.handle();
        let mut results = Vec::new();
        session.insert_batch(&[(1, 10), (2, 20), (1, 99)], &mut results);
        assert_eq!(results, vec![None, None, Some(10)], "insert-if-absent");
        session.get_batch(&[2, 7, 1], &mut results);
        assert_eq!(results, vec![Some(20), None, Some(10)], "input order");
        // Batches clear the output buffer before refilling it.
        session.get_batch(&[1], &mut results);
        assert_eq!(results, vec![Some(10)]);
    }
}
