//! Baseline concurrent dictionaries used in the paper's evaluation (§2, §6).
//!
//! The paper compares the OCC-ABtree / Elim-ABtree against a large set of
//! state-of-the-art structures.  This crate reproduces one representative of
//! each *category* that the paper's figures rely on:
//!
//! * [`catree::CaTree`] — the contention-adapting search tree (Sagonas &
//!   Winblad), the paper's fastest competitor on uniform update-heavy
//!   workloads: an external binary tree of lock-protected sequential AVL
//!   trees that splits hot base nodes.
//! * [`extbst::LockExtBst`] — a lock-based external (leaf-oriented) binary
//!   search tree in the style of DGT15 / the lock-based variants of Ellen et
//!   al.'s tree: the "distribution-naïve BST" category (BCCO10, NM14,
//!   DGT15).
//! * [`skiplist::LazySkipList`] — a lock-based lazy skiplist, standing in for
//!   the list-shaped baselines (SplayList).
//! * [`fptree::FpTree`] — a simplified FPTree-style persistent B-tree
//!   (fingerprinted persistent leaves, volatile inner structure protected by
//!   a reader-writer lock), the comparison point for the persistence
//!   experiments (Figure 17).
//! * [`cowabtree::CowABTree`] — a copy-on-update (a,b)-tree standing in for
//!   the LF-ABtree: every insert/delete replaces the affected leaf with a
//!   fresh copy, reproducing the allocation-per-update cost that dominates
//!   the LF-ABtree's behaviour in update-heavy workloads.
//!
//! # Substitution note
//!
//! These are stand-ins written for this reproduction, not the competitors'
//! own code, and each is simpler than its original where the paper's
//! experiments do not reach the difference: the CA tree splits contended
//! base nodes but never joins them back (the workloads' contention is
//! stationary); the skiplist keeps the SplayList's list shape but not its
//! access-adaptive tower heights; the copy-on-update tree pays the
//! LF-ABtree's allocation per update but swaps leaves with a CAS instead of
//! LLX/SCX; the FPTree-like tree persists its leaves but has no recovery
//! (Figure 17 measures steady-state throughput only).  Every baseline scans
//! natively, by walking its own key order, but per key and not as a
//! snapshot: each returned pair was present at some instant of the scan,
//! where the (a,b)-trees' scans are one linearizable snapshot of the
//! window.  What carries over to
//! the figures is therefore each category's cost structure and the relative
//! ordering of the curves, not the originals' absolute numbers.
//!
//! All baselines implement [`abtree::ConcurrentMap`], so the benchmark
//! harness drives them exactly like the paper's trees: each worker thread
//! opens one [`abtree::MapHandle`] session for its whole run.  The shared
//! session plumbing lives in this module — a baseline implements the
//! internal `SessionOps` trait (its operations receive an `OpCx` with the
//! handle's pre-armed EBR guard and per-thread RNG) and gets its
//! [`abtree::MapHandle`] via the internal `SessionHandle`, which owns the
//! thread's epoch-reclamation registration, RNG and reusable scan buffer.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod avl;
pub mod catree;
pub mod cowabtree;
pub mod extbst;
pub mod fptree;
pub mod skiplist;

pub use catree::CaTree;
pub use cowabtree::CowABTree;
pub use extbst::LockExtBst;
pub use fptree::FpTree;
pub use skiplist::LazySkipList;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use abebr::{Collector, Guard, LocalHandle};
use abtree::MapHandle;

// The baselines' locks ignore poison, as `parking_lot`'s do: a panic while
// a lock is held is reported by the panicking thread, and the others keep
// using the structure.

/// Locks `mutex`, ignoring poison.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `rwlock`, ignoring poison.
pub(crate) fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `rwlock`, ignoring poison.
pub(crate) fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A tiny per-session xorshift* PRNG (the skiplist's tower heights).
///
/// Not cryptographic and not reproducible across runs — each instance is
/// seeded from a global counter so that every session gets a distinct
/// stream without consulting thread-local state on the hot path.
pub(crate) struct HandleRng(u64);

/// Seed counter behind [`HandleRng::new`].
static RNG_SEQ: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

impl HandleRng {
    /// Creates a generator with a process-unique seed.
    pub(crate) fn new() -> Self {
        // splitmix64 of a global counter: cheap, and distinct per session.
        let mut z = RNG_SEQ.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    /// Creates a generator from an explicit seed.
    #[cfg(test)]
    pub(crate) fn from_seed(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// Next pseudo-random 64-bit value (xorshift64*).
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniformly random boolean.
    #[inline]
    pub(crate) fn coin(&mut self) -> bool {
        self.next_u64() & (1 << 32) != 0
    }
}

/// Per-operation context a [`SessionHandle`] passes down to a structure's
/// [`SessionOps`] methods: the pre-armed EBR guard (present iff the
/// structure declared a [`Collector`]) and the session's RNG.
pub(crate) struct OpCx<'a> {
    guard: Option<&'a Guard>,
    rng: &'a mut HandleRng,
}

impl OpCx<'_> {
    /// The session's pin guard.  Only callable by structures whose
    /// [`SessionOps::collector`] returned `Some` (the handle pins before
    /// every operation in that case).
    fn guard(&self) -> &Guard {
        self.guard
            .expect("structure declared a collector, so the session pinned")
    }

    /// The session's per-thread RNG.
    fn rng(&mut self) -> &mut HandleRng {
        self.rng
    }
}

/// Internal session-facing operations of a baseline structure.
///
/// Methods mirror [`MapHandle`] but take the shared structure (`&self`) plus
/// the per-operation context; [`SessionHandle`] adapts this to the public
/// per-thread handle API.
pub(crate) trait SessionOps: Send + Sync {
    /// The structure's reclamation collector, if it retires memory through
    /// EBR.  When `Some`, every session registers once and pins around each
    /// operation; `cx.guard()` is then available.
    fn collector(&self) -> Option<&Collector> {
        None
    }

    /// Insert-if-absent (see [`MapHandle::insert`]).
    fn op_insert(&self, key: u64, value: u64, cx: &mut OpCx<'_>) -> Option<u64>;

    /// Remove (see [`MapHandle::delete`]).
    fn op_delete(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64>;

    /// Lookup (see [`MapHandle::get`]).
    fn op_get(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64>;

    /// Range collection (see [`MapHandle::range`]): appends every pair
    /// with `lo <= key <= hi` to `out` in key order, walking the
    /// structure's own layout.  Called with `lo <= hi` and `out` empty.
    /// Each element is linearizable on its own; the window is not one
    /// snapshot.  This walk is also the baselines' quiescent
    /// `ConcurrentMap::key_sum`.
    fn op_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, cx: &mut OpCx<'_>);
}

/// The shared per-thread session state of every baseline: an owned EBR
/// registration (when the structure uses one), a per-thread RNG, and the
/// reusable scan buffer.  Constructed by each structure's
/// `ConcurrentMap::try_handle`.
pub(crate) struct SessionHandle<'m, M: SessionOps + ?Sized> {
    map: &'m M,
    /// One registration per session: per-op pins are local epoch bumps.
    ebr: Option<LocalHandle>,
    rng: HandleRng,
    scan_buf: Vec<(u64, u64)>,
}

impl<'m, M: SessionOps + ?Sized> SessionHandle<'m, M> {
    /// Opens a session, registering with the structure's collector if it
    /// has one; a full collector is the error `ConcurrentMap::try_handle`
    /// returns.
    pub(crate) fn try_new(map: &'m M) -> Result<Self, abebr::RegisterError> {
        Ok(Self {
            map,
            ebr: map.collector().map(Collector::try_register).transpose()?,
            rng: HandleRng::new(),
            scan_buf: Vec::new(),
        })
    }

    /// Pins (when the structure uses EBR), builds the per-op context, and
    /// runs `f` under it — the one place the pin-before-op discipline lives.
    fn with_cx<R>(&mut self, f: impl FnOnce(&M, &mut OpCx<'_>) -> R) -> R {
        let guard = self.ebr.as_ref().map(LocalHandle::pin);
        let mut cx = OpCx {
            guard: guard.as_ref(),
            rng: &mut self.rng,
        };
        f(self.map, &mut cx)
    }
}

impl<M: SessionOps + ?Sized> MapHandle for SessionHandle<'_, M> {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.with_cx(|map, cx| map.op_insert(key, value, cx))
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.with_cx(|map, cx| map.op_delete(key, cx))
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        self.with_cx(|map, cx| map.op_get(key, cx))
    }

    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        out.clear();
        if lo <= hi {
            self.with_cx(|map, cx| map.op_range(lo, hi, out, cx))
        }
    }

    fn take_scan_buf(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.scan_buf)
    }

    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>) {
        self.scan_buf = buf;
    }
}

/// Every pair a structure holds, through one full-window `range` (the
/// module tests' oracle comparisons).
#[cfg(test)]
pub(crate) fn entries(map: &dyn abtree::ConcurrentMap) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    map.handle().range(0, abtree::EMPTY_KEY - 1, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use abtree::ConcurrentMap;

    fn smoke<M: ConcurrentMap>(map: M) {
        let mut h = map.handle();
        assert_eq!(h.insert(5, 50), None);
        // `MapHandle::insert` is insert-if-absent (first-writer-wins,
        // the paper's `insertIfAbsent`): inserting a present key returns the
        // existing value and must leave the map completely unchanged.  The
        // rejected value 51 is never observable — not via get, not via a
        // repeated insert, not via delete.
        assert_eq!(h.insert(5, 51), Some(50));
        assert_eq!(h.get(5), Some(50));
        assert_eq!(h.insert(5, 52), Some(50));
        assert_eq!(h.delete(5), Some(50));
        assert_eq!(h.get(5), None);
        assert_eq!(h.delete(5), None);
        for k in 0..500u64 {
            assert_eq!(h.insert(k, k * 2), None);
        }
        for k in 0..500u64 {
            assert_eq!(h.get(k), Some(k * 2));
        }
        for k in 0..500u64 {
            assert_eq!(h.delete(k), Some(k * 2));
        }
        assert_eq!(h.get(123), None);
    }

    #[test]
    fn all_baselines_satisfy_map_semantics() {
        smoke(crate::CaTree::new());
        smoke(crate::LockExtBst::new());
        smoke(crate::LazySkipList::new());
        smoke(crate::FpTree::new());
        smoke(crate::CowABTree::new());
    }

    #[test]
    fn mutex_round_trip() {
        let m = std::sync::Mutex::new(1);
        *crate::lock(&m) += 1;
        assert_eq!(*crate::lock(&m), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = std::sync::RwLock::new(vec![1, 2]);
        assert_eq!(crate::read(&l).len(), 2);
        crate::write(&l).push(3);
        assert_eq!(*crate::read(&l), vec![1, 2, 3]);
    }

    #[test]
    fn handle_rng_streams_differ_and_advance() {
        let mut a = crate::HandleRng::new();
        let mut b = crate::HandleRng::new();
        let (a1, a2) = (a.next_u64(), a.next_u64());
        assert_ne!(a1, a2);
        let b1 = b.next_u64();
        assert_ne!(a1, b1, "sessions must get distinct streams");
        let mut c = crate::HandleRng::from_seed(42);
        let heads = (0..1_000).filter(|_| c.coin()).count();
        assert!(
            (200..800).contains(&heads),
            "coin is not degenerate: {heads}"
        );
    }

    /// A holder that panicked poisons a std lock; the helpers carry on.
    #[test]
    fn poisoned_lock_is_reentered() {
        let m = std::sync::Mutex::new(0);
        let l = std::sync::RwLock::new(0);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _m = crate::lock(&m);
                let _l = crate::write(&l);
                panic!("poisoning both locks (expected by this test)");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        *crate::lock(&m) += 1;
        *crate::write(&l) += 1;
        assert_eq!((*crate::lock(&m), *crate::read(&l)), (1, 1));
    }
}
