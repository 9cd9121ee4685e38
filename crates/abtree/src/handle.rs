//! Per-thread session handles over the (a,b)-trees.
//!
//! The paper's C++ engine hands every worker a per-thread context — its EBR
//! slot, elimination scratch, and RNG — and threads it through every
//! operation.  [`TreeHandle`] is that context for this port: acquired once
//! per thread via [`AbTree::handle`], it owns
//!
//! * the thread's [`abebr::LocalHandle`], so each operation pins with a
//!   cheap local epoch announcement;
//! * a reusable scan buffer backing [`TreeHandle::scan_len`].
//!
//! The elimination path needs no per-thread scratch or RNG: `lockOrElim` waits
//! between attempts with a stack-local exponential backoff.
//!
//! The handle dereferences to the tree, so quiescent accessors
//! (`check_invariants`, `key_sum`, `len`, `collect`, `recover`, ...) remain
//! reachable through it.

use std::ops::Deref;
use std::sync::atomic::Ordering;

use absync::{McsLock, RawNodeLock};

use crate::persist::{Persist, VolatilePersist};
use crate::tree::AbTree;
use crate::{ConcurrentMap, MapHandle};

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
    /// Operations this session completed through publishing elimination,
    /// added to the tree's count when the session drops: a plain local
    /// tally, so an eliminated update writes no tree-wide counter.
    elims: u64,
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Opens a per-thread session handle.
    ///
    /// Registers the calling thread with the tree's reclamation collector
    /// (the only point at which its slot table is consulted).  Call once
    /// per worker thread and reuse the handle for the whole run; the handle
    /// must stay on the thread that opened it.
    pub fn handle(&self) -> TreeHandle<'_, ELIM, L, P> {
        self.try_handle().unwrap_or_else(|e| panic!("abtree: {e}"))
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
            elims: 0,
        })
    }
}

/// One point operation of a batch ([`TreeHandle::apply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOp {
    /// Point lookup: [`TreeHandle::get`].
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Insert-if-absent: [`TreeHandle::insert`].
    Put {
        /// Key to insert.
        key: u64,
        /// Value to associate.
        value: u64,
    },
    /// Point removal: [`TreeHandle::delete`].
    Delete {
        /// Key to remove.
        key: u64,
    },
}

impl PointOp {
    /// The key the operation names.
    #[inline]
    pub fn key(self) -> u64 {
        let (PointOp::Get { key } | PointOp::Put { key, .. } | PointOp::Delete { key }) = self;
        key
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
        self.tree.insert_in(key, value, &guard, &mut self.elims)
    }

    /// Removes `key`, returning its value if it was present (paper Fig. 5).
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        let guard = self.ebr.pin_fine();
        self.tree.delete_in(key, &guard, &mut self.elims)
    }

    /// The paper's `find(key)`: returns the associated value, or `None`.
    /// Never restarts and never acquires locks.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let guard = self.ebr.pin_fine();
        self.tree.get_in(key, &guard)
    }

    /// Applies `ops` in order, as the same calls of [`get`](Self::get),
    /// [`insert`](Self::insert) and [`delete`](Self::delete) would, and
    /// appends their answers to `out`, one per op.  The batch is not
    /// atomic: each op linearizes on its own, as those calls do.
    ///
    /// One descent per op: a lockstep pass walks the root-to-leaf paths
    /// of up to 64 ops at once, prefetching each next node so their cache
    /// misses overlap (group prefetching), and helps a dirty link as the
    /// paper's `search` does; then each op runs `find`'s optimistic leaf
    /// read, or the update's locked-leaf path, from its own path.
    ///
    /// **The stale-leaf rule.**  A path is only as fresh as the pass, and
    /// an earlier op of the same batch may split or merge the leaf that a
    /// later op's path names.  The replaced leaf is marked before it is
    /// unlinked and is never written again, so an answer read from it
    /// would miss the earlier op's write.  So each op first loads the
    /// marked bit of its path's leaf and searches afresh if it is set.
    /// An unmarked leaf is still linked, and still covers the key (a leaf's
    /// range changes only by replacing the leaf), so the op then proceeds
    /// exactly as if its own search had just returned that path, whatever
    /// other sessions did meanwhile.  The single-op calls never need the
    /// check: their path is always their own, fresh search's.
    ///
    /// The batch runs under one coarse pin, which keeps every node of
    /// every path alive under both reclamation backends (under hazard
    /// pointers a fine pin would protect only one operation's three
    /// nodes).  Like the single-op calls, it may run beside other
    /// sessions, but not beside [`crate::AbTree::recover`] or a crash
    /// simulation, which need the tree to themselves.
    pub fn apply(&mut self, ops: &[PointOp], out: &mut Vec<Option<u64>>) {
        let guard = self.ebr.pin();
        self.tree.apply_in(ops, out, &guard, &mut self.elims);
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

impl<const ELIM: bool, L: RawNodeLock, P: Persist> Drop for TreeHandle<'_, ELIM, L, P> {
    fn drop(&mut self) {
        if self.elims != 0 {
            self.tree
                .elim_count
                .fetch_add(self.elims, Ordering::Relaxed);
        }
    }
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> std::fmt::Debug for TreeHandle<'_, ELIM, L, P> {
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
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(AbTree::try_handle(self)?))
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
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;
    use crate::persist::recording::{Event, Recording, EVENTS};
    use crate::{ElimABTree, OccABTree};

    /// A session's eliminations reach the tree's count when it drops, and
    /// not before.
    #[test]
    fn a_sessions_eliminations_count_when_it_drops() {
        let tree: ElimABTree = ElimABTree::new();
        let mut first = tree.handle();
        let mut second = tree.handle();
        first.elims = 3;
        second.elims = 4;
        drop(first);
        assert_eq!(
            tree.elimination_count(),
            3,
            "the live session is not counted"
        );
        drop(second);
        assert_eq!(tree.elimination_count(), 7);
    }

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

    /// A flush or fence as two trees fed the same ops log it alike: a
    /// flush's address is dropped, and so is an 8-byte word too large to
    /// be one of the test's keys or values (a child link), which the two
    /// trees allocate apart.
    fn normalized(events: Vec<Event>) -> Vec<(usize, Option<u64>)> {
        events
            .into_iter()
            .map(|event| match event {
                Event::Flush { len, word, .. } => {
                    (len, word.filter(|&w| w < 1 << 32 || w == crate::EMPTY_KEY))
                }
                Event::Fence => (0, None),
            })
            .collect()
    }

    /// Seeded batches of 1-64 mixed ops over 40 keys: so few keys that the
    /// early ops of a batch split and merge leaves that later ops' paths
    /// name.  `apply` answers as the per-op loop does, on a twin tree fed
    /// the same ops, leaves the same contents, keeps the invariants and
    /// (under the recording policy) logs the same flushes and fences, so
    /// batching keeps §5's order.
    #[test]
    fn apply_answers_logs_and_leaves_what_the_per_op_loop_does() {
        fn run<const ELIM: bool, P: Persist>(seed: u64) {
            let batched = AbTree::<ELIM, McsLock, P>::new();
            let looped = AbTree::<ELIM, McsLock, P>::new();
            let (mut b, mut l) = (batched.handle(), looped.handle());
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut answers, mut restructured) = (Vec::new(), 0);
            for round in 0..2_000u64 {
                let ops: Vec<PointOp> = (0..rng.gen_range(1..=64))
                    .map(|_| {
                        let key = rng.gen_range(0..40);
                        match rng.gen_range(0..3) {
                            0 => PointOp::Get { key },
                            1 => PointOp::Put {
                                key,
                                value: round << 8 | key,
                            },
                            _ => PointOp::Delete { key },
                        }
                    })
                    .collect();
                let leaves = b.stats().leaves;
                EVENTS.with(|e| e.borrow_mut().clear());
                answers.clear();
                b.apply(&ops, &mut answers);
                let batch_log = normalized(EVENTS.with(|e| e.take()));
                let expected: Vec<Option<u64>> = ops
                    .iter()
                    .map(|&op| match op {
                        PointOp::Get { key } => l.get(key),
                        PointOp::Put { key, value } => l.insert(key, value),
                        PointOp::Delete { key } => l.delete(key),
                    })
                    .collect();
                let loop_log = normalized(EVENTS.with(|e| e.take()));
                assert_eq!(answers, expected, "ELIM={ELIM} round {round}: {ops:?}");
                assert_eq!(batch_log, loop_log, "ELIM={ELIM} round {round}");
                assert_eq!(b.collect(), l.collect(), "ELIM={ELIM} round {round}");
                b.check_invariants().unwrap();
                restructured += usize::from(b.stats().leaves != leaves);
            }
            // A batch can split and merge back to the leaf count it began
            // with, so this undercounts; the stale-path mutant fails the
            // answers check in the first round.
            assert!(
                restructured >= 50,
                "only {restructured} batches changed the leaf count"
            );
        }
        run::<false, VolatilePersist>(1);
        run::<true, VolatilePersist>(2);
        run::<false, Recording>(3);
        run::<true, Recording>(4);
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
        let mut h = map.handle();
        assert_eq!(h.insert(9, 90), None);
        assert!(h.get(9).is_some());
        assert_eq!(h.scan_len(0, 100), 1);
        assert_eq!(h.delete(9), Some(90));
    }

    /// With every slot of the tree's collector held, the trait's one
    /// opener returns the `RegisterError` and its provided `handle` panics
    /// with it; freeing a slot lets a session open again.
    #[test]
    fn a_full_collector_fails_try_handle_and_panics_handle() {
        let collector = abebr::Collector::new();
        let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
        let map: Box<dyn ConcurrentMap> = Box::new(tree);
        let mut held: Vec<_> = std::iter::from_fn(|| collector.try_register().ok()).collect();
        assert_eq!(held.len(), abebr::MAX_THREADS);

        let err = map.try_handle().err().expect("no slot is free");
        assert_eq!(
            err,
            abebr::RegisterError {
                capacity: abebr::MAX_THREADS
            }
        );
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(map.handle());
        }))
        .expect_err("handle panics when try_handle fails");
        let message = payload
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(message.contains(&err.to_string()), "{message}");

        held.pop();
        let mut session = map.try_handle().expect("one slot is free again");
        assert_eq!(session.insert(1, 10), None);
    }
}
