//! Insert and delete (paper Fig. 4, Fig. 5) over one locked-leaf path,
//! plus the publishing-elimination protocol (`lockOrElim`, Fig. 10).
//!
//! Both operations are a call of `AbTree::update_leaf`, the body of the
//! paper's RETRY loop: search for the key's leaf, read it optimistically,
//! lock it (or, in the Elim-ABtree, eliminate), retry if it was unlinked
//! meanwhile, and look the key up again under the lock.  An operation
//! brings only its own three parts: its answer when a lookup alone settles
//! it (an insert finds its key, a delete misses it), its answer when
//! eliminated, and its write.  The leaf protocols these steps run — the
//! optimistic read, and §5's store order of a simple update — are
//! `Node`'s (see the `node` module docs).
//!
//! A batch (`AbTree::apply_in`, behind [`crate::TreeHandle::apply`]) runs
//! the same operations from the paths of one lockstep search instead of
//! one search each; an op whose path names a leaf an earlier op of the
//! batch replaced searches afresh first, so `update_leaf` itself never
//! checks for a stale path.
//!
//! The OCC-ABtree and Elim-ABtree share all of this code; the `ELIM` const
//! parameter selects between the two pre-lock read strategies and decides
//! whether elimination records are published/consulted.  With `ELIM = false`
//! the code is exactly the paper's OCC-ABtree: the compiler removes the
//! elimination branches.

use std::ptr;
use std::sync::atomic::Ordering;

use abebr::Guard;
use absync::{Backoff, RawNodeLock};

use crate::node::{Node, NodeKind};
use crate::persist::Persist;
use crate::rebalance::{Locks, Run};
use crate::tree::{AbTree, PathInfo, LOCKSTEP_CURSORS};
use crate::{PointOp, EMPTY_KEY, MAX_KEYS, MIN_KEYS};

/// Outcome of an update's write under the leaf lock; `Retry` corresponds
/// to the paper's `goto RETRY`.
enum Attempt<T> {
    Done(T),
    Retry,
}

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Inserts `key -> value` if `key` is absent.  Returns the pre-existing
    /// value (leaving the tree unchanged) if `key` was present, `None` if the
    /// pair was inserted (paper Fig. 4).
    ///
    /// The caller (a [`crate::TreeHandle`]) supplies the pinned guard and
    /// its session's elimination tally, which an eliminated insert bumps;
    /// this path never consults the reclamation registry itself.
    pub(crate) fn insert_in(
        &self,
        key: u64,
        value: u64,
        guard: &Guard,
        elims: &mut u64,
    ) -> Option<u64> {
        let path = self.search(key, ptr::null_mut(), guard);
        self.insert_at(key, value, path, guard, elims)
    }

    /// [`AbTree::insert_in`] from the path a pinned search of `key`
    /// returned.
    #[inline]
    fn insert_at(
        &self,
        key: u64,
        value: u64,
        path: PathInfo<L>,
        guard: &Guard,
        elims: &mut u64,
    ) -> Option<u64> {
        self.update_leaf(
            key,
            path,
            guard,
            elims,
            // A present key refuses the insert with its value.
            |found| found.map_or(Ok(()), |(_, existing)| Err(Some(existing))),
            Some,
            |path, leaf, mut locks, ()| {
                if leaf.len() < MAX_KEYS {
                    // ----- simple insert -----
                    let slot = leaf
                        .locked_empty_slot()
                        .expect("leaf below capacity must have an empty slot");
                    let odd = leaf.begin_write();
                    if ELIM {
                        leaf.publish_record(key, value, odd);
                    }
                    leaf.write_entry::<P>(slot, key, value);
                    leaf.size.fetch_add(1, Ordering::Relaxed);
                    leaf.end_write(); // linearization point (volatile trees)
                    return Attempt::Done(None);
                }

                // ----- splitting insert -----
                // SAFETY: the parent pointer was read during the pinned search.
                let parent = unsafe { self.deref(path.p, guard) };
                locks.lock(path.p, parent);
                if parent.is_marked() {
                    return Attempt::Retry;
                }
                // Split the leaf's contents plus the new pair evenly between
                // two fresh leaves joined by a tagged node.
                let mut run = Run::of(leaf);
                run.push_entry(key, value);
                debug_assert_eq!(run.len, MAX_KEYS + 1);
                let (left, right, split_key) = run.split();
                let tagged = Node::new_internal_from(
                    NodeKind::TaggedInternal,
                    leaf.search_key,
                    &[split_key],
                    &[left, right],
                );
                // Linearization point of the splitting insert: the replace
                // step's child-pointer write makes the new subtree (and hence
                // the new key) reachable (for durable trees, the flush of that
                // pointer).
                // SAFETY: leaf and parent are unmarked under the locks, so the
                // leaf is still the parent's child `n_idx`.
                unsafe { self.replace(locks, &[left, right, tagged], path.n_idx, guard) };
                self.fix_tagged(tagged, guard);
                Attempt::Done(None)
            },
        )
    }

    /// Removes `key`, returning its value if it was present (paper Fig. 5).
    /// Guard and tally as in [`AbTree::insert_in`].
    pub(crate) fn delete_in(&self, key: u64, guard: &Guard, elims: &mut u64) -> Option<u64> {
        let path = self.search(key, ptr::null_mut(), guard);
        self.delete_at(key, path, guard, elims)
    }

    /// [`AbTree::delete_in`] from the path a pinned search of `key`
    /// returned.
    #[inline]
    fn delete_at(
        &self,
        key: u64,
        path: PathInfo<L>,
        guard: &Guard,
        elims: &mut u64,
    ) -> Option<u64> {
        self.update_leaf(
            key,
            path,
            guard,
            elims,
            // An absent key: nothing to delete.
            |found| found.ok_or(None),
            // An eliminated delete is linearized at a point where the key is
            // absent, so it returns "not present" (§4).
            |_| None,
            |path, leaf, locks, (slot, deleted)| {
                let odd = leaf.begin_write();
                if ELIM {
                    leaf.publish_record(key, deleted, odd);
                }
                leaf.clear_entry::<P>(slot);
                leaf.size.fetch_sub(1, Ordering::Relaxed);
                leaf.end_write(); // linearization point (volatile trees)

                let underfull = leaf.len() < MIN_KEYS;
                if underfull {
                    // `fix_underfull` traverses (and locks) ancestors and
                    // siblings without the fine-mode hazard protocol; upgrade
                    // to coarse protection before releasing the lock that
                    // pins this foothold (no-op under EBR/coarse).
                    guard.escalate();
                }
                drop(locks);
                if underfull {
                    self.fix_underfull(path.n, guard);
                }
                Attempt::Done(Some(deleted))
            },
        )
    }

    /// Applies `ops` in order and appends one answer per op to `out`: one
    /// [`AbTree::search_lockstep`] pass per chunk of
    /// [`LOCKSTEP_CURSORS`] ops, then each op runs `find`'s leaf read or
    /// [`AbTree::update_leaf`] from its path (see
    /// [`crate::TreeHandle::apply`] for the stale-leaf rule).  `guard` must
    /// be a coarse pin; `elims` as in [`AbTree::insert_in`].
    pub(crate) fn apply_in(
        &self,
        ops: &[PointOp],
        out: &mut Vec<Option<u64>>,
        guard: &Guard,
        elims: &mut u64,
    ) {
        out.reserve(ops.len());
        let mut keys = [0u64; LOCKSTEP_CURSORS];
        let mut paths = [PathInfo::UNSET; LOCKSTEP_CURSORS];
        for chunk in ops.chunks(LOCKSTEP_CURSORS) {
            let (keys, paths) = (&mut keys[..chunk.len()], &mut paths[..chunk.len()]);
            for (key, op) in keys.iter_mut().zip(chunk) {
                *key = op.key();
            }
            self.search_lockstep(keys, paths, guard);
            for (&op, &path) in chunk.iter().zip(paths.iter()) {
                let key = op.key();
                // The stale-leaf rule: an earlier op of this batch may have
                // replaced (and so marked) the leaf this path names.
                // SAFETY: read during the pass, pinned by `guard`.
                let stale = unsafe { self.deref(path.n, guard) }.is_marked();
                let path = if stale && !cfg!(feature = "stale-path") {
                    self.search(key, ptr::null_mut(), guard)
                } else {
                    path
                };
                out.push(match op {
                    PointOp::Get { .. } => self.get_at(key, &path, guard),
                    PointOp::Put { value, .. } => self.insert_at(key, value, path, guard, elims),
                    PointOp::Delete { .. } => self.delete_at(key, path, guard, elims),
                });
            }
        }
    }

    /// The locked-leaf path of every update (the RETRY loop of Fig. 4 and
    /// Fig. 5): from the leaf `path` names (the caller's search for `key`;
    /// every retry searches afresh),
    ///
    /// 1. read it optimistically: the OCC-ABtree retries until a read is
    ///    consistent, the Elim-ABtree makes one attempt and takes a torn
    ///    read as the sign of contention that sends it to elimination
    ///    (§4.1);
    /// 2. lock it; the Elim-ABtree goes through `lockOrElim`, which may
    ///    eliminate the operation instead, bump `elims` and answer
    ///    `eliminated(rec.val)`;
    /// 3. retry from the root if the leaf was unlinked before the lock;
    /// 4. look `key` up again under the lock.
    ///
    /// `settle` maps a lookup of `key` (its slot and value, if present) to
    /// `Err(answer)` when the lookup alone decides the operation, or else
    /// to `Ok` of what `write` needs; steps 1 and 4 both ask it.  `write`
    /// runs with the leaf locked and unmarked and its lookup unsettled; it
    /// owns the locks, may take more, and may retry.
    fn update_leaf<'g, W, T>(
        &self,
        key: u64,
        mut path: PathInfo<L>,
        guard: &'g Guard,
        elims: &mut u64,
        settle: impl Fn(Option<(usize, u64)>) -> Result<W, T>,
        eliminated: impl Fn(u64) -> T,
        write: impl Fn(&PathInfo<L>, &'g Node<L>, Locks<'_, 'g, L>, W) -> Attempt<T>,
    ) -> T {
        debug_assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved");
        loop {
            // Every exit from this block unlocks by dropping `locks`.
            'attempt: {
                // SAFETY: read during a search pinned by `guard`.
                let leaf = unsafe { self.deref(path.n, guard) };

                let read = if ELIM {
                    leaf.try_read(|leaf| leaf.find(key))
                } else {
                    Some(leaf.read(|leaf| leaf.find(key)))
                };
                if let Some(Err(answer)) = read.map(|(_, found)| settle(found)) {
                    return answer;
                }

                let mut tokens = Default::default();
                let mut locks = Locks::new(&mut tokens);
                if !ELIM {
                    locks.lock(path.n, leaf);
                } else if let Some(rec_val) = self.lock_or_elim(path.n, leaf, key, &mut locks) {
                    *elims += 1;
                    return eliminated(rec_val);
                }
                if leaf.is_marked() {
                    break 'attempt;
                }
                match settle(leaf.find(key)) {
                    Err(answer) => return answer,
                    Ok(needs) => {
                        if let Attempt::Done(answer) = write(&path, leaf, locks, needs) {
                            return answer;
                        }
                    }
                }
            }
            path = self.search(key, ptr::null_mut(), guard);
        }
    }

    /// The paper's `lockOrElim` (Fig. 10): repeatedly read a consistent
    /// snapshot of the leaf's elimination record; if the record proves a
    /// same-key operation linearized after this operation began, eliminate;
    /// otherwise try to take the lock.  Returns the record's value if the
    /// operation was eliminated, `None` once `locks` holds the leaf.
    /// Between attempts it waits out one exponential backoff step.
    fn lock_or_elim<'g>(
        &self,
        leaf_ptr: *mut Node<L>,
        leaf: &'g Node<L>,
        key: u64,
        locks: &mut Locks<'_, 'g, L>,
    ) -> Option<u64> {
        // Line 208: the version read here is what condition C1 compares
        // against `rec.ver`.
        let start_ver = leaf.version();
        let mut backoff = Backoff::new();
        loop {
            // Double-collect snapshot of the record (lines 211-215).
            let (_, (rec_key, rec_val, rec_ver)) = leaf.read(Node::read_record);
            // Line 217: condition C1 (start_ver <= rec.ver) plus key match.
            if start_ver <= rec_ver && rec_key == key {
                return Some(rec_val);
            }
            // Line 221: cannot eliminate; try to lock.
            if locks.try_lock(leaf_ptr, leaf) {
                return None;
            }
            backoff.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use absync::McsLock;

    use crate::persist::recording::{Event, Recording, EVENTS};
    use crate::{AbTree, ConcurrentMap, ElimABTree, OccABTree, EMPTY_KEY, MAX_KEYS, MIN_KEYS};

    /// One logged event: a flush of the 8-byte word it covered, or a fence.
    #[derive(Debug, PartialEq)]
    enum Logged {
        Flush(u64),
        Fence,
    }

    /// Takes this thread's flushes and fences since the last call.
    fn take_logged() -> Vec<Logged> {
        EVENTS
            .with(|e| e.take())
            .into_iter()
            .map(|event| match event {
                Event::Flush {
                    len: 8,
                    word: Some(word),
                    ..
                } => Logged::Flush(word),
                Event::Fence => Logged::Fence,
                other => panic!("flush of more than one word: {other:?}"),
            })
            .collect()
    }

    /// Paper §5's order for the updates that write one leaf slot: a simple
    /// insert flushes and fences the value, then the key; a delete that
    /// leaves the leaf at or above `MIN_KEYS` flushes and fences the emptied
    /// key slot.  An insert of a present key and a delete of an absent one
    /// write nothing, so they flush and fence nothing.
    #[test]
    fn simple_updates_flush_value_then_key_and_only_on_change() {
        fn run<const ELIM: bool>() {
            let tree: AbTree<ELIM, McsLock, Recording> = AbTree::new();
            let mut t = tree.handle();
            for k in 0..MIN_KEYS as u64 {
                assert_eq!(t.insert(k, 100 + k), None);
            }
            EVENTS.with(|e| e.borrow_mut().clear());
            assert_eq!(t.insert(7, 700), None);
            assert_eq!(
                take_logged(),
                [
                    Logged::Flush(700),
                    Logged::Fence,
                    Logged::Flush(7),
                    Logged::Fence
                ],
                "ELIM={ELIM}: simple insert"
            );
            assert_eq!(t.insert(7, 701), Some(700));
            assert_eq!(t.delete(8), None);
            assert_eq!(
                take_logged(),
                [],
                "ELIM={ELIM}: refused insert and missed delete"
            );
            assert_eq!(t.delete(7), Some(700));
            assert_eq!(
                take_logged(),
                [Logged::Flush(EMPTY_KEY), Logged::Fence],
                "ELIM={ELIM}: delete"
            );
            assert_eq!(t.len(), MIN_KEYS);
        }
        run::<false>();
        run::<true>();
    }

    /// A torn simple insert or delete (`crashsim`) logs exactly what the
    /// real update logs before its closing version bump: the value line,
    /// fence, key line, fence; the emptied key line, fence.
    #[test]
    fn torn_updates_flush_what_real_ones_flush() {
        fn run<const ELIM: bool>() {
            type Tree<const E: bool> = AbTree<E, McsLock, Recording>;
            // The log of `update` on a root leaf above `MIN_KEYS`.
            let log = |update: &dyn Fn(&Tree<ELIM>)| {
                let tree = Tree::<ELIM>::new();
                let mut t = tree.handle();
                for k in 0..=MIN_KEYS as u64 {
                    assert_eq!(t.insert(k, 100 + k), None);
                }
                EVENTS.with(|e| e.borrow_mut().clear());
                update(&tree);
                take_logged()
            };
            let insert = log(&|tree| assert_eq!(tree.handle().insert(50, 500), None));
            assert_eq!(
                insert,
                [
                    Logged::Flush(500),
                    Logged::Fence,
                    Logged::Flush(50),
                    Logged::Fence
                ],
                "ELIM={ELIM}: simple insert"
            );
            let torn = log(&|tree| assert!(tree.force_partial_insert(50, 500)));
            assert_eq!(torn, insert, "ELIM={ELIM}: torn insert");
            let delete = log(&|tree| assert_eq!(tree.handle().delete(1), Some(101)));
            assert_eq!(delete, [Logged::Flush(EMPTY_KEY), Logged::Fence]);
            let torn = log(&|tree| assert!(tree.force_partial_delete(1)));
            assert_eq!(torn, delete, "ELIM={ELIM}: torn delete");
        }
        run::<false>();
        run::<true>();
    }

    #[test]
    fn insert_get_delete_round_trip_occ() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.insert(5, 51), Some(50), "duplicate insert returns old");
        assert_eq!(t.get(5), Some(50), "duplicate insert does not overwrite");
        assert_eq!(t.delete(5), Some(50));
        assert_eq!(t.delete(5), None);
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn insert_get_delete_round_trip_elim() {
        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.delete(5), Some(50));
        assert_eq!(t.delete(5), None);
    }

    #[test]
    fn fill_one_leaf_then_split() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        // MAX_KEYS inserts fit in the root leaf; one more forces a split.
        for k in 0..=(MAX_KEYS as u64) {
            assert_eq!(t.insert(k, k * 10), None);
        }
        for k in 0..=(MAX_KEYS as u64) {
            assert_eq!(t.get(k), Some(k * 10), "missing key {k} after split");
        }
        assert_eq!(t.get(MAX_KEYS as u64 + 1), None);
    }

    #[test]
    fn many_sequential_inserts_and_deletes() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        const N: u64 = 3_000;
        for k in 0..N {
            assert_eq!(t.insert(k, k), None, "insert {k}");
        }
        for k in 0..N {
            assert_eq!(t.get(k), Some(k), "get {k}");
        }
        for k in (0..N).step_by(2) {
            assert_eq!(t.delete(k), Some(k), "delete {k}");
        }
        for k in 0..N {
            let expected = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(t.get(k), expected, "get-after-delete {k}");
        }
        // Delete the rest so the tree shrinks back down.
        for k in (1..N).step_by(2) {
            assert_eq!(t.delete(k), Some(k));
        }
        for k in 0..N {
            assert_eq!(t.get(k), None);
        }
    }

    #[test]
    fn many_sequential_inserts_and_deletes_elim() {
        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        const N: u64 = 3_000;
        for k in 0..N {
            assert_eq!(t.insert(k, k + 1), None);
        }
        for k in (0..N).rev() {
            assert_eq!(t.delete(k), Some(k + 1));
        }
        for k in 0..N {
            assert_eq!(t.get(k), None);
        }
    }

    #[test]
    fn reverse_and_shuffled_insertion_orders() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xab);
        let mut keys: Vec<u64> = (0..2_000u64).collect();
        keys.shuffle(&mut rng);

        let t: ElimABTree = ElimABTree::new();
        let mut t = t.handle();
        for &k in &keys {
            assert_eq!(t.insert(k, !k), None);
        }
        for k in 0..2_000u64 {
            assert_eq!(t.get(k), Some(!k));
        }
        keys.shuffle(&mut rng);
        for &k in &keys {
            assert_eq!(t.delete(k), Some(!k));
        }
        assert_eq!(t.get(123), None);
    }

    #[test]
    fn values_are_arbitrary_u64() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        assert_eq!(t.insert(1, u64::MAX), None);
        assert_eq!(t.insert(2, 0), None);
        assert_eq!(t.get(1), Some(u64::MAX));
        assert_eq!(t.get(2), Some(0));
    }

    #[test]
    fn trait_object_usage() {
        let t: Box<dyn ConcurrentMap> = Box::new(ElimABTree::<absync::McsLock>::new());
        let mut h = t.handle();
        assert_eq!(h.insert(9, 90), None);
        assert_eq!(h.get(9), Some(90));
        assert_eq!(h.delete(9), Some(90));
    }
}
