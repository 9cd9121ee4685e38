//! Insert and delete operations (paper Fig. 4, Fig. 5) plus the
//! publishing-elimination protocol (`lockOrElim`, Fig. 10).
//!
//! The OCC-ABtree and Elim-ABtree share all of this code; the `ELIM` const
//! parameter selects between the two pre-lock read strategies and decides
//! whether elimination records are published/consulted.  With `ELIM = false`
//! the code is exactly the paper's OCC-ABtree: the compiler removes the
//! elimination branches.

use std::ptr;
use std::sync::atomic::{fence, Ordering};

use abebr::Guard;
use absync::{Backoff, RawNodeLock};

use crate::handle::{HandleRng, OpScratch};
use crate::node::{Node, NodeKind};
use crate::persist::Persist;
use crate::rebalance::{Locks, Run};
use crate::tree::AbTree;
use crate::{EMPTY_KEY, MAX_KEYS, MIN_KEYS};

/// Result of [`AbTree::lock_or_elim`].
pub(crate) enum ElimOutcome {
    /// The leaf's lock was acquired; the caller must perform its update and
    /// release the lock.
    Acquired,
    /// The operation was eliminated against the leaf's published record; the
    /// payload is the record's value (`rec.val`).
    Eliminated(u64),
}

/// Outcome of one attempt of an update; `Retry` corresponds to the paper's
/// `goto RETRY`.
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
    /// its per-thread scratch; this path never consults the reclamation
    /// registry itself.
    pub(crate) fn insert_in(
        &self,
        key: u64,
        value: u64,
        guard: &Guard,
        scratch: &mut OpScratch,
    ) -> Option<u64> {
        debug_assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved");
        loop {
            match self.insert_attempt(key, value, guard, scratch) {
                Attempt::Done(r) => return r,
                Attempt::Retry => continue,
            }
        }
    }

    /// Removes `key`, returning its value if it was present (paper Fig. 5).
    /// Guard/scratch discipline as in [`AbTree::insert_in`].
    pub(crate) fn delete_in(
        &self,
        key: u64,
        guard: &Guard,
        scratch: &mut OpScratch,
    ) -> Option<u64> {
        debug_assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved");
        loop {
            match self.delete_attempt(key, guard, scratch) {
                Attempt::Done(r) => return r,
                Attempt::Retry => continue,
            }
        }
    }

    /// The paper's `lockOrElim` (Fig. 10): repeatedly read a consistent
    /// snapshot of the leaf's elimination record; if the record proves a
    /// same-key operation linearized after this operation began, eliminate;
    /// otherwise try to take the lock.
    ///
    /// `rng` is the session's scratch RNG: contending threads jitter their
    /// backoff so they don't retry the `try_lock` in lockstep.
    fn lock_or_elim<'g>(
        &self,
        leaf_ptr: *mut Node<L>,
        leaf: &'g Node<L>,
        key: u64,
        locks: &mut Locks<'_, 'g, L>,
        rng: &mut HandleRng,
    ) -> ElimOutcome {
        // Line 208: the version read here is what condition C1 compares
        // against `rec.ver`.
        let start_ver = leaf.ver.load(Ordering::Acquire);
        let mut backoff = Backoff::new();
        loop {
            // Double-collect snapshot of the record (lines 211-215).
            let (rec_key, rec_val, rec_ver) = loop {
                let v1 = leaf.ver.load(Ordering::Acquire);
                let rec = leaf.read_record();
                fence(Ordering::Acquire);
                let v2 = leaf.ver.load(Ordering::Relaxed);
                if v1.is_multiple_of(2) && v1 == v2 {
                    break rec;
                }
                core::hint::spin_loop();
            };
            // Line 217: condition C1 (start_ver <= rec.ver) plus key match.
            if start_ver <= rec_ver && rec_key == key {
                return ElimOutcome::Eliminated(rec_val);
            }
            // Line 221: cannot eliminate; try to lock.
            if locks.try_lock(leaf_ptr, leaf) {
                return ElimOutcome::Acquired;
            }
            backoff.wait();
            // Desynchronize identical backoff schedules across threads.
            for _ in 0..(rng.next_u64() & 0x1F) {
                core::hint::spin_loop();
            }
        }
    }

    /// One attempt of `insert` (the body of the paper's RETRY loop).
    fn insert_attempt(
        &self,
        key: u64,
        value: u64,
        guard: &Guard,
        scratch: &mut OpScratch,
    ) -> Attempt<Option<u64>> {
        let path = self.search(key, ptr::null_mut(), guard);
        // SAFETY: read during the pinned search.
        let leaf = unsafe { self.deref(path.n, guard) };

        // Pre-lock read phase.
        if ELIM {
            // Single optimistic scan (§4.1): a torn scan is itself evidence
            // of contention, so fall through to lockOrElim in that case.
            if let Some(Some(existing)) = self.try_scan_leaf(leaf, key) {
                return Attempt::Done(Some(existing));
            }
        } else if let Some(existing) = self.search_leaf(leaf, key) {
            return Attempt::Done(Some(existing));
        }

        // Lock acquisition (possibly eliminating instead).  Every return
        // below unlocks by dropping `locks`.
        let mut tokens = Default::default();
        let mut locks = Locks::new(&mut tokens);
        if ELIM {
            match self.lock_or_elim(path.n, leaf, key, &mut locks, &mut scratch.rng) {
                ElimOutcome::Eliminated(v) => {
                    self.elim_count.fetch_add(1, Ordering::Relaxed);
                    return Attempt::Done(Some(v));
                }
                ElimOutcome::Acquired => {}
            }
        } else {
            locks.lock(path.n, leaf);
        }

        if leaf.is_marked() {
            return Attempt::Retry;
        }

        // Verify the key is not present now that the leaf is stable.
        if let Some((_slot, existing)) = leaf.locked_find(key) {
            return Attempt::Done(Some(existing));
        }

        if leaf.len() < MAX_KEYS {
            // ----- simple insert -----
            let slot = leaf
                .locked_empty_slot()
                .expect("leaf below capacity must have an empty slot");
            let odd = leaf.begin_write();
            if ELIM {
                leaf.publish_record(key, value, odd);
            }
            // Durable trees (paper §5): the value is written and flushed
            // before the key, and the insert becomes durable when the key
            // reaches persistent memory.
            leaf.set_val(slot, value);
            if P::DURABLE {
                leaf.persist_slot::<P>(slot);
            }
            leaf.keys[slot].store(key, Ordering::Relaxed);
            if P::DURABLE {
                P::persist_value(&leaf.keys[slot]);
            }
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

        // Split the leaf's contents plus the new pair evenly between two
        // fresh leaves joined by a tagged node.
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
        // Linearization point of the splitting insert: the replace step's
        // child-pointer write makes the new subtree (and hence the new key)
        // reachable (for durable trees, the flush of that pointer).
        // SAFETY: leaf and parent are unmarked under the locks, so the leaf
        // is still the parent's child `n_idx`.
        unsafe { self.replace(locks, &[left, right, tagged], path.n_idx, guard) };
        self.fix_tagged(tagged, guard);
        Attempt::Done(None)
    }

    /// One attempt of `delete` (the body of the paper's RETRY loop).
    fn delete_attempt(
        &self,
        key: u64,
        guard: &Guard,
        scratch: &mut OpScratch,
    ) -> Attempt<Option<u64>> {
        let path = self.search(key, ptr::null_mut(), guard);
        // SAFETY: read during the pinned search.
        let leaf = unsafe { self.deref(path.n, guard) };

        // Pre-lock read phase.
        if ELIM {
            if let Some(None) = self.try_scan_leaf(leaf, key) {
                // Consistent scan, key absent: nothing to delete.
                return Attempt::Done(None);
            }
        } else if self.search_leaf(leaf, key).is_none() {
            return Attempt::Done(None);
        }

        let mut tokens = Default::default();
        let mut locks = Locks::new(&mut tokens);
        if ELIM {
            match self.lock_or_elim(path.n, leaf, key, &mut locks, &mut scratch.rng) {
                // An eliminated delete is linearized at a point where the key
                // is absent, so it returns "not present" (§4).
                ElimOutcome::Eliminated(_) => {
                    self.elim_count.fetch_add(1, Ordering::Relaxed);
                    return Attempt::Done(None);
                }
                ElimOutcome::Acquired => {}
            }
        } else {
            locks.lock(path.n, leaf);
        }

        if leaf.is_marked() {
            return Attempt::Retry;
        }
        let Some((slot, deleted)) = leaf.locked_find(key) else {
            // Deleted by another thread between the search and the lock.
            return Attempt::Done(None);
        };
        let odd = leaf.begin_write();
        if ELIM {
            leaf.publish_record(key, deleted, odd);
        }
        // Durable trees (paper §5): the delete becomes durable when the
        // emptied key slot reaches persistent memory.
        leaf.keys[slot].store(EMPTY_KEY, Ordering::Relaxed);
        if P::DURABLE {
            P::persist_value(&leaf.keys[slot]);
        }
        leaf.size.fetch_sub(1, Ordering::Relaxed);
        leaf.end_write(); // linearization point (volatile trees)

        let underfull = leaf.len() < MIN_KEYS;
        if underfull {
            // `fix_underfull` traverses (and locks) ancestors and siblings
            // without the fine-mode hazard protocol; upgrade to coarse
            // protection before releasing the lock that pins this foothold
            // (no-op under EBR/coarse).
            guard.escalate();
        }
        drop(locks);
        if underfull {
            self.fix_underfull(path.n, guard);
        }
        Attempt::Done(Some(deleted))
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
