//! p-OCC-ABtree and p-Elim-ABtree: durably linearizable persistent versions
//! of the paper's trees (§5).
//!
//! The persistent trees are the volatile trees plus a small set of changes:
//!
//! * a **simple insert** flushes the value and then the key; it becomes
//!   durable (and, if interrupted by a crash, is linearized at the crash)
//!   when the key reaches persistent memory;
//! * a **successful delete** flushes the emptied key slot;
//! * **structural updates** (splitting inserts, `fixTagged`, `fixUnderfull`)
//!   flush the freshly created nodes before publishing the single
//!   child-pointer write, and publish that pointer with the
//!   **link-and-persist** technique (write marked → flush → unmark), so no
//!   operation ever depends on data that might not survive a crash;
//! * only keys, values and child pointers are persisted; `size`, the leaf
//!   versions, the lock words, the marked bits and the elimination records
//!   are volatile and are re-initialized by the [`recovery`] procedure, which
//!   simply walks the tree from the entry node.
//!
//! The implementation reuses the verified volatile engine from the [`abtree`]
//! crate, instantiated with the [`DurablePersist`] policy, whose flush/fence
//! hooks call into the [`abpmem`] persistent-memory model (real `clwb` —
//! `clflush` where the CPU lacks it — and `sfence` instructions, a
//! simulated-latency mode, or counting only — see the README's "Hardware
//! notes" for how this substitutes for the paper's Optane hardware).
//!
//! # Example
//!
//! ```
//! use pabtree::PElimABTree;
//!
//! abpmem::set_mode(abpmem::PersistMode::CountOnly);
//! let tree: PElimABTree = PElimABTree::new();
//! let mut session = tree.handle(); // one per worker thread
//! assert_eq!(session.insert(1, 10), None);
//! assert_eq!(session.get(1), Some(10));
//! // After a (simulated) crash, recovery restores the volatile fields.
//! session.recover();
//! assert_eq!(session.get(1), Some(10));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod recovery;

use absync::McsLock;
use abtree::{AbTree, Persist};

/// Persistence policy backed by the `abpmem` flush/fence primitives.
#[derive(Debug, Default, Clone, Copy)]
pub struct DurablePersist;

impl Persist for DurablePersist {
    const DURABLE: bool = true;

    #[inline]
    fn flush_range(ptr: *const u8, len: usize) {
        abpmem::flush(ptr, len);
    }

    #[inline]
    fn fence() {
        abpmem::sfence();
    }
}

/// The p-OCC-ABtree of paper §5: durably linearizable OCC-ABtree.
pub type POccABTree<L = McsLock> = AbTree<false, L, DurablePersist>;

/// The p-Elim-ABtree of paper §5: durably linearizable Elim-ABtree.
pub type PElimABTree<L = McsLock> = AbTree<true, L, DurablePersist>;

/// Group-commit persistence policy: flushes are issued exactly where
/// [`DurablePersist`] issues them, but **every fence is elided**.
///
/// This is the WAL-batching half of a group-commit design: the tree pushes
/// its stores toward persistent memory continuously (so the write-back
/// traffic is unchanged), while the ordering/durability point is deferred to
/// whoever owns the persist lifecycle — in `crashkv`, the router committing
/// a window under its shards' commit locks, which issues one explicit
/// [`abpmem::sfence`] per *window* of acknowledged operations (capped by the
/// `acks_per_fence` knob).  Between two group fences an
/// operation's stores may or may not have reached persistent memory in any
/// order, which is exactly the window the crash injector models by rolling
/// back a prefix-complement of the unfenced operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct RelaxedPersist;

impl Persist for RelaxedPersist {
    const DURABLE: bool = true;

    #[inline]
    fn flush_range(ptr: *const u8, len: usize) {
        abpmem::flush(ptr, len);
    }

    /// Elided: durability is deferred to the committer's group fence.
    #[inline]
    fn fence() {}
}

/// A group-commit (WAL-batched) Elim-ABtree: durable only at explicit group
/// fences issued by whoever commits to it (see [`RelaxedPersist`]).  In
/// `crashkv` that is the router holding the shard's commit lock.
pub type WalElimABTree<L = McsLock> = AbTree<true, L, RelaxedPersist>;

pub use recovery::{recover, RecoveryReport};

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::*;
    use abpmem::PersistMode;
    use abtree::ConcurrentMap;

    /// abpmem's persist mode and counters are process-global, so every test
    /// in this crate holds this lock while it sets or reads them.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn durable_trees_behave_like_volatile_ones() {
        let _serial = serial();
        abpmem::set_mode(PersistMode::CountOnly);
        let occ: POccABTree = POccABTree::new();
        let elim: PElimABTree = PElimABTree::new();
        for t in [&occ as &dyn ConcurrentMap, &elim as &dyn ConcurrentMap] {
            let mut t = t.handle();
            for k in 0..2_000u64 {
                assert_eq!(t.insert(k, k * 3), None);
            }
            for k in 0..2_000u64 {
                assert_eq!(t.get(k), Some(k * 3));
            }
            for k in (0..2_000u64).step_by(2) {
                assert_eq!(t.delete(k), Some(k * 3));
            }
            for k in 0..2_000u64 {
                let expected = if k % 2 == 0 { None } else { Some(k * 3) };
                assert_eq!(t.get(k), expected);
            }
        }
        occ.check_invariants().unwrap();
        elim.check_invariants().unwrap();
    }

    #[test]
    fn relaxed_policy_flushes_but_never_fences() {
        // The WAL/group-commit trees issue every flush the durable trees
        // issue, but elide every fence: durability is deferred to the
        // committer's explicit group fence (crashkv's acks-per-fence knob).
        let _serial = serial();
        abpmem::set_mode(PersistMode::CountOnly);
        let tree: WalElimABTree = WalElimABTree::new();
        let mut tree = tree.handle();
        abpmem::reset_stats();
        for k in 0..500u64 {
            assert_eq!(tree.insert(k, k), None);
        }
        for k in 0..500u64 {
            assert_eq!(tree.delete(k), Some(k));
        }
        let stats = abpmem::stats();
        assert!(
            stats.flushes > 1_000,
            "relaxed trees must still flush every store (got {})",
            stats.flushes
        );
        assert_eq!(
            stats.fences, 0,
            "relaxed trees must never fence on their own"
        );
        const { assert!(RelaxedPersist::DURABLE) };
        // The committer's group fence is an ordinary abpmem fence.
        abpmem::sfence();
        assert_eq!(abpmem::stats().fences, 1);
    }

    #[test]
    fn simple_insert_issues_two_flushes_and_two_fences() {
        // Paper §5: "For a simple insert(key, val), two flushes must be used:
        // val must be flushed after it is written, and key must be flushed
        // after it is written."  (A flush = clwb + sfence.)  Their order is
        // abtree's `simple_updates_flush_value_then_key_and_only_on_change`.
        let _serial = serial();
        abpmem::set_mode(PersistMode::CountOnly);
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        // Pre-insert a key so the next insert is a simple (non-splitting)
        // insert into an existing leaf.
        tree.insert(1, 1);
        abpmem::reset_stats();
        assert_eq!(tree.insert(2, 20), None);
        let stats = abpmem::stats();
        assert_eq!(stats.flushes, 2, "simple insert must flush val then key");
        assert_eq!(stats.fences, 2);
    }

    #[test]
    fn successful_delete_issues_one_flush() {
        let _serial = serial();
        abpmem::set_mode(PersistMode::CountOnly);
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        for k in 0..5u64 {
            tree.insert(k, k);
        }
        abpmem::reset_stats();
        assert_eq!(tree.delete(3), Some(3));
        let stats = abpmem::stats();
        assert_eq!(stats.flushes, 1, "delete flushes only the emptied key slot");
        assert_eq!(stats.fences, 1);

        // An unsuccessful delete must not flush at all.
        abpmem::reset_stats();
        assert_eq!(tree.delete(999), None);
        assert_eq!(abpmem::stats().flushes, 0);
    }

    #[test]
    fn failed_insert_issues_no_flushes() {
        let _serial = serial();
        abpmem::set_mode(PersistMode::CountOnly);
        let tree: PElimABTree = PElimABTree::new();
        let mut tree = tree.handle();
        tree.insert(7, 70);
        abpmem::reset_stats();
        assert_eq!(tree.insert(7, 71), Some(70));
        assert_eq!(abpmem::stats().flushes, 0);
        assert_eq!(tree.get(7), Some(70));
    }

    #[test]
    fn splitting_insert_flushes_new_nodes_before_link() {
        let _serial = serial();
        abpmem::set_mode(PersistMode::CountOnly);
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        // Fill the root leaf exactly to capacity...
        for k in 0..abtree::MAX_KEYS as u64 {
            tree.insert(k, k);
        }
        // ...then one more insert forces a splitting insert.
        abpmem::reset_stats();
        assert_eq!(tree.insert(1_000, 1), None);
        let stats = abpmem::stats();
        // New nodes (two leaves + tagged node, then fixTagged's replacement
        // root) are multiple cache lines each, so many flushes.  That each
        // is flushed and fenced before its link is abtree's
        // `every_swing_flushes_and_fences_the_new_node_before_linking_it`.
        assert!(
            stats.flushes > 4,
            "splitting insert must flush whole new nodes (got {})",
            stats.flushes
        );
        assert!(stats.fences >= 2);
        tree.check_invariants().unwrap();
        for k in 0..abtree::MAX_KEYS as u64 {
            assert_eq!(tree.get(k), Some(k));
        }
        assert_eq!(tree.get(1_000), Some(1));
    }

    #[test]
    fn elimination_fires_and_skips_flushes_under_same_key_churn() {
        // The motivation for the p-Elim-ABtree (§1, §5): an eliminated
        // operation returns without writing to the tree, hence without
        // issuing any flush or fence.  Hammer one key from several threads
        // with Optane-like flush latency (so updates hold the leaf lock long
        // enough for same-key operations to overlap them) and check that a
        // substantial number of operations complete via elimination.
        use std::sync::Arc;
        // Elimination fires when same-key operations overlap in time, which
        // requires true parallelism: on a single hardware thread operations
        // only overlap at preemption boundaries (every few ms), far too
        // rarely to clear the assertion threshold.
        if abtree::par::detected_parallelism() < 2 {
            eprintln!("skipping elimination_fires_and_skips_flushes_under_same_key_churn: needs >1 hardware thread");
            return;
        }
        let _serial = serial();
        abpmem::set_mode(PersistMode::Simulated {
            flush_ns: 300,
            fence_ns: 100,
        });

        let tree: Arc<PElimABTree> = Arc::new(PElimABTree::new());
        // Seed some structure around the hot key.
        let mut seeder = tree.handle();
        for k in 0..8u64 {
            seeder.insert(k * 10, 0);
        }
        drop(seeder);
        abpmem::reset_stats();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let tree = Arc::clone(&tree);
            handles.push(std::thread::spawn(move || {
                let mut tree = tree.handle();
                // Updates that changed the tree: inserts that returned
                // `None`, deletes that returned `Some`.
                let (mut inserted, mut deleted) = (0u64, 0u64);
                for i in 0..10_000u64 {
                    if (i + t) % 2 == 0 {
                        inserted += u64::from(tree.insert(42, i).is_none());
                    } else {
                        deleted += u64::from(tree.delete(42).is_some());
                    }
                }
                (inserted, deleted)
            }));
        }
        let (mut inserted, mut deleted) = (0u64, 0u64);
        for h in handles {
            let (i, d) = h.join().unwrap();
            inserted += i;
            deleted += d;
        }
        abpmem::set_mode(PersistMode::CountOnly);

        let eliminations = tree.elimination_count();
        assert!(
            eliminations > 100,
            "expected publishing elimination to fire under single-key churn, got {eliminations}"
        );
        // An eliminated operation returns as a refused insert or a missed
        // delete, so it is in neither count.  The hot leaf holds at most
        // nine keys and never splits or merges, so the only flushes are the
        // simple insert's two (value, then key) and the delete's one, each
        // with its fence: an eliminated operation flushed and fenced
        // nothing.
        let expected = 2 * inserted + deleted;
        assert_eq!(
            abpmem::stats(),
            abpmem::PmStats {
                flushes: expected,
                fences: expected
            },
            "{inserted} inserts and {deleted} deletes changed the tree, {eliminations} eliminated"
        );
        tree.check_invariants().unwrap();
    }
}
