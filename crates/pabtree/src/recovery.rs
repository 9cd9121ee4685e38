//! Post-crash recovery (paper §5).
//!
//! "The recovery procedure for the p-OCC-ABtree is extremely simple: it
//! traverses the tree in persistent memory starting from the root (which is
//! in a known location), and fixes all non-persisted fields (i.e. setting
//! size to the actual number of pointers/values in the node, and resetting
//! version, lock state, and the marked bit to their initial values)."
//!
//! That traversal is [`AbTree::recover`], one walk of the tree: it repairs
//! each node and counts it in the same pass, so [`recover`] below times that
//! one call and builds its report from the statistics it returns, with no
//! second walk.
//!
//! In this reproduction the "persistent image" after a simulated crash is the
//! tree as it exists in memory (README, "Hardware notes"); partial-update states
//! are constructed explicitly by the crash-simulation helpers in the `abtree`
//! crate and exercised by the tests below.

use std::time::Instant;

use absync::RawNodeLock;
use abtree::{AbTree, Persist};

/// Summary of a recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of keys present after recovery.
    pub keys: u64,
    /// Number of leaves traversed.
    pub leaves: u64,
    /// Number of internal nodes traversed (including tagged nodes).
    pub internal_nodes: u64,
    /// Height of the recovered tree.
    pub height: u64,
    /// Wall-clock time spent recovering, in nanoseconds.
    pub elapsed_ns: u128,
}

/// Runs the recovery procedure on a (quiescent) durable tree and reports what
/// was found.  Also usable on volatile trees in tests (recovery is then a
/// semantic no-op).
pub fn recover<const ELIM: bool, L: RawNodeLock, P: Persist>(
    tree: &AbTree<ELIM, L, P>,
) -> RecoveryReport {
    let start = Instant::now();
    let stats = tree.recover();
    let elapsed_ns = start.elapsed().as_nanos();
    RecoveryReport {
        keys: stats.keys,
        leaves: stats.leaves,
        internal_nodes: stats.internal_nodes + stats.tagged_nodes,
        height: stats.height,
        elapsed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PElimABTree, POccABTree, RelaxedPersist};
    use abpmem::PersistMode;
    use absync::McsLock;
    use rand::prelude::*;
    use std::sync::MutexGuard;

    fn quiet() -> MutexGuard<'static, ()> {
        let serial = crate::tests::serial();
        abpmem::set_mode(PersistMode::CountOnly);
        serial
    }

    #[test]
    fn recovery_preserves_contents_after_normal_operation() {
        let _s = quiet();
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        let mut rng = StdRng::seed_from_u64(1);
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..30_000 {
            let k = rng.gen_range(0..5_000u64);
            if rng.gen_bool(0.6) {
                if oracle.insert(k, k).is_some() {
                    oracle.insert(k, k);
                }
                tree.insert(k, k);
            } else {
                oracle.remove(&k);
                tree.delete(k);
            }
        }
        let before: Vec<(u64, u64)> = tree.collect();
        let report = recover(tree.map());
        tree.check_invariants().unwrap();
        assert_eq!(tree.collect(), before, "recovery must not change contents");
        assert_eq!(report.keys as usize, before.len());
        assert!(report.height >= 2);
    }

    #[test]
    fn recovery_is_idempotent() {
        let _s = quiet();
        let tree: PElimABTree = PElimABTree::new();
        let mut tree = tree.handle();
        for k in 0..3_000u64 {
            tree.insert(k, k + 7);
        }
        let r1 = recover(tree.map());
        let r2 = recover(tree.map());
        assert_eq!(r1.keys, r2.keys);
        assert_eq!(r1.leaves, r2.leaves);
        assert_eq!(r1.height, r2.height);
        tree.check_invariants().unwrap();
        for k in 0..3_000u64 {
            assert_eq!(tree.get(k), Some(k + 7));
        }
    }

    #[test]
    fn crash_during_simple_insert_is_linearized_at_the_crash() {
        // Paper §5: an insert whose key was flushed but whose second version
        // increment had not happened is linearized at the crash, so recovery
        // must surface the key.
        let _s = quiet();
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        for k in 0..200u64 {
            tree.insert(k, k);
        }
        assert!(tree.force_partial_insert(5_000, 555));
        let report = recover(tree.map());
        tree.check_invariants().unwrap();
        assert_eq!(tree.get(5_000), Some(555));
        assert_eq!(report.keys, 201);
        // The tree must be fully operational after recovery.
        assert_eq!(tree.insert(5_000, 1), Some(555));
        assert_eq!(tree.delete(5_000), Some(555));
    }

    #[test]
    fn crash_during_delete_is_linearized_at_the_crash() {
        let _s = quiet();
        let tree: PElimABTree = PElimABTree::new();
        let mut tree = tree.handle();
        for k in 0..200u64 {
            tree.insert(k, k);
        }
        assert!(tree.force_partial_delete(100));
        recover(tree.map());
        tree.check_invariants().unwrap();
        assert_eq!(tree.get(100), None, "flushed delete must survive the crash");
        assert_eq!(tree.len(), 199);
        // Re-inserting works normally afterwards.
        assert_eq!(tree.insert(100, 1), None);
    }

    #[test]
    fn crash_with_unmarked_dirty_pointer_is_repaired() {
        let _s = quiet();
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        for k in 0..5_000u64 {
            tree.insert(k, k);
        }
        tree.force_dirty_root_link();
        assert!(tree.has_dirty_links());
        let report = recover(tree.map());
        assert!(!tree.has_dirty_links());
        assert_eq!(report.keys, 5_000);
        tree.check_invariants().unwrap();
        // Normal operation resumes.
        for k in 0..5_000u64 {
            assert_eq!(tree.get(k), Some(k));
        }
    }

    #[test]
    fn multiple_interrupted_operations_recover_together() {
        let _s = quiet();
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        for k in (0..1_000u64).step_by(2) {
            tree.insert(k, k);
        }
        // Three crashes' worth of partial state at once (different leaves).
        assert!(tree.force_partial_insert(1, 11));
        assert!(tree.force_partial_insert(501, 511));
        assert!(tree.force_partial_delete(600));
        let report = recover(tree.map());
        tree.check_invariants().unwrap();
        assert_eq!(tree.get(1), Some(11));
        assert_eq!(tree.get(501), Some(511));
        assert_eq!(tree.get(600), None);
        assert_eq!(report.keys, 500 + 2 - 1);
    }

    #[test]
    fn recovering_an_empty_tree_reports_every_field() {
        // The degenerate image: a crash before any operation completed.
        // Recovery must walk the single empty root leaf and report it
        // exactly — every field, not just the key count.
        let _s = quiet();
        let tree: POccABTree = POccABTree::new();
        let report = recover(&tree);
        assert_eq!(report.keys, 0);
        assert_eq!(report.leaves, 1, "an empty tree is one empty root leaf");
        assert_eq!(report.internal_nodes, 0);
        assert_eq!(report.height, 1);
        // elapsed_ns is wall-clock and may legitimately be 0 on a coarse
        // timer; the field just has to be populated sanely (< 1s here).
        assert!(report.elapsed_ns < 1_000_000_000);
        tree.check_invariants().unwrap();
        // The recovered empty tree is fully operational.
        let mut tree = tree.handle();
        assert_eq!(tree.insert(1, 10), None);
        assert_eq!(tree.get(1), Some(10));
    }

    #[test]
    fn crash_before_the_first_fence_recovers_consistently() {
        // A WAL (group-commit) tree that crashes before its committer ever
        // issued a group fence: no operation is durably *ordered*, but the
        // flushed image must still recover to a consistent dictionary.  On
        // top of the unfenced contents, one torn in-flight insert (key and
        // value stores persisted, version/size not) must be surfaced by
        // recovery exactly as for the per-op durable trees.
        let _s = quiet();
        let tree: AbTree<false, McsLock, RelaxedPersist> = AbTree::new();
        abpmem::reset_stats();
        let mut h = tree.handle();
        for k in 0..300u64 {
            h.insert(k, k + 1);
        }
        assert_eq!(
            abpmem::stats().fences,
            0,
            "no group fence was issued: this is the crash-before-first-fence image"
        );
        assert!(h.force_partial_insert(10_000, 42));
        let report = recover(&tree);
        tree.check_invariants().unwrap();
        assert_eq!(report.keys, 301, "torn insert linearizes at the crash");
        assert_eq!(tree.stats().keys, report.keys);
        let mut h = tree.handle();
        assert_eq!(h.get(10_000), Some(42));
        assert_eq!(h.get(299), Some(300));
    }

    #[test]
    fn recovery_report_matches_tree_stats_field_by_field() {
        // Cross-check every RecoveryReport field against the tree's own
        // structural statistics on a multi-level tree with partial damage.
        let _s = quiet();
        let tree: PElimABTree = PElimABTree::new();
        let mut h = tree.handle();
        for k in 0..5_000u64 {
            h.insert(k, k);
        }
        assert!(h.force_partial_delete(1_234));
        tree.force_dirty_root_link();
        let report = recover(&tree);
        let stats = tree.stats();
        assert_eq!(report.keys, stats.keys);
        assert_eq!(report.keys, 4_999, "partially deleted key stays deleted");
        assert_eq!(report.leaves, stats.leaves);
        assert!(report.leaves >= 4_999 / abtree::MAX_KEYS as u64);
        assert_eq!(
            report.internal_nodes,
            stats.internal_nodes + stats.tagged_nodes
        );
        assert!(report.internal_nodes > 0);
        assert_eq!(report.height, stats.height);
        assert!(report.height >= 3);
        assert!(!tree.has_dirty_links(), "recovery must clear dirty links");
        tree.check_invariants().unwrap();
    }

    #[test]
    fn one_recovery_walk_reports_the_tree_it_leaves_behind() {
        // A torn insert and a dirty root link, planted twice: once for the
        // tree's own `recover`, once for `pabtree::recover`.  Each must
        // leave no dirty link and report exactly what a fresh walk counts.
        let _s = quiet();
        let tree: PElimABTree = PElimABTree::new();
        let mut h = tree.handle();
        for k in 0..5_000u64 {
            h.insert(k, k);
        }
        assert!(h.force_partial_insert(7_000, 1));
        h.force_dirty_root_link();
        let stats = tree.recover();
        assert_eq!(stats, tree.stats());
        assert_eq!(stats.keys, 5_001);
        assert!(!tree.has_dirty_links());

        assert!(h.force_partial_insert(8_000, 2));
        h.force_dirty_root_link();
        let report = recover(&tree);
        assert!(!tree.has_dirty_links());
        let stats = tree.stats();
        assert_eq!(report.keys, 5_002);
        assert_eq!(
            (report.keys, report.leaves, report.height),
            (stats.keys, stats.leaves, stats.height)
        );
        assert_eq!(
            report.internal_nodes,
            stats.internal_nodes + stats.tagged_nodes
        );
        tree.check_invariants().unwrap();
        assert_eq!((h.get(7_000), h.get(8_000)), (Some(1), Some(2)));
    }

    #[test]
    fn recovery_report_counts_nodes() {
        let _s = quiet();
        let tree: POccABTree = POccABTree::new();
        let mut tree = tree.handle();
        for k in 0..20_000u64 {
            tree.insert(k, k);
        }
        let report = recover(tree.map());
        assert_eq!(report.keys, 20_000);
        assert!(report.leaves >= 20_000 / abtree::MAX_KEYS as u64);
        assert!(report.internal_nodes > 0);
        assert!(report.height >= 3);
    }
}
