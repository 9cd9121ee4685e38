//! The service layer is storage-agnostic: its store factory accepts any
//! `ConcurrentMap`, including the *durable* trees.  This test
//! builds a `KvService` whose store is a `pabtree::POccABTree` and checks
//! that (a) the full request surface works unchanged over a persistent
//! store, (b) the store really issues persist traffic (flush and fence
//! counters move under the default count-only persist mode), and (c) a
//! quiescent `pabtree::recover` pass over it is clean.

use abtree::ConcurrentMap;
use kvserve::KvService;
use pabtree::POccABTree;
use std::sync::Arc;

/// A service over a durable p-OCC-ABtree.  The test keeps its own handle
/// to the tree so it can run recovery on it afterwards — exactly how an
/// embedding application would retain the store for restart.
fn persistent_service() -> (KvService, Arc<POccABTree>) {
    let tree = Arc::new(POccABTree::new());
    let store = Arc::clone(&tree);
    let service = KvService::new(1, 1, move |_| {
        let store: Box<dyn ConcurrentMap> = Box::new(abtree::SharedMap(store));
        store
    });
    (service, tree)
}

#[test]
fn kvservice_over_durable_shards_persists_and_recovers() {
    let (service, tree) = persistent_service();
    abpmem::reset_stats();

    let mut router = service.router();
    let mut expected_sum = 0i128;
    for key in 1..=600u64 {
        assert_eq!(router.put(key, key * 7), None);
        expected_sum += key as i128;
    }
    for key in (1..=600u64).step_by(3) {
        assert_eq!(router.delete(key), Some(key * 7));
        expected_sum -= key as i128;
    }
    for key in 1..=600u64 {
        let expect = if key % 3 == 1 { None } else { Some(key * 7) };
        assert_eq!(router.get(key), expect, "key {key}");
    }
    assert_eq!(service.key_sum() as i128, expected_sum);

    // The store is genuinely durable: the writes above must have issued
    // cache-line flushes and store fences (counted, not executed, under
    // the default CountOnly mode).
    let stats = abpmem::stats();
    assert!(stats.flushes > 0, "the durable store issued no flushes");
    assert!(stats.fences > 0, "the durable store issued no fences");

    // Quiescent recovery finds a consistent tree holding exactly the keys
    // the service reports.
    drop(router);
    assert_eq!(pabtree::recover(tree.as_ref()).keys, 600 - 200);
    tree.check_invariants().expect("recovered tree invariants");
}
