//! The service layer is storage-agnostic: its shard factory accepts any
//! `ConcurrentMap`, including the *durable* trees.  This test
//! builds a `KvService` whose shards are `pabtree::POccABTree` instances
//! and checks that (a) the full request surface works unchanged over
//! persistent shards, (b) the shards really issue persist traffic (flush
//! and fence counters move under the default count-only persist mode), and
//! (c) a quiescent `pabtree::recover` pass over each shard is clean.

use abtree::ConcurrentMap;
use kvserve::KvService;
use pabtree::POccABTree;
use std::sync::Arc;

/// A service over durable p-OCC-ABtree shards.  The factory keeps its own
/// handles to the trees so the test can run recovery on them afterwards —
/// exactly how an embedding application would retain shard ownership for
/// restart.
fn persistent_service(shards: usize) -> (KvService, Vec<Arc<POccABTree>>) {
    let trees: Vec<Arc<POccABTree>> = (0..shards).map(|_| Arc::new(POccABTree::new())).collect();
    let factory_trees = trees.clone();
    let service = KvService::new(shards, 1, move |shard| {
        let tree: Box<dyn ConcurrentMap> =
            Box::new(abtree::SharedMap(Arc::clone(&factory_trees[shard])));
        tree
    });
    (service, trees)
}

#[test]
fn kvservice_over_durable_shards_persists_and_recovers() {
    let (service, trees) = persistent_service(4);
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

    // The shards are genuinely durable: the writes above must have issued
    // cache-line flushes and store fences (counted, not executed, under
    // the default CountOnly mode).
    let stats = abpmem::stats();
    assert!(stats.flushes > 0, "durable shards issued no flushes");
    assert!(stats.fences > 0, "durable shards issued no fences");

    // Quiescent recovery over every shard finds a consistent tree holding
    // exactly the keys the service reports.
    drop(router);
    let recovered_keys: u64 = trees
        .iter()
        .map(|tree| pabtree::recover(tree.as_ref()).keys)
        .sum();
    assert_eq!(recovered_keys, 600 - 200);
    for tree in &trees {
        tree.check_invariants().expect("recovered shard invariants");
    }
}
