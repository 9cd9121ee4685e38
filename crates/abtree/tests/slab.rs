//! The node slab across threads: a node made by one thread, retired by it,
//! freed by another thread's collection, comes back as a node of the next
//! tree instead of as freshly carved memory.
//!
//! One test in this binary on purpose: `abtree::slab::carved` counts for the
//! whole process, so nothing else may build trees while it is read.

use std::sync::mpsc;

use abebr::{Collector, SmrPolicy};
use abtree::{slab, ElimABTree};

const KEYS: u64 = 20_000;

/// Builds a tree on one thread (its splits make nodes and retire the leaves
/// they replace; the deletes' merges retire more) while a reader on a
/// second thread stays pinned, so nothing the builder retires can be freed
/// before the builder has exited.  Then the reader unpins and a third
/// thread collects, and a fourth drops the tree.  Returns how many retired
/// nodes were freed after the builder was gone.
fn build_collect_drop(policy: SmrPolicy) -> u64 {
    let collector = Collector::with_policy(policy);
    let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
    let (pinned, reader_pinned) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let freed_before = std::thread::scope(|scope| {
        let collector = &collector;
        let reader = scope.spawn(move || {
            let local = collector.register();
            let _guard = local.pin();
            pinned.send(()).expect("the test waits for the pin");
            released.recv().expect("the test releases the reader");
        });
        reader_pinned.recv().expect("the reader pins");
        scope
            .spawn(|| {
                let mut handle = tree.handle();
                for key in 1..=KEYS {
                    handle.insert(key, key);
                }
                for key in (1..=KEYS).step_by(2) {
                    handle.delete(key);
                }
            })
            .join()
            .expect("the builder");
        // The builder's session is gone: what it retired waits in the
        // collector for whichever thread collects next.
        let freed_before = collector.stats().freed;
        release.send(()).expect("the reader waits");
        reader.join().expect("the reader");
        freed_before
    });
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let local = collector.register();
            for _ in 0..8 {
                local.flush();
            }
        });
    });
    let stats = collector.stats();
    assert_eq!(
        stats.unreclaimed, 0,
        "{policy}: every retired node was freed"
    );
    std::thread::spawn(move || drop(tree))
        .join()
        .expect("the drop walk");
    stats.freed - freed_before
}

#[test]
fn retired_nodes_are_freed_across_threads_and_reused() {
    for policy in SmrPolicy::ALL {
        let freed = build_collect_drop(policy);
        assert!(
            freed > 0,
            "{policy}: the collecting thread freed the builder's nodes"
        );
        // Every thread above has exited, so each of its slots is back in the
        // depot: an identical second build needs no fresh memory.
        let carved = slab::carved();
        assert!(carved > 0);
        build_collect_drop(policy);
        assert_eq!(
            slab::carved(),
            carved,
            "{policy}: the second build reused the freed slots instead of carving"
        );
    }
}
