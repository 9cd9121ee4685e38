//! Durable index with crash recovery: builds a p-Elim-ABtree on the simulated
//! persistent-memory layer, injects the crash states the paper reasons about
//! (§5), runs recovery, and verifies the durably-linearizable outcome.
//!
//! Run with: `cargo run --release --example persistent_recovery`

use elim_abtree_repro::pabtree::{recover, PElimABTree};
use elim_abtree_repro::pmem::{self, PersistMode};

fn main() {
    // Count flushes/fences; switch to PersistMode::Real to execute actual
    // cache-line write-back instructions.
    pmem::set_mode(PersistMode::CountOnly);
    pmem::reset_stats();

    let tree: PElimABTree = PElimABTree::new();
    let mut session = tree.handle();
    for k in 0..100_000u64 {
        session.insert(k, k * 7);
    }
    let stats = pmem::stats();
    println!(
        "built durable index: 100k inserts issued {} flushes and {} fences",
        stats.flushes, stats.fences
    );

    // Simulate a crash that interrupted one insert and one delete after their
    // key stores were persisted, plus a structural update whose new pointer
    // was flushed but not yet unmarked.
    assert!(tree.force_partial_insert(1_000_000, 42));
    assert!(tree.force_partial_delete(5_000));
    tree.force_dirty_root_link();

    let report = recover(&tree);
    println!(
        "recovery visited {} leaves / {} internal nodes (height {}) in {:.2} ms",
        report.leaves,
        report.internal_nodes,
        report.height,
        report.elapsed_ns as f64 / 1e6
    );

    // Durable linearizability: the interrupted insert and delete were
    // linearized at the crash, so their effects survive.
    assert_eq!(session.get(1_000_000), Some(42));
    assert_eq!(session.get(5_000), None);
    tree.check_invariants()
        .expect("recovered tree is well-formed");
    println!(
        "recovered index holds {} keys and passes validation",
        tree.len()
    );
}
