//! A contended "live inventory" scenario: many threads repeatedly insert and
//! delete the *same* small set of hot keys (think: flash-sale stock items
//! going in and out of availability).  This is the update-heavy, highly
//! skewed workload the paper's publishing elimination targets (§1, §4): the
//! Elim-ABtree completes many of these operations without writing to the
//! tree at all.
//!
//! With two or more hardware threads the example fails (exits non-zero)
//! if no operation was eliminated, since that means the elimination path
//! is dead; on one hardware thread there is no concurrent same-key pair to
//! eliminate, so it prints `skipped: ...` instead.
//!
//! Run with: `cargo run --release --example hot_key_counter`

use std::sync::{Arc, Barrier};
use std::time::Instant;

use elim_abtree_repro::abtree::{AbTree, ElimABTree, OccABTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn churn<const ELIM: bool>(map: &Arc<AbTree<ELIM>>, threads: usize, ops_per_thread: u64) -> f64 {
    let hot_keys = 8u64;
    // Workers start together, so a late-scheduled thread cannot leave the
    // others to churn alone (nothing to eliminate without a concurrent
    // same-key update).
    let barrier = &Barrier::new(threads);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let map = Arc::clone(map);
            scope.spawn(move || {
                // One session per worker, the tree's own `TreeHandle`: the
                // EBR registration lives here, not in per-op lookups, and
                // ops are statically dispatched.
                let mut session = map.handle();
                // Key and operation are drawn independently, so every thread
                // sends both inserts and deletes to every hot key, and two
                // threads often update one key the same way at once: the
                // pairs elimination can cancel.
                let mut rng = StdRng::seed_from_u64(t as u64 + 1);
                barrier.wait();
                for i in 0..ops_per_thread {
                    let key = rng.gen_range(0..hot_keys);
                    if rng.gen_bool(0.5) {
                        session.insert(key, i);
                    } else {
                        session.delete(key);
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as u64 * ops_per_thread) as f64 / secs / 1e6
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let ops = 500_000u64;

    let occ: Arc<OccABTree> = Arc::new(OccABTree::new());
    let elim: Arc<ElimABTree> = Arc::new(ElimABTree::new());
    // Seed some surrounding keys so the hot leaf is an interior leaf.
    let mut occ_session = occ.handle();
    let mut elim_session = elim.handle();
    for k in 0..64u64 {
        occ_session.insert(1_000 + k, 0);
        elim_session.insert(1_000 + k, 0);
    }
    drop(occ_session);
    drop(elim_session);

    let occ_mops = churn(&occ, threads, ops);
    let elim_mops = churn(&elim, threads, ops);

    println!("hot-key churn with {threads} threads, {ops} ops/thread:");
    println!("  occ-abtree : {occ_mops:.2} Mops/s");
    println!(
        "  elim-abtree: {elim_mops:.2} Mops/s ({:.1}% of operations eliminated)",
        100.0 * elim.elimination_count() as f64 / (threads as u64 * ops) as f64
    );
    occ.check_invariants().unwrap();
    elim.check_invariants().unwrap();

    if threads < 2 {
        println!(
            "skipped: the elimination check needs 2 or more hardware threads (have {threads})"
        );
    } else if elim.elimination_count() == 0 {
        eprintln!("no operation was eliminated: the elimination path is dead");
        std::process::exit(1);
    }
}
