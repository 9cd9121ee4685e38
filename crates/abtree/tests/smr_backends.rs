//! The trees under the hazard-pointer reclamation backend, plus the
//! stalled-reader separation the backend exists for.
//!
//! `abebr` offers two SMR policies behind one `Collector` facade: DEBRA-style
//! epochs (the default used everywhere else in the test suite) and hazard
//! pointers (`Collector::new_hp`).  These tests re-run the key-sum stress
//! validation with the trees mounted on an HP collector — exercising the
//! fine-mode protect/validate descent and the escalation on structural
//! updates — and then demonstrate the bounded-garbage property: a reader
//! parked inside a pinned region freezes reclamation tree-wide under EBR,
//! while under HP (fine mode) everyone else keeps reclaiming.

use std::sync::Arc;

use abebr::{Collector, SmrPolicy};
use abtree::AbTree;
use rand::prelude::*;

mod common;

type ElimTree = AbTree<true>;
type OccTree = AbTree<false>;

fn thread_count() -> usize {
    abtree::par::detected_parallelism().clamp(2, 8)
}

/// Mixed insert/delete/get churn with per-thread key-sum bookkeeping; the
/// final key sum of the tree must equal the net sum of successful updates.
fn run_mixed_workload<const ELIM: bool>(tree: Arc<AbTree<ELIM>>, ops_per_thread: usize) {
    let threads = thread_count();
    let mut workers = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(&tree);
        workers.push(std::thread::spawn(move || {
            let mut h = tree.handle();
            let mut rng = StdRng::seed_from_u64(0x5158 + t as u64);
            let mut net: i128 = 0;
            for _ in 0..ops_per_thread {
                let key = rng.gen_range(1..2048u64);
                match rng.gen_range(0..100u32) {
                    0..=39 => {
                        if h.insert(key, key ^ 0xF00D).is_none() {
                            net += key as i128;
                        }
                    }
                    40..=79 => {
                        if h.delete(key).is_some() {
                            net -= key as i128;
                        }
                    }
                    _ => {
                        if let Some(v) = h.get(key) {
                            assert_eq!(v, key ^ 0xF00D, "corrupt value for key {key}");
                        }
                    }
                }
            }
            net
        }));
    }
    let expected: i128 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(
        tree.key_sum() as i128,
        expected,
        "key-sum validation failed"
    );
    tree.check_invariants().unwrap();
}

#[test]
fn elim_abtree_key_sum_under_hazard_pointers() {
    let tree: Arc<ElimTree> = Arc::new(AbTree::with_collector(Collector::new_hp()));
    assert_eq!(tree.collector().policy(), SmrPolicy::Hp);
    run_mixed_workload(tree, 20_000);
}

#[test]
fn occ_abtree_key_sum_under_hazard_pointers() {
    let tree: Arc<OccTree> = Arc::new(AbTree::with_collector(Collector::new_hp()));
    run_mixed_workload(tree, 20_000);
}

/// A batch pins coarsely, so under hazard pointers its lockstep pass, which
/// prefetches every node it walks, and its ops keep every node of their
/// paths alive while two threads split, merge and retire.
#[test]
fn prefetch_walks_paths_under_hazard_pointers_while_splits_and_merges_run() {
    common::apply_while_splits_and_merges_run(Arc::new(ElimTree::with_collector(
        Collector::new_hp(),
    )));
}

#[test]
fn range_scans_are_consistent_under_hazard_pointers() {
    // Range scans take the coarse pin path; interleave them with point
    // updates and check every snapshot is a sane sorted window.
    let tree: Arc<ElimTree> = Arc::new(AbTree::with_collector(Collector::new_hp()));
    {
        let mut h = tree.handle();
        for k in (1..4096u64).step_by(2) {
            h.insert(k, k);
        }
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut h = tree.handle();
            let mut rng = StdRng::seed_from_u64(7);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = rng.gen_range(1..4096u64) | 1; // keep keys odd
                if rng.gen_bool(0.5) {
                    h.insert(k, k);
                } else {
                    h.delete(k);
                }
            }
        })
    };
    let mut h = tree.handle();
    let mut out = Vec::new();
    for lo in (1..3000u64).step_by(97) {
        h.range(lo, lo + 200, &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "unsorted snapshot");
        for &(k, v) in &out {
            assert!(
                k >= lo && k <= lo + 200 && k % 2 == 1,
                "key {k} out of window"
            );
            assert_eq!(v, k);
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

/// The acceptance scenario from the paper's §6 discussion of reclamation:
/// one reader parks inside a pinned region while a writer churns the tree.
/// Under EBR the parked pin freezes the epoch and garbage accumulates
/// without bound; under hazard pointers a parked *fine-mode* reader names
/// no nodes, so the writer's garbage keeps being reclaimed.
#[test]
fn stalled_reader_garbage_is_bounded_under_hp_not_ebr() {
    // Churn one tree per backend with a parked reader and report the
    // unreclaimed gauge at the end of the churn.
    fn churn_with_stalled_reader(policy: SmrPolicy) -> u64 {
        let tree: Arc<ElimTree> = Arc::new(AbTree::with_collector(Collector::with_policy(policy)));
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let reader = {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let local = tree.collector().register();
                // Fine mode: under HP this names nothing (no watermark, no
                // hazards); under EBR it is an ordinary epoch pin.
                let guard = local.pin_fine();
                ready_tx.send(()).unwrap();
                park_rx.recv().unwrap(); // ...parked while pinned...
                drop(guard);
            })
        };
        ready_rx.recv().unwrap();

        {
            let mut h = tree.handle();
            for round in 0..3 {
                for k in 1..4096u64 {
                    h.insert(k, round);
                }
                for k in 1..4096u64 {
                    h.delete(k);
                }
            }
        }
        let unreclaimed = tree.collector().stats().unreclaimed;
        park_tx.send(()).unwrap();
        reader.join().unwrap();
        unreclaimed
    }

    let ebr = churn_with_stalled_reader(SmrPolicy::Ebr);
    let hp = churn_with_stalled_reader(SmrPolicy::Hp);
    eprintln!("stalled reader: unreclaimed ebr={ebr} hp={hp}");

    assert!(
        ebr >= 1_000,
        "EBR should accumulate garbage behind a stalled reader (unreclaimed = {ebr})"
    );
    assert!(
        hp <= 256,
        "HP garbage must stay bounded with a stalled fine-mode reader (unreclaimed = {hp})"
    );
    assert!(hp < ebr, "backends should separate (ebr={ebr}, hp={hp})");
}
