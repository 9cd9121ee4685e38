//! Stress drivers shared by the concurrency suites, which run them under
//! each reclamation backend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use abtree::{AbTree, PointOp};
use rand::prelude::*;

/// One thread applies batches while two threads split and merge the tree
/// under it: each writer grows its own run of keys (splitting leaves and,
/// higher up, internal nodes) and then deletes it again (merging them),
/// over and over, so the batches' lockstep passes keep walking into nodes
/// that are being unlinked and retired.  A batch reads random writer keys,
/// and every value found must be one a writer stored; it also puts a run
/// of the applier's own keys and deletes them again, splitting and merging
/// leaves its own later ops' paths name, and each of those answers is
/// exact.  Ends with the key-sum and invariant checks.
pub fn apply_while_splits_and_merges_run<const ELIM: bool>(tree: Arc<AbTree<ELIM>>) {
    const ROUNDS: u64 = 12;
    const RUN: u64 = 1_500;
    let writing = Arc::new(AtomicBool::new(true));
    let start = Arc::new(Barrier::new(3));
    let applier = {
        let (tree, writing, start) = (Arc::clone(&tree), Arc::clone(&writing), Arc::clone(&start));
        std::thread::spawn(move || {
            let mut h = tree.handle();
            start.wait();
            let mut rng = StdRng::seed_from_u64(0x9F_E7C4);
            let (mut ops, mut answers) = (Vec::new(), Vec::new());
            let mut batches = 0u64;
            while writing.load(Ordering::Relaxed) || batches < 100 {
                let reads = rng.gen_range(1..200);
                let own = 2 * RUN + rng.gen_range(0..100);
                let owned = own..own + rng.gen_range(0..30);
                ops.clear();
                ops.extend(owned.clone().map(|key| PointOp::Put {
                    key,
                    value: key ^ 0xF00D,
                }));
                ops.extend((0..reads).map(|_| PointOp::Get {
                    key: rng.gen_range(0..2 * RUN),
                }));
                ops.extend(owned.map(|key| PointOp::Delete { key }));
                answers.clear();
                h.apply(&ops, &mut answers);
                assert_eq!(answers.len(), ops.len());
                for (&op, &answer) in ops.iter().zip(&answers) {
                    match op {
                        PointOp::Get { key } => {
                            assert!(answer.is_none_or(|v| v == key ^ 0xF00D), "corrupt {key}")
                        }
                        PointOp::Put { key, .. } => assert_eq!(answer, None, "put {key}"),
                        PointOp::Delete { key } => {
                            assert_eq!(answer, Some(key ^ 0xF00D), "delete {key}")
                        }
                    }
                }
                batches += 1;
            }
            batches
        })
    };
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (tree, start) = (Arc::clone(&tree), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut h = tree.handle();
                start.wait();
                // Writer `w` owns the keys congruent to `w` mod 2.
                let run = (0..RUN).map(|i| 2 * i + w);
                let mut net = 0i128;
                for round in 0..ROUNDS {
                    for key in run.clone() {
                        assert_eq!(h.insert(key, key ^ 0xF00D), None);
                    }
                    // The last round leaves every other key behind.
                    for key in run.clone().filter(|k| round + 1 < ROUNDS || k % 4 < 2) {
                        assert_eq!(h.delete(key), Some(key ^ 0xF00D));
                    }
                }
                for key in run.filter(|k| k % 4 >= 2) {
                    net += key as i128;
                }
                net
            })
        })
        .collect();
    let expected: i128 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    writing.store(false, Ordering::Relaxed);
    assert!(applier.join().unwrap() >= 100);
    assert_eq!(
        tree.key_sum() as i128,
        expected,
        "key-sum validation failed"
    );
    tree.check_invariants().unwrap();
}
