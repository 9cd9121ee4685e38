//! Cross-crate integration tests: the harness driving every structure, the
//! durable trees on the persistent-memory layer, and the workload
//! generators over a real tree.

use std::time::Duration;

use elim_abtree_repro::abtree::ElimABTree;
use elim_abtree_repro::pabtree::{recover, PElimABTree, POccABTree};
use elim_abtree_repro::pmem::{self, PersistMode};
use elim_abtree_repro::setbench::{
    make_structure, run_cell, structure_names, CellConfig, Workload,
};
use elim_abtree_repro::workload::{KeyDistribution, OperationMix};

#[test]
fn harness_validates_every_structure_under_skewed_update_heavy_load() {
    // The paper's hardest regime: 100% updates, Zipf(1).  Every structure in
    // the registry must pass the key-sum validation.
    for name in structure_names() {
        let cfg = CellConfig {
            structure: name.to_string(),
            workload: Workload::SetBench {
                update_percent: 100,
            },
            size: 2_000,
            zipf: 1.0,
            threads: 4,
            duration: Duration::from_millis(80),
            seed: 0xFEED,
            ..Default::default()
        };
        let result = run_cell(&cfg);
        assert!(result.validated, "{name} failed key-sum validation");
        assert!(result.total_ops > 0, "{name} made no progress");
    }
}

#[test]
fn descriptor_table_drives_harness_and_figures() {
    use elim_abtree_repro::setbench::{
        persistent_structures, volatile_structures, StructureCategory, STRUCTURES,
    };
    // Round-trip: every descriptor constructs an empty structure through
    // `make_structure`.
    for d in STRUCTURES {
        let s = make_structure(d.name);
        assert_eq!(s.key_sum(), 0, "{}", d.name);
    }
    // Names are unique across the table.
    let names = structure_names();
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate registry names");
    // The category split matches what fig17/table1 (persistent set) and the
    // microbenchmark figures (volatile set) iterate.
    for d in STRUCTURES {
        let persistent = persistent_structures().contains(&d.name);
        let volatile = volatile_structures().contains(&d.name);
        match d.category {
            StructureCategory::Persistent => assert!(persistent && !volatile, "{}", d.name),
            StructureCategory::Volatile => assert!(volatile && !persistent, "{}", d.name),
        }
    }
}

#[test]
fn registry_and_direct_construction_agree() {
    let from_registry = make_structure("elim-abtree");
    let direct: ElimABTree = ElimABTree::new();
    let mut registry_session = from_registry.handle();
    let mut direct_session = direct.handle();
    for k in 0..100u64 {
        assert_eq!(registry_session.insert(k, k), direct_session.insert(k, k));
    }
    for k in 0..100u64 {
        assert_eq!(registry_session.get(k), direct_session.get(k));
    }
}

#[test]
fn durable_tree_survives_crash_workflow_end_to_end() {
    pmem::set_mode(PersistMode::CountOnly);
    let tree: POccABTree = POccABTree::new();
    let mut tree = tree.handle();
    // A realistic mixed workload.
    for k in 0..20_000u64 {
        tree.insert(k, k + 1);
    }
    for k in (0..20_000u64).step_by(3) {
        tree.delete(k);
    }
    // Crash in the middle of two more updates.
    assert!(tree.force_partial_insert(50_000, 7));
    assert!(tree.force_partial_delete(10));
    let before_crash_survivors = tree.len();

    let report = recover(tree.map());
    tree.check_invariants().unwrap();
    assert_eq!(tree.get(50_000), Some(7));
    assert_eq!(tree.get(10), None);
    assert_eq!(report.keys as usize, tree.len());
    // `before_crash_survivors` was measured on the crash image, which already
    // contains the partially inserted key and lacks the partially deleted
    // one; recovery must preserve exactly that set (linearized at the crash).
    assert_eq!(tree.len(), before_crash_survivors);

    // The recovered tree remains fully operational.
    for k in 60_000..61_000u64 {
        assert_eq!(tree.insert(k, k), None);
    }
    assert_eq!(tree.len(), before_crash_survivors + 1_000);
}

#[test]
fn durable_elim_tree_matches_volatile_semantics_under_contention() {
    pmem::set_mode(PersistMode::CountOnly);
    let durable: std::sync::Arc<PElimABTree> = std::sync::Arc::new(PElimABTree::new());
    let volatile: std::sync::Arc<ElimABTree> = std::sync::Arc::new(ElimABTree::new());
    let dist = KeyDistribution::zipfian(256, 1.0);
    let mix = OperationMix::from_update_percent(100);

    for map_is_durable in [true, false] {
        let mut net: i128 = 0;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let durable = std::sync::Arc::clone(&durable);
                let volatile = std::sync::Arc::clone(&volatile);
                let dist = dist.clone();
                handles.push(scope.spawn(move || {
                    use rand::prelude::*;
                    let mut durable = durable.handle();
                    let mut volatile = volatile.handle();
                    let mut rng = StdRng::seed_from_u64(t);
                    let mut net = 0i128;
                    for _ in 0..20_000 {
                        let k = dist.sample(&mut rng);
                        let insert = matches!(
                            mix.sample(&mut rng),
                            elim_abtree_repro::workload::Operation::Insert
                        );
                        let delta = if map_is_durable {
                            if insert {
                                durable.insert(k, k).is_none() as i128 * k as i128
                            } else {
                                -(durable.delete(k).is_some() as i128 * k as i128)
                            }
                        } else if insert {
                            volatile.insert(k, k).is_none() as i128 * k as i128
                        } else {
                            -(volatile.delete(k).is_some() as i128 * k as i128)
                        };
                        net += delta;
                    }
                    net
                }));
            }
            for h in handles {
                net += h.join().unwrap();
            }
        });
        let sum = if map_is_durable {
            durable.key_sum()
        } else {
            volatile.key_sum()
        };
        assert_eq!(
            sum as i128, net,
            "key-sum validation (durable={map_is_durable})"
        );
    }
    durable.check_invariants().unwrap();
    volatile.check_invariants().unwrap();
}

#[test]
fn workload_generators_drive_real_structures() {
    use rand::prelude::*;
    let tree: ElimABTree = ElimABTree::new();
    let mut tree = tree.handle();
    let dist = KeyDistribution::zipfian(10_000, 1.0);
    let mix = OperationMix::from_shares(50, 10, 5, 5);
    let mut rng = StdRng::seed_from_u64(0);
    let mut scan_buf = Vec::new();
    let (mut scans, mut batches) = (0u32, 0u32);
    for _ in 0..50_000 {
        let k = dist.sample(&mut rng);
        match mix.sample(&mut rng) {
            elim_abtree_repro::workload::Operation::Insert => {
                tree.insert(k, k);
            }
            elim_abtree_repro::workload::Operation::Delete => {
                tree.delete(k);
            }
            elim_abtree_repro::workload::Operation::Find => {
                tree.get(k);
            }
            elim_abtree_repro::workload::Operation::Scan => {
                tree.range(k, k + 99, &mut scan_buf);
                assert!(scan_buf.windows(2).all(|w| w[0].0 < w[1].0));
                scans += 1;
            }
            elim_abtree_repro::workload::Operation::MGet => {
                // A batch runs key by key on the session.
                for key in [k, k + 1, k + 2, k + 3] {
                    assert!(tree.get(key).is_none_or(|v| v == key));
                }
                batches += 1;
            }
            elim_abtree_repro::workload::Operation::MPut => {
                for key in [k, k + 1] {
                    tree.insert(key, key);
                }
                assert_eq!(tree.get(k), Some(k));
                batches += 1;
            }
        }
    }
    assert!(scans > 0, "the scan share of the mix must be exercised");
    assert!(batches > 0, "the batch share of the mix must be exercised");
    tree.check_invariants().unwrap();
}
