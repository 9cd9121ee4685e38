//! Registry of benchmarkable data structures.
//!
//! Every structure in this repository is driven as a
//! `Box<dyn abtree::ConcurrentMap>`: each worker thread opens one
//! [`abtree::MapHandle`] via `ConcurrentMap::handle` for its whole run, and
//! `ConcurrentMap::key_sum` (the harness's validation step, paper §6
//! "Validation") is read quiescently after the workers join.
//!
//! The registry itself is a single data-driven table: one
//! [`StructureDescriptor`] per structure, carrying its name, its
//! volatile/persistent category, whether its range scans are atomic
//! snapshots, and a factory function.  Everything else —
//! [`structure_names`], [`make_structure`], the harness and the figure
//! sweeps — iterates this table.  **Registering a new
//! structure therefore means adding exactly one descriptor line below**
//! (plus `impl abtree::ConcurrentMap` next to the structure itself).

use abebr::SmrPolicy;
use abtree::{ConcurrentMap, ElimABTree, OccABTree};
use baselines::{CaTree, CowABTree, FpTree, LazySkipList, LockExtBst};
use pabtree::{PElimABTree, POccABTree};

/// Whether a structure's contents survive a crash (drives which figures it
/// appears in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureCategory {
    /// DRAM-only structure, compared in Figures 12-16.
    Volatile,
    /// Durably linearizable structure on the persistent-memory model,
    /// compared in Figure 17 and Table 1.
    Persistent,
}

/// One registered data structure: the single source of truth for its
/// benchmark name, category, scan guarantee, and construction.
pub struct StructureDescriptor {
    /// Registry name: the one name the structure has, printed by every
    /// figure, conctest cell and report.
    pub name: &'static str,
    /// Volatile or persistent.
    pub category: StructureCategory,
    /// Whether a `range` result is one atomic snapshot of the window (the
    /// (a,b)-trees, which validate node versions) rather than a walk whose
    /// elements are each linearizable on its own (every baseline).  The
    /// `conctest` checker holds exactly these structures to joint scan
    /// atomicity.
    pub snapshot_scans: bool,
    /// Builds a fresh, empty instance.
    pub factory: Factory,
}

/// Builds a fresh, empty structure reclaiming under the given SMR policy.
/// Structures without a reclamation collector (the FPtree) ignore the
/// policy.
pub type Factory = fn(SmrPolicy) -> Box<dyn ConcurrentMap>;

use StructureCategory::{Persistent, Volatile};

/// Factory helper: builds `T` on a collector running the requested SMR
/// backend.  Turbofishing the concrete type pins generic defaults (e.g. the
/// MCS lock), which a bare closure would leave unconstrained.
macro_rules! smr_factory {
    ($ty:ty) => {{
        fn build(policy: ::abebr::SmrPolicy) -> Box<dyn ::abtree::ConcurrentMap> {
            Box::new(<$ty>::with_collector(::abebr::Collector::with_policy(
                policy,
            )))
        }
        build
    }};
}
pub(crate) use smr_factory;

/// Factory helper for structures that do not reclaim through a collector:
/// builds the default instance whatever the requested policy.
fn boxed_no_smr<T: ConcurrentMap + Default + 'static>(
    _policy: SmrPolicy,
) -> Box<dyn ConcurrentMap> {
    Box::new(T::default())
}

/// The descriptor table.  Order is presentation order in the figures:
/// volatile structures first (Figures 12-16), then the persistent ones
/// (Figure 17, Table 1).
pub static STRUCTURES: &[StructureDescriptor] = &[
    StructureDescriptor {
        name: "elim-abtree",
        category: Volatile,
        snapshot_scans: true,
        factory: smr_factory!(ElimABTree),
    },
    StructureDescriptor {
        name: "occ-abtree",
        category: Volatile,
        snapshot_scans: true,
        factory: smr_factory!(OccABTree),
    },
    StructureDescriptor {
        name: "catree",
        category: Volatile,
        snapshot_scans: false,
        factory: smr_factory!(CaTree),
    },
    StructureDescriptor {
        name: "lf-abtree(cow)",
        category: Volatile,
        snapshot_scans: false,
        factory: smr_factory!(CowABTree),
    },
    StructureDescriptor {
        name: "ext-bst-lock",
        category: Volatile,
        snapshot_scans: false,
        factory: smr_factory!(LockExtBst),
    },
    StructureDescriptor {
        name: "skiplist-lazy",
        category: Volatile,
        snapshot_scans: false,
        factory: smr_factory!(LazySkipList),
    },
    StructureDescriptor {
        name: "p-elim-abtree",
        category: Persistent,
        snapshot_scans: true,
        factory: smr_factory!(PElimABTree),
    },
    StructureDescriptor {
        name: "p-occ-abtree",
        category: Persistent,
        snapshot_scans: true,
        factory: smr_factory!(POccABTree),
    },
    StructureDescriptor {
        name: "fptree",
        category: Persistent,
        snapshot_scans: false,
        factory: boxed_no_smr::<FpTree>,
    },
];

/// Every structure name known to the registry, in table order.
pub fn structure_names() -> Vec<&'static str> {
    STRUCTURES.iter().map(|d| d.name).collect()
}

/// Names of the structures in `category`, in table order.
pub fn names_in(category: StructureCategory) -> Vec<&'static str> {
    STRUCTURES
        .iter()
        .filter(|d| d.category == category)
        .map(|d| d.name)
        .collect()
}

/// Volatile structures compared in Figures 12-16.
pub fn volatile_structures() -> Vec<&'static str> {
    names_in(Volatile)
}

/// Persistent structures compared in Figure 17 and Table 1.
pub fn persistent_structures() -> Vec<&'static str> {
    names_in(Persistent)
}

/// Looks up the descriptor registered under `name`.
pub fn descriptor(name: &str) -> Option<&'static StructureDescriptor> {
    STRUCTURES.iter().find(|d| d.name == name)
}

/// Instantiates a structure by name under the default SMR policy (EBR).
/// Panics on unknown names.
pub fn make_structure(name: &str) -> Box<dyn ConcurrentMap> {
    make_structure_smr(name, SmrPolicy::default())
}

/// Instantiates a structure by name with its reclamation collector running
/// the given SMR backend (`--smr ebr|hp` of the `figures` runner).
/// Structures that do not reclaim through a collector ignore the policy.
/// Panics on unknown names.
pub fn make_structure_smr(name: &str, policy: SmrPolicy) -> Box<dyn ConcurrentMap> {
    match descriptor(name) {
        Some(d) => (d.factory)(policy),
        None => panic!("unknown data structure: {name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn registry_builds_every_structure() {
        for name in structure_names() {
            let s = make_structure(name);
            let mut session = s.handle();
            assert_eq!(session.insert(1, 2), None);
            assert_eq!(session.get(1), Some(2));
            drop(session);
            assert_eq!(s.key_sum(), 1, "{name}");
        }
    }

    /// Every registry structure must run under both SMR backends: build it
    /// per policy, do a small update/read/delete workload that forces
    /// retirements, and check the collector actually runs the requested
    /// backend (where the structure has one).
    #[test]
    fn registry_builds_every_structure_under_both_smr_policies() {
        for policy in SmrPolicy::ALL {
            for name in structure_names() {
                let s = make_structure_smr(name, policy);
                let mut session = s.handle();
                for k in 1..200u64 {
                    assert_eq!(session.insert(k, k * 3), None, "{name}/{policy}");
                }
                for k in 1..200u64 {
                    assert_eq!(session.get(k), Some(k * 3), "{name}/{policy}");
                }
                for k in 1..200u64 {
                    assert_eq!(session.delete(k), Some(k * 3), "{name}/{policy}");
                }
                drop(session);
                // The reclamation gauges must stay scrapeable per backend
                // (not every structure retires in this small workload —
                // e.g. the CA tree only retires on adaptation).
                if let Some(stats) = s.ebr_stats() {
                    assert!(stats.freed <= stats.retired, "{name}/{policy}");
                }
            }
        }
    }

    /// The round-trip property of the descriptor table: every name resolves
    /// back to its own descriptor, both the factory and the lookup by name
    /// build an empty structure, and names are unique.
    #[test]
    fn descriptor_table_round_trips() {
        let mut seen = HashSet::new();
        for d in STRUCTURES {
            assert!(seen.insert(d.name), "duplicate registry name: {}", d.name);
            let built = (d.factory)(SmrPolicy::default());
            assert_eq!(built.key_sum(), 0, "{}", d.name);
            let via_lookup = make_structure(d.name);
            assert_eq!(via_lookup.key_sum(), 0, "{}", d.name);
            assert!(
                std::ptr::eq(descriptor(d.name).unwrap(), d),
                "descriptor lookup returned a different entry for {}",
                d.name
            );
        }
        assert_eq!(seen.len(), STRUCTURES.len());
    }

    /// Volatile/persistent categorisation must match the split the figure
    /// drivers rely on: fig17/table1 run exactly the persistent set, the
    /// microbenchmark figures exactly the volatile set, and together they
    /// partition the registry.
    #[test]
    fn categories_partition_the_registry() {
        let volatile = volatile_structures();
        let persistent = persistent_structures();
        assert_eq!(
            persistent,
            vec!["p-elim-abtree", "p-occ-abtree", "fptree"],
            "fig17/table1 persistent set changed"
        );
        assert_eq!(volatile.len() + persistent.len(), STRUCTURES.len());
        let all: HashSet<_> = structure_names().into_iter().collect();
        let split: HashSet<_> = volatile.iter().chain(persistent.iter()).copied().collect();
        assert_eq!(all, split);
        assert!(volatile.iter().all(|n| !persistent.contains(n)));
    }

    #[test]
    #[should_panic(expected = "no-such-tree")]
    fn unknown_name_panics_with_message() {
        make_structure("no-such-tree");
    }

    /// The scan column `conctest` relies on: exactly the (a,b)-trees (which
    /// validate leaf versions) promise atomic snapshots.  And every
    /// structure's own walk must answer `range` exactly: after a seeded
    /// sequential workload, about fifty seeded windows (empty, single-key,
    /// straddling, full) match a `BTreeMap` oracle.
    #[test]
    fn scan_support_metadata() {
        let snapshot: Vec<_> = STRUCTURES
            .iter()
            .filter(|d| d.snapshot_scans)
            .map(|d| d.name)
            .collect();
        assert_eq!(
            snapshot,
            vec!["elim-abtree", "occ-abtree", "p-elim-abtree", "p-occ-abtree"],
            "the set conctest checks for joint scan atomicity"
        );
        let mut out = Vec::new();
        for d in STRUCTURES {
            let s = (d.factory)(SmrPolicy::default());
            let mut session = s.handle();
            for k in [2u64, 3, 5, 8, 13] {
                session.insert(k, k * 10);
            }
            session.range(3, 8, &mut out);
            assert_eq!(out, vec![(3, 30), (5, 50), (8, 80)], "{}", d.name);
            assert_eq!(session.scan_len(0, 14), 5, "{}", d.name);

            let mut rng = StdRng::seed_from_u64(0x5CA7);
            let mut oracle = BTreeMap::from([(2, 20), (3, 30), (5, 50), (8, 80), (13, 130)]);
            for _ in 0..3_000 {
                let k = rng.gen_range(0..1_000u64);
                if rng.gen_bool(0.6) {
                    let expected = oracle.get(&k).copied();
                    oracle.entry(k).or_insert(k + 7);
                    assert_eq!(session.insert(k, k + 7), expected, "{}", d.name);
                } else {
                    assert_eq!(session.delete(k), oracle.remove(&k), "{}", d.name);
                }
            }
            let mut windows = vec![(0, abtree::EMPTY_KEY - 1), (0, 999), (5, 4), (1_000, 2_000)];
            windows.extend(oracle.keys().step_by(97).map(|&k| (k, k)));
            while windows.len() < 50 {
                let lo = rng.gen_range(0..1_100u64);
                windows.push((lo, lo + rng.gen_range(0..200)));
            }
            for (lo, hi) in windows {
                session.range(lo, hi, &mut out);
                let expected: Vec<(u64, u64)> = if lo > hi {
                    Vec::new()
                } else {
                    oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
                };
                assert_eq!(out, expected, "{}: range({lo}, {hi})", d.name);
            }
            drop(session);
            let key_sum: u128 = oracle.keys().map(|&k| u128::from(k)).sum();
            assert_eq!(s.key_sum(), key_sum, "{}", d.name);
        }
    }
}
