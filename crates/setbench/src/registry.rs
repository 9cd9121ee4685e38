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
//! volatile/persistent category, whether its range scans are native or the
//! point-lookup fallback ([`ScanSupport`]), and a factory function.
//! Everything else —
//! [`structure_names`], [`make_structure`], the harness and the figure
//! sweeps — iterates this table.  **Registering a new
//! structure therefore means adding exactly one descriptor line below**
//! (plus `impl abtree::ConcurrentMap` next to the structure itself).

use abebr::{Collector, SmrPolicy};
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

/// How a structure serves `ConcurrentMap::range`.
///
/// This drives two consumers: the scan figure's interpretation (fallback
/// scans pay one point lookup per key in the window) and the `conctest`
/// linearizability checker's model of a scan (only [`Snapshot`] scans are
/// checked as one atomic multi-key read; the other two levels promise only
/// per-element linearizability, so their scans are checked key by key).
///
/// [`Snapshot`]: ScanSupport::Snapshot
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanSupport {
    /// Native ordered traversal that additionally validates node versions,
    /// making the whole result one linearizable snapshot (the (a,b)-trees'
    /// double-collect-and-revalidate protocol).
    Snapshot,
    /// Native ordered traversal of its own layout, per-element linearizable
    /// but *not* an atomic snapshot of the window (e.g. the skiplist's
    /// list-order walk).
    Native,
    /// Uses the default `range`: one `get` per key in the window.
    Fallback,
}

impl ScanSupport {
    /// Whether `range` walks the structure's own layout instead of probing
    /// key by key (true for [`Snapshot`] and [`Native`]).
    ///
    /// [`Snapshot`]: ScanSupport::Snapshot
    /// [`Native`]: ScanSupport::Native
    pub fn is_native(self) -> bool {
        !matches!(self, ScanSupport::Fallback)
    }

    /// Whether a scan's result is guaranteed to be one atomic snapshot of
    /// the window — the property the `conctest` checker verifies jointly
    /// across keys.
    pub fn is_snapshot(self) -> bool {
        matches!(self, ScanSupport::Snapshot)
    }
}

/// One registered data structure: the single source of truth for its
/// benchmark name, category, scan support, and construction.
pub struct StructureDescriptor {
    /// Registry name, matching `ConcurrentMap::name()` of the built value.
    pub name: &'static str,
    /// Volatile or persistent.
    pub category: StructureCategory,
    /// Native or fallback range scans.
    pub scan: ScanSupport,
    /// Builds a fresh, empty instance.
    pub factory: Factory,
}

/// Builds a fresh, empty structure reclaiming under the given SMR policy.
/// Structures without a reclamation collector (the FPtree) ignore the
/// policy.
pub type Factory = fn(SmrPolicy) -> Box<dyn ConcurrentMap>;

use ScanSupport::{Fallback, Native, Snapshot};
use StructureCategory::{Persistent, Volatile};

/// Factory helper: builds `T` on a collector running the requested SMR
/// backend.  Turbofishing the concrete type pins generic defaults (e.g. the
/// MCS lock), which a bare closure would leave unconstrained.
macro_rules! smr_factory {
    ($ty:ty) => {{
        fn build(policy: SmrPolicy) -> Box<dyn ConcurrentMap> {
            Box::new(<$ty>::with_collector(Collector::with_policy(policy)))
        }
        build
    }};
}

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
        scan: Snapshot,
        factory: smr_factory!(ElimABTree),
    },
    StructureDescriptor {
        name: "occ-abtree",
        category: Volatile,
        scan: Snapshot,
        factory: smr_factory!(OccABTree),
    },
    StructureDescriptor {
        name: "catree",
        category: Volatile,
        scan: Fallback,
        factory: smr_factory!(CaTree),
    },
    StructureDescriptor {
        name: "lf-abtree(cow)",
        category: Volatile,
        scan: Native,
        factory: smr_factory!(CowABTree),
    },
    StructureDescriptor {
        name: "ext-bst-lock",
        category: Volatile,
        scan: Fallback,
        factory: smr_factory!(LockExtBst),
    },
    StructureDescriptor {
        name: "skiplist-lazy",
        category: Volatile,
        scan: Native,
        factory: smr_factory!(LazySkipList),
    },
    StructureDescriptor {
        name: "p-elim-abtree",
        category: Persistent,
        scan: Snapshot,
        factory: smr_factory!(PElimABTree),
    },
    StructureDescriptor {
        name: "p-occ-abtree",
        category: Persistent,
        scan: Snapshot,
        factory: smr_factory!(POccABTree),
    },
    StructureDescriptor {
        name: "fptree",
        category: Persistent,
        scan: Fallback,
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

/// How the structure registered under `name` serves range scans.
pub fn scan_support(name: &str) -> Option<ScanSupport> {
    descriptor(name).map(|d| d.scan)
}

/// Names of the structures with a native `range` implementation (snapshot
/// or per-element), in table order.
pub fn native_scan_structures() -> Vec<&'static str> {
    STRUCTURES
        .iter()
        .filter(|d| d.scan.is_native())
        .map(|d| d.name)
        .collect()
}

/// Names of the volatile structures eligible for the scan figure (fig18):
/// volatile *and* native-scan, in table order.  Structures whose scans fall
/// back to per-key point probes ([`ScanSupport::Fallback`]) are excluded —
/// a fallback "scan" measures the point-lookup loop, not a scan, and
/// reporting it alongside real scan numbers is the garbage-data cliff the
/// figure driver skips with a `scan-unsupported` note instead.
pub fn scan_benchmark_structures() -> Vec<&'static str> {
    STRUCTURES
        .iter()
        .filter(|d| d.category == StructureCategory::Volatile && d.scan.is_native())
        .map(|d| d.name)
        .collect()
}

/// Names of the structures whose scans are atomic snapshots, in table
/// order — the set the `conctest` checker holds to joint scan atomicity.
pub fn snapshot_scan_structures() -> Vec<&'static str> {
    STRUCTURES
        .iter()
        .filter(|d| d.scan.is_snapshot())
        .map(|d| d.name)
        .collect()
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
    use std::collections::HashSet;

    #[test]
    fn registry_builds_every_structure() {
        for name in structure_names() {
            let s = make_structure(name);
            let mut session = s.handle();
            assert_eq!(session.insert(1, 2), None);
            assert_eq!(session.get(1), Some(2));
            drop(session);
            assert_eq!(s.name(), name);
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
    /// back to its own descriptor, constructs a structure reporting that
    /// name, and names are unique.
    #[test]
    fn descriptor_table_round_trips() {
        let mut seen = HashSet::new();
        for d in STRUCTURES {
            assert!(seen.insert(d.name), "duplicate registry name: {}", d.name);
            let built = (d.factory)(SmrPolicy::default());
            assert_eq!(
                built.name(),
                d.name,
                "descriptor name and ConcurrentMap::name() disagree"
            );
            let via_lookup = make_structure(d.name);
            assert_eq!(via_lookup.name(), d.name);
            assert_eq!(
                descriptor(d.name).unwrap().category,
                d.category,
                "descriptor lookup returned a different entry"
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

    /// The scan-support column the figure drivers, docs and the `conctest`
    /// checker rely on: the (a,b)-tree family, the skiplist and the COW tree
    /// walk their own layouts; the remaining baselines use the point-lookup
    /// fallback; and of the native set, exactly the (a,b)-trees (which
    /// validate leaf versions) promise atomic snapshots.
    #[test]
    fn scan_support_metadata() {
        assert_eq!(
            native_scan_structures(),
            vec![
                "elim-abtree",
                "occ-abtree",
                "lf-abtree(cow)",
                "skiplist-lazy",
                "p-elim-abtree",
                "p-occ-abtree",
            ]
        );
        assert_eq!(
            snapshot_scan_structures(),
            vec!["elim-abtree", "occ-abtree", "p-elim-abtree", "p-occ-abtree"],
            "the set conctest checks for joint scan atomicity"
        );
        assert_eq!(
            scan_benchmark_structures(),
            vec!["elim-abtree", "occ-abtree", "lf-abtree(cow)", "skiplist-lazy"],
            "the fig18-eligible set: volatile AND native-scan"
        );
        assert_eq!(scan_support("catree"), Some(ScanSupport::Fallback));
        assert_eq!(scan_support("elim-abtree"), Some(ScanSupport::Snapshot));
        assert_eq!(scan_support("skiplist-lazy"), Some(ScanSupport::Native));
        assert_eq!(scan_support("no-such-tree"), None);
        assert!(ScanSupport::Snapshot.is_native() && ScanSupport::Snapshot.is_snapshot());
        assert!(ScanSupport::Native.is_native() && !ScanSupport::Native.is_snapshot());
        assert!(!ScanSupport::Fallback.is_native() && !ScanSupport::Fallback.is_snapshot());
        // Whatever the support level, every structure must answer scans.
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
        }
    }
}
