//! SetBench-style benchmark harness (paper §6).
//!
//! The paper evaluates every data structure with SetBench: each run prefills
//! the structure to its steady-state size, then `n` threads run a timed
//! measured phase in which each thread repeatedly draws a key from the
//! configured distribution and an operation from the configured mix, and the
//! total throughput (operations per microsecond) is reported.  A checksum
//! validation — the sum of keys each thread successfully inserted minus the
//! sum it deleted must equal the sum of keys left in the structure — guards
//! against broken implementations.
//!
//! The YCSB figures (16 and 18) use the same method with the structure as a
//! database index: the load phase inserts every record in key order instead
//! of a random half of the key range, and each request is a YCSB read,
//! update (an index read plus a row write), insert or scan.
//!
//! This crate reproduces that methodology with one cell config
//! ([`CellConfig`], whose [`Workload`] picks the load phase and the per-op
//! step) and one measured phase ([`run_cell`]), and exposes the paper's
//! figures, Table 1 and two ablations through one table
//! ([`figures::FIGURES`]) and one runner binary over it, `figures` (see
//! `src/bin/figures.rs`).

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod registry;
pub mod report;

pub use figures::{
    default_thread_counts, run_lock_ablation, run_microbench_figure, run_persistence_figure,
    run_persistence_overhead_table, run_scan_figure, run_ycsb_figure, Figure, MicrobenchGrid,
    Scale, FIGURES,
};
pub use harness::{run_cell, run_cell_on, CellConfig, Workload};
pub use registry::{
    descriptor, make_structure, names_in, persistent_structures, structure_names,
    volatile_structures, Factory, StructureCategory, StructureDescriptor, STRUCTURES,
};
pub use report::{print_figure_header, print_result_row, BenchResult};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn microbench_runs_and_validates_every_structure() {
        for name in structure_names() {
            let cfg = CellConfig {
                structure: name.to_string(),
                workload: Workload::SetBench { update_percent: 50 },
                size: 1_000,
                zipf: 0.0,
                threads: 2,
                duration: Duration::from_millis(50),
                seed: 1,
                ..Default::default()
            };
            let result = run_cell(&cfg);
            assert!(result.validated, "validation failed for {name}");
            assert!(result.total_ops > 0, "no ops completed for {name}");
            assert_eq!(result.structure, *name);
        }
    }

    /// Acceptance check for the scan subsystem: a YCSB-E (scan-heavy) mix
    /// runs against every registered structure — snapshot or per-key walk —
    /// and passes the key-sum validation.
    #[test]
    fn ycsb_e_runs_and_validates_every_structure() {
        for name in structure_names() {
            let cfg = CellConfig {
                structure: name.to_string(),
                workload: Workload::YcsbE { max_scan_len: 50 },
                size: 2_000,
                zipf: 0.5,
                threads: 2,
                duration: Duration::from_millis(40),
                seed: 5,
                ..Default::default()
            };
            let result = run_cell(&cfg);
            assert!(result.validated, "validation failed for {name}");
            assert!(result.scan_ops > 0, "no scans completed for {name}");
            assert_eq!(result.experiment, "ycsb-e");
        }
    }

    #[test]
    fn zipfian_microbench_validates() {
        let cfg = CellConfig {
            structure: "elim-abtree".into(),
            workload: Workload::SetBench {
                update_percent: 100,
            },
            size: 10_000,
            zipf: 1.0,
            threads: 4,
            duration: Duration::from_millis(100),
            seed: 7,
            ..Default::default()
        };
        let r = run_cell(&cfg);
        assert!(r.validated);
        assert!(r.throughput_mops > 0.0);
    }

    #[test]
    fn ycsb_runs() {
        let cfg = CellConfig {
            structure: "occ-abtree".into(),
            workload: Workload::YcsbA,
            size: 10_000,
            zipf: 0.5,
            threads: 2,
            duration: Duration::from_millis(50),
            seed: 3,
            ..Default::default()
        };
        let r = run_cell(&cfg);
        assert!(r.total_ops > 0);
        assert!(r.validated);
    }

    #[test]
    fn unknown_structure_panics() {
        assert!(std::panic::catch_unwind(|| make_structure("no-such-tree")).is_err());
    }
}
