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
//! This crate reproduces that methodology and exposes the paper's figures,
//! Table 1 and two ablations through one table ([`figures::FIGURES`]) and one
//! runner binary over it, `figures` (see `src/bin/figures.rs`).

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
pub use harness::{
    run_microbench, run_microbench_on, run_ycsb, MicrobenchConfig, YcsbConfig, BATCH_OP_SIZE,
};
pub use registry::{
    descriptor, make_structure, names_in, native_scan_structures, persistent_structures,
    scan_benchmark_structures, scan_support, snapshot_scan_structures, structure_names,
    volatile_structures, Factory, ScanSupport, StructureCategory, StructureDescriptor, STRUCTURES,
};
pub use report::{print_figure_header, print_result_row, BenchResult};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn microbench_runs_and_validates_every_structure() {
        for name in structure_names() {
            let cfg = MicrobenchConfig {
                structure: name.to_string(),
                key_range: 1_000,
                update_percent: 50,
                zipf: 0.0,
                threads: 2,
                duration: Duration::from_millis(50),
                seed: 1,
                ..Default::default()
            };
            let result = run_microbench(&cfg);
            assert!(result.validated, "validation failed for {name}");
            assert!(result.total_ops > 0, "no ops completed for {name}");
            assert_eq!(result.structure, *name);
        }
    }

    /// Acceptance check for the scan subsystem: a YCSB-E (scan-heavy) mix
    /// runs against every registered structure — native scan or fallback —
    /// and passes the key-sum validation.
    #[test]
    fn ycsb_e_runs_and_validates_every_structure() {
        for name in structure_names() {
            let cfg = YcsbConfig {
                structure: name.to_string(),
                kind: workload::YcsbWorkloadKind::E,
                records: 2_000,
                zipf: 0.5,
                max_scan_len: 50,
                threads: 2,
                duration: Duration::from_millis(40),
                seed: 5,
                ..Default::default()
            };
            let result = run_ycsb(&cfg);
            assert!(result.validated, "validation failed for {name}");
            assert!(result.scan_ops > 0, "no scans completed for {name}");
            assert_eq!(result.experiment, "ycsb-e");
        }
    }

    /// A scan-heavy microbenchmark mix exercises `Operation::Scan` through
    /// the same prefill/measure/validate pipeline as the point mixes.
    #[test]
    fn scan_mix_microbench_validates() {
        let cfg = MicrobenchConfig {
            structure: "occ-abtree".into(),
            key_range: 4_000,
            update_percent: 20,
            scan_percent: 30,
            max_scan_len: 64,
            zipf: 0.0,
            threads: 2,
            duration: Duration::from_millis(60),
            seed: 11,
            ..Default::default()
        };
        let r = run_microbench(&cfg);
        assert!(r.validated);
        assert!(r.scan_ops > 0);
        // ~30% of operations should be scans.
        let share = r.scan_ops as f64 / r.total_ops as f64;
        assert!((0.2..0.4).contains(&share), "scan share = {share}");
    }

    #[test]
    fn zipfian_microbench_validates() {
        let cfg = MicrobenchConfig {
            structure: "elim-abtree".into(),
            key_range: 10_000,
            update_percent: 100,
            zipf: 1.0,
            threads: 4,
            duration: Duration::from_millis(100),
            seed: 7,
            ..Default::default()
        };
        let r = run_microbench(&cfg);
        assert!(r.validated);
        assert!(r.throughput_mops > 0.0);
    }

    #[test]
    fn ycsb_runs() {
        let cfg = YcsbConfig {
            structure: "occ-abtree".into(),
            records: 10_000,
            zipf: 0.5,
            threads: 2,
            duration: Duration::from_millis(50),
            seed: 3,
            ..Default::default()
        };
        let r = run_ycsb(&cfg);
        assert!(r.total_ops > 0);
        assert!(r.validated);
    }

    #[test]
    fn unknown_structure_panics() {
        assert!(std::panic::catch_unwind(|| make_structure("no-such-tree")).is_err());
    }
}
