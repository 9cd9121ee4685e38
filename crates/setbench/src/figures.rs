//! The paper's evaluation (§6) as one table of figures and one runner.
//!
//! [`FIGURES`] names every experiment this crate reproduces — Figures 12-18,
//! Table 1 and the two ablations — with its full-scale and smoke-scale size
//! and the sweep it runs.  Each sweep prints a text table of throughput
//! numbers (operations per microsecond, the paper's y-axis unit) plus one
//! JSON line per cell on stderr, and [`Figure::run`] holds every figure to
//! the same checks: key-sum validation on every cell, every expected
//! structure present, scans completed where the figure measures scans.
//! The `figures` binary is [`parse_args`] plus a loop over the table.

use std::collections::BTreeSet;
use std::time::Duration;

use abebr::{Collector, SmrPolicy};
use absync::{McsLock, TatasLock};
use abtree::OccABTree;

use crate::harness::{run_cell, run_cell_on, CellConfig, Workload};
use crate::registry::{persistent_structures, volatile_structures, Factory};
use crate::report::{print_figure_header, print_result_row, BenchResult};

/// Default thread counts for scaling sweeps on this machine: 1, 2, 4, ...,
/// up to the number of logical CPUs.
pub fn default_thread_counts() -> Vec<usize> {
    let max = abtree::par::detected_parallelism();
    let mut counts = vec![1usize];
    let mut c = 2;
    while c < max {
        counts.push(c);
        c *= 2;
    }
    if *counts.last().unwrap() != max {
        counts.push(max);
    }
    counts
}

/// What a run of any figure may vary: how big, how wide, how long, and on
/// which reclamation backend.  Everything else is fixed by the figure.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Key range (record count for the YCSB figures).
    pub size: u64,
    /// Thread counts to sweep; Table 1 runs at the last (largest) one.
    pub threads: Vec<usize>,
    /// Measured-phase length per cell.
    pub duration: Duration,
    /// SMR backend every collector-backed structure is built on.
    pub smr: SmrPolicy,
}

impl Scale {
    /// The cell running `workload` on `structure` at `threads` under this
    /// scale's size, cell length and SMR backend.
    fn cell(
        &self,
        structure: &str,
        workload: Workload,
        zipf: f64,
        threads: usize,
        seed: u64,
    ) -> CellConfig {
        CellConfig {
            structure: structure.into(),
            workload,
            size: self.size,
            zipf,
            threads,
            duration: self.duration,
            seed,
            smr: self.smr,
        }
    }
}

/// The part of a microbenchmark sweep the figure fixes: which structures,
/// which access skews, which update rates.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchGrid {
    /// Zipf parameters (0 = uniform).
    pub zipfs: &'static [f64],
    /// Update percentages.
    pub update_percents: &'static [u32],
    /// Structures to run.
    pub structures: fn() -> Vec<&'static str>,
}

/// The paper's microbenchmark grid (Figures 12-15): every volatile
/// structure, uniform and Zipf(1) columns, 100/50/20/5% update rows.
const PAPER_GRID: MicrobenchGrid = MicrobenchGrid {
    zipfs: &[0.0, 1.0],
    update_percents: &[100, 50, 20, 5],
    structures: volatile_structures,
};

/// Ablation (paper §4/§6): publishing elimination on vs off as the access
/// skew increases on an update-only workload.
const ELIMINATION_GRID: MicrobenchGrid = MicrobenchGrid {
    zipfs: &[0.0, 0.75, 1.0, 1.25],
    update_percents: &[100],
    structures: || vec!["elim-abtree", "occ-abtree"],
};

/// Stamps a finished cell with its experiment id, prints its table row and
/// JSON line, and keeps it.
fn record(results: &mut Vec<BenchResult>, experiment: &str, mut r: BenchResult) {
    r.experiment = experiment.into();
    let json = print_result_row(&r);
    eprintln!("{json}");
    results.push(r);
}

/// Runs `workload` on each of `structures` at each thread count of `scale`
/// and records every cell under `experiment`.
fn sweep(
    results: &mut Vec<BenchResult>,
    experiment: &str,
    structures: &[&str],
    scale: &Scale,
    workload: Workload,
    zipf: f64,
    seed: u64,
) {
    for &structure in structures {
        for &threads in &scale.threads {
            let cfg = scale.cell(structure, workload, zipf, threads, seed);
            record(results, experiment, run_cell(&cfg));
        }
    }
}

/// Runs one SetBench microbenchmark sweep (Figures 12-15 and the
/// elimination ablation, depending on `grid` and `scale.size`).
pub fn run_microbench_figure(
    experiment: &str,
    grid: &MicrobenchGrid,
    scale: &Scale,
) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for &zipf in grid.zipfs {
        for &update_percent in grid.update_percents {
            print_figure_header(
                experiment,
                &format!(
                    "{} keys, {}% updates, {} distribution",
                    scale.size,
                    update_percent,
                    if zipf == 0.0 {
                        "uniform".to_string()
                    } else {
                        format!("Zipf({zipf})")
                    }
                ),
            );
            sweep(
                &mut results,
                experiment,
                &(grid.structures)(),
                scale,
                Workload::SetBench { update_percent },
                zipf,
                0xD1CE,
            );
        }
    }
    results
}

/// Figure 16: YCSB Workload A throughput sweep.
pub fn run_ycsb_figure(scale: &Scale, structures: &[&str]) -> Vec<BenchResult> {
    let mut results = Vec::new();
    print_figure_header(
        "fig16",
        &format!("YCSB Workload A, {} records, request Zipf 0.5", scale.size),
    );
    sweep(
        &mut results,
        "fig16",
        structures,
        scale,
        Workload::YcsbA,
        0.5,
        0xFEED,
    );
    results
}

/// Figure 18: scan throughput under YCSB Workload E (95% scans / 5%
/// inserts), sweeping the scan-length upper bound against the thread count.
/// Every structure scans by walking its own key order: the (a,b)-trees
/// return validated snapshots, the baselines per-key walks.
pub fn run_scan_figure(scale: &Scale, scan_lens: &[u64], structures: &[&str]) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for &max_scan_len in scan_lens {
        print_figure_header(
            "fig18",
            &format!(
                "YCSB Workload E, {} records, scan lengths 1..={max_scan_len}, \
                 request Zipf 0.5",
                scale.size
            ),
        );
        sweep(
            &mut results,
            "fig18",
            structures,
            scale,
            Workload::YcsbE { max_scan_len },
            0.5,
            0x5CA7,
        );
    }
    results
}

/// Figure 17: persistent trees (p-OCC, p-Elim, FPTree-like) at 50% updates,
/// uniform and Zipf(1), under real flush and fence instructions.
pub fn run_persistence_figure(scale: &Scale) -> Vec<BenchResult> {
    abpmem::set_mode(abpmem::PersistMode::Real);
    let mut results = Vec::new();
    for &zipf in &[0.0, 1.0] {
        print_figure_header(
            "fig17",
            &format!(
                "persistent trees, {} keys, 50% updates, {}",
                scale.size,
                if zipf == 0.0 { "uniform" } else { "Zipf(1)" }
            ),
        );
        sweep(
            &mut results,
            "fig17",
            &persistent_structures(),
            scale,
            Workload::SetBench { update_percent: 50 },
            zipf,
            0xCAFE,
        );
    }
    abpmem::set_mode(abpmem::PersistMode::CountOnly);
    results
}

/// The volatile tree / durable tree pairs Table 1 compares.
const OVERHEAD_PAIRS: [(&str, &str); 2] = [
    ("occ-abtree", "p-occ-abtree"),
    ("elim-abtree", "p-elim-abtree"),
];

/// Table 1: change in throughput upon enabling persistence, at the largest
/// thread count of `scale`, update rates {100, 50, 10}%, uniform and
/// Zipf(1).  Returns `(volatile, persistent, overhead_percent)` rows.
pub fn run_persistence_overhead_table(scale: &Scale) -> Vec<(BenchResult, BenchResult, f64)> {
    let threads = *scale
        .threads
        .last()
        .expect("a scale sweeps at least one thread count");
    let mut rows = Vec::new();
    println!();
    println!(
        "=== table1: persistence overhead ({threads} threads, {} keys) ===",
        scale.size
    );
    println!(
        "{:<16} {:>8} {:>8} {:>14} {:>14} {:>10}",
        "structure", "zipf", "upd%", "volatile op/us", "durable op/us", "overhead"
    );
    for &zipf in &[0.0, 1.0] {
        for &update_percent in &[100u32, 50, 10] {
            for (volatile, durable) in OVERHEAD_PAIRS {
                let cell = |structure: &str, mode| {
                    abpmem::set_mode(mode);
                    let workload = Workload::SetBench { update_percent };
                    let mut r = run_cell(&scale.cell(structure, workload, zipf, threads, 0xAB1E));
                    r.experiment = "table1".into();
                    eprintln!("{}", r.to_json());
                    r
                };
                // The volatile trees never call abpmem; the mode only
                // matters to the durable cell.
                let v = cell(volatile, abpmem::PersistMode::CountOnly);
                let p = cell(durable, abpmem::PersistMode::Real);
                abpmem::set_mode(abpmem::PersistMode::CountOnly);
                let overhead = (p.throughput_mops - v.throughput_mops) / v.throughput_mops * 100.0;
                println!(
                    "{:<16} {:>8} {:>8} {:>14.3} {:>14.3} {:>9.1}%",
                    durable, zipf, update_percent, v.throughput_mops, p.throughput_mops, overhead
                );
                rows.push((v, p, overhead));
            }
        }
    }
    rows
}

/// The two OCC-ABtrees of the lock ablation.  The registry cannot name the
/// TATAS tree (both report `"occ-abtree"`), so they are built here and
/// handed to [`run_cell_on`] under these row labels.
const LOCK_VARIANTS: [(&str, Factory); 2] = [
    ("occ-abtree/mcs", |smr| {
        Box::new(OccABTree::<McsLock>::with_collector(
            Collector::with_policy(smr),
        ))
    }),
    ("occ-abtree/tatas", |smr| {
        Box::new(OccABTree::<TatasLock>::with_collector(
            Collector::with_policy(smr),
        ))
    }),
];

/// Ablation (paper §7): MCS node locks vs test-and-test-and-set node locks
/// in the OCC-ABtree, under a contended update-only Zipf(1) workload.
pub fn run_lock_ablation(scale: &Scale) -> Vec<BenchResult> {
    let mut results = Vec::new();
    print_figure_header(
        "ablation-locks",
        &format!(
            "OCC-ABtree node locks, MCS vs TATAS, {} keys, 100% updates, Zipf(1)",
            scale.size
        ),
    );
    for (label, build) in LOCK_VARIANTS {
        for &threads in &scale.threads {
            let workload = Workload::SetBench {
                update_percent: 100,
            };
            let cfg = scale.cell(label, workload, 1.0, threads, 0x10C5);
            record(
                &mut results,
                "ablation-locks",
                run_cell_on(build(scale.smr), &cfg),
            );
        }
    }
    results
}

/// One reproducible experiment: an id, its two sizes, the sweep behind it
/// and what a correct run of that sweep must report.
pub struct Figure {
    /// The id given on the `figures` command line.
    pub id: &'static str,
    /// One line for `figures --list`.
    pub about: &'static str,
    /// Keys (records for YCSB) at full scale: the paper's, except fig16,
    /// where 10M records stand in for 100M to fit container memory (the
    /// relative ordering of the curves is preserved).
    pub full_size: u64,
    /// Keys (records) under `--smoke`.
    pub smoke_size: u64,
    /// Row labels a run must report: every one of them and no other.
    pub reports: fn() -> Vec<&'static str>,
    /// Whether the figure measures scans, so a cell without one is a failure.
    pub scans: bool,
    sweep: fn(&Figure, &Scale) -> Vec<BenchResult>,
}

/// Figures 12-15 are one sweep at four key ranges.
const fn paper_grid_figure(
    id: &'static str,
    about: &'static str,
    full_size: u64,
    smoke_size: u64,
) -> Figure {
    Figure {
        id,
        about,
        full_size,
        smoke_size,
        reports: volatile_structures,
        scans: false,
        sweep: |fig, scale| run_microbench_figure(fig.id, &PAPER_GRID, scale),
    }
}

/// Every figure the runner knows, in the order `all` runs them.
pub static FIGURES: &[Figure] = &[
    paper_grid_figure(
        "fig12",
        "SetBench microbenchmark, 10k keys: update rate x skew x threads, volatile structures",
        10_000,
        1_000,
    ),
    paper_grid_figure("fig13", "the same grid at 100k keys", 100_000, 2_000),
    paper_grid_figure("fig14", "the same grid at 1M keys", 1_000_000, 4_000),
    paper_grid_figure("fig15", "the same grid at 10M keys", 10_000_000, 8_000),
    Figure {
        id: "fig16",
        about: "YCSB Workload A (request Zipf 0.5), volatile structures as the index",
        full_size: 10_000_000,
        smoke_size: 1_000,
        reports: volatile_structures,
        scans: false,
        sweep: |_, scale| run_ycsb_figure(scale, &volatile_structures()),
    },
    Figure {
        id: "fig17",
        about: "persistent trees under real flush/fence instructions, 50% updates",
        full_size: 1_000_000,
        smoke_size: 2_000,
        reports: persistent_structures,
        scans: false,
        sweep: |_, scale| run_persistence_figure(scale),
    },
    Figure {
        id: "fig18",
        about: "YCSB Workload E scan throughput, scan lengths 1..={1,10,100}, volatile structures",
        full_size: 1_000_000,
        smoke_size: 1_000,
        reports: volatile_structures,
        scans: true,
        sweep: |_, scale| run_scan_figure(scale, &[1, 10, 100], &volatile_structures()),
    },
    Figure {
        id: "table1",
        about: "throughput change upon enabling persistence, volatile vs durable (a,b)-trees",
        full_size: 1_000_000,
        smoke_size: 2_000,
        reports: || OVERHEAD_PAIRS.iter().flat_map(|&(v, p)| [v, p]).collect(),
        scans: false,
        sweep: |_, scale| {
            run_persistence_overhead_table(scale)
                .into_iter()
                .flat_map(|(v, p, _)| [v, p])
                .collect()
        },
    },
    Figure {
        id: "ablation-elim",
        about: "publishing elimination on vs off, 100% updates, Zipf 0 to 1.25",
        full_size: 10_000,
        smoke_size: 1_000,
        reports: ELIMINATION_GRID.structures,
        scans: false,
        sweep: |fig, scale| run_microbench_figure(fig.id, &ELIMINATION_GRID, scale),
    },
    Figure {
        id: "ablation-locks",
        about: "OCC-ABtree with MCS vs TATAS node locks, 100% updates, Zipf(1)",
        full_size: 10_000,
        smoke_size: 1_000,
        reports: || LOCK_VARIANTS.iter().map(|&(label, _)| label).collect(),
        scans: false,
        sweep: |_, scale| run_lock_ablation(scale),
    },
];

impl Figure {
    /// Looks up a figure by its command-line id.
    pub fn by_id(id: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.id == id)
    }

    /// Runs the figure's sweep at `scale` and holds the rows to the checks
    /// every figure shares; a run that fails one is an error, not a table.
    pub fn run(&self, scale: &Scale) -> Result<Vec<BenchResult>, String> {
        let rows = (self.sweep)(self, scale);
        let failed: Vec<&BenchResult> = rows.iter().filter(|r| !r.validated).collect();
        if !failed.is_empty() {
            return Err(format!("key-sum validation failed: {failed:?}"));
        }
        if self.scans {
            if let Some(r) = rows.iter().find(|r| r.scan_ops == 0) {
                return Err(format!("a cell completed no scans: {r:?}"));
            }
        }
        let reported: BTreeSet<&str> = rows.iter().map(|r| r.structure.as_str()).collect();
        let expected: BTreeSet<&str> = (self.reports)().into_iter().collect();
        if reported != expected {
            return Err(format!("rows for {reported:?}, expected {expected:?}"));
        }
        Ok(rows)
    }
}

/// What a `figures` command line asks for.
pub enum Command {
    /// `--list`: print the figure table.
    List,
    /// Run figures.
    Run(Invocation),
}

/// A parsed request to run one or all figures.
pub struct Invocation {
    /// The figures to run, in table order.
    pub figures: Vec<&'static Figure>,
    /// `[keys-or-records]`, overriding each figure's own size.
    pub size: Option<u64>,
    /// `[seconds-per-cell]`, overriding the scale's cell length.
    pub duration: Option<Duration>,
    /// `--smoke`: tiny sizes, short cells, one thread count.
    pub smoke: bool,
    /// `--smr ebr|hp`.
    pub smr: SmrPolicy,
}

impl Invocation {
    /// The scale `fig` runs at under this invocation: the paper's size,
    /// 3 s cells and the machine's thread sweep, or — under `--smoke` — the
    /// figure's smoke size, 50 ms cells and two threads, so the whole path
    /// (prefill, concurrent measured phase, validation) runs in seconds.
    pub fn scale(&self, fig: &Figure) -> Scale {
        let (size, duration, threads) = if self.smoke {
            (fig.smoke_size, Duration::from_millis(50), vec![2])
        } else {
            (
                fig.full_size,
                Duration::from_secs(3),
                default_thread_counts(),
            )
        };
        Scale {
            size: self.size.unwrap_or(size),
            threads,
            duration: self.duration.unwrap_or(duration),
            smr: self.smr,
        }
    }
}

/// The usage line, with the ids read off the table.
pub fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!(
        "usage: figures <{}|all> [keys-or-records] [seconds-per-cell] [--smoke] [--smr ebr|hp]\n\
         \x20      figures --list",
        ids.join("|")
    )
}

/// Parses the `figures` command line (without the program name).  Anything
/// that does not parse is an error: a typo must not fall back to a
/// multi-hour default sweep.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut positional = Vec::new();
    let mut list = false;
    let mut smoke = false;
    let mut smr = SmrPolicy::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--smoke" => smoke = true,
            "--smr" => {
                smr = it
                    .next()
                    .ok_or("--smr needs a value (ebr|hp)")?
                    .parse()
                    .map_err(|e| format!("--smr: {e}"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            _ => positional.push(arg.as_str()),
        }
    }
    if list {
        return if positional.is_empty() {
            Ok(Command::List)
        } else {
            Err("--list takes no figure".into())
        };
    }
    let (id, rest) = positional.split_first().ok_or("no figure named")?;
    let figures: Vec<&'static Figure> = match *id {
        "all" => FIGURES.iter().collect(),
        id => vec![Figure::by_id(id).ok_or(format!("unknown figure {id:?}"))?],
    };
    if rest.len() > 2 {
        return Err(format!("unexpected argument {:?}", rest[2]));
    }
    let size: Option<u64> = match rest.first() {
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => Some(n),
            _ => return Err(format!("keys-or-records {s:?} is not a positive integer")),
        },
        None => None,
    };
    let duration = match rest.get(1) {
        // `try_from_secs_f64` also rejects NaN, negative and overflowing values.
        Some(s) => match s.parse().map(Duration::try_from_secs_f64) {
            Ok(Ok(d)) if !d.is_zero() => Some(d),
            _ => return Err(format!("seconds-per-cell {s:?} is not a positive number")),
        },
        None => None,
    };
    Ok(Command::Run(Invocation {
        figures,
        size,
        duration,
        smoke,
        smr,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(size: u64, threads: usize, millis: u64) -> Scale {
        Scale {
            size,
            threads: vec![threads],
            duration: Duration::from_millis(millis),
            smr: SmrPolicy::default(),
        }
    }

    fn invocation(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        match parse_args(&args)? {
            Command::Run(invocation) => Ok(invocation),
            Command::List => Err("parsed as --list".into()),
        }
    }

    #[test]
    fn thread_counts_are_increasing_and_bounded() {
        let counts = default_thread_counts();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        let max = abtree::par::detected_parallelism();
        assert_eq!(*counts.last().unwrap(), max);
    }

    /// Every figure id — the table `--list` prints — runs end to end at its
    /// smoke scale and passes the shared checks of [`Figure::run`]: rows for
    /// exactly the structures the figure reports (both lock variants for
    /// `ablation-locks`; every volatile structure for `fig18`), all
    /// validated, and exactly one row per cell of the figure's sweep.
    #[test]
    fn every_figure_runs_at_smoke_scale() {
        // Cells per figure at smoke scale (one thread count).
        const ROWS: [(&str, usize); 10] = [
            ("fig12", 48),
            ("fig13", 48),
            ("fig14", 48),
            ("fig15", 48),
            ("fig16", 6),
            ("fig17", 6),
            ("fig18", 18),
            ("table1", 24),
            ("ablation-elim", 8),
            ("ablation-locks", 2),
        ];
        let smoke = invocation("all --smoke").unwrap();
        assert_eq!(smoke.figures.len(), ROWS.len());
        let mut total = 0;
        for (fig, (id, cells)) in smoke.figures.iter().copied().zip(ROWS) {
            assert_eq!(fig.id, id);
            let rows = fig
                .run(&smoke.scale(fig))
                .unwrap_or_else(|e| panic!("{}: {e}", fig.id));
            assert_eq!(rows.len(), cells, "{} rows", fig.id);
            total += rows.len();
            assert!(rows.iter().all(|r| r.experiment == fig.id), "{}", fig.id);
            assert!(
                rows.iter().all(|r| r.smr == "ebr" || r.smr == "none"),
                "{}: the default backend is ebr",
                fig.id
            );
        }
        assert_eq!(total, 256);
        assert_eq!(
            (Figure::by_id("ablation-locks").unwrap().reports)(),
            vec!["occ-abtree/mcs", "occ-abtree/tatas"]
        );
        assert_eq!(
            (Figure::by_id("fig18").unwrap().reports)(),
            volatile_structures(),
            "fig18 reports every volatile structure"
        );
    }

    /// `--smr hp` reaches every collector-backed structure of a sweep, and
    /// a structure without a collector keeps reporting `none`.
    #[test]
    fn smr_flag_reaches_every_collector_backed_structure() {
        let hp = invocation("fig12 --smoke --smr hp").unwrap();
        let fig12 = hp.figures[0];
        let rows = fig12.run(&hp.scale(fig12)).unwrap();
        assert!(rows.iter().all(|r| r.smr == "hp"), "{rows:?}");
        assert!(rows[0].to_json().contains("\"smr\":\"hp\""));

        let fig17 = Figure::by_id("fig17").unwrap();
        for r in fig17.run(&hp.scale(fig17)).unwrap() {
            let expected = if r.structure == "fptree" {
                "none"
            } else {
                "hp"
            };
            assert_eq!(r.smr, expected, "{}", r.structure);
        }
    }

    #[test]
    fn good_command_lines_parse() {
        let run = invocation("fig14 20000 0.5 --smr hp").unwrap();
        assert_eq!(run.figures.len(), 1);
        assert_eq!(run.figures[0].id, "fig14");
        assert_eq!(run.size, Some(20_000));
        assert_eq!(run.duration, Some(Duration::from_millis(500)));
        assert_eq!(run.smr, SmrPolicy::Hp);
        assert!(!run.smoke);
        let scale = run.scale(run.figures[0]);
        assert_eq!(
            (scale.size, scale.duration),
            (20_000, Duration::from_millis(500))
        );
        assert_eq!(scale.threads, default_thread_counts());

        // Flags may come first; without overrides the table's sizes apply.
        let smoke = invocation("--smoke table1").unwrap();
        let scale = smoke.scale(smoke.figures[0]);
        assert_eq!(scale.size, smoke.figures[0].smoke_size);
        assert_eq!(scale.smr, SmrPolicy::Ebr);
        let full = invocation("fig15").unwrap();
        assert_eq!(full.scale(full.figures[0]).size, 10_000_000);

        assert!(matches!(
            parse_args(&["--list".to_string()]),
            Ok(Command::List)
        ));
        assert_eq!(FIGURES.len(), 10, "`--list` prints ten ids");
        assert!(FIGURES.iter().all(|f| usage().contains(f.id)));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for line in [
            "",                   // no figure
            "fig99",              // unknown figure id
            "fig12 10k",          // unparseable key count
            "fig12 0",            // empty key range
            "fig12 1000 fast",    // unparseable seconds
            "fig12 1000 -1",      // reads as a flag
            "fig12 1000 0",       // zero-length cells
            "fig12 1000 NaN",     // not a duration
            "fig12 1000 1 extra", // too many arguments
            "fig12 --smok",       // unknown flag
            "fig12 --smr",        // flag without its value
            "fig12 --smr rcu",    // unknown backend
            "--list fig12",       // --list takes no figure
        ] {
            assert!(invocation(line).is_err(), "{line:?} must not parse");
        }
    }

    #[test]
    fn tiny_figure_run_produces_rows() {
        let grid = MicrobenchGrid {
            zipfs: &[0.0],
            update_percents: &[100],
            structures: || vec!["elim-abtree", "catree"],
        };
        let results = run_microbench_figure("fig-test", &grid, &tiny(500, 2, 30));
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.validated));
    }

    #[test]
    fn tiny_scan_figure_run_counts_scans() {
        let structures = ["elim-abtree", "skiplist-lazy", "catree", "ext-bst-lock"];
        let results = run_scan_figure(&tiny(500, 2, 40), &[8], &structures);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.experiment, "fig18");
            assert!(r.validated, "{} failed validation", r.structure);
            assert!(r.scan_ops > 0, "{} completed no scans", r.structure);
            assert!(r.scan_ops <= r.total_ops);
        }
    }

    #[test]
    fn tiny_table1_run() {
        let rows = run_persistence_overhead_table(&tiny(2_000, 2, 30));
        // 2 zipfs x 3 update rates x 2 tree pairs.
        assert_eq!(rows.len(), 12);
        for (v, p, _) in &rows {
            assert!(v.validated && p.validated);
        }
    }
}
