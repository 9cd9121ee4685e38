//! The paper's evaluation (§6–§7) as one table of figures and one loop.
//!
//! [`FIGURES`] names every experiment this crate reproduces — Figures 12-18,
//! Table 1 and the two ablations — as data: the structures that form its
//! rows, the workload × skew blocks it runs, its seed, which thread counts
//! it runs, and its full-scale and smoke-scale size.  [`Figure::run`] is the
//! one loop over cells (blocks → rows → threads).  It prints a text table of
//! throughput numbers per block (operations per microsecond, the paper's
//! y-axis unit) plus one JSON line per cell on stderr, and holds every
//! figure to the same checks: key-sum validation on every cell, every
//! expected structure present, scans completed where the figure measures
//! scans.  The `figures` binary is [`parse_args`] plus a loop over the table.

use std::collections::BTreeSet;
use std::time::Duration;

use abebr::SmrPolicy;
use abpmem::PersistMode;
use absync::{McsLock, TatasLock};
use abtree::OccABTree;

use crate::harness::{run_cell_on, CellConfig, Workload};
use crate::registry::{descriptor, smr_factory, Factory, StructureCategory, STRUCTURES};
use crate::report::{print_figure_header, print_result_row, BenchResult};

/// Default thread counts for scaling sweeps on this machine: 1, 2, 4, ...,
/// up to the number of logical CPUs.
pub fn default_thread_counts() -> Vec<usize> {
    let max = abtree::par::detected_parallelism();
    let mut counts: Vec<usize> = std::iter::successors(Some(1), |c| Some(c * 2))
        .take_while(|&c| c < max)
        .collect();
    counts.push(max);
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
    /// The cell running a block's workload and skew on the row `label` at
    /// `threads` under this scale's size, cell length and SMR backend.
    fn cell(&self, label: &str, block: (Workload, f64), threads: usize, seed: u64) -> CellConfig {
        CellConfig {
            structure: label.into(),
            workload: block.0,
            size: self.size,
            zipf: block.1,
            threads,
            duration: self.duration,
            seed,
            smr: self.smr,
        }
    }
}

/// The structures that form a figure's rows, in print order.
pub enum Rows {
    /// Every registry structure of one category, in registry order.
    Category(StructureCategory),
    /// Registry structures by name.
    Named(&'static [&'static str]),
    /// Variants the registry cannot name, each built under its row label.
    Built(&'static [(&'static str, Factory)]),
}

impl Rows {
    /// Each row's label and the builder of its structure.
    fn list(&self) -> Vec<(&'static str, Factory)> {
        match *self {
            Rows::Category(category) => STRUCTURES
                .iter()
                .filter(|d| d.category == category)
                .map(|d| (d.name, d.factory))
                .collect(),
            Rows::Named(names) => names
                .iter()
                .map(|&name| (name, descriptor(name).expect("a registry name").factory))
                .collect(),
            Rows::Built(rows) => rows.to_vec(),
        }
    }
}

/// Which of a [`Scale`]'s thread counts a figure runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Every one: the scaling curves.
    Every,
    /// Only the largest (Table 1).
    Largest,
}

/// One reproducible experiment: an id, its two sizes, and the rows ×
/// blocks × thread counts whose cells it runs.
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
    /// The structures compared.  A run reports exactly these labels, and it
    /// runs under real flush and fence instructions iff one of them is a
    /// persistent registry structure.
    pub rows: Rows,
    /// The workload and Zipf parameter (0 = uniform) of each block, in
    /// print order.  A figure with a YCSB-E block measures scans, so a cell
    /// without one is a failure.
    pub blocks: &'static [(Workload, f64)],
    /// The seed of every cell.
    pub seed: u64,
    /// The thread counts every row runs at.
    pub threads: Threads,
    /// `(volatile, durable)` row pairs whose throughput change is printed
    /// after the sweep (Table 1).
    pub overhead_pairs: &'static [(&'static str, &'static str)],
}

/// A SetBench block's workload.
const fn updates(update_percent: u32) -> Workload {
    Workload::SetBench { update_percent }
}

/// The paper's microbenchmark grid (Figures 12-15): uniform and Zipf(1)
/// columns, 100/50/20/5% update rows.
const PAPER_GRID: &[(Workload, f64)] = &[
    (updates(100), 0.0),
    (updates(50), 0.0),
    (updates(20), 0.0),
    (updates(5), 0.0),
    (updates(100), 1.0),
    (updates(50), 1.0),
    (updates(20), 1.0),
    (updates(5), 1.0),
];

/// Figure 12; the other entries take the fields they share with it from here.
const FIG12: Figure = Figure {
    id: "fig12",
    about: "SetBench microbenchmark, 10k keys: update rate x skew x threads, volatile structures",
    full_size: 10_000,
    smoke_size: 1_000,
    rows: Rows::Category(StructureCategory::Volatile),
    blocks: PAPER_GRID,
    seed: 0xD1CE,
    threads: Threads::Every,
    overhead_pairs: &[],
};

/// Every figure the runner knows, in the order `all` runs them.
pub static FIGURES: &[Figure] = &[
    FIG12,
    Figure {
        id: "fig13",
        about: "the same grid at 100k keys",
        full_size: 100_000,
        smoke_size: 2_000,
        ..FIG12
    },
    Figure {
        id: "fig14",
        about: "the same grid at 1M keys",
        full_size: 1_000_000,
        smoke_size: 4_000,
        ..FIG12
    },
    Figure {
        id: "fig15",
        about: "the same grid at 10M keys",
        full_size: 10_000_000,
        smoke_size: 8_000,
        ..FIG12
    },
    Figure {
        id: "fig16",
        about: "YCSB Workload A (request Zipf 0.5), volatile structures as the index",
        full_size: 10_000_000,
        smoke_size: 1_000,
        blocks: &[(Workload::YcsbA, 0.5)],
        seed: 0xFEED,
        ..FIG12
    },
    Figure {
        id: "fig17",
        about: "persistent trees under real flush/fence instructions, 50% updates",
        full_size: 1_000_000,
        smoke_size: 2_000,
        rows: Rows::Category(StructureCategory::Persistent),
        blocks: &[(updates(50), 0.0), (updates(50), 1.0)],
        seed: 0xCAFE,
        ..FIG12
    },
    Figure {
        id: "fig18",
        about: "YCSB Workload E scan throughput, scan lengths 1..={1,10,100}, volatile structures",
        full_size: 1_000_000,
        smoke_size: 1_000,
        blocks: &[
            (Workload::YcsbE { max_scan_len: 1 }, 0.5),
            (Workload::YcsbE { max_scan_len: 10 }, 0.5),
            (Workload::YcsbE { max_scan_len: 100 }, 0.5),
        ],
        seed: 0x5CA7,
        ..FIG12
    },
    Figure {
        id: "table1",
        about: "throughput change upon enabling persistence, volatile vs durable (a,b)-trees",
        full_size: 1_000_000,
        smoke_size: 2_000,
        rows: Rows::Named(&["occ-abtree", "p-occ-abtree", "elim-abtree", "p-elim-abtree"]),
        blocks: &[
            (updates(100), 0.0),
            (updates(50), 0.0),
            (updates(10), 0.0),
            (updates(100), 1.0),
            (updates(50), 1.0),
            (updates(10), 1.0),
        ],
        seed: 0xAB1E,
        threads: Threads::Largest,
        overhead_pairs: &[
            ("occ-abtree", "p-occ-abtree"),
            ("elim-abtree", "p-elim-abtree"),
        ],
    },
    Figure {
        id: "ablation-elim",
        about: "publishing elimination on vs off, 100% updates, Zipf 0 to 1.25",
        full_size: 10_000,
        smoke_size: 1_000,
        rows: Rows::Named(&["elim-abtree", "occ-abtree"]),
        blocks: &[
            (updates(100), 0.0),
            (updates(100), 0.75),
            (updates(100), 1.0),
            (updates(100), 1.25),
        ],
        ..FIG12
    },
    Figure {
        id: "ablation-locks",
        about: "OCC-ABtree with MCS vs TATAS node locks, 100% updates, Zipf(1)",
        full_size: 10_000,
        smoke_size: 1_000,
        // The registry cannot name the TATAS tree (both trees report
        // `"occ-abtree"`), so the figure builds both itself.
        rows: Rows::Built(&[
            ("occ-abtree/mcs", smr_factory!(OccABTree<McsLock>)),
            ("occ-abtree/tatas", smr_factory!(OccABTree<TatasLock>)),
        ]),
        blocks: &[(updates(100), 1.0)],
        seed: 0x10C5,
        ..FIG12
    },
];

/// A block's table header: workload, size and skew.
fn describe((workload, zipf): (Workload, f64), size: u64) -> String {
    let load = match workload {
        Workload::SetBench { update_percent } => format!("{size} keys, {update_percent}% updates"),
        Workload::YcsbA => format!("YCSB Workload A, {size} records"),
        Workload::YcsbE { max_scan_len } => {
            format!("YCSB Workload E, {size} records, scan lengths 1..={max_scan_len}")
        }
    };
    if zipf == 0.0 {
        format!("{load}, uniform")
    } else {
        format!("{load}, Zipf({zipf})")
    }
}

impl Figure {
    /// Looks up a figure by its command-line id.
    pub fn by_id(id: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.id == id)
    }

    /// The row labels a run must report: every one of them and no other.
    pub fn reports(&self) -> Vec<&'static str> {
        self.rows.list().iter().map(|row| row.0).collect()
    }

    /// Runs every cell of the figure at `scale` — each block, each row, each
    /// chosen thread count — and holds the rows to the checks every figure
    /// shares; a run that fails one is an error, not a table.
    pub fn run(&self, scale: &Scale) -> Result<Vec<BenchResult>, String> {
        let rows = self.rows.list();
        // Volatile structures never call abpmem, so one mode serves a run.
        let durable = rows.iter().any(|&(label, _)| {
            descriptor(label).is_some_and(|d| d.category == StructureCategory::Persistent)
        });
        abpmem::set_mode(if durable {
            PersistMode::Real
        } else {
            PersistMode::CountOnly
        });
        let threads = match self.threads {
            Threads::Every => &scale.threads[..],
            Threads::Largest => &scale.threads[scale.threads.len() - 1..],
        };
        let mut results = Vec::new();
        for &block in self.blocks {
            print_figure_header(self.id, &describe(block, scale.size));
            for &(label, factory) in &rows {
                for &t in threads {
                    let cfg = scale.cell(label, block, t, self.seed);
                    let mut r = run_cell_on(factory(scale.smr), &cfg);
                    r.experiment = self.id.into();
                    eprintln!("{}", print_result_row(&r));
                    results.push(r);
                }
            }
        }
        abpmem::set_mode(PersistMode::CountOnly);
        self.print_overheads(&results);

        let failed: Vec<&BenchResult> = results.iter().filter(|r| !r.validated).collect();
        if !failed.is_empty() {
            return Err(format!("key-sum validation failed: {failed:?}"));
        }
        let scans = self
            .blocks
            .iter()
            .any(|b| matches!(b.0, Workload::YcsbE { .. }));
        if let Some(r) = results.iter().find(|r| scans && r.scan_ops == 0) {
            return Err(format!("a cell completed no scans: {r:?}"));
        }
        let reported: BTreeSet<&str> = results.iter().map(|r| r.structure.as_str()).collect();
        let expected: BTreeSet<&str> = self.reports().into_iter().collect();
        if reported != expected {
            return Err(format!("rows for {reported:?}, expected {expected:?}"));
        }
        Ok(results)
    }

    /// The `(volatile, durable)` cells of each overhead pair in a run's
    /// results: the two rows' cells in the same block at the same thread
    /// count, in block order.
    fn overheads<'r>(&self, results: &'r [BenchResult]) -> Vec<(&'r BenchResult, &'r BenchResult)> {
        // Every block runs the same number of cells, in block order.
        let per_block = (results.len() / self.blocks.len().max(1)).max(1);
        let mut pairs = Vec::new();
        for block in results.chunks(per_block) {
            for &(volatile, durable) in self.overhead_pairs {
                for v in block.iter().filter(|r| r.structure == volatile) {
                    let p = block
                        .iter()
                        .find(|p| p.structure == durable && p.threads == v.threads);
                    pairs.extend(p.map(|p| (v, p)));
                }
            }
        }
        pairs
    }

    /// Prints the throughput change of every overhead pair (Table 1).
    fn print_overheads(&self, results: &[BenchResult]) {
        let pairs = self.overheads(results);
        if pairs.is_empty() {
            return;
        }
        println!("\n=== {}: persistence overhead ===", self.id);
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>14} {:>14} {:>10}",
            "structure", "threads", "zipf", "upd%", "volatile op/us", "durable op/us", "overhead"
        );
        for (v, p) in pairs {
            let overhead = (p.throughput_mops - v.throughput_mops) / v.throughput_mops * 100.0;
            println!(
                "{:<16} {:>8} {:>8} {:>8} {:>14.3} {:>14.3} {:>9.1}%",
                p.structure,
                p.threads,
                p.zipf,
                p.update_percent,
                v.throughput_mops,
                p.throughput_mops,
                overhead
            );
        }
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
    use crate::registry::volatile_structures;

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
            Figure::by_id("ablation-locks").unwrap().reports(),
            vec!["occ-abtree/mcs", "occ-abtree/tatas"]
        );
        assert_eq!(
            Figure::by_id("fig18").unwrap().reports(),
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

    /// A small one-block figure with the paper grid's workload, as data.
    fn one_block(
        id: &'static str,
        rows: &'static [&'static str],
        block: &'static [(Workload, f64)],
    ) -> Figure {
        Figure {
            id,
            rows: Rows::Named(rows),
            blocks: block,
            ..FIG12
        }
    }

    #[test]
    fn tiny_figure_run_produces_rows() {
        let fig = one_block(
            "fig-test",
            &["elim-abtree", "catree"],
            &[(
                Workload::SetBench {
                    update_percent: 100,
                },
                0.0,
            )],
        );
        let results = fig.run(&tiny(500, 2, 30)).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.validated));
        assert_eq!(fig.reports(), vec!["elim-abtree", "catree"]);
    }

    #[test]
    fn tiny_scan_figure_run_counts_scans() {
        let fig = one_block(
            "fig18",
            &["elim-abtree", "skiplist-lazy", "catree", "ext-bst-lock"],
            &[(Workload::YcsbE { max_scan_len: 8 }, 0.5)],
        );
        let results = fig.run(&tiny(500, 2, 40)).unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.experiment, "fig18");
            assert!(r.validated, "{} failed validation", r.structure);
            assert!(r.scan_ops > 0, "{} completed no scans", r.structure);
            assert!(r.scan_ops <= r.total_ops);
        }
    }

    /// Table 1 at a tiny scale runs only the largest of two thread counts,
    /// and pairs every volatile cell with its durable twin.
    #[test]
    fn tiny_table1_run() {
        let table1 = Figure::by_id("table1").unwrap();
        let mut scale = tiny(2_000, 2, 30);
        scale.threads = vec![1, 2];
        let results = table1.run(&scale).unwrap();
        assert!(results.iter().all(|r| r.threads == 2));
        let pairs = table1.overheads(&results);
        // 2 zipfs x 3 update rates x 2 tree pairs.
        assert_eq!(pairs.len(), 12);
        for (v, p) in &pairs {
            assert!(v.validated && p.validated);
            assert_eq!(format!("p-{}", v.structure), p.structure);
            assert_eq!((v.update_percent, v.zipf), (p.update_percent, p.zipf));
        }
    }
}
