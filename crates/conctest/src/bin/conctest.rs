//! `conctest` driver: sweeps the differential fuzzer and the concurrent
//! linearizability checker over every registry structure, kvserve
//! services, crashkv's durable service and netserve's socket front end,
//! from one seeded configuration.
//!
//! ```text
//! conctest [--smoke] [--seed N] [--structure NAME] [--threads N]
//!          [--ops N] [--rounds N] [--smr ebr|hp]
//! ```
//!
//! `--smr` selects the reclamation backend the registry mounts each
//! structure on (default `ebr`), so CI can sweep the same schedules over
//! the hazard-pointer backend.  `--structure` keeps the targets mounted on
//! that registry structure (the durable service's shards are
//! `p-elim-abtree`).
//!
//! Per target, two passes run:
//!
//! * `diff` — the deterministic differential mode: a seeded interleaved
//!   schedule replayed against the target and a `BTreeMap` oracle
//!   (logical threads, one OS thread);
//! * `conc` — the concurrent recorded mode: OS threads under recorders,
//!   every round's history checked for linearizability (snapshot-scan
//!   semantics exactly for the registry's `Snapshot` structures).
//!
//! The targets are every registry structure, then kvserve services
//! (Zipf-skewed keys, batched ops) for a sample of shard counts and
//! structures, a socket server in front of one, and the durable service
//! (point operations only).
//!
//! Any failure prints the shrunk reproducer, writes it to the artifact
//! directory (`CONCTEST_ARTIFACT_DIR`, default `target/conctest/`) for CI
//! upload, and exits non-zero.  `--smoke` is the CI-sized run with a fixed
//! default seed, so the sweep is deterministic in the deterministic mode
//! and reproducibly seeded in the concurrent one.

use abebr::SmrPolicy;
use conctest::{
    differential_fuzz, fuzz_concurrent, kv_service, loopback_server, write_artifact, CheckConfig,
    FuzzConfig, Target,
};
use crashkv::DurableKvService;
use setbench::registry;
use workload::OperationMix;

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
}

/// The result table: one row per target and mode, plus the first
/// failure's reproducer.
struct Sweep {
    rows: Vec<(String, &'static str, String)>,
    failed: Option<String>,
    rounds: u32,
}

impl Sweep {
    /// Runs both modes over fresh targets from `build` and adds their rows.
    fn target<T: Target>(
        &mut self,
        name: &str,
        build: &dyn Fn() -> T,
        cfg: &FuzzConfig,
        check_cfg: &CheckConfig,
    ) {
        let diff = match differential_fuzz(build, cfg) {
            Ok(total) => format!("ok ({total} ops vs oracle)"),
            Err(failure) => {
                self.fail(name, "diff", failure.render());
                format!("FAIL ({} op reproducer)", failure.minimal.len())
            }
        };
        self.rows.push((name.into(), "diff", diff));
        let conc = match fuzz_concurrent(build, cfg, check_cfg, self.rounds) {
            Ok(report) => format!(
                "ok ({} events, {} rounds{})",
                report.events,
                report.rounds,
                if report.bounded_rounds > 0 {
                    format!(", {} bounded", report.bounded_rounds)
                } else {
                    String::new()
                }
            ),
            Err(failure) => {
                self.fail(name, "conc", failure.render(cfg));
                format!("FAIL ({} event reproducer)", failure.minimal.ops.len())
            }
        };
        self.rows.push((name.into(), "conc", conc));
    }

    fn fail(&mut self, name: &str, mode: &str, reproducer: String) {
        self.failed
            .get_or_insert_with(|| format!("[{name} {mode}]\n{reproducer}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = flag_value(&args, "--seed").unwrap_or(0x5EED_C0C7);
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--structure")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let wanted = |structure: &str| only.as_deref().is_none_or(|o| o == structure);
    let smr: SmrPolicy = match args
        .iter()
        .position(|a| a == "--smr")
        .and_then(|i| args.get(i + 1))
    {
        None => SmrPolicy::default(),
        Some(name) => match name.parse() {
            Ok(policy) => policy,
            Err(e) => {
                eprintln!("conctest: --smr {name}: {e}");
                std::process::exit(2);
            }
        },
    };
    let threads = flag_value(&args, "--threads").unwrap_or(if smoke { 2 } else { 3 }) as u32;
    let ops = flag_value(&args, "--ops").unwrap_or(if smoke { 150 } else { 400 }) as u32;
    let rounds = flag_value(&args, "--rounds").unwrap_or(if smoke { 2 } else { 5 }) as u32;

    let cfg = FuzzConfig {
        seed,
        threads,
        ops_per_thread: ops,
        ..FuzzConfig::default()
    };
    println!(
        "conctest sweep: seed {seed:#x}, {threads} threads x {ops} ops, {rounds} concurrent \
         rounds, smr {smr}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("{:<28} {:>5} {:>34}", "target", "mode", "result");

    let mut sweep = Sweep {
        rows: Vec::new(),
        failed: None,
        rounds,
    };
    for descriptor in registry::STRUCTURES.iter().filter(|d| wanted(d.name)) {
        let check_cfg = CheckConfig {
            snapshot_scans: descriptor.snapshot_scans,
            ..CheckConfig::default()
        };
        let build = || (descriptor.factory)(smr);
        sweep.target(descriptor.name, &build, &cfg, &check_cfg);
    }

    // The services: Zipf-skewed traffic over sharded registry structures,
    // on a key space four times the structures' own.  Scans are
    // scatter-gather and shards promise no cross-shard atomicity, so per-key
    // semantics throughout.
    let per_key = CheckConfig::default();
    let service_cfg = FuzzConfig {
        key_space: cfg.key_space * 4,
        ..cfg.clone()
    };
    let service_cells: &[(&str, usize)] = if smoke {
        &[("elim-abtree", 3)]
    } else {
        &[("elim-abtree", 1), ("elim-abtree", 3), ("skiplist-lazy", 3)]
    };
    for &(structure, shards) in service_cells.iter().filter(|(s, _)| wanted(s)) {
        let build = || kv_service(structure, shards);
        sweep.target(
            &format!("kvserve/{structure}x{shards}"),
            &build,
            &service_cfg,
            &per_key,
        );
    }
    if wanted("elim-abtree") {
        let build = || loopback_server(kv_service("elim-abtree", 2), 2);
        sweep.target("netserve/elim-abtreex2", &build, &service_cfg, &per_key);
    }
    if wanted("p-elim-abtree") {
        let durable_cfg = FuzzConfig {
            mix: OperationMix::from_update_percent(50),
            ..cfg.clone()
        };
        let build = || DurableKvService::new(2, 4);
        sweep.target("crashkv/p-elim-abtreex2", &build, &durable_cfg, &per_key);
    }

    for (target, mode, detail) in &sweep.rows {
        println!("{target:<28} {mode:>5} {detail:>34}");
    }
    if sweep.rows.is_empty() {
        eprintln!("no targets matched {only:?}");
        std::process::exit(2);
    }
    if let Some(text) = sweep.failed {
        let path = write_artifact("shrunk-history.txt", &text);
        eprintln!("\n{text}\nreproducer written to {}", path.display());
        std::process::exit(1);
    }
    println!(
        "all {} cells clean: every history linearizable, every replay matched the oracle",
        sweep.rows.len()
    );
}
