//! Tier-1 conctest coverage: every registry structure (and the kvserve
//! service) must pass both fuzz modes under a seeded mixed workload with
//! scans, and the checker must demonstrably reject hand-built torn and
//! stale histories — so the "all clean" verdict above it means something.

use abebr::SmrPolicy;
use conctest::{
    check, differential_fuzz, fuzz_concurrent, kv_service, shrink_history, CheckConfig, FuzzConfig,
    History, OpKind, OpRecord, OpResult, Outcome,
};
use setbench::registry;

fn small_cfg() -> FuzzConfig {
    FuzzConfig {
        seed: 0xA11_C1EA4,
        threads: 2,
        ops_per_thread: 120,
        ..FuzzConfig::default()
    }
}

/// Acceptance headline: the checker passes clean on every registry
/// structure under a seeded mixed workload including scans — differential
/// mode against the `BTreeMap` oracle, concurrent mode under the
/// linearizability checker (snapshot-scan semantics exactly where the
/// registry promises them) — under **both** reclamation backends.
#[test]
fn every_registry_structure_passes_both_fuzz_modes() {
    let cfg = small_cfg();
    for policy in SmrPolicy::ALL {
        for descriptor in registry::STRUCTURES {
            let build = || (descriptor.factory)(policy);
            differential_fuzz(&build, &cfg).unwrap_or_else(|failure| {
                panic!("{}/{policy}: {}", descriptor.name, failure.render())
            });
            let check_cfg = CheckConfig {
                snapshot_scans: descriptor.snapshot_scans,
                ..CheckConfig::default()
            };
            let report = fuzz_concurrent(&build, &cfg, &check_cfg, 2).unwrap_or_else(|failure| {
                panic!("{}/{policy}: {}", descriptor.name, failure.render(&cfg))
            });
            assert_eq!(report.rounds, 2, "{}/{policy}", descriptor.name);
            assert!(report.events >= 2 * 2 * 120, "{}/{policy}", descriptor.name);
        }
    }
}

/// The service passes both modes too (Zipf-skewed keys, batched ops), its
/// scans checked as snapshots exactly where its store's are: a service's
/// scan is the store's own `range`.
#[test]
fn kvserve_passes_both_fuzz_modes() {
    let cfg = FuzzConfig {
        key_space: 192,
        ..small_cfg()
    };
    for structure in ["elim-abtree", "skiplist-lazy"] {
        let build = || kv_service(structure);
        differential_fuzz(&build, &cfg)
            .unwrap_or_else(|failure| panic!("{structure}: {}", failure.render()));
        let check_cfg = CheckConfig {
            snapshot_scans: registry::descriptor(structure).unwrap().snapshot_scans,
            ..CheckConfig::default()
        };
        fuzz_concurrent(&build, &cfg, &check_cfg, 2)
            .unwrap_or_else(|failure| panic!("{structure}: {}", failure.render(&cfg)));
    }
}

fn record(thread: u32, kind: OpKind, result: OpResult, invoke: u64, response: u64) -> OpRecord {
    OpRecord {
        thread,
        kind,
        result,
        invoke,
        response,
    }
}

/// Deterministic mutation-shaped coverage that runs in every `cargo test`
/// (the live mutant needs `--features torn-scan`): a hand-built torn-scan
/// history — the exact event shape the mutant produces — must be flagged
/// under snapshot semantics, accepted under per-key semantics, and shrink
/// to a tight reproducer that still fails.
#[test]
fn hand_built_torn_scan_history_is_flagged_and_shrinks() {
    // Writer cycles {1} -> {} -> {2}; noise ops on key 9 ride along.  The
    // scan claims to have seen keys 1 and 2 simultaneously.
    let ops = vec![
        record(
            0,
            OpKind::Insert { key: 1, value: 10 },
            OpResult::Value(None),
            0,
            1,
        ),
        record(
            0,
            OpKind::Insert { key: 9, value: 90 },
            OpResult::Value(None),
            2,
            3,
        ),
        record(
            1,
            OpKind::Range { lo: 0, hi: 5 },
            OpResult::Entries(vec![(1, 10), (2, 20)]),
            4,
            11,
        ),
        record(
            0,
            OpKind::Delete { key: 1 },
            OpResult::Value(Some(10)),
            5,
            6,
        ),
        record(
            0,
            OpKind::Insert { key: 2, value: 20 },
            OpResult::Value(None),
            7,
            8,
        ),
        record(0, OpKind::Get { key: 9 }, OpResult::Value(Some(90)), 9, 10),
    ];
    let history = History::merge(vec![ops]);

    let strict = CheckConfig::with_snapshot_scans();
    let outcome = check(&history, &strict);
    let Outcome::Violation(report) = &outcome else {
        panic!("torn scan not flagged: {outcome:?}");
    };
    assert!(
        report.component_keys.contains(&1) && report.component_keys.contains(&2),
        "{report}"
    );

    // Per-key semantics must accept it — the tear is invisible without the
    // snapshot guarantee, which is why the registry's `snapshot_scans`
    // drives the config.
    assert!(matches!(
        check(&history, &CheckConfig::default()),
        Outcome::Linearizable
    ));

    // Shrinking keeps a genuine, still-failing core and drops the key-9
    // noise.
    let minimal = shrink_history(&history, &strict);
    assert!(check(&minimal, &strict).is_violation());
    assert!(minimal.ops.len() <= 4, "{}", minimal.render());
    assert!(minimal.ops.iter().all(|op| !matches!(
        op.kind,
        OpKind::Insert { key: 9, .. } | OpKind::Get { key: 9 }
    )));
}

/// A stale-read history (read misses a definitely-completed insert) is the
/// other canonical bug shape; the checker must flag it in both semantics.
#[test]
fn stale_read_history_is_flagged() {
    let ops = vec![
        record(
            0,
            OpKind::Insert { key: 3, value: 30 },
            OpResult::Value(None),
            0,
            1,
        ),
        record(1, OpKind::Get { key: 3 }, OpResult::Value(None), 2, 3),
    ];
    let history = History::merge(vec![ops]);
    assert!(check(&history, &CheckConfig::default()).is_violation());
    assert!(check(&history, &CheckConfig::with_snapshot_scans()).is_violation());
}

/// End-to-end artifact plumbing used by CI on failure.
#[test]
fn artifacts_are_written_to_the_artifact_dir() {
    let dir = std::env::temp_dir().join(format!("conctest-artifacts-{}", std::process::id()));
    std::env::set_var("CONCTEST_ARTIFACT_DIR", &dir);
    let path = conctest::write_artifact("probe.txt", "probe contents\n");
    std::env::remove_var("CONCTEST_ARTIFACT_DIR");
    assert_eq!(path, dir.join("probe.txt"));
    assert_eq!(
        std::fs::read_to_string(&path).expect("artifact written"),
        "probe contents\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
