//! Conctest coverage for the kvserve router: a recorded operation runs on
//! the router's own tree session, beside every other router's, or is
//! answered by the router's hot-key read cache — and the histories that come
//! back must still be linearizable per key.
//!
//! The cached-read path is the delicate part — a stale cache hit is a
//! textbook linearizability violation (a read returning a value some
//! earlier-completed write already replaced) — so these tests pin the key
//! space small and the skew high to force both real cache hits and heavy
//! write traffic over the same keys, and then assert the cache actually
//! served reads, so a silently dead cache cannot pass the suite.
//!
//! Compiled out under `stale-stamp`: that feature breaks the cache's stamp
//! protocol on purpose (`tests/mutation.rs` proves it is flagged); this file
//! is the negative control.
#![cfg(not(feature = "stale-stamp"))]

use conctest::{
    check, differential_fuzz, fuzz_concurrent, kv_service, record_hot_key_paths, CheckConfig,
    FuzzConfig, Outcome,
};

/// Tiny, hot key space: three dozen keys under Zipf skew means every
/// router's direct-mapped cache holds most of the universe and writes
/// invalidate it constantly — the regime where a version-check bug would
/// surface.
fn hot_key_cfg() -> FuzzConfig {
    FuzzConfig {
        seed: 0x5EED_CAFE,
        threads: 2,
        ops_per_thread: 160,
        key_space: 36,
        key_skew: 1.2,
        ..FuzzConfig::default()
    }
}

/// Differential mode: the router (session, stamps, cache and all) must
/// agree op-for-op with the `BTreeMap` oracle under hot-key traffic.
#[test]
fn differential_matches_the_oracle_through_the_lanes() {
    differential_fuzz(&|| kv_service("elim-abtree"), &hot_key_cfg())
        .unwrap_or_else(|failure| panic!("{}", failure.render()));
}

/// Concurrent mode: OS-thread routers hammering the one tree, with the
/// recorded histories checked across rounds, scans as snapshots.
#[test]
fn concurrent_stress_passes_over_the_thread_per_shard_router() {
    let cfg = hot_key_cfg();
    let build = || kv_service("elim-abtree");
    let report = fuzz_concurrent(&build, &cfg, &CheckConfig::with_snapshot_scans(), 2)
        .unwrap_or_else(|failure| panic!("{}", failure.render(&cfg)));
    assert_eq!(report.rounds, 2);
    assert!(report.events >= 2 * 2 * 160);
}

/// Recorded stress of the multi-mutator stamp protocol, with a cache-hit
/// witness: [`record_hot_key_paths`] puts three routers' point calls,
/// pipelined windows, batches and scans on the same eight keys in one
/// history, which must be linearizable per key — a stale
/// cache hit is a read of a value some completed write already replaced —
/// with the service stats proving the hot-key cache actually answered reads
/// inside the recorded (checked) traffic.
///
/// The size is the one at which `tests/mutation.rs`'s `stale-stamp` mutant
/// (quiescence checked only at the end of a write) is flagged in at least 9
/// runs of 10 in this profile: one round of 2,000 operations per thread is,
/// so four rounds leave no doubt.  The 400 unstalled operations per thread
/// this test used to run pass that mutant, and the single-mutator protocol
/// it replaced, every time.
#[test]
fn cached_reads_stay_linearizable_under_concurrent_writes() {
    const ROUNDS: u32 = 4;
    const THREADS: u32 = 3;
    const OPS: usize = 2_000;

    for round in 0..ROUNDS {
        let (history, cache_hits) = record_hot_key_paths(THREADS, OPS);
        assert!(history.ops.len() >= THREADS as usize * OPS);
        match check(&history, &CheckConfig::default()) {
            Outcome::Linearizable | Outcome::Bounded { .. } => {}
            Outcome::Violation(report) => {
                panic!("round {round}: cached reads broke linearizability: {report}")
            }
        }
        // The witness: with 8 keys and 60% reads, a correct
        // cache serves plenty of hits inside the checked history.  A cache
        // that never hits would make this test silently vacuous.  (The hit
        // counter itself is telemetry: compiled out, it reads 0.)
        assert!(
            !obs::ENABLED || cache_hits > 0,
            "hot-key cache served no reads; the cached path went unexercised"
        );
    }
}
