//! Conctest coverage for the thread-per-shard kvserve architecture: every
//! recorded operation now crosses an SPSC lane to a shard-owner thread (or
//! is answered by the router's hot-key read cache), and the histories that
//! come back through the queues must still be linearizable per key.
//!
//! The cached-read path is the delicate part — a stale cache hit is a
//! textbook linearizability violation (a read returning a value some
//! earlier-completed write already replaced) — so these tests pin the key
//! space small and the skew high to force both real cache hits and heavy
//! write traffic over the same keys, and then assert the cache actually
//! served reads, so a silently dead cache cannot pass the suite.

use std::sync::Arc;

use conctest::{
    check, differential_kvserve, fuzz_kvserve_concurrent, CheckConfig, Clock, FuzzConfig, History,
    Outcome, RouterRecorder,
};
use kvserve::KvService;

/// Tiny, hot key space: a dozen keys under Zipf skew means every router's
/// direct-mapped cache holds most of the universe and writes invalidate it
/// constantly — the regime where a version-check bug would surface.
fn hot_key_cfg() -> FuzzConfig {
    FuzzConfig {
        seed: 0x5EED_CAFE,
        threads: 2,
        ops_per_thread: 160,
        key_space: 12,
        key_skew: 1.2,
        ..FuzzConfig::default()
    }
}

fn elim_service(shards: usize) -> KvService {
    KvService::new(shards, 1, |_| {
        Box::new(setbench::registry::make_structure("elim-abtree"))
    })
}

/// Differential mode: the thread-per-shard router (queues, shard owners,
/// cache and all) must agree op-for-op with the locked `BTreeMap` oracle
/// under hot-key traffic, across shard counts.
#[test]
fn differential_matches_the_oracle_through_the_lanes() {
    let cfg = hot_key_cfg();
    for &shards in &[1usize, 4] {
        differential_kvserve("elim-abtree", shards, (3, 1.0), &cfg)
            .unwrap_or_else(|failure| panic!("shards={shards}: {}", failure.render()));
    }
}

/// Concurrent mode: OS-thread routers hammering the shard owners through
/// the lanes, with the recorded histories checked per key across rounds.
#[test]
fn concurrent_stress_passes_over_the_thread_per_shard_router() {
    let cfg = hot_key_cfg();
    let report =
        fuzz_kvserve_concurrent("elim-abtree", 4, (3, 1.0), &cfg, &CheckConfig::default(), 2)
            .unwrap_or_else(|failure| panic!("{}", failure.render(&cfg)));
    assert_eq!(report.rounds, 2);
    assert!(report.events >= 2 * 2 * 160);
}

/// Direct recorded stress with a cache-hit witness: concurrent
/// `RouterRecorder` sessions over a tiny hot key range, checked for per-key
/// linearizability, with the service stats proving the hot-key cache
/// actually answered reads inside the recorded (checked) traffic.
///
/// Gated on [`abtree::par::test_parallelism`]: on a 1-CPU box without the
/// `AB_FORCE_PARALLEL` override, OS-thread interleaving is cooperative-only
/// and the test would stress nothing.
#[test]
fn cached_reads_stay_linearizable_under_concurrent_writes() {
    if abtree::par::test_parallelism() < 2 {
        eprintln!("skipping: needs >= 2 threads (set AB_FORCE_PARALLEL=1 to override)");
        return;
    }
    const THREADS: u32 = 3;
    const OPS: u64 = 400;
    const HOT_KEYS: u64 = 8;

    let service = Arc::new(elim_service(4));
    let clock = Clock::new();
    let mut logs: Vec<Vec<conctest::OpRecord>> = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for thread in 0..THREADS {
            let service = Arc::clone(&service);
            let clock = Arc::clone(&clock);
            joins.push(scope.spawn(move || {
                let mut rec = RouterRecorder::new(service.router(), thread, clock);
                // Read-heavy deterministic mix over the hot range: ~70%
                // gets (the cache-hit fodder) against a churn of puts and
                // deletes that keeps every entry's version moving.
                let mut state = 0x9E37_79B9u64
                    .wrapping_mul(thread as u64 + 1)
                    .wrapping_add(0x5EED);
                for op in 0..OPS {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (state >> 33) % HOT_KEYS;
                    match (state >> 13) % 10 {
                        0 | 1 => {
                            // Unique values so the checker can match reads
                            // to the exact write they observed.
                            rec.put(key, (thread as u64) << 32 | op);
                        }
                        2 => {
                            rec.delete(key);
                        }
                        _ => {
                            rec.get(key);
                        }
                    }
                }
                rec.finish()
            }));
        }
        for join in joins {
            logs.push(join.join().expect("recorder thread panicked"));
        }
    });

    let history = History::merge(logs);
    assert_eq!(history.ops.len(), (THREADS as usize) * OPS as usize);
    match check(&history, &CheckConfig::default()) {
        Outcome::Linearizable | Outcome::Bounded { .. } => {}
        Outcome::Violation(report) => panic!("cached reads broke linearizability: {report}"),
    }
    // The witness: with 8 keys across 4 shards and 70% reads, a correct
    // cache serves plenty of hits inside the checked history.  A cache
    // that never hits would make this test silently vacuous.  (The hit
    // counter itself is telemetry: compiled out, it reads 0.)
    assert!(
        !obs::ENABLED || service.stats().cache_hits() > 0,
        "hot-key cache served no reads; the cached path went unexercised"
    );
}
