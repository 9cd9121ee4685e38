//! Durable-linearizability stress test: seeded concurrent load over the
//! crash-injected durable service, killing and recovering **every** shard
//! at least once mid-load, then checking the welded pre/post-crash history.
//!
//! This is the tentpole acceptance run: workers hammer a small key universe
//! through recording routers while the main thread walks the shards with
//! crash directives (torn partial inserts and dirty link-and-persist marks
//! included).  After the last heal, a verification pass reads every
//! universe key into the same history, pinning the final recovered state
//! with mandatory reads.  The merged history must be durably linearizable:
//! every acknowledged write survives; unacked crash-window writes may
//! linearize at the crash or vanish, but never flicker.
//!
//! Excluded under `lost-ack`: that feature compiles the mutant that
//! *should* fail this check (see `tests/lost_ack.rs`), and doubles as this
//! test's negative-control counterpart.
#![cfg(not(feature = "lost-ack"))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use conctest::{
    check_durable, shrink_history, CheckConfig, Clock, History, OpKind, OpResult, Outcome, Recorder,
};
use crashkv::{CrashSpec, DurableKvService};

const SEED: u64 = 0x5EED_D00D;
const SHARDS: usize = 3;
const WORKERS: u32 = 4;
const UNIVERSE: u64 = 48;

/// Deterministic per-thread xorshift op stream (the schedule itself is of
/// course nondeterministic — that is the point of the stress test).
fn step(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[test]
fn every_shard_crashes_and_the_welded_history_checks() {
    let service = DurableKvService::new(SHARDS, 8);
    let clock = Clock::new();
    let stop = AtomicBool::new(false);

    let mut logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (service, clock, stop) = (&service, &clock, &stop);
                scope.spawn(move || {
                    // A router commits on its own thread: open it there.
                    let mut rec = Recorder::new(service.router(), t, Arc::clone(clock));
                    let mut s = SEED ^ (u64::from(t) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut seq = 0u64;
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let r = step(&mut s);
                        let key = 1 + r % UNIVERSE;
                        rec.run(&match r % 8 {
                            0..=4 => {
                                // Globally unique values keep provenance
                                // failures crisp in violation reports.
                                seq += 1;
                                let value = (u64::from(t) + 1) << 32 | seq;
                                OpKind::Insert { key, value }
                            }
                            5..=6 => OpKind::Delete { key },
                            _ => OpKind::Get { key },
                        });
                        ops += 1;
                        if ops.is_multiple_of(8) {
                            // Pace the load so the recorded history stays
                            // within the checker's comfortable range.
                            std::thread::sleep(Duration::from_micros(20));
                        }
                    }
                    rec.finish()
                })
            })
            .collect();

        // Walk the shards: kill each one mid-load and wait for the heal.
        for shard in 0..SHARDS {
            service.inject_crash(
                shard,
                CrashSpec {
                    after_boundaries: 2,
                    survivor_seed: SEED ^ shard as u64,
                    torn_insert: shard % 2 == 0,
                    dirty_link: true,
                },
            );
            while service.crash_count(shard) == 0 {
                std::thread::yield_now();
            }
        }
        // A little post-heal load on every shard.
        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });

    // Verification pass: read back the whole universe into the same welded
    // history; these reads are mandatory and pin the recovered state.
    let mut verifier = Recorder::new(service.router(), WORKERS, Arc::clone(&clock));
    for key in 1..=UNIVERSE {
        let read = verifier.run(&OpKind::Get { key });
        assert_ne!(
            read,
            OpResult::Aborted,
            "no crash is armed during verification"
        );
    }
    logs.push(verifier.finish());
    let history = History::merge(logs);

    // Every shard crashed exactly once and recovered with a consistent
    // report and repaired damage.
    let reports = service.crash_reports();
    assert_eq!(reports.len(), SHARDS);
    for shard in 0..SHARDS {
        assert_eq!(
            service.crash_count(shard),
            1,
            "shard {shard} must crash once"
        );
    }
    for report in &reports {
        assert_eq!(report.survived + report.rolled_back, report.unfenced);
        assert!(report.dirty_link);
    }
    service.check_invariants().unwrap();

    let aborted = history
        .ops
        .iter()
        .filter(|op| op.result == OpResult::Aborted)
        .count();
    println!(
        "welded history: {} ops ({aborted} crash-aborted), {} crash cycles",
        history.ops.len(),
        reports.len()
    );

    let config = CheckConfig {
        snapshot_scans: false,
        search_budget: 50_000_000,
    };
    match check_durable(&history, &config) {
        Outcome::Linearizable => {}
        Outcome::Bounded { component_keys } => {
            panic!("durable check inconclusive over keys {component_keys:?}")
        }
        Outcome::Violation(report) => {
            // Shrink and persist the welded reproducer before failing, so
            // CI uploads it as an artifact.
            let minimal = shrink_history(&history, &config);
            let artifact = format!(
                "durable-linearizability violation ({} ops, shrunk to {}):\n{report}\n\
                 minimal welded history:\n{}",
                history.ops.len(),
                minimal.ops.len(),
                minimal.render()
            );
            let path = conctest::write_artifact("crash-stress-violation.txt", &artifact);
            panic!(
                "durable-linearizability violation (reproducer at {}):\n{report}",
                path.display()
            );
        }
    }
}
