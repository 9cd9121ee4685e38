//! Mutation detection for the durability contract: with crashkv's
//! `lost-ack` feature, the shard owner releases write acknowledgements the
//! moment they execute — **before** the covering group fence — so a crash
//! at the next boundary rolls back writes the client already saw succeed.
//! The durable-linearizability checker must flag that, or the durability
//! side of the harness is testing nothing.
//!
//! The scenario forces the window open deterministically: a pipelined wave
//! of puts keeps the shard owner busy (boundaries only happen when the
//! lane drains), the crash is armed mid-serve, and the drain boundary then
//! kills the whole unfenced group — whose acks the mutant has already
//! released.  With `survivor_seed: 0` every unfenced write rolls back, so
//! at least one acknowledged write vanishes and the post-heal verification
//! reads expose it.
//!
//! The negative control for this test is `tests/crash_stress.rs`: the
//! identical checker over the *unmutated* owner (default features) must
//! stay clean.
#![cfg(feature = "lost-ack")]

use std::sync::Arc;

use conctest::{
    check_durable, shrink_history, CheckConfig, Clock, History, OpKind, OpResult, Outcome, Recorder,
};
use crashkv::{CrashSpec, DurableKvService, DurableOp};

const KEYS: u64 = 40;

/// One round: wave of puts, crash armed mid-serve, verification reads.
/// Returns the welded history and how many puts were acknowledged.
fn record_round() -> (History, usize) {
    let mut service = DurableKvService::new(1, 1_000_000);
    let clock = Clock::new();
    let mut router = service.router();
    // Pipelined wave: fill the owner's lane so no drain boundary (and
    // hence no fence) happens while the crash is being armed.
    let mut submitted = 0u64;
    while submitted < KEYS {
        match router.submit(DurableOp::Put {
            key: submitted + 1,
            value: (submitted + 1) * 100,
        }) {
            Ok(()) => submitted += 1,
            Err(_) => break,
        }
    }
    service.inject_crash(
        0,
        CrashSpec {
            after_boundaries: 0,
            survivor_seed: 0, // everything unfenced rolls back
            torn_insert: false,
            dirty_link: false,
        },
    );
    let mut acked = Vec::new();
    for key in 1..=submitted {
        if let Ok(prior) = router.collect_one().expect("one reply per submitted op") {
            assert_eq!(prior, None, "fresh key {key}");
            acked.push(key);
        }
    }
    while service.crash_count(0) == 0 {
        std::thread::yield_now();
    }
    drop(router);

    // Weld the acked wave into a history: the puts the client saw succeed,
    // then post-heal reads of every key.
    let mut rec = Recorder::new(service.router(), 0, Arc::clone(&clock));
    // Re-record the acked puts as history facts via a recording router is
    // impossible after the fact, so the wave is logged directly: each
    // acked put is a mandatory insert with its observed result.
    let mut ops: Vec<conctest::OpRecord> = Vec::new();
    for &key in &acked {
        let invoke = clock.tick();
        let response = clock.tick();
        ops.push(conctest::OpRecord {
            thread: 1,
            kind: OpKind::Insert {
                key,
                value: key * 100,
            },
            result: OpResult::Value(None),
            invoke,
            response,
        });
    }
    for key in 1..=KEYS {
        let read = rec.run(&OpKind::Get { key });
        assert_ne!(
            read,
            OpResult::Aborted,
            "no crash armed during verification"
        );
    }
    let history = History::merge(vec![ops, rec.finish()]);
    service.shutdown();
    (history, acked.len())
}

#[test]
fn lost_ack_mutant_is_flagged_by_the_durable_checker() {
    let config = CheckConfig::default();
    let mut caught: Option<History> = None;
    // The race (owner draining the wave before the crash is armed) is
    // heavily biased toward detection; a few rounds make it certain.
    for _ in 0..25 {
        let (history, acked) = record_round();
        if acked == 0 {
            continue; // crash won before any ack escaped; try again
        }
        if check_durable(&history, &config).is_violation() {
            caught = Some(history);
            break;
        }
    }
    let history = caught.expect(
        "the lost-ack mutant survived every round: the durable checker \
         cannot detect acknowledged writes lost by a crash",
    );

    let minimal = shrink_history(&history, &config);
    let outcome = check_durable(&minimal, &config);
    // Write the reproducer *before* asserting over it, so a failing
    // assertion below still leaves the artifact for CI to upload.
    let artifact = format!(
        "lost-ack mutation caught ({} events, shrunk from {}): {}\nminimal welded history:\n{}",
        minimal.ops.len(),
        history.ops.len(),
        match &outcome {
            Outcome::Violation(report) => report.to_string(),
            other => format!("shrunk outcome unexpectedly {other:?}"),
        },
        minimal.render()
    );
    conctest::write_artifact("lost-ack-caught.txt", &artifact);
    println!("{artifact}");

    assert!(outcome.is_violation(), "shrunk history must still violate");
    assert!(
        minimal.ops.len() <= 4,
        "expected a tight reproducer (one lost acked write plus the read \
         exposing it), got {} events:\n{}",
        minimal.ops.len(),
        minimal.render()
    );
}
