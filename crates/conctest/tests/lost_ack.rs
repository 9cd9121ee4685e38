//! Mutation detection for the durability contract: with crashkv's
//! `lost-ack` feature, a window whose commit crashes is answered with its
//! operations' own results instead of `Crashed` — acknowledgements for
//! writes the crash just rolled back.  The durable-linearizability checker
//! must flag that, or the durability side of the harness is testing
//! nothing.
//!
//! The scenario is deterministic: 40 puts are queued in one router window
//! (larger than any fence group would close), the crash is armed, and the
//! first collect commits the window, firing the crash inside that commit.
//! With `survivor_seed: 0` every unfenced write rolls back, so every
//! "acknowledged" put vanishes and the post-heal verification reads expose
//! it.
//!
//! The negative control for this test is `tests/crash_stress.rs`: the
//! identical checker over the *unmutated* service (default features) must
//! stay clean.
#![cfg(feature = "lost-ack")]

use std::sync::Arc;

use conctest::{
    check_durable, shrink_history, CheckConfig, Clock, History, OpKind, OpResult, Outcome, Recorder,
};
use crashkv::{CrashSpec, DurableKvService, DurableOp};

const KEYS: u64 = 40;

/// Puts a window of fresh keys, crashes it, and reads every key back;
/// returns the welded history.
fn record_crashed_window() -> History {
    let service = DurableKvService::new(1, 1_000_000);
    let clock = Clock::new();
    let mut router = service.router();
    for key in 1..=KEYS {
        router
            .submit(DurableOp::Put {
                key,
                value: key * 100,
            })
            .expect("the window fits the in-flight cap");
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
    for key in 1..=KEYS {
        if let Ok(prior) = router.collect_one().expect("one reply per submitted op") {
            assert_eq!(prior, None, "fresh key {key}");
            acked.push(key);
        }
    }
    assert_eq!(service.crash_count(0), 1, "the commit crashed");

    // Weld the acked window into a history: each put the client saw succeed
    // is a mandatory insert with its observed result, then post-heal reads
    // of every key.
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
    let mut rec = Recorder::new(router, 0, Arc::clone(&clock));
    for key in 1..=KEYS {
        let read = rec.run(&OpKind::Get { key });
        assert_ne!(
            read,
            OpResult::Aborted,
            "no crash armed during verification"
        );
    }
    History::merge(vec![ops, rec.finish()])
}

#[test]
fn lost_ack_mutant_is_flagged_by_the_durable_checker() {
    let config = CheckConfig::default();
    let history = record_crashed_window();
    assert!(
        check_durable(&history, &config).is_violation(),
        "the lost-ack mutant survived: the durable checker cannot detect \
         acknowledged writes lost by a crash"
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
