//! Mutation detection: the harness must flag each intentionally broken
//! mutant, or it is testing nothing.  One module per mutant, each compiled
//! only under its feature; a mutant's negative control — the identical hunt
//! over the unbroken code — runs whenever its feature is off.

/// Shrinks a flagged `history` to a reproducer of at most `at_most` events
/// that still violates, and leaves it in `<mutant>-caught.txt`.
#[cfg(any(feature = "torn-scan", feature = "stale-stamp"))]
fn assert_shrinks(
    mutant: &str,
    history: &conctest::History,
    config: &conctest::CheckConfig,
    at_most: usize,
) {
    let minimal = conctest::shrink_history(history, config);
    let outcome = conctest::check(&minimal, config);

    // Write the reproducer *before* asserting over it, so a failing
    // assertion below still leaves the artifact for CI to upload.
    let artifact = format!(
        "{mutant} mutation caught ({} events, shrunk from {}): {}\nminimal history:\n{}",
        minimal.ops.len(),
        history.ops.len(),
        match &outcome {
            conctest::Outcome::Violation(report) => report.to_string(),
            other => format!("shrunk outcome unexpectedly {other:?}"),
        },
        minimal.render()
    );
    conctest::write_artifact(&format!("{mutant}-caught.txt"), &artifact);
    println!("{artifact}");

    assert!(outcome.is_violation(), "shrunk history must still violate");
    assert!(
        minimal.ops.len() <= at_most && minimal.ops.len() < history.ops.len(),
        "expected a tight reproducer, got {} events (from {}):\n{}",
        minimal.ops.len(),
        history.ops.len(),
        minimal.render()
    );
}

/// The `torn-scan` mutant: the `TornScan` wrapper reads a scan window in two
/// halves.  The torn window opens between the two half-window reads, so a
/// writer that is never "in" an impossible state — it cycles key `a`
/// present / nothing / key `b` present, with `a` in the low half and `b` in
/// the high half — exposes the tear: a scan observing `a` *and* `b`
/// together saw a state that never existed, which only the joint
/// snapshot-scan check can reject.  The mutant sleeps in its gap and the
/// writer paces itself with short sleeps, so the interleaving happens even
/// on a single hardware thread (no parallelism gate needed) and each
/// round's history stays small enough for the checker's search.
#[cfg(feature = "torn-scan")]
mod torn_scan {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use abtree::{ConcurrentMap, ElimABTree};
    use conctest::{check, CheckConfig, Clock, History, OpKind, Recorder, TornScan};

    /// Low and high halves of the scanned window `[0, 3]`.
    const A: u64 = 1;
    const B: u64 = 2;

    /// One recorded round of `scans` torn-window scans against a paced
    /// flip-flop writer (at most `writer_ops` operations).
    fn record_round(map: &dyn ConcurrentMap, scans: u32, writer_ops: u32) -> History {
        let clock = Clock::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = {
                let clock = std::sync::Arc::clone(&clock);
                let stop = &stop;
                scope.spawn(move || {
                    let mut rec = Recorder::new(map.handle(), 0, clock);
                    for i in 0..writer_ops {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // One step of the {A} -> {} -> {B} -> {} cycle per
                        // iteration, paced so the cycle advances a few steps
                        // inside each torn-scan gap rather than burning through
                        // the op budget in one scheduling quantum.
                        let value = u64::from(i);
                        rec.run(&match i % 4 {
                            0 => OpKind::Insert { key: A, value },
                            1 => OpKind::Delete { key: A },
                            2 => OpKind::Insert { key: B, value },
                            _ => OpKind::Delete { key: B },
                        });
                        std::thread::sleep(Duration::from_micros(25));
                    }
                    rec.finish()
                })
            };
            let scanner = {
                let clock = std::sync::Arc::clone(&clock);
                scope.spawn(move || {
                    let mut rec = Recorder::new(map.handle(), 1, clock);
                    for _ in 0..scans {
                        rec.run(&OpKind::Range { lo: 0, hi: 3 });
                    }
                    rec.finish()
                })
            };
            let scan_log = scanner.join().expect("scanner panicked");
            stop.store(true, Ordering::Relaxed);
            let write_log = writer.join().expect("writer panicked");
            History::merge(vec![write_log, scan_log])
        })
    }

    /// Runs rounds until the checker flags one (or the round budget runs out).
    fn hunt_tear(rounds: u32) -> Option<History> {
        for _ in 0..rounds {
            let torn = TornScan::new(ElimABTree::new() as ElimABTree);
            let history = record_round(&torn, 40, 600);
            // The mutant wraps a Snapshot-scan structure, so joint atomicity is
            // the contract being checked.
            if check(&history, &CheckConfig::with_snapshot_scans()).is_violation() {
                return Some(history);
            }
        }
        None
    }

    #[test]
    fn torn_scan_mutant_is_flagged_and_shrinks() {
        let history = hunt_tear(50).expect(
            "the torn-scan mutant survived every round: the checker cannot \
             detect non-atomic scans",
        );

        // The minimal history needs only a handful of events (one torn scan
        // plus the writer ops proving the observed combination never
        // existed).
        super::assert_shrinks(
            "torn-scan",
            &history,
            &CheckConfig::with_snapshot_scans(),
            10,
        );
    }

    /// Negative control: the identical hunt over the *unbroken* structure must
    /// stay clean — otherwise the detection above could be a checker false
    /// positive rather than a caught mutation.
    #[test]
    fn unbroken_structure_survives_the_same_hunt() {
        for _ in 0..8 {
            let tree: ElimABTree = ElimABTree::new();
            let history = record_round(&tree, 40, 300);
            let outcome = check(&history, &CheckConfig::with_snapshot_scans());
            assert!(
                !outcome.is_violation(),
                "false positive on the correct structure: {outcome:?}"
            );
        }
    }
}

/// The `stale-stamp` mutant (kvserve feature, forwarded): a write to a shard
/// decides whether its post-state may be cached from the end-of-write
/// counters alone, skipping the start-of-write quiescence check of the
/// begun/done stamp protocol.  A writer that was already pending when the
/// write announced itself can then finish in the middle of it, replace the
/// key after the write's own tree operation, and still leave the counters
/// looking as if the write had run alone — so the router caches a value that
/// is already gone under a stamp that is current, and a later `get` returns
/// it: a read of a value some completed write replaced.  That needs more
/// than one mutator per shard, which is what [`record_hot_key_paths`] sets
/// up: three routers writing the same eight keys.
///
/// The generator's shards pause inside the protocol's windows, so the
/// interleaving does not wait for a preemption to land in a hundred
/// nanoseconds: a round of 2,000 operations per thread is flagged about nine
/// times in ten (debug profile, two cores); unstalled, about one in twenty.
/// Rounds are short and start from a fresh service, so each history stays
/// cheap to check and to shrink.
mod stale_stamp {
    use conctest::{check, record_hot_key_paths, CheckConfig, History};

    /// Runs rounds until the checker flags one (or the budget runs out).
    fn hunt_stale_read(rounds: u32) -> Option<History> {
        (0..rounds).find_map(|_| {
            let (history, _) = record_hot_key_paths(3, 2_000);
            check(&history, &CheckConfig::default())
                .is_violation()
                .then_some(history)
        })
    }

    #[cfg(feature = "stale-stamp")]
    #[test]
    fn stale_stamp_mutant_is_flagged_and_shrinks() {
        let history = hunt_stale_read(20).expect(
            "the stale-stamp mutant survived every round: the checker cannot \
             see a stale cached read",
        );
        // One key's stale read and the writes around it; the shrinker does
        // not cut multi-put episodes, which is what is left above ~5.
        super::assert_shrinks("stale-stamp", &history, &CheckConfig::default(), 40);
    }

    /// Negative control: the same hunt over the sound protocol finds
    /// nothing — otherwise the detection above could be a checker false
    /// positive.  (`tests/thread_per_shard.rs` runs the longer version, with
    /// the cache-hit witness.)
    #[cfg(not(feature = "stale-stamp"))]
    #[test]
    fn sound_stamps_survive_the_same_hunt() {
        assert!(
            hunt_stale_read(4).is_none(),
            "false positive on the sound stamp protocol"
        );
    }
}
