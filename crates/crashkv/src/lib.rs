//! # crashkv — durable `kvserve` shards with crash injection
//!
//! This crate welds the repo's two halves together: the sharded serving
//! layer of `kvserve` and the persistent (a,b)-trees of
//! `pabtree` (paper §5), and then deliberately crashes the result to check
//! that the combination is **durably linearizable**.
//!
//! Three layers:
//!
//! * **Durable shards** ([`DurableKvService`]) — each shard is a
//!   [`pabtree::WalElimABTree`].  The service runs no thread: each
//!   [`DurableRouter`] commits its own window of operations on the calling
//!   thread, under the commit locks of the shards it touches.  Operations
//!   flush in program order but are only *ordered* by the window's one
//!   `sfence`; client acknowledgements are withheld until that fence
//!   (`acks_per_fence` caps the window, 1–64 in the bench sweep).  An acked
//!   operation is therefore always durable.
//! * **Crash injection** ([`CrashSpec`]) — a fault directive crashes a
//!   shard inside a chosen commit: a seeded prefix of the unfenced window
//!   survives, the suffix rolls back, and optional torn partial-insert /
//!   dirty link-and-persist damage is planted for [`pabtree::recover`] to
//!   repair.  The committing thread recovers the image, then answers that
//!   shard's operations in the window with the retryable [`Crashed`] error,
//!   so the shard heals in place instead of poisoning.
//! * **Forensics** ([`CrashReport`]) — every crash + recovery cycle records
//!   the unfenced window split, the injected damage, and the
//!   [`pabtree::RecoveryReport`] (including wall-clock recovery time),
//!   feeding the ledger's `crashkv.recover_us` / `crashkv.lost_*` rows and the
//!   durable-linearizability checker in `conctest`.
//!
//! The durability contract the checker enforces: **every acknowledged
//! write survives recovery; an unacknowledged write either linearizes at
//! the crash or vanishes entirely.**
//!
//! The `lost-ack` feature compiles an intentional violation of that
//! contract (a crashed window answered with its own results, i.e. acks for
//! writes the crash rolled back) used by conctest's mutation test to prove
//! the checker has teeth.

#![warn(missing_docs)]

mod crash;
mod service;
mod shard;

/// One point operation: what [`DurableRouter::submit`] takes.  The tree's
/// own batch op, so a window's per-shard part goes to
/// [`abtree::TreeHandle::apply`] as it is.
pub use abtree::PointOp as DurableOp;
pub use crash::{CrashReport, CrashSpec, Crashed};
pub use service::{DurableKvService, DurableRouter};

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "lost-ack"))]
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn blocking_round_trip_across_shards() {
        let mut service = DurableKvService::new(2, 4);
        let mut router = service.router();
        for k in 1..=200u64 {
            assert_eq!(router.put(k, k * 10), Ok(None));
        }
        for k in 1..=200u64 {
            assert_eq!(router.get(k), Ok(Some(k * 10)));
        }
        assert_eq!(router.put(7, 999), Ok(Some(70)), "insert-if-absent");
        for k in (1..=200u64).step_by(2) {
            assert_eq!(router.delete(k), Ok(Some(k * 10)));
        }
        assert_eq!(router.get(1), Ok(None));
        assert_eq!(router.get(2), Ok(Some(20)));
        drop(router);
        service.shutdown();
        assert_eq!(service.total_keys(), 100);
        service.check_invariants().unwrap();
    }

    /// Pipelined windows of 16 mixed ops over 48 keys, so an early op of a
    /// window often splits or merges a leaf that a later op of the same
    /// window reads or writes: every ack matches a sequential model, on
    /// one shard and on two.  The `stale-path` mutant, which answers such
    /// a later op from the replaced leaf, must fail it.
    #[test]
    fn a_window_reads_its_own_writes_across_splits() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for shards in [1, 2] {
            let service = DurableKvService::new(shards, 16);
            let mut router = service.router();
            let mut model = std::collections::BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(0x51A1E + shards as u64);
            let mut differ = 0usize;
            for round in 0..2_000u64 {
                let ops: Vec<DurableOp> = (0..16)
                    .map(|_| {
                        let key = rng.gen_range(1..=48);
                        match rng.gen_range(0..3) {
                            0 => DurableOp::Get { key },
                            1 => DurableOp::Put {
                                key,
                                value: round << 8 | key,
                            },
                            _ => DurableOp::Delete { key },
                        }
                    })
                    .collect();
                for &op in &ops {
                    router
                        .submit(op)
                        .expect("the window fits the in-flight cap");
                }
                for op in ops {
                    let expected = match op {
                        DurableOp::Get { key } => model.get(&key).copied(),
                        DurableOp::Put { key, value } => match model.get(&key) {
                            Some(&prior) => Some(prior),
                            None => model.insert(key, value),
                        },
                        DurableOp::Delete { key } => model.remove(&key),
                    };
                    let ack = router.collect_one().expect("an op is in flight");
                    differ += usize::from(ack != Ok(expected));
                }
            }
            if cfg!(feature = "stale-path") {
                assert!(differ > 0, "the stale-path mutant survived");
            } else {
                assert_eq!(differ, 0, "{shards} shard(s): {differ} acks differ");
            }
            assert_eq!(service.total_keys(), model.len() as u64);
            service.check_invariants().unwrap();
        }
    }

    #[test]
    fn fence_per_operation_when_group_size_is_one() {
        let service = DurableKvService::new(1, 1);
        let mut router = service.router();
        for k in 1..=50u64 {
            router.put(k, k).unwrap();
        }
        router.get(1).unwrap();
        // Every write is its own window: exactly one fence each.  The read
        // closes a boundary but fences nothing.
        assert_eq!(service.fences(0), 50);
        assert_eq!(service.boundaries(0), 51);
    }

    #[test]
    fn group_commit_amortizes_fences() {
        let service = DurableKvService::new(1, 16);
        let mut router = service.router();
        let total = 320u64;
        let mut submitted = 0u64;
        let mut acked = 0u64;
        while acked < total {
            while submitted < total {
                match router.submit(DurableOp::Put {
                    key: submitted + 1,
                    value: submitted + 1,
                }) {
                    Ok(()) => submitted += 1,
                    Err(_) => break,
                }
            }
            let reply = router.collect_one().expect("acks outstanding");
            assert_eq!(reply, Ok(None));
            acked += 1;
        }
        // The pipelined feed keeps a full window queued behind every
        // collect, so every window fills: one fence per 16 writes.
        assert_eq!(service.fences(0), total / 16);
        assert_eq!(service.total_keys(), total);
    }

    #[test]
    fn registry_scrapes_durability_counters_and_fence_stage() {
        let mut service = DurableKvService::new(2, 4);
        let mut router = service.router();
        for k in 1..=64u64 {
            router.put(k, k).unwrap();
        }
        drop(router);
        let text = service.registry().render();
        let parsed = obs::expo::parse(&text).unwrap();
        for name in [
            "durable_boundaries_total",
            "durable_fences_total",
            "durable_crashes_total",
        ] {
            assert!(
                parsed.iter().any(|s| s.name == name),
                "{name} missing from the scrape"
            );
        }
        // Durability counters are functional state, so the scraped values
        // are exact even with obs recording compiled out.  Every put
        // committed on this thread, so the counters are quiescent.
        let fences: u64 = (0..2).map(|s| service.fences(s)).sum();
        assert_eq!(fences, 64, "every blocking put is its own fence");
        assert_eq!(obs::expo::sum(&parsed, "durable_fences_total", &[]), fences);
        // The fence stage is recorded unsampled: one span per physical fence.
        let spans = obs::expo::sum(&parsed, "stage_latency_ns_count", &[("stage", "fence")]);
        assert_eq!(spans, if obs::ENABLED { fences } else { 0 });
        service.shutdown();
    }

    // The crash tests below assert the durability contract the `lost-ack`
    // mutant intentionally violates, so they are compiled out with the
    // mutant (conctest's mutation test asserts the violation).
    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn crash_rolls_back_only_unacked_writes_and_heals() {
        let mut service = DurableKvService::new(1, 1000);
        let mut router = service.router();
        // The whole load is one queued window when the crash is armed; the
        // first collect commits it and the crash fires inside that commit.
        let total = 60u64;
        for key in 1..=total {
            router
                .submit(DurableOp::Put {
                    key,
                    value: key * 2,
                })
                .expect("the load fits the in-flight cap");
        }
        service.inject_crash(
            0,
            CrashSpec {
                after_boundaries: 0,
                survivor_seed: 7,
                torn_insert: true,
                dirty_link: true,
            },
        );
        let mut outcomes = Vec::new();
        while let Some(result) = router.collect_one() {
            outcomes.push(result);
        }
        assert_eq!(outcomes.len(), total as usize);
        assert!(
            outcomes.iter().any(|r| r.is_err()),
            "the mid-load crash must abort at least one unacked write"
        );
        assert_eq!(service.crash_count(0), 1);
        for (i, outcome) in outcomes.iter().enumerate() {
            let key = i as u64 + 1;
            if outcome.is_ok() {
                assert_eq!(
                    router.get(key),
                    Ok(Some(key * 2)),
                    "acked write to key {key} must survive the crash"
                );
            } else {
                // Unacked: linearized at the crash or vanished — both legal.
                let read = router.get(key).unwrap();
                assert!(read == Some(key * 2) || read.is_none());
            }
        }
        drop(router);
        service.shutdown();
        let reports = service.crash_reports();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.shard, 0);
        assert_eq!(report.survived + report.rolled_back, report.unfenced);
        assert!(report.dirty_link, "directive requested a dirty link");
        assert!(report.recovery.leaves >= 1);
        service.check_invariants().unwrap();
        // The metric registry mirrors the recovery: exactly one completed
        // crash cycle.
        let parsed = obs::expo::parse(&service.registry().render()).unwrap();
        assert_eq!(obs::expo::sum(&parsed, "durable_crashes_total", &[]), 1);
    }

    /// A `Crashed` reply means the shard has already recovered: the crash
    /// is counted and its report logged before the first one is answered,
    /// so a client needs no wait loop to see them.
    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn the_first_crashed_reply_finds_the_shard_recovered() {
        let service = DurableKvService::new(1, 1000);
        let mut router = service.router();
        for key in 1..=60u64 {
            router
                .submit(DurableOp::Put { key, value: key })
                .expect("the load fits the in-flight cap");
        }
        service.inject_crash(0, CrashSpec::default());
        let first_crashed = std::iter::from_fn(|| router.collect_one()).position(|r| r.is_err());
        assert!(
            first_crashed.is_some(),
            "the crash must abort the open window"
        );
        assert_eq!(service.crash_count(0), 1);
        assert_eq!(service.crash_reports().len(), 1);
    }

    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn every_shard_crashes_and_heals_under_concurrent_load() {
        let shards = 3;
        let service = DurableKvService::new(shards, 8);
        let stop = AtomicBool::new(false);
        let acked: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (service, stop) = (&service, &stop);
                    scope.spawn(move || {
                        let mut router = service.router();
                        let mut acked = Vec::new();
                        let mut k = t * 1_000_000 + 1;
                        while !stop.load(Ordering::Relaxed) {
                            if router.put(k, k).is_ok() {
                                acked.push(k);
                            }
                            k += 1;
                        }
                        acked
                    })
                })
                .collect();
            for shard in 0..shards {
                service.inject_crash(
                    shard,
                    CrashSpec {
                        after_boundaries: 2,
                        survivor_seed: shard as u64,
                        torn_insert: shard % 2 == 0,
                        dirty_link: true,
                    },
                );
                while service.crash_count(shard) == 0 {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let mut router = service.router();
        for &k in &acked {
            assert_eq!(router.get(k), Ok(Some(k)), "acked key {k} lost");
        }
        assert_eq!(service.crash_reports().len(), shards);
        for shard in 0..shards {
            assert_eq!(service.crash_count(shard), 1);
        }
        service.check_invariants().unwrap();
    }

    /// Four routers commit pipelined windows that each span all three
    /// shards, so their commit-lock sets overlap on every commit, while
    /// every shard crashes once.  Locks taken in any order but one fixed
    /// order could deadlock here; the watchdog turns that into a failure.
    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn cross_shard_windows_under_contention_keep_every_acked_write() {
        const SHARDS: usize = 3;
        const WINDOW: u64 = 12;
        // Every worker commits at least this many windows, crashes or not.
        const MIN_ROUNDS: u32 = 500;
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let service = DurableKvService::new(SHARDS, 8);
            let stop = AtomicBool::new(false);
            let acked: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4u64)
                    .map(|t| {
                        let (service, stop) = (&service, &stop);
                        scope.spawn(move || {
                            let mut router = service.router();
                            let mut acked = Vec::new();
                            let mut next = (t << 40) + 1;
                            for round in 0.. {
                                if round >= MIN_ROUNDS && stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                let keys = next..next + WINDOW;
                                next += WINDOW;
                                let shards: std::collections::BTreeSet<usize> =
                                    keys.clone().map(|key| service.shard_of(key)).collect();
                                assert_eq!(shards.len(), SHARDS, "a window spans every shard");
                                for key in keys.clone() {
                                    router
                                        .submit(DurableOp::Put { key, value: key })
                                        .expect("the window fits the in-flight cap");
                                }
                                for key in keys {
                                    if router.collect_one() == Some(Ok(None)) {
                                        acked.push(key);
                                    }
                                }
                            }
                            acked
                        })
                    })
                    .collect();
                for shard in 0..SHARDS {
                    service.inject_crash(
                        shard,
                        CrashSpec {
                            after_boundaries: 4,
                            survivor_seed: shard as u64 + 1,
                            torn_insert: true,
                            dirty_link: true,
                        },
                    );
                    while service.crash_count(shard) == 0 {
                        std::thread::yield_now();
                    }
                }
                stop.store(true, Ordering::Relaxed);
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("worker panicked"))
                    .collect()
            });
            let mut router = service.router();
            for &key in &acked {
                assert_eq!(router.get(key), Ok(Some(key)), "acked key {key} lost");
            }
            assert_eq!(service.crash_reports().len(), SHARDS);
            service.check_invariants().unwrap();
            done.send(acked.len()).unwrap();
        });
        let acked = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("cross-shard commits deadlocked, or the run panicked (see above)");
        assert!(acked > 0);
    }

    /// A crash armed on an idle shard waits for the next commit that
    /// touches the shard, fires inside it and heals before it answers.
    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn crash_on_an_idle_shard_still_fires_and_heals() {
        let service = DurableKvService::new(1, 4);
        let mut router = service.router();
        router.put(1, 1).unwrap();
        service.inject_crash(0, CrashSpec::default());
        assert_eq!(service.crash_count(0), 0, "nothing fires on a quiet shard");
        // The next commit touching the shard crashes and recovers before it
        // answers; seed 0 keeps nothing of its unfenced window.
        assert_eq!(router.put(2, 2), Err(Crashed));
        assert_eq!(service.crash_count(0), 1);
        assert_eq!(router.get(1), Ok(Some(1)), "fenced before the crash");
        assert_eq!(router.get(2), Ok(None), "rolled back");
        let reports = service.crash_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!((reports[0].unfenced, reports[0].rolled_back), (1, 1));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut service = DurableKvService::new(2, 2);
        let mut router = service.router();
        router.put(1, 2).unwrap();
        drop(router);
        service.shutdown();
        service.shutdown();
        drop(service); // Drop after explicit shutdown must be a no-op.
    }

    /// No thread parks or wakes: a blocking call commits its own window.
    /// The hazard left is a round trip that queues its op and then waits
    /// for a commit nobody makes; the watchdog turns that into a failure.
    #[test]
    fn window_one_round_trips_never_lose_a_wake_up() {
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut service = DurableKvService::new(1, 16);
            let mut router = service.router();
            for i in 0..25_000u64 {
                let key = i % 512 + 1;
                assert_eq!(router.put(key, i), Ok(None));
                assert_eq!(router.delete(key), Ok(Some(i)));
            }
            drop(router);
            service.shutdown();
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a blocking round trip hung: its window was never committed");
        client.join().unwrap();
    }

    /// The pipelined sibling: windows of skewed sizes, mostly smaller than
    /// `acks_per_fence`, so nearly every window commits only because
    /// `collect_one` finds no acked result waiting.  A collect that waited
    /// instead of committing would hang here.
    #[test]
    fn pipelined_windows_never_lose_a_wake_up() {
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut service = DurableKvService::new(1, 16);
            let mut router = service.router();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for round in 0..25_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let window = 1 + ((state % 64) >> ((state >> 8) % 7));
                for i in 0..window {
                    let key = 1 + (round + i) % 512;
                    router.submit(DurableOp::Delete { key }).unwrap();
                }
                for _ in 0..window {
                    assert_eq!(router.collect_one(), Some(Ok(None)));
                }
            }
            drop(router);
            service.shutdown();
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a window hung: a collect waited on an uncommitted window");
        client.join().unwrap();
    }

    #[test]
    fn sharding_matches_kvserve_placement() {
        let service = DurableKvService::new(4, 1);
        for key in [1u64, 99, 12_345, u64::MAX - 1] {
            assert_eq!(service.shard_of(key), kvserve::shard_of(key, 4));
        }
    }
}
