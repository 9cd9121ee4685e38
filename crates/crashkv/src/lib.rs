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
//!   [`pabtree::WalElimABTree`] owned by one thread.  The thread runs
//!   `kvserve`'s owner loop ([`kvserve::owner::run_owner`] — lanes,
//!   mailbox and park handshake); what this crate adds is that loop's
//!   durable commit policy.  Operations
//!   flush in program order but are only *ordered* by a group `sfence`;
//!   client acknowledgements are withheld until the covering fence
//!   (`acks_per_fence` is the group-commit knob, 1–64 in the bench sweep).
//!   An acked operation is therefore always durable.
//! * **Crash injection** ([`CrashSpec`]) — a fault directive kills a shard
//!   owner at a chosen group-fence boundary: a seeded prefix of the
//!   unfenced window survives, the suffix rolls back, and optional torn
//!   partial-insert / dirty link-and-persist damage is planted for
//!   [`pabtree::recover`] to repair.  The owner recovers the image on its
//!   own thread, then answers its unacked clients with the retryable
//!   [`Crashed`] error and keeps serving, so the shard heals in place
//!   instead of poisoning.
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
//! contract (acks released before their covering fence) used by conctest's
//! mutation test to prove the checker has teeth.

#![warn(missing_docs)]

mod crash;
mod service;
mod shard;

pub use crash::{CrashReport, CrashSpec, Crashed};
pub use service::{DurableKvService, DurableRouter};
pub use shard::DurableOp;

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fence_per_operation_when_group_size_is_one() {
        let mut service = DurableKvService::new(1, 1);
        let mut router = service.router();
        for k in 1..=50u64 {
            router.put(k, k).unwrap();
        }
        drop(router);
        service.shutdown();
        // Every write forms its own group: exactly one fence each.  (Reads
        // would add boundaries but no fences.)
        assert_eq!(service.fences(0), 50);
        assert!(service.boundaries(0) >= 50);
    }

    #[test]
    fn group_commit_amortizes_fences() {
        let mut service = DurableKvService::new(1, 16);
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
        drop(router);
        service.shutdown();
        let fences = service.fences(0);
        // Group commit must fence at least once per full group, and the
        // pipelined feed keeps groups busy enough that far fewer fences
        // than operations are issued.
        assert!(fences >= total / 16, "fences={fences}");
        assert!(
            fences <= total / 2,
            "group commit barely amortized: fences={fences} for {total} ops"
        );
        assert_eq!(service.total_keys(), total);
    }

    // With the `lost-ack` mutant, acks release before the covering fence,
    // so "every put returned" no longer implies the fence counters are
    // quiescent — the exact-equality scrape checks below would race.
    #[cfg(not(feature = "lost-ack"))]
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
        // Durability counters are functional state (group commit depends on
        // them), so the scraped values are exact even with obs recording
        // compiled out.  The last put blocked for its covering fence, so the
        // counters are quiescent.
        let fences: u64 = (0..2).map(|s| service.fences(s)).sum();
        assert!(fences > 0, "64 blocking puts must fence");
        assert_eq!(obs::expo::sum(&parsed, "durable_fences_total", &[]), fences);
        // The fence stage is recorded unsampled: one span per physical fence.
        let spans = obs::expo::sum(&parsed, "stage_latency_ns_count", &[("stage", "fence")]);
        assert_eq!(spans, if obs::ENABLED { fences } else { 0 });
        service.shutdown();
    }

    // The two crash tests below assert the durability contract the
    // `lost-ack` mutant intentionally violates, so they are compiled out
    // with the mutant (conctest's mutation test asserts the violation).
    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn crash_rolls_back_only_unacked_writes_and_heals() {
        let mut service = DurableKvService::new(1, 1000);
        let mut router = service.router();
        // Queue the load at a parked owner (a submission does not wake it),
        // then arm: arming wakes the owner, which drains the whole load into
        // one open group and crashes at that group's boundary.  Armed any
        // earlier, the owner's idle hook could fire the crash on the quiet
        // shard before a single put was in flight.
        service.wait_parked(0);
        let total = 60u64;
        for key in 1..=total {
            router
                .submit(DurableOp::Put {
                    key,
                    value: key * 2,
                })
                .expect("the load fits one lane");
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
        // Wait for the shard to heal, then verify the durability contract
        // through fresh reads.
        while service.crash_count(0) == 0 {
            std::thread::yield_now();
        }
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
        let mut service = DurableKvService::new(1, 1000);
        let mut router = service.router();
        // As above: the whole load is one open group when the crash fires.
        service.wait_parked(0);
        for key in 1..=60u64 {
            router
                .submit(DurableOp::Put { key, value: key })
                .expect("the load fits one lane");
        }
        service.inject_crash(0, CrashSpec::default());
        let first_crashed = std::iter::from_fn(|| router.collect_one()).position(|r| r.is_err());
        assert!(
            first_crashed.is_some(),
            "the crash must abort the open group"
        );
        assert_eq!(service.crash_count(0), 1);
        assert_eq!(service.crash_reports().len(), 1);
        drop(router);
        service.shutdown();
    }

    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn every_shard_crashes_and_heals_under_concurrent_load() {
        let shards = 3;
        let mut service = DurableKvService::new(shards, 8);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let mut router = service.router();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut acked = Vec::new();
                    let mut k = t * 1_000_000 + 1;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
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
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let acked: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        let mut router = service.router();
        for &k in &acked {
            assert_eq!(router.get(k), Ok(Some(k)), "acked key {k} lost");
        }
        drop(router);
        service.shutdown();
        assert_eq!(service.crash_reports().len(), shards);
        for shard in 0..shards {
            assert_eq!(service.crash_count(shard), 1);
        }
        service.check_invariants().unwrap();
    }

    #[test]
    fn crash_on_an_idle_shard_still_fires_and_heals() {
        let mut service = DurableKvService::new(1, 4);
        let mut router = service.router();
        router.put(1, 1).unwrap();
        // Let the shard go quiet, then arm: the crash fires at the idle
        // point, with an empty unfenced window.
        std::thread::sleep(std::time::Duration::from_millis(5));
        service.inject_crash(0, CrashSpec::default());
        while service.crash_count(0) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(router.get(1), Ok(Some(1)), "service healed and serves");
        drop(router);
        service.shutdown();
        let reports = service.crash_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rolled_back, 0, "idle crash had nothing unfenced");
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

    /// The lost-wake-up reproducer: every blocking round trip pushes one
    /// job at an owner that is somewhere between its last idle scan and
    /// its park (the pause sweeps the phase).  A push that is not fenced
    /// before the client samples the idle flag can slip between the
    /// owner's flag store and its re-scan, and then nobody ever unparks the
    /// owner; the shared client lane fences, so this must run to the end.
    #[test]
    fn window_one_round_trips_never_lose_a_wake_up() {
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut service = DurableKvService::new(1, 16);
            let mut router = service.router();
            for i in 0..25_000u64 {
                let key = i % 512 + 1;
                assert_eq!(router.put(key, i), Ok(None));
                for _ in 0..(i % 128) * 12 {
                    std::hint::spin_loop();
                }
                assert_eq!(router.delete(key), Ok(Some(i)));
            }
            drop(router);
            service.shutdown();
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a blocking round trip hung: the owner parked on a non-empty lane");
        client.join().unwrap();
    }

    /// The pipelined sibling: the lost-wake-up window now sits between a
    /// window's last push and the doorbell its first wait rings.  The pause
    /// before a window sweeps the pushes and the doorbell across the owner's
    /// way into its park; window sizes are skewed small because on a
    /// strongly ordered machine only a window whose first push is still in
    /// flight at the doorbell can lose the race.
    #[test]
    fn pipelined_windows_never_lose_a_wake_up() {
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut service = DurableKvService::new(1, 16);
            let mut router = service.router();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let pause = |spins: u64| {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
            };
            for round in 0..25_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                pause((state >> 32) % 128 * 12);
                let window = 1 + ((state % 64) >> ((state >> 8) % 7));
                for i in 0..window {
                    let key = 1 + (round + i) % 512;
                    router.submit(DurableOp::Delete { key }).unwrap();
                }
                if round % 2 == 1 {
                    pause((state >> 48) % 128 * 12);
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
            .expect("a window hung: the owner parked on a non-empty lane");
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
