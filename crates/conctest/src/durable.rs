//! Crash-aware recording and durable-linearizability checking for
//! crashkv's durable service.
//!
//! # The welded history
//!
//! A durable run is not one execution but several, separated by crashes:
//! each shard may die and be recovered mid-run.  Because the router whose
//! commit crashes a shard recovers it *in place* (same service, same
//! thread, same [`Clock`]) before it answers the crashed operations, the
//! pre- and post-crash operations of every thread land in one event log
//! with one shared tick order — the histories are **welded** at recording
//! time, and the crash instants appear implicitly as the intervals of the
//! operations that aborted.
//!
//! # The durability rule
//!
//! Over a welded history, *durable linearizability* is ordinary
//! linearizability plus one clause about the crash window:
//!
//! * every **acknowledged** write took effect and survives recovery — an
//!   acked operation records its normal result and stays a mandatory
//!   [`crate::checker`] action, so a post-crash read missing an acked
//!   write is a violation;
//! * an **unacknowledged** write (the router returned
//!   [`crashkv::Crashed`]) either linearized at the crash or vanished —
//!   it records [`OpResult::Aborted`] and becomes an *optional* action the
//!   search may apply or discard, but never resurrect after its absence
//!   was observed.
//!
//! A [`DurableRouter`] is a [`Session`] of point operations whose `Crashed`
//! answers are [`OpResult::Aborted`], so a [`Recorder`](crate::Recorder)
//! over one produces exactly such histories, and a [`DurableKvService`] is a
//! [`Target`] the differential fuzzer replays against the oracle.
//! [`check_durable`] runs the checker over the weld.
//!
//! [`Clock`]: crate::Clock

use crashkv::{DurableKvService, DurableRouter};

use crate::checker::{check, CheckConfig, Outcome};
use crate::fuzz::Target;
use crate::history::{History, OpKind, OpResult, Session};

/// Blocking durable calls: an acknowledged result, or
/// [`OpResult::Aborted`] when the shard crashed before the covering group
/// fence.
///
/// # Panics
///
/// Panics on scans and batches: the durable router serves point
/// operations only.
impl Session for DurableRouter {
    fn run(&mut self, op: &OpKind) -> OpResult {
        let outcome = match *op {
            OpKind::Insert { key, value } => self.put(key, value),
            OpKind::Delete { key } => self.delete(key),
            OpKind::Get { key } => self.get(key),
            _ => panic!("the durable router serves point operations only, not {op}"),
        };
        outcome.map_or(OpResult::Aborted, OpResult::Value)
    }
}

/// A durable service; its sessions are durable routers.
impl Target for DurableKvService {
    type Session<'t> = DurableRouter;

    fn open(&self) -> DurableRouter {
        self.router()
    }
}

/// Checks a welded pre/post-crash history for durable linearizability.
///
/// The weld is already in the history (see the module docs), and the
/// crash-window rule is carried by the [`OpResult::Aborted`] records, so
/// this is the ordinary checker run under the point-op configuration the
/// durable service warrants: shards promise no cross-shard atomicity and
/// the durable router exposes no scans, hence non-snapshot semantics.
pub fn check_durable(history: &History, config: &CheckConfig) -> Outcome {
    debug_assert!(
        !config.snapshot_scans,
        "the durable service has no snapshot scans to model"
    );
    check(history, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{differential_fuzz, Clock, FuzzConfig, Recorder};
    use std::sync::Arc;

    #[test]
    fn durable_recorder_round_trips_and_records() {
        let mut service = DurableKvService::new(2, 4);
        let clock = Clock::new();
        let mut rec = Recorder::new(service.router(), 0, Arc::clone(&clock));
        let insert = |key, value| OpKind::Insert { key, value };
        assert_eq!(rec.run(&insert(1, 10)), OpResult::Value(None));
        assert_eq!(rec.run(&insert(1, 11)), OpResult::Value(Some(10)));
        assert_eq!(rec.run(&OpKind::Get { key: 1 }), OpResult::Value(Some(10)));
        assert_eq!(
            rec.run(&OpKind::Delete { key: 1 }),
            OpResult::Value(Some(10))
        );
        assert_eq!(rec.run(&OpKind::Get { key: 1 }), OpResult::Value(None));
        let ops = rec.finish();
        service.shutdown();
        assert_eq!(ops.len(), 5);
        for pair in ops.windows(2) {
            assert!(pair[0].invoke < pair[0].response);
            assert!(pair[0].response < pair[1].invoke);
        }
        let history = History::merge(vec![ops]);
        assert!(matches!(
            check_durable(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn crashed_operations_record_aborted_and_still_check() {
        let mut service = DurableKvService::new(1, 1_000);
        service.inject_crash(
            0,
            crashkv::CrashSpec {
                after_boundaries: 0,
                survivor_seed: 3,
                torn_insert: false,
                dirty_link: false,
            },
        );
        let clock = Clock::new();
        let mut rec = Recorder::new(service.router(), 0, Arc::clone(&clock));
        let mut aborted = 0;
        for k in 1..=40u64 {
            if rec.run(&OpKind::Insert { key: k, value: k }) == OpResult::Aborted {
                aborted += 1;
            }
        }
        while service.crash_count(0) == 0 {
            std::thread::yield_now();
        }
        // Post-crash verification reads of every key, recorded in the same
        // welded history.
        for k in 1..=40u64 {
            assert_ne!(rec.run(&OpKind::Get { key: k }), OpResult::Aborted);
        }
        let history = History::merge(vec![rec.finish()]);
        service.shutdown();
        assert!(
            history
                .ops
                .iter()
                .filter(|op| op.result == OpResult::Aborted)
                .count()
                == aborted
        );
        let outcome = check_durable(&history, &CheckConfig::default());
        assert!(
            matches!(outcome, Outcome::Linearizable),
            "{outcome:?}\n{}",
            history.render()
        );
    }

    /// Durable routers over a 2-shard service with groups of 4 acks per
    /// fence agree op-for-op with the oracle on a seeded point-only
    /// schedule (no crash is armed).
    #[test]
    fn durable_router_matches_the_oracle() {
        let cfg = FuzzConfig {
            ops_per_thread: 100,
            mix: workload::OperationMix::from_update_percent(50),
            ..FuzzConfig::default()
        };
        let replayed = differential_fuzz(&|| DurableKvService::new(2, 4), &cfg)
            .unwrap_or_else(|failure| panic!("{}", failure.render()));
        assert_eq!(replayed, 300);
    }
}
