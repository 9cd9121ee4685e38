//! The durable sharded service: one owner thread per shard, and the
//! client-side router.
//!
//! ```text
//!            DurableRouter (one per client thread)
//!      get/put/delete          submit / collect_one
//!            │ SPSC job lane        │
//!            ▼                      ▼
//!   ┌─ shard 0 owner ──┐   ┌─ shard 1 owner ──┐   ...
//!   │ WalElimABTree    │   │ WalElimABTree    │
//!   │ group fence ack  │   │ group fence ack  │
//!   │ crash: roll back │   │ crash: roll back │
//!   │ → recover → log  │   │ → recover → log  │
//!   │ → answer Crashed │   │ → answer Crashed │
//!   └──────────────────┘   └──────────────────┘
//! ```
//!
//! Every shard is owned by exactly one thread running `kvserve`'s owner
//! loop ([`kvserve::owner`]) under the group-fence commit policy of
//! [`crate::shard`]; clients talk to it over that runtime's lanes.  A
//! crash is handled entirely by that owner, on its own thread: it rolls
//! back, runs [`pabtree::recover`] over the shard's persistent image,
//! records a [`CrashReport`], and only then answers the crashed group's
//! unacked operations with [`Crashed`] — so a client that sees `Crashed`
//! talks to a shard that has already recovered — and goes on serving.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use kvserve::owner::{run_owner, ClientLane};
use kvserve::shard_of;
use obs::{Registry, Sample, StageTrace};

use crate::crash::{CrashReport, CrashSpec, Crashed};
use crate::shard::{DurableOp, GroupFence, ShardCell, ShardReply};

/// A durable sharded key/value service with in-place crash recovery.
///
/// Compared to `kvserve::KvService` the shards are persistent
/// ([`pabtree::WalElimABTree`]: per-operation flushes, group fences), the
/// acknowledgement batching knob `acks_per_fence` trades ack latency for
/// fence rate, and a crashed shard recovers instead of poisoning the
/// service.
pub struct DurableKvService {
    shards: Arc<Vec<Arc<ShardCell>>>,
    /// One owner thread per shard; empty once shut down.
    owners: Vec<JoinHandle<()>>,
    /// Every shard's crash reports, appended by the crashing owners.
    crash_log: Arc<Mutex<Vec<CrashReport>>>,
    /// Pull-based metric registry: per-shard durability counters
    /// (`durable_*`) and the fence-stage latency histogram register at
    /// construction; render it (or graft it into a larger spine) for a
    /// crash-aware health scrape.
    registry: Arc<Registry>,
    trace: Arc<StageTrace>,
}

impl DurableKvService {
    /// Builds a service with `shard_count` durable shards, releasing client
    /// acknowledgements in groups of up to `acks_per_fence` per fence
    /// (1 = fence per operation; larger groups amortize the fence but delay
    /// acks — `crashkv.fences_per_ack` on the ledger).
    pub fn new(shard_count: usize, acks_per_fence: u32) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        let trace = Arc::new(StageTrace::new());
        let crash_log = Arc::new(Mutex::new(Vec::new()));
        let shards: Arc<Vec<Arc<ShardCell>>> = Arc::new(
            (0..shard_count)
                .map(|idx| {
                    let log = Arc::clone(&crash_log);
                    Arc::new(ShardCell::new(idx, Arc::clone(&trace), log))
                })
                .collect(),
        );
        let owners = shards
            .iter()
            .enumerate()
            .map(|(idx, cell)| {
                let cell = Arc::clone(cell);
                std::thread::Builder::new()
                    .name(format!("crashkv-shard-{idx}"))
                    .spawn(move || {
                        run_owner(&cell.mailbox, &mut GroupFence::new(&cell, acks_per_fence));
                    })
                    .expect("failed to spawn shard owner")
            })
            .collect();
        let registry = Arc::new(Registry::new());
        {
            let cells = Arc::clone(&shards);
            registry.register(move |out| {
                for (index, cell) in cells.iter().enumerate() {
                    let state = &cell.state;
                    out.push(
                        Sample::counter(
                            "durable_boundaries_total",
                            state.boundaries.load(Ordering::Relaxed),
                        )
                        .with("shard", index),
                    );
                    out.push(
                        Sample::counter(
                            "durable_fences_total",
                            state.fences.load(Ordering::Relaxed),
                        )
                        .with("shard", index),
                    );
                    out.push(
                        Sample::counter("durable_owner_wakes_total", cell.mailbox.wakes())
                            .with("shard", index),
                    );
                    out.push(
                        Sample::counter(
                            "durable_crashes_total",
                            state.crashes.load(Ordering::Relaxed),
                        )
                        .with("shard", index),
                    );
                }
            });
        }
        {
            let trace = Arc::clone(&trace);
            registry.register(move |out| trace.collect(out));
        }
        Self {
            shards,
            owners,
            crash_log,
            registry,
            trace,
        }
    }

    /// Opens a client router (one lane pair per shard).  Any number of
    /// routers may be open concurrently; each belongs to one client thread.
    pub fn router(&self) -> DurableRouter {
        DurableRouter {
            lanes: self
                .shards
                .iter()
                .map(|cell| cell.mailbox.open_lane())
                .collect(),
            pending: VecDeque::new(),
            completed: VecDeque::new(),
        }
    }

    /// Arms a crash on `shard` (see [`CrashSpec`]).  The crash fires at the
    /// chosen group-fence boundary, and the shard's owner recovers the
    /// shard before it answers the crashed group.  At most one directive is
    /// armed per shard at a time — a second call overwrites an unfired
    /// first.
    pub fn inject_crash(&self, shard: usize, spec: CrashSpec) {
        self.shards[shard].arm_crash(spec);
    }

    /// The service's metric registry.  Per-shard durability counters
    /// (`durable_boundaries_total`, `durable_fences_total`,
    /// `durable_owner_wakes_total`, `durable_crashes_total`) and the stage
    /// trace register at construction; callers may register further
    /// sources or graft [`Registry::snapshot`] output into a larger scrape.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The stage trace the shard owners record group-fence spans into
    /// (`stage_latency_ns{stage="fence"}` in the scrape).
    pub fn stage_trace(&self) -> &Arc<StageTrace> {
        &self.trace
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key` ([`kvserve::shard_of`], so sharding stays
    /// comparable across the two services).
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Completed crash + recovery cycles on `shard`.
    pub fn crash_count(&self, shard: usize) -> u64 {
        self.shards[shard].state.crashes.load(Ordering::SeqCst)
    }

    /// Group-fence boundaries `shard` has completed (every boundary is an
    /// ack-release point; read-only boundaries skip the physical fence).
    pub fn boundaries(&self, shard: usize) -> u64 {
        self.shards[shard].state.boundaries.load(Ordering::SeqCst)
    }

    /// Physical group fences `shard` has issued.
    pub fn fences(&self, shard: usize) -> u64 {
        self.shards[shard].state.fences.load(Ordering::SeqCst)
    }

    /// Snapshot of every recorded [`CrashReport`], in recovery order.
    pub fn crash_reports(&self) -> Vec<CrashReport> {
        self.crash_log.lock().expect("crash log poisoned").clone()
    }

    /// Total keys across all shards.  Quiescent use only (tests, benches).
    pub fn total_keys(&self) -> u64 {
        self.shards.iter().map(|cell| cell.tree.stats().keys).sum()
    }

    /// Structural invariant check over every shard tree.  Quiescent only.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (idx, cell) in self.shards.iter().enumerate() {
            cell.tree
                .check_invariants()
                .map_err(|e| format!("shard {idx}: {e}"))?;
        }
        Ok(())
    }

    /// Waits until `shard`'s owner has parked (see
    /// [`kvserve::owner::wait_parked`]): for tests that need an idle owner.
    #[cfg(test)]
    pub(crate) fn wait_parked(&self, shard: usize) {
        kvserve::owner::wait_parked(&self.shards[shard].mailbox);
    }

    /// Stops every owner.  Requires all routers to be dropped (or at least
    /// quiescent): owners drain their lanes before exiting.  Idempotent;
    /// also runs on `Drop`.
    pub fn shutdown(&mut self) {
        for cell in self.shards.iter() {
            cell.mailbox.begin_shutdown();
        }
        for owner in self.owners.drain(..) {
            let _ = owner.join();
        }
    }
}

impl Drop for DurableKvService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client handle: routes operations to their shard over one
/// [`ClientLane`] per shard.
///
/// Two usage styles, freely mixable:
///
/// * **Blocking** — [`get`](Self::get) / [`put`](Self::put) /
///   [`delete`](Self::delete) wait for the acknowledgement, i.e. for the
///   covering group fence.  `Ok` means the effect is durable; [`Crashed`]
///   means the shard crashed first and the operation may or may not have
///   taken effect (retry at will).
/// * **Pipelined** — [`submit`](Self::submit) queues without waiting (so
///   group commits actually fill) and [`collect_one`](Self::collect_one)
///   harvests acknowledgements in submission order.  `submit` alone does
///   not wake a parked shard owner: the lanes' doorbell
///   ([`kvserve::owner`]) rings when an acknowledgement is waited for, or
///   on [`flush`](Self::flush).
pub struct DurableRouter {
    lanes: Vec<ClientLane<DurableOp, ShardReply>>,
    /// Shard index of each in-flight pipelined operation, submission order.
    pending: VecDeque<usize>,
    /// Results harvested early (by a blocking call) but not yet collected.
    completed: VecDeque<Result<Option<u64>, Crashed>>,
}

impl DurableRouter {
    /// Durable point lookup (blocks for the covering group fence).
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, Crashed> {
        self.call(DurableOp::Get { key })
    }

    /// Durable insert-if-absent; `Ok(prior)` is fenced before release.
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, Crashed> {
        self.call(DurableOp::Put { key, value })
    }

    /// Durable removal; `Ok(removed)` is fenced before release.
    pub fn delete(&mut self, key: u64) -> Result<Option<u64>, Crashed> {
        self.call(DurableOp::Delete { key })
    }

    fn shard_for(&self, op: DurableOp) -> usize {
        let (DurableOp::Get { key } | DurableOp::Put { key, .. } | DurableOp::Delete { key }) = op;
        shard_of(key, self.lanes.len())
    }

    /// Queues `op` without waiting for its acknowledgement (and without
    /// waking a parked owner — see the type docs).  `Err(op)` hands the
    /// operation back when its shard lane is at capacity — call
    /// [`collect_one`](Self::collect_one) and retry.
    pub fn submit(&mut self, op: DurableOp) -> Result<(), DurableOp> {
        let shard = self.shard_for(op);
        self.lanes[shard].try_send(op)?;
        self.pending.push_back(shard);
        Ok(())
    }

    /// Blocks for the acknowledgement of the **oldest** in-flight pipelined
    /// operation; `None` when nothing is in flight.
    pub fn collect_one(&mut self) -> Option<Result<Option<u64>, Crashed>> {
        if let Some(result) = self.completed.pop_front() {
            return Some(result);
        }
        let shard = self.pending.pop_front()?;
        Some(self.pop_blocking(shard))
    }

    /// Pipelined operations whose acknowledgement has not been collected.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.completed.len()
    }

    /// Wakes every shard owner that has submissions it may not know about.
    /// Waiting for an acknowledgement does this itself; call `flush` after
    /// [`submit`](Self::submit) only when the next thing this thread waits
    /// on is something else.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            lane.ring();
        }
    }

    fn call(&mut self, op: DurableOp) -> Result<Option<u64>, Crashed> {
        let shard = self.shard_for(op);
        while self.lanes[shard].try_send(op).is_err() {
            assert!(self.harvest_one(), "lane at capacity with nothing in flight");
        }
        // Drain every earlier pipelined ack into `completed` (order kept
        // for collect_one) so the next reply on this lane is ours.
        while self.harvest_one() {}
        self.pop_blocking(shard)
    }

    /// Moves the oldest pending ack into `completed`; false if none.
    fn harvest_one(&mut self) -> bool {
        let Some(shard) = self.pending.pop_front() else {
            return false;
        };
        let result = self.pop_blocking(shard);
        self.completed.push_back(result);
        true
    }

    /// Waits for the next reply on `shard`'s lane, waking every shard with
    /// unannounced submissions first.  An owner that died outside the crash
    /// protocol makes it panic (see [`ClientLane::recv_from`]).
    fn pop_blocking(&mut self, shard: usize) -> Result<Option<u64>, Crashed> {
        match ClientLane::recv_from(&mut self.lanes, shard) {
            ShardReply::Value(value) => Ok(value),
            ShardReply::Crashed => Err(Crashed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window submitted at a parked owner reaches it whole: one doorbell,
    /// and groups that fill — 32 acks at 16 per fence close two boundaries,
    /// not one per ack or two (the bounds leave room for an owner that was
    /// not quite parked yet).
    #[test]
    fn a_parked_owner_gets_the_window_in_one_doorbell_and_full_groups() {
        let mut service = DurableKvService::new(1, 16);
        let mut router = service.router();
        service.wait_parked(0);
        let wakes = |service: &DurableKvService| {
            let samples = obs::expo::parse(&service.registry().render()).expect("scrape parses");
            obs::expo::value(&samples, "durable_owner_wakes_total", &[("shard", "0")])
                .expect("the wake count is exported")
        };
        let (wakes_before, boundaries_before) = (wakes(&service), service.boundaries(0));
        for key in 1..=32u64 {
            router.submit(DurableOp::Put { key, value: key }).unwrap();
        }
        for _ in 0..32 {
            assert_eq!(router.collect_one(), Some(Ok(None)));
        }
        assert!(wakes(&service) - wakes_before <= 1);
        let boundaries = service.boundaries(0) - boundaries_before;
        assert!(boundaries <= 3, "{boundaries} boundaries for 32 acks");
        drop(router);
        service.shutdown();
    }

    #[test]
    fn flush_wakes_a_parked_owner_without_a_collect() {
        let mut service = DurableKvService::new(1, 16);
        let mut router = service.router();
        service.wait_parked(0);
        let boundaries = service.boundaries(0);
        router.submit(DurableOp::Put { key: 1, value: 1 }).unwrap();
        router.flush();
        // The put's group closes though nobody waits for its ack yet.
        while service.boundaries(0) == boundaries {
            std::thread::yield_now();
        }
        assert_eq!(router.collect_one(), Some(Ok(None)));
        drop(router);
        service.shutdown();
    }

    /// A crash does not end the owner: the same thread recovers the shard
    /// and serves the client's next call, crash after crash.
    #[test]
    fn a_client_sending_into_an_outage_is_served_after_the_heal() {
        let mut service = DurableKvService::new(1, 4);
        let mut router = service.router();
        for round in 0..20u64 {
            // Fires at the idle point: nothing is in flight.
            service.inject_crash(0, CrashSpec::default());
            while service.crash_count(0) == round {
                std::thread::yield_now();
            }
            assert_eq!(router.put(round + 1, round), Ok(None));
        }
        drop(router);
        service.shutdown();
        assert_eq!(service.crash_count(0), 20);
        assert_eq!(service.total_keys(), 20);
    }

    /// An owner that dies *outside* the crash protocol drops its lanes, and
    /// the next client call fails loudly instead of waiting forever.
    #[test]
    fn an_owner_that_panics_fails_its_clients_loudly() {
        let service = DurableKvService::new(1, 4);
        let mut router = service.router();
        assert_eq!(router.put(1, 1), Ok(None));
        // Poison the crash log so the owner panics inside its next crash,
        // after the protocol's point of no return.
        let crash_log = Arc::clone(&service.crash_log);
        let poisoner = std::thread::spawn(move || {
            let _held = crash_log.lock().unwrap();
            panic!("poisoning the crash log (expected by this test)");
        });
        assert!(poisoner.join().is_err());
        service.inject_crash(0, CrashSpec::default());
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            // The first puts may still be served; once the owner is gone
            // the send or the wait panics.
            let _ = router.put(2, 2);
            std::thread::yield_now();
        }))
        .expect_err("the loop only ends by panicking");
        let message = died
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| died.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("owner thread died"),
            "panicked with: {message}"
        );
    }
}
