//! The durable sharded service, and the router that commits on its
//! caller's thread.
//!
//! ```text
//!          DurableRouter (one per client thread)
//!    get/put/delete        submit … collect_one / flush
//!          │                        │
//!          └── window: each shard's ops in submission order ──┘
//!                │ commit, on the calling thread
//!                ▼
//!   lock each touched shard's commit lock, ascending
//!   → apply each touched shard's ops on this router's own session:
//!     one lockstep descent for all of them, then each op from its path
//!   → due crash: roll back → recover → log → Crashed
//!   → one sfence for the window → count → unlock
//!   → release the acks, in submission order
//! ```
//!
//! # Group commit without an owner
//!
//! A router queues its operations into a window and commits the window
//! itself: when it holds `acks_per_fence` operations, when
//! [`collect_one`](DurableRouter::collect_one) finds no acknowledged result
//! waiting, and on [`flush`](DurableRouter::flush); a blocking call commits
//! at once.  The commit takes the commit lock of every shard the window
//! touches, in ascending shard order, so two windows over overlapping
//! shards never wait on each other in a cycle.  It applies each touched
//! shard's part of the window, in submission order, on the router's own
//! [`pabtree::WalElimABTree`] session there, issues **one**
//! [`abpmem::sfence`] covering every line it flushed on every shard, and
//! only then unlocks and releases the acks.
//!
//! # One descent per operation
//!
//! A window's operations are independent point operations, and each
//! starts with a root-to-leaf descent (paper Fig. 2) whose cache misses,
//! paid one op after another, are most of the tree's cost.  So the commit
//! hands each touched shard's operations to
//! [`abtree::TreeHandle::apply`] in one call: a lockstep pass walks all
//! their paths one level per round, prefetching each next node, so the
//! misses of the whole window overlap, and each operation then runs from
//! the path the pass found for it instead of descending again.  The pass
//! helps a dirty link as a search does, so it writes (a flush and a
//! clear of the mark), and it runs under the commit locks like every other
//! step: a crash and its recovery run under the shard's lock too, and they
//! need the tree to themselves ([`pabtree::recover`]).
//!
//! Applying per shard reorders the window only *across* shards: shard 0's
//! operations run before shard 1's, whatever their submission order.  No
//! client can observe that.  The window's acks are all released at once,
//! after its one fence, so no result is visible before every operation
//! of the window has run; and each operation's key lives on one shard, so
//! the order of the operations on any one key (and on any one shard) is
//! still submission order.  The acks themselves are released in
//! submission order.
//!
//! # Why a lock is enough for durability
//!
//! The lock holder is the shard's owner for one group: every operation on a
//! shard runs under its commit lock, and a holder fences before it unlocks.
//! So on a shard at most one thread has unfenced stores at any time, and a
//! read never sees another caller's unfenced value — an ack released after
//! the window's fence covers every store its operation wrote *or read*.
//! Routers on different shards commit in parallel; routers on one shard
//! serialise, as a single shard owner would serialise them.
//!
//! A due crash fires inside a commit that touches its shard, on the
//! committing thread: with the lock held no other thread is in that tree,
//! which is the quiescence [`pabtree::recover`] needs.  The thread rolls
//! back, recovers, records a [`CrashReport`], and answers that shard's
//! operations in the window [`Crashed`] — so a client that sees `Crashed`
//! talks to a shard that has already recovered.  The window's other shards
//! fence and ack normally.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use kvserve::{shard_of, LANE_CAPACITY};
use obs::{Registry, Sample, Stage, StageRecorder, StageTrace, Stamp};

use crate::crash::{CrashReport, CrashSpec, Crashed};
use crate::shard::{Session, ShardCell};
use crate::DurableOp;

/// A durable sharded key/value service with in-place crash recovery.
///
/// Compared to `kvserve::KvService`'s one volatile tree, the store is
/// sharded (each shard's commit lock serializes its callers, so shards are
/// the service's parallelism) and persistent
/// ([`pabtree::WalElimABTree`]: per-operation flushes, group fences), the
/// acknowledgement batching knob `acks_per_fence` trades ack latency for
/// fence rate, and a crashed shard recovers instead of poisoning the
/// service.  The service runs no thread: every operation runs on the
/// thread of the router that issued it.
pub struct DurableKvService {
    shards: Arc<[Arc<ShardCell>]>,
    acks_per_fence: usize,
    /// Every shard's crash reports, appended by the committing routers.
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
    /// acknowledgements in windows of up to `acks_per_fence` per fence
    /// (1 = fence per operation; larger windows amortize the fence but delay
    /// acks — `crashkv.fences_per_ack` on the ledger).
    pub fn new(shard_count: usize, acks_per_fence: u32) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        let trace = Arc::new(StageTrace::new());
        let crash_log = Arc::new(Mutex::new(Vec::new()));
        let shards: Arc<[Arc<ShardCell>]> = (0..shard_count)
            .map(|idx| Arc::new(ShardCell::new(idx, Arc::clone(&crash_log))))
            .collect();
        let registry = Arc::new(Registry::new());
        {
            let cells = Arc::clone(&shards);
            registry.register(move |out| {
                for (index, cell) in cells.iter().enumerate() {
                    for (name, counter) in [
                        ("durable_boundaries_total", &cell.boundaries),
                        ("durable_fences_total", &cell.fences),
                        ("durable_crashes_total", &cell.crashes),
                    ] {
                        out.push(
                            Sample::counter(name, counter.load(Ordering::Relaxed))
                                .with("shard", index),
                        );
                    }
                }
            });
        }
        {
            let trace = Arc::clone(&trace);
            registry.register(move |out| trace.collect(out));
        }
        Self {
            shards,
            acks_per_fence: acks_per_fence.max(1) as usize,
            crash_log,
            registry,
            trace,
        }
    }

    /// Opens a client router.  Any number of routers may be open
    /// concurrently; each belongs to the thread that opened it.
    pub fn router(&self) -> DurableRouter {
        DurableRouter {
            sessions: self.shards.iter().map(|_| None).collect(),
            shards: Arc::clone(&self.shards),
            acks_per_fence: self.acks_per_fence,
            pending: self.shards.iter().map(|_| Vec::new()).collect(),
            order: Vec::new(),
            acked: VecDeque::new(),
            touched: Vec::new(),
            recorder: self.trace.recorder(0),
        }
    }

    /// Arms a crash on `shard` (see [`CrashSpec`]).  The crash fires inside
    /// the chosen commit that touches the shard, and the committing router
    /// recovers the shard before it answers that window.  At most one
    /// directive is armed per shard at a time — a second call overwrites an
    /// unfired first.
    pub fn inject_crash(&self, shard: usize, spec: CrashSpec) {
        self.shards[shard].arm_crash(spec);
    }

    /// The service's metric registry.  Per-shard durability counters
    /// (`durable_boundaries_total`, `durable_fences_total`,
    /// `durable_crashes_total`) and the stage trace register at
    /// construction; callers may register further sources or graft
    /// [`Registry::snapshot`] output into a larger scrape.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key` ([`kvserve::shard_of`]).
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Completed crash + recovery cycles on `shard`.
    pub fn crash_count(&self, shard: usize) -> u64 {
        self.shards[shard].crashes.load(Ordering::SeqCst)
    }

    /// Commits that touched `shard` and did not crash there (every one is
    /// an ack-release point; a read-only window issues no fence).
    pub fn boundaries(&self, shard: usize) -> u64 {
        self.shards[shard].boundaries.load(Ordering::SeqCst)
    }

    /// Fences counted on `shard`: a window's one fence counts on the lowest
    /// shard it wrote to, so the sum over shards is the fences issued.
    pub fn fences(&self, shard: usize) -> u64 {
        self.shards[shard].fences.load(Ordering::SeqCst)
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

    /// Nothing to stop: the service runs no thread, and every acknowledged
    /// operation is already durable.  Kept so callers can mark the end of
    /// use; idempotent.
    pub fn shutdown(&mut self) {}
}

/// A client handle: queues operations into a window and commits it on the
/// calling thread (see the module docs).  `!Send`, like the tree sessions
/// it owns: open it on the thread that uses it.
///
/// Two usage styles, freely mixable:
///
/// * **Blocking** — [`get`](Self::get) / [`put`](Self::put) /
///   [`delete`](Self::delete) append to the window and commit it at once.
///   `Ok` means the effect is durable; [`Crashed`] means the shard crashed
///   first and the operation may or may not have taken effect (retry at
///   will).
/// * **Pipelined** — [`submit`](Self::submit) queues (so windows actually
///   fill) and [`collect_one`](Self::collect_one) harvests
///   acknowledgements in submission order.
pub struct DurableRouter {
    /// This router's session on each shard, opened by its first commit
    /// there.  Declared before `shards`, so the sessions drop first.
    sessions: Vec<Option<Session>>,
    shards: Arc<[Arc<ShardCell>]>,
    acks_per_fence: usize,
    /// The window: operations submitted but not committed, per shard,
    /// oldest first.
    pending: Vec<Vec<DurableOp>>,
    /// The shard of each operation in the window, oldest first: the order
    /// its acks are released in.
    order: Vec<usize>,
    /// Committed results not yet collected, oldest first.
    acked: VecDeque<Result<Option<u64>, Crashed>>,
    /// Scratch: the shards the window being committed touches.
    touched: Vec<usize>,
    recorder: StageRecorder,
}

impl DurableRouter {
    /// Durable point lookup (commits the window, this lookup last).
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

    /// Queues `op` into the window, committing the window once it holds
    /// `acks_per_fence` operations.  `Err(op)` hands the operation back when
    /// [`LANE_CAPACITY`] operations are already in flight — call
    /// [`collect_one`](Self::collect_one) and retry.
    pub fn submit(&mut self, op: DurableOp) -> Result<(), DurableOp> {
        if self.in_flight() >= LANE_CAPACITY {
            return Err(op);
        }
        self.push(op);
        if self.order.len() >= self.acks_per_fence {
            self.commit();
        }
        Ok(())
    }

    /// The result of the **oldest** in-flight pipelined operation,
    /// committing the window first if no result is waiting; `None` when
    /// nothing is in flight.
    pub fn collect_one(&mut self) -> Option<Result<Option<u64>, Crashed>> {
        if self.acked.is_empty() {
            self.commit();
        }
        self.acked.pop_front()
    }

    /// Pipelined operations whose result has not been collected.
    pub fn in_flight(&self) -> usize {
        self.order.len() + self.acked.len()
    }

    /// Commits the queued window without collecting a result.
    pub fn flush(&mut self) {
        self.commit();
    }

    fn push(&mut self, op: DurableOp) {
        let shard = shard_of(op.key(), self.shards.len());
        self.pending[shard].push(op);
        self.order.push(shard);
    }

    fn call(&mut self, op: DurableOp) -> Result<Option<u64>, Crashed> {
        self.push(op);
        self.commit();
        self.acked
            .pop_back()
            .expect("a commit answers its whole window")
    }

    /// Applies the window under its shards' commit locks, crashes a due
    /// shard, fences once and queues the results (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a touched shard's lock is poisoned: a commit panicked
    /// mid-window there, so its tree is in an unknown state.
    fn commit(&mut self) {
        if self.order.is_empty() {
            return;
        }
        let Self {
            sessions,
            shards,
            pending,
            order,
            acked,
            touched,
            recorder,
            ..
        } = self;
        touched.clear();
        touched.extend((0..shards.len()).filter(|&shard| !pending[shard].is_empty()));
        let locks: Vec<MutexGuard<'_, ()>> = touched
            .iter()
            .map(|&shard| {
                shards[shard]
                    .commit
                    .lock()
                    .expect("a commit panicked on this shard: its lock is poisoned")
            })
            .collect();
        for &shard in touched.iter() {
            sessions[shard]
                .get_or_insert_with(|| shards[shard].open_session())
                .apply(&pending[shard]);
            pending[shard].clear();
        }
        touched.retain(|&shard| {
            let Some(spec) = shards[shard].due_crash() else {
                return true;
            };
            sessions[shard].as_mut().expect("opened above").crash(spec);
            false
        });
        let session = |shard: usize| sessions[shard].as_ref().expect("opened above");
        if let Some(&writer) = touched
            .iter()
            .find(|&&shard| !session(shard).unfenced.is_empty())
        {
            let fence_start = Stamp::now();
            abpmem::sfence();
            shards[writer].fences.fetch_add(1, Ordering::SeqCst);
            recorder.record(Stage::Fence, fence_start);
        }
        for &shard in touched.iter() {
            sessions[shard]
                .as_mut()
                .expect("opened above")
                .unfenced
                .clear();
            shards[shard].boundaries.fetch_add(1, Ordering::SeqCst);
        }
        drop(locks);
        acked.extend(
            order
                .drain(..)
                .map(|shard| sessions[shard].as_mut().expect("opened above").answer()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each full window takes one fence, however many shards it spans: 32
    /// puts at 16 per fence over 2 shards are exactly 2 fences.
    #[test]
    fn full_windows_take_one_fence_each_across_shards() {
        let service = DurableKvService::new(2, 16);
        let mut router = service.router();
        for key in 1..=32u64 {
            router.submit(DurableOp::Put { key, value: key }).unwrap();
        }
        for _ in 0..32 {
            assert_eq!(router.collect_one(), Some(Ok(None)));
        }
        assert_eq!(service.fences(0) + service.fences(1), 2);
        assert_eq!(
            service.boundaries(0) + service.boundaries(1),
            4,
            "both windows span both shards"
        );
    }

    #[test]
    fn flush_commits_the_queued_window() {
        let service = DurableKvService::new(1, 16);
        let mut router = service.router();
        router.submit(DurableOp::Put { key: 1, value: 1 }).unwrap();
        assert_eq!(service.boundaries(0), 0, "a short window waits");
        router.flush();
        assert_eq!((service.boundaries(0), service.fences(0)), (1, 1));
        assert_eq!(router.in_flight(), 1);
        assert_eq!(router.collect_one(), Some(Ok(None)));
        assert_eq!(service.boundaries(0), 1, "the result was already waiting");
    }

    /// A crash does not end the shard: the committing call recovers it
    /// before it answers `Crashed`, and the retry is served, crash after
    /// crash.  (The `lost-ack` mutant answers the crashed put `Ok`.)
    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn a_client_sending_into_an_outage_is_served_after_the_heal() {
        let service = DurableKvService::new(1, 4);
        let mut router = service.router();
        for round in 0..20u64 {
            service.inject_crash(0, CrashSpec::default());
            assert_eq!(router.put(round + 1, round), Err(Crashed));
            assert_eq!(service.crash_count(0), round + 1);
            assert_eq!(router.put(round + 1, round), Ok(None));
        }
        assert_eq!(service.crash_count(0), 20);
        assert_eq!(service.total_keys(), 20);
    }

    /// A commit that dies *outside* the crash protocol poisons its shard's
    /// commit lock, and the next router's call there fails loudly instead
    /// of running on a tree in an unknown state.
    #[test]
    fn a_commit_that_panics_poisons_its_shard_and_the_next_call_fails_loudly() {
        let service = DurableKvService::new(1, 4);
        let mut router = service.router();
        assert_eq!(router.put(1, 1), Ok(None));
        // Poison the crash log so the next crash panics mid-commit, after
        // the protocol's point of no return.
        let crash_log = Arc::clone(&service.crash_log);
        let poisoner = std::thread::spawn(move || {
            let _held = crash_log.lock().unwrap();
            panic!("poisoning the crash log (expected by this test)");
        });
        assert!(poisoner.join().is_err());
        service.inject_crash(0, CrashSpec::default());
        let message = |died: Box<dyn std::any::Any + Send>| {
            died.downcast_ref::<String>()
                .cloned()
                .or_else(|| died.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        };
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.put(2, 2)))
            .expect_err("the crash panics on the poisoned log");
        assert!(message(died).contains("crash log poisoned"));
        let mut next = service.router();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| next.get(1)))
            .expect_err("the next call meets the poisoned commit lock");
        assert!(message(died).contains("lock is poisoned"));
    }

    /// A router keeps its shards alive: its sessions drop before the trees
    /// they borrow, even when the service is long gone.
    #[test]
    fn a_router_outlives_its_service() {
        let service = DurableKvService::new(2, 4);
        let mut router = service.router();
        assert_eq!(router.put(1, 10), Ok(None));
        drop(service);
        assert_eq!(router.get(1), Ok(Some(10)));
        for key in 2..=64u64 {
            assert_eq!(router.put(key, key), Ok(None));
        }
        assert_eq!(router.delete(1), Ok(Some(10)));
    }
}
