//! The shard-owner worker: one dedicated thread per shard, holding the
//! shard's single long-lived [`abtree::MapHandle`].
//!
//! This is the thread-per-core-style half of the service refactor: instead
//! of every router opening a session on every shard, each shard has exactly
//! one owner thread that opens one handle for the shard's whole lifetime
//! and executes *all* of its traffic.  Routers feed it through the SPSC
//! lanes in [`crate::queue`] — one request/reply pair per router × shard —
//! so the shard's EBR epoch, its tree's hot nodes and its stats stay on one
//! core, and a drain of a lane executes a *run* of requests against the
//! local handle with no per-request synchronization at all.
//!
//! ## The version counter and the hot-key cache
//!
//! [`ShardState::version`] counts the shard's *state mutations*: the worker
//! bumps it (SeqCst) after applying any operation that changed the map and
//! before pushing that operation's reply.  Read replies carry the version
//! observed at execution, which is exact because the owner thread is the
//! only mutator.  A router's [`crate::cache::ReadCache`] entry `(key,
//! value, version)` is therefore valid exactly while the shard's current
//! version still equals the recorded one; because the bump happens before
//! the write's reply is released, a cached read that validates against an
//! un-bumped counter is *concurrent* with the in-flight write and may
//! legally linearize before it.  No-op writes (an insert that found the key
//! present, a delete that found nothing) leave both the state and the
//! counter untouched, so a Zipf-hot key that absorbs failed inserts does
//! not shed its cache entries.
//!
//! ## The loop
//!
//! Lane adoption, run draining, the idle/park handshake and shutdown are
//! [`crate::owner::run_owner`]'s; this module supplies its volatile
//! [`CommitPolicy`], [`Immediate`]: apply, bump the version, reply at once.

use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use abtree::MapHandle;
use obs::{Stage, StageRecorder, StageTrace, Stamp};

use crate::owner::{run_owner, CommitPolicy, Mailbox, OwnerLane};
use crate::service::ShardStore;
use crate::stats::Histogram;

/// One request handed to a shard owner. Batch jobs carry their sub-batch
/// by value; the reply returns results the same way.
pub(crate) enum ShardJob {
    /// Point lookup.
    Get { key: u64 },
    /// Point insert-if-absent.
    Put { key: u64, value: u64 },
    /// Point removal.
    Delete { key: u64 },
    /// Range scan of the inclusive window `[lo, hi]` (pre-clamped by the
    /// router via `abtree::scan_window`).
    Range { lo: u64, hi: u64 },
    /// Shard-local multi-get sub-batch.
    GetBatch { keys: Vec<u64> },
    /// Shard-local multi-put sub-batch.
    PutBatch { pairs: Vec<(u64, u64)> },
}

/// The reply to one [`ShardJob`], in the same lane order. `version` is the
/// shard's mutation counter observed at execution (post-bump for writes),
/// which the router uses to stamp its hot-key cache entries.
#[derive(Clone)]
pub(crate) enum ShardReply {
    /// Reply to the point jobs.
    Value { value: Option<u64>, version: u64 },
    /// Reply to `GetBatch`/`PutBatch`, values in sub-batch order.
    Values { values: Vec<Option<u64>>, version: u64 },
    /// Reply to `Range`: the entries stored in the window, in key order.
    Entries { entries: Vec<(u64, u64)> },
}

/// What crosses a job lane.  Every job rides with a stage-trace [`Stamp`]
/// — the router's post-enqueue time for a sampled request, [`Stamp::NONE`]
/// otherwise.  With telemetry compiled out `Stamp` is a ZST and the tuples
/// cost nothing.
pub(crate) type Job = (Stamp, ShardJob);

/// What crosses a reply lane: the reply plus the owner's post-apply stamp,
/// so the router can time the reply-lane wait.
pub(crate) type Reply = (Stamp, ShardReply);

/// Startup not yet decided: the owner thread has not attempted to open
/// its store session.
const READY_STARTING: u8 = 0;
/// The owner opened its session and is serving.
const READY_UP: u8 = 1;
/// The owner could not register a session (SMR slot capacity) and exited.
const READY_FAILED: u8 = 2;

/// Shard state the owner publishes and routers read.
pub(crate) struct ShardState {
    /// Mutation counter; see the module docs.
    pub(crate) version: AtomicU64,
    /// Owner startup outcome: [`READY_STARTING`] until the owner thread has
    /// opened (or failed to open) its store session.
    ready: AtomicU8,
    /// Lengths of the runs the worker drains per lane visit — the
    /// amortization the ownership model exists for.  Aggregated across
    /// shards with [`Histogram::merge`].
    pub(crate) run_length: Histogram,
}

impl ShardState {
    pub(crate) fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            ready: AtomicU8::new(READY_STARTING),
            run_length: Histogram::new(),
        }
    }

    /// Blocks until the owner published its startup outcome; returns `true`
    /// iff the owner came up.  Startup is bounded (one session-registration
    /// attempt), so a yield loop suffices.
    pub(crate) fn await_ready(&self) -> bool {
        loop {
            match self.ready.load(Ordering::SeqCst) {
                READY_STARTING => std::thread::yield_now(),
                READY_UP => return true,
                _ => return false,
            }
        }
    }

    /// The shard's current mutation count (the validity stamp cached reads
    /// compare against).
    #[inline]
    pub(crate) fn current_version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }
}

/// One shard: the store plus its coordination state. `Arc`-shared between
/// the service (which also reads the store quiescently for key sums) and
/// the owner thread.
pub(crate) struct ShardCell {
    pub(crate) store: Box<dyn ShardStore>,
    pub(crate) state: ShardState,
    /// Where routers open their lanes and the owner finds them.
    pub(crate) mailbox: Arc<Mailbox<Job, Reply>>,
    /// The service-wide stage trace; the owner records its `Dequeue` and
    /// `Apply` stages into it for requests the router sampled.
    pub(crate) trace: Arc<StageTrace>,
}

/// The volatile commit policy: a job's effect is final the moment it is
/// applied, so its reply leaves at once.
struct Immediate<'a> {
    handle: Box<dyn MapHandle + 'a>,
    state: &'a ShardState,
    /// Unsampled: whether a request is traced was decided by the router at
    /// submit time and rides in on the job's stamp.
    recorder: StageRecorder,
}

impl CommitPolicy for Immediate<'_> {
    type Job = Job;
    type Reply = Reply;

    fn group_limit(&self) -> Option<NonZeroU32> {
        None
    }

    #[inline]
    fn apply(&mut self, (stamp, job): Job, lane: &mut OwnerLane<Job, Reply>) {
        // Queue wait (post-enqueue to pop), then execution; both no-ops
        // for the untraced majority.  The post-apply stamp rides back on
        // the reply so the router can time `Ack`.
        let dequeued = self.recorder.record(Stage::Dequeue, stamp);
        let reply = execute(&mut *self.handle, self.state, job);
        let applied = self.recorder.record(Stage::Apply, dequeued);
        lane.send((applied, reply));
    }

    fn run_ended(&mut self, jobs: u64) {
        self.state.run_length.record(jobs);
    }
}

/// The shard-owner thread body: open the shard's one session, publish the
/// startup outcome, serve until shutdown.
pub(crate) fn serve_shard(cell: Arc<ShardCell>) {
    let state = &cell.state;
    // The single long-lived session this whole design exists to create:
    // opened on the owner thread, kept until shutdown.  Registration can
    // fail (the store's SMR collector has a fixed slot capacity); report
    // the outcome instead of panicking so the service can refuse to start.
    let Ok(handle) = cell.store.try_handle() else {
        state.ready.store(READY_FAILED, Ordering::SeqCst);
        return;
    };
    state.ready.store(READY_UP, Ordering::SeqCst);
    let mut policy = Immediate {
        handle,
        state,
        recorder: cell.trace.recorder(),
    };
    run_owner(&cell.mailbox, &mut policy);
}

/// Executes one job against the owner's handle, maintaining the mutation
/// counter (bump after apply, only on real mutations, always before the
/// reply is pushed — see the module docs for why that order is the one
/// that keeps cached reads linearizable).
fn execute(handle: &mut dyn MapHandle, state: &ShardState, job: ShardJob) -> ShardReply {
    match job {
        ShardJob::Get { key } => {
            let value = handle.get(key);
            ShardReply::Value {
                value,
                version: state.version.load(Ordering::Relaxed),
            }
        }
        ShardJob::Put { key, value } => {
            let previous = handle.insert(key, value);
            if previous.is_none() {
                state.version.fetch_add(1, Ordering::SeqCst);
            }
            ShardReply::Value {
                value: previous,
                version: state.version.load(Ordering::Relaxed),
            }
        }
        ShardJob::Delete { key } => {
            let removed = handle.delete(key);
            if removed.is_some() {
                state.version.fetch_add(1, Ordering::SeqCst);
            }
            ShardReply::Value {
                value: removed,
                version: state.version.load(Ordering::Relaxed),
            }
        }
        ShardJob::Range { lo, hi } => {
            let mut entries = Vec::new();
            handle.range(lo, hi, &mut entries);
            ShardReply::Entries { entries }
        }
        ShardJob::GetBatch { keys } => {
            let mut values = Vec::new();
            handle.get_batch(&keys, &mut values);
            ShardReply::Values {
                values,
                version: state.version.load(Ordering::Relaxed),
            }
        }
        ShardJob::PutBatch { pairs } => {
            let mut previous = Vec::new();
            handle.insert_batch(&pairs, &mut previous);
            // One bump covers the whole sub-batch: validity only needs the
            // counter to move whenever the state did.
            if previous.iter().any(|p| p.is_none()) {
                state.version.fetch_add(1, Ordering::SeqCst);
            }
            ShardReply::Values {
                values: previous,
                version: state.version.load(Ordering::Relaxed),
            }
        }
    }
}
