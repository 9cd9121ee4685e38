//! The shard-owner worker: one dedicated thread per shard, holding the
//! shard's long-lived owner [`abtree::MapHandle`].
//!
//! This is the thread-per-core-style half of the service: each shard has
//! one owner thread that opens one handle for the shard's whole lifetime
//! and executes everything that arrives in *windows*.  Routers feed it
//! through the SPSC lanes in [`crate::queue`] — one request/reply pair per
//! router × shard — so a drain of a lane executes a *run* of requests
//! against the local handle with no per-request hand-off.  A point request
//! that would be a window by itself never gets here: the router runs it on
//! its own handle against the same tree, through the same [`execute`] (see
//! [`crate::router`]).  The tree is a linearizable concurrent map, so the
//! two kinds of caller need no coordination for the *map*; what they share
//! is the stamp protocol below, which keeps the routers' hot-key caches
//! linearizable.
//!
//! ## The begun/done stamps and the hot-key cache
//!
//! A shard's mutators — its owner and every router's direct calls — run
//! concurrently, so "the version the owner saw" no longer describes a
//! state.  [`ShardState`] keeps two `SeqCst` counters instead, and both
//! kinds of caller go through [`ShardState::mutate`] and
//! [`ShardState::read_stamp`]:
//!
//! * a **writer** announces itself (`before = begun.fetch_add(1)`), notes
//!   whether the shard was quiet at that point (`done == before`), runs the
//!   tree operation, and then either counts a real mutation
//!   (`done.fetch_add(1)`) or withdraws a no-op's announcement
//!   (`begun.fetch_sub(1)` — an insert that found the key, a delete that
//!   found nothing).  Only then may its reply leave.
//! * `begun - done` is therefore the number of writers in flight, and the
//!   shard is **quiescent** whenever the two are equal: every mutation
//!   ever announced has completed, and the common value `s` names that
//!   state.  A *stamp* is such an `s`.
//! * a **read** gets a stamp only if the shard is quiescent *before* the
//!   tree read (`done`, then `begun`, equal).
//! * a **write's** post-state gets a stamp only if the write ran alone:
//!   quiet at its start, and afterwards `begun` is exactly its own
//!   announcement (`before + 1`, stamp `before + 1`) or, for a no-op, back
//!   at `before` (stamp `before`).
//! * a router's [`crate::cache::ReadCache`] entry `(key, value, s)` **hits**
//!   while `begun == s` — one load.
//!
//! Why a hit is linearizable: a valid stamp `s` was taken at a quiescent
//! instant `q` with `s` mutations begun and all of them done, and the
//! cached value is the key's state at `q` (a stamped read starts after `q`;
//! a stamped write is the only mutation in flight between its own quiet
//! start and `q`).  Real mutations only ever add to `begun`, and a no-op
//! subtracts only what it added, so `begun == s` at a later instant means
//! no real mutation has so much as *begun* since `q`: the state is still
//! the one cached, and the hit linearizes at its `begun` load.  A value
//! read while some writer was in flight may be stale, but it was stored
//! without a stamp (or under an `s` that `begun` has left for good) and is
//! never served.  No-op writes leave `begun` where it was, so a Zipf-hot
//! key that absorbs failed inserts does not shed its cache entries.
//!
//! Why the quiet check sits at the *start* of a write as well: checking
//! only afterwards lets a writer that was already pending when this one
//! announced itself finish in the middle of it — overwriting this write's
//! key after this write's tree operation — and still leave `done` and
//! `begun` looking as if this write had been alone (`done.fetch_add`
//! returns `before`, `begun == before + 1`).  The stale post-state would be
//! stamped with the new quiescent value and served.  `done == before` at
//! the start rules it out: every earlier announcement has completed before
//! this write's tree operation begins.  (The `stale-stamp` feature compiles
//! exactly that end-only variant, for conctest's mutation test.)
//!
//! ## The loop
//!
//! Lane adoption, run draining, the idle/park handshake and shutdown are
//! [`crate::owner::run_owner`]'s; this module supplies its volatile
//! [`CommitPolicy`], [`Immediate`]: apply, reply at once.

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

/// The reply to one [`ShardJob`], in the same lane order. `stamp` is the
/// quiescent shard state the result is exact at, if there is one (see the
/// module docs); the router stamps its hot-key cache entries with it.
#[derive(Clone)]
pub(crate) enum ShardReply {
    /// Reply to the point jobs.
    Value {
        value: Option<u64>,
        stamp: Option<u64>,
    },
    /// Reply to `GetBatch`/`PutBatch`, values in sub-batch order.
    Values {
        values: Vec<Option<u64>>,
        stamp: Option<u64>,
    },
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

/// Shard state shared by the owner and the routers.
pub(crate) struct ShardState {
    /// Writers announced and not withdrawn; see the module docs.
    begun: AtomicU64,
    /// Real mutations completed.
    done: AtomicU64,
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
            begun: AtomicU64::new(0),
            done: AtomicU64::new(0),
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

    /// The shard's completed-mutation count (`kv_shard_version`).
    #[inline]
    pub(crate) fn current_version(&self) -> u64 {
        self.done.load(Ordering::SeqCst)
    }

    /// What a cache entry's stamp must equal to hit.
    #[inline]
    pub(crate) fn begun(&self) -> u64 {
        self.begun.load(Ordering::SeqCst)
    }

    /// The stamp for a read about to start: the quiescent state, if the
    /// shard is in one.
    #[inline]
    pub(crate) fn read_stamp(&self) -> Option<u64> {
        let done = self.done.load(Ordering::SeqCst);
        (self.begun.load(Ordering::SeqCst) == done).then_some(done)
    }

    /// Runs one write under the announce / complete-or-withdraw protocol.
    /// `op` returns its result and whether it changed the map; the stamp is
    /// the state the write's post-state is exact at, if it ran alone.
    #[inline]
    pub(crate) fn mutate<T>(&self, op: impl FnOnce() -> (T, bool)) -> (T, Option<u64>) {
        let before = self.begun.fetch_add(1, Ordering::SeqCst);
        let quiet = cfg!(feature = "stale-stamp") || self.done.load(Ordering::SeqCst) == before;
        let (result, mutated) = op();
        let stamp = if mutated {
            let finished = self.done.fetch_add(1, Ordering::SeqCst);
            (quiet && finished == before && self.begun.load(Ordering::SeqCst) == before + 1)
                .then_some(before + 1)
        } else {
            let announced = self.begun.fetch_sub(1, Ordering::SeqCst);
            (quiet && announced == before + 1).then_some(before)
        };
        (result, stamp)
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
    // The owner's long-lived session: opened on the owner thread, kept
    // until shutdown.  Registration can
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

/// Executes one job against `handle` — the owner's, or a router's own for a
/// window of one — keeping the shard's stamp protocol (module docs).
pub(crate) fn execute(handle: &mut dyn MapHandle, state: &ShardState, job: ShardJob) -> ShardReply {
    match job {
        ShardJob::Get { key } => {
            let stamp = state.read_stamp();
            let value = handle.get(key);
            ShardReply::Value { value, stamp }
        }
        ShardJob::Put { key, value } => {
            let (previous, stamp) = state.mutate(|| {
                let previous = handle.insert(key, value);
                (previous, previous.is_none())
            });
            ShardReply::Value {
                value: previous,
                stamp,
            }
        }
        ShardJob::Delete { key } => {
            let (removed, stamp) = state.mutate(|| {
                let removed = handle.delete(key);
                (removed, removed.is_some())
            });
            ShardReply::Value {
                value: removed,
                stamp,
            }
        }
        ShardJob::Range { lo, hi } => {
            let mut entries = Vec::new();
            handle.range(lo, hi, &mut entries);
            ShardReply::Entries { entries }
        }
        ShardJob::GetBatch { keys } => {
            let stamp = state.read_stamp();
            let mut values = Vec::new();
            handle.get_batch(&keys, &mut values);
            ShardReply::Values { values, stamp }
        }
        ShardJob::PutBatch { pairs } => {
            // One announcement covers the whole sub-batch: it is one write
            // as far as the stamps are concerned.
            let (values, stamp) = state.mutate(|| {
                let mut previous = Vec::new();
                handle.insert_batch(&pairs, &mut previous);
                let mutated = previous.iter().any(|p| p.is_none());
                (previous, mutated)
            });
            ShardReply::Values { values, stamp }
        }
    }
}
