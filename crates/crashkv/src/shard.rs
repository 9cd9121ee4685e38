//! The durable shard: its WAL tree, its persist lifecycle, its crash
//! behavior — everything the owner thread does *between* lane operations.
//!
//! The thread itself runs `kvserve`'s owner runtime
//! ([`kvserve::owner::run_owner`]: lane mailbox, run draining, idle/park
//! handshake, abort hand-off); this module is that loop's durable
//! [`CommitPolicy`], [`GroupFence`]:
//!
//! * the shard's store is a concrete [`pabtree::WalElimABTree`] — flushes
//!   are issued inside every operation ([`pabtree::RelaxedPersist`]), but
//!   **no fence**;
//! * acknowledgements are batched into **groups**: every reply is held,
//!   and the loop releases a group only after [`GroupFence::boundary`]
//!   issued the covering [`abpmem::sfence`] — after `acks_per_fence`
//!   operations, or earlier when the lanes drain empty (so a lone blocking
//!   client is never parked behind a fence that will not come).  An acked
//!   operation is therefore always durable;
//! * every state-changing operation since the last fence is kept in an
//!   **unfenced log** with enough information to invert it, which is what
//!   lets a crash at the boundary roll back the exact suffix that "did not
//!   reach persistent memory";
//! * a crash directive ([`crate::CrashSpec`], armed by the injector) fires
//!   at a group boundary (or when the shard is idle): the suffix rolls
//!   back, optional torn-persist damage is planted, and the policy aborts
//!   the loop — which answers every held (unacked) reply
//!   [`ShardReply::Crashed`], returns the adopted lanes to the mailbox for
//!   the next owner, and exits.  The supervisor then runs
//!   [`pabtree::recover`] and spawns a fresh owner — the router sees the
//!   shard degrade (queued jobs, `Crashed` errors) and heal, never a
//!   poisoned lock.

use std::num::NonZeroU32;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use abtree::{MapHandle, SessionMap};
use kvserve::owner::{CommitPolicy, Mailbox, OwnerLane, Verdict};
use obs::{Stage, StageRecorder, StageTrace, Stamp};
use pabtree::WalElimABTree;

use crate::crash::CrashSpec;

/// One point operation: what [`crate::DurableRouter::submit`] takes and what
/// crosses a job lane.  The durable service is a point-op store: batching
/// happens at the ack/fence layer, not the request layer.
#[derive(Debug, Clone, Copy)]
pub enum DurableOp {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Insert-if-absent.
    Put {
        /// Key to insert.
        key: u64,
        /// Value to associate.
        value: u64,
    },
    /// Point removal.
    Delete {
        /// Key to remove.
        key: u64,
    },
}

/// The reply to one [`DurableOp`], in lane FIFO order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardReply {
    /// The operation executed and its covering group fence was issued: the
    /// result is durable.
    Value(Option<u64>),
    /// The shard crashed before the covering group fence: the operation was
    /// never acknowledged and may or may not have taken effect.
    Crashed,
}

/// Shard liveness as the router and supervisor see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// An owner thread is serving the shard.
    Up,
    /// The owner crashed and exited; the supervisor has not finished
    /// recovery yet.  Jobs stay queued in the lanes and are served after
    /// the shard heals.
    Down,
}

const STATUS_UP: u8 = 0;
const STATUS_DOWN: u8 = 1;

/// What a crashed owner leaves behind for the supervisor.
pub(crate) struct PendingCrash {
    pub(crate) boundary_index: u64,
    pub(crate) unfenced: usize,
    pub(crate) survived: usize,
    pub(crate) rolled_back: usize,
    pub(crate) torn_insert: Option<u64>,
    pub(crate) dirty_link: bool,
}

/// Durability and crash state of one shard.
pub(crate) struct ShardState {
    status: AtomicU8,
    /// Group-fence boundaries completed (read-only groups skip the actual
    /// `sfence` but still count as boundaries — the ack-release points).
    pub(crate) boundaries: AtomicU64,
    /// Group fences actually issued (boundaries with pending writes).
    pub(crate) fences: AtomicU64,
    /// Completed crash + recovery cycles.
    pub(crate) crashes: AtomicU64,
    /// Armed crash directive; the flag is the cheap per-boundary check.
    crash_armed: AtomicBool,
    crash_spec: Mutex<Option<(u64, CrashSpec)>>,
    /// Filled by a crashing owner, consumed by the supervisor.
    pub(crate) pending_crash: Mutex<Option<PendingCrash>>,
}

impl ShardState {
    fn new() -> Self {
        Self {
            status: AtomicU8::new(STATUS_UP),
            boundaries: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            crash_armed: AtomicBool::new(false),
            crash_spec: Mutex::new(None),
            pending_crash: Mutex::new(None),
        }
    }

    pub(crate) fn status(&self) -> ShardStatus {
        match self.status.load(Ordering::SeqCst) {
            STATUS_UP => ShardStatus::Up,
            _ => ShardStatus::Down,
        }
    }

    pub(crate) fn set_status(&self, status: ShardStatus) {
        let raw = match status {
            ShardStatus::Up => STATUS_UP,
            ShardStatus::Down => STATUS_DOWN,
        };
        self.status.store(raw, Ordering::SeqCst);
    }

    /// Takes the directive if it is due at the current boundary count.
    fn due_crash(&self) -> Option<CrashSpec> {
        if !self.crash_armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut slot = self.crash_spec.lock().expect("crash directive poisoned");
        match *slot {
            Some((target, spec)) if self.boundaries.load(Ordering::SeqCst) >= target => {
                *slot = None;
                self.crash_armed.store(false, Ordering::SeqCst);
                Some(spec)
            }
            _ => None,
        }
    }
}

/// One durable shard: the concrete WAL tree plus its coordination state.
/// The tree is concrete (not `Box<dyn ShardStore>`) because crash injection
/// and recovery need the real type: `force_partial_insert`,
/// `force_dirty_root_link` and [`pabtree::recover`] are tree methods.
pub(crate) struct ShardCell {
    pub(crate) tree: WalElimABTree,
    pub(crate) state: ShardState,
    /// Where routers open their lanes and the (current or next) owner
    /// finds them.
    pub(crate) mailbox: Arc<Mailbox<DurableOp, ShardReply>>,
    /// The service-wide stage trace; the owner records every group
    /// [`Stage::Fence`] span into it (unsampled — fences are already
    /// amortized to one per ack group).
    trace: Arc<StageTrace>,
}

impl ShardCell {
    pub(crate) fn new(trace: Arc<StageTrace>) -> Self {
        Self {
            tree: WalElimABTree::new(),
            state: ShardState::new(),
            mailbox: Arc::new(Mailbox::default()),
            trace,
        }
    }

    /// Arms a crash directive: the owner crashes at the first boundary (or
    /// idle point) at which `after_boundaries` further boundaries have
    /// completed.
    pub(crate) fn arm_crash(&self, spec: CrashSpec) {
        let state = &self.state;
        let target = state.boundaries.load(Ordering::SeqCst) + spec.after_boundaries;
        *state.crash_spec.lock().expect("crash directive poisoned") = Some((target, spec));
        state.crash_armed.store(true, Ordering::SeqCst);
        // An idle owner must still crash: send it through its idle hook.
        self.mailbox.notify();
    }
}

/// One state-changing operation of the current unfenced group, with enough
/// information to invert it exactly.  Refused inserts and missed deletes
/// change nothing and are not logged (their *acks* still gate on the fence,
/// because they observed state that is only durable at the fence).
enum UnfencedOp {
    /// `insert(key, value)` installed the key; inverse: delete it.
    Inserted { key: u64, value: u64 },
    /// `delete(key)` removed `(key, value)`; inverse: re-insert it.
    Removed { key: u64, value: u64 },
}

/// The durable commit policy: apply into the unfenced log, hold every
/// reply, fence at the boundary — or crash there.
pub(crate) struct GroupFence<'a> {
    cell: &'a ShardCell,
    handle: <WalElimABTree as SessionMap>::Session<'a>,
    acks_per_fence: NonZeroU32,
    /// State-changing operations since the last fence, oldest first.
    unfenced: Vec<UnfencedOp>,
    recorder: StageRecorder,
}

impl<'a> GroupFence<'a> {
    /// Opens the owner's session on `cell`'s tree; call on the owner thread.
    pub(crate) fn new(cell: &'a ShardCell, acks_per_fence: u32) -> Self {
        Self {
            cell,
            handle: cell.tree.handle(),
            acks_per_fence: NonZeroU32::new(acks_per_fence).unwrap_or(NonZeroU32::MIN),
            unfenced: Vec::new(),
            recorder: cell.trace.recorder(),
        }
    }

    /// Crashes if a directive is due.
    fn crash_if_due(&mut self) -> Verdict<ShardReply> {
        match self.cell.state.due_crash() {
            Some(spec) => {
                self.crash(spec);
                Verdict::Abort(ShardReply::Crashed)
            }
            None => Verdict::Continue,
        }
    }
}

impl CommitPolicy for GroupFence<'_> {
    type Job = DurableOp;
    type Reply = ShardReply;

    fn group_limit(&self) -> NonZeroU32 {
        self.acks_per_fence
    }

    #[inline]
    fn apply(&mut self, job: DurableOp, lane: &mut OwnerLane<DurableOp, ShardReply>) {
        lane.hold(execute(&mut self.handle, &mut self.unfenced, job));
        // The lost-ack mutant: release every held ack the moment its
        // operation executes, *before* the covering fence — exactly the
        // bug group commit must not have.  A crash at the next boundary
        // then rolls back acknowledged writes, which the durable checker
        // must flag.
        #[cfg(feature = "lost-ack")]
        lane.release_held();
    }

    /// Fence (if any write is pending) so the loop may release the group —
    /// unless a crash is due, in which case the group dies unfenced.
    fn boundary(&mut self) -> Verdict<ShardReply> {
        if let abort @ Verdict::Abort(_) = self.crash_if_due() {
            return abort;
        }
        let state = &self.cell.state;
        if !self.unfenced.is_empty() {
            let fence_start = Stamp::now();
            abpmem::sfence();
            state.fences.fetch_add(1, Ordering::SeqCst);
            self.recorder.record(Stage::Fence, fence_start);
            self.unfenced.clear();
        }
        state.boundaries.fetch_add(1, Ordering::SeqCst);
        Verdict::Continue
    }

    /// An armed crash still fires on a quiet shard (nothing unfenced,
    /// nothing held), so it cannot dodge its directive forever.
    fn idle(&mut self) -> Verdict<ShardReply> {
        self.crash_if_due()
    }
}

/// Executes one job, maintaining the unfenced log.
fn execute(
    handle: &mut impl MapHandle,
    unfenced: &mut Vec<UnfencedOp>,
    job: DurableOp,
) -> ShardReply {
    match job {
        DurableOp::Get { key } => ShardReply::Value(handle.get(key)),
        DurableOp::Put { key, value } => {
            let prior = handle.insert(key, value);
            if prior.is_none() {
                unfenced.push(UnfencedOp::Inserted { key, value });
            }
            ShardReply::Value(prior)
        }
        DurableOp::Delete { key } => {
            let removed = handle.delete(key);
            if let Some(value) = removed {
                unfenced.push(UnfencedOp::Removed { key, value });
            }
            ShardReply::Value(removed)
        }
    }
}

impl GroupFence<'_> {
    /// The crash itself: destroy the unfenced suffix, plant the requested
    /// §5 damage and leave the forensic record for the supervisor.  The
    /// caller aborts the loop, which answers every held reply `Crashed` —
    /// each belongs to an operation whose covering fence never happened —
    /// and hands the lanes on; queued (unpopped) jobs stay in the lanes and
    /// are served after the shard heals.
    fn crash(&mut self, spec: CrashSpec) {
        let cell = self.cell;
        let total = self.unfenced.len();
        let survived = (spec.survivor_seed as usize) % (total + 1);
        // Roll back the non-persisted suffix with exact inverse operations
        // in reverse order, restoring the state as of `survived` operations
        // past the last fence.
        let rolled: Vec<UnfencedOp> = self.unfenced.drain(survived..).collect();
        for op in rolled.iter().rev() {
            match *op {
                UnfencedOp::Inserted { key, .. } => {
                    self.handle.delete(key);
                }
                UnfencedOp::Removed { key, value } => {
                    self.handle.insert(key, value);
                }
            }
        }
        // Optionally re-apply one rolled-back insert *torn*: key/value
        // stores persisted, version/size update interrupted.  Recovery must
        // linearize it at the crash (paper §5), turning a "vanished"
        // unacked write into a "survived" one — both legal outcomes for the
        // checker.
        let mut torn_insert = None;
        if spec.torn_insert {
            for op in rolled.iter().rev() {
                if let UnfencedOp::Inserted { key, value } = *op {
                    if cell.tree.force_partial_insert(key, value) {
                        torn_insert = Some(key);
                        break;
                    }
                }
            }
        }
        if spec.dirty_link {
            cell.tree.force_dirty_root_link();
        }
        let report = PendingCrash {
            boundary_index: cell.state.boundaries.load(Ordering::SeqCst),
            unfenced: total,
            survived,
            rolled_back: total - survived,
            torn_insert,
            dirty_link: spec.dirty_link,
        };
        *cell
            .state
            .pending_crash
            .lock()
            .expect("crash record poisoned") = Some(report);
    }
}
