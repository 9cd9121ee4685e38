//! The durable shard: its WAL tree, its persist lifecycle, its crash
//! behavior — everything the owner thread does *between* lane operations.
//!
//! The thread itself runs `kvserve`'s owner runtime
//! ([`kvserve::owner::run_owner`]: lane mailbox, run draining, idle/park
//! handshake); this module is that loop's durable [`CommitPolicy`],
//! [`GroupFence`]:
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
//!   back, optional torn-persist damage is planted, and the owner runs
//!   [`pabtree::recover`] on its own thread and logs the
//!   [`CrashReport`] — all before the policy aborts the group, so the loop
//!   answers every held (unacked) reply [`ShardReply::Crashed`] only once
//!   the shard has recovered.  The same owner then serves the jobs still
//!   queued, with the same tree session: the router sees `Crashed` errors,
//!   never a poisoned lock or an outage.

use std::num::NonZeroU32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use absync::McsLock;
use abtree::{MapHandle, TreeHandle};
use kvserve::owner::{CommitPolicy, Mailbox, OwnerLane, Verdict};
use obs::{Stage, StageRecorder, StageTrace, Stamp};
use pabtree::{RelaxedPersist, WalElimABTree};

use crate::crash::{CrashReport, CrashSpec};

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

/// Durability and crash state of one shard.
#[derive(Default)]
pub(crate) struct ShardState {
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
}

impl ShardState {
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
/// The tree is concrete (not `Box<dyn ConcurrentMap>`) because crash injection
/// and recovery need the real type: `force_partial_insert`,
/// `force_dirty_root_link` and [`pabtree::recover`] are tree methods.
pub(crate) struct ShardCell {
    /// The shard's index in its service.
    index: usize,
    pub(crate) tree: WalElimABTree,
    pub(crate) state: ShardState,
    /// Where routers open their lanes and the owner finds them.
    pub(crate) mailbox: Arc<Mailbox<DurableOp, ShardReply>>,
    /// The service-wide stage trace; the owner records every group
    /// [`Stage::Fence`] span into it (unsampled — fences are already
    /// amortized to one per ack group).
    trace: Arc<StageTrace>,
    /// The service-wide crash log the owner appends each recovery to.
    crash_log: Arc<Mutex<Vec<CrashReport>>>,
}

impl ShardCell {
    pub(crate) fn new(
        index: usize,
        trace: Arc<StageTrace>,
        crash_log: Arc<Mutex<Vec<CrashReport>>>,
    ) -> Self {
        Self {
            index,
            tree: WalElimABTree::new(),
            state: ShardState::default(),
            mailbox: Arc::new(Mailbox::default()),
            trace,
            crash_log,
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
/// reply, fence at the boundary — or crash and recover there.
pub(crate) struct GroupFence<'a> {
    cell: &'a ShardCell,
    /// The session [`WalElimABTree`]'s inherent `handle()` returns.
    handle: TreeHandle<'a, true, McsLock, RelaxedPersist>,
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
    /// unless a crash is due, in which case the group dies unfenced and is
    /// answered `Crashed` once the shard has recovered.
    fn boundary(&mut self) -> Verdict<ShardReply> {
        if let Some(spec) = self.cell.state.due_crash() {
            self.crash(spec);
            return Verdict::Abort(ShardReply::Crashed);
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
    fn idle(&mut self) {
        if let Some(spec) = self.cell.state.due_crash() {
            self.crash(spec);
        }
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
    /// The crash and its recovery: destroy the unfenced suffix, plant the
    /// requested §5 damage, run [`pabtree::recover`] over the image and log
    /// the [`CrashReport`].  A boundary caller then aborts the group, which
    /// answers every held reply `Crashed` — each belongs to an operation
    /// whose covering fence never happened; queued (unpopped) jobs stay in
    /// the lanes and are served next, against the recovered tree.
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
        let recovery = pabtree::recover(&cell.tree);
        assert!(
            !cell.tree.has_dirty_links(),
            "recovery must clear every dirty link-and-persist mark"
        );
        cell.crash_log
            .lock()
            .expect("crash log poisoned")
            .push(CrashReport {
                shard: cell.index,
                boundary_index: cell.state.boundaries.load(Ordering::SeqCst),
                unfenced: total,
                survived,
                rolled_back: total - survived,
                torn_insert,
                dirty_link: spec.dirty_link,
                recovery,
            });
        cell.state.crashes.fetch_add(1, Ordering::SeqCst);
    }
}
