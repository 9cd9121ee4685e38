//! The durable shard: its WAL tree, its commit lock, its counters and its
//! crash behavior — everything a router's commit does on one shard.
//!
//! * the shard's store is a concrete [`pabtree::WalElimABTree`]: flushes
//!   are issued inside every operation ([`pabtree::RelaxedPersist`]), but
//!   **no fence** — the committing router issues one for its whole window;
//! * every state-changing operation since the last fence is kept in the
//!   committing router's **unfenced log** with enough information to invert
//!   it, which is what lets a crash roll back the exact suffix that "did
//!   not reach persistent memory";
//! * a crash directive ([`crate::CrashSpec`], armed by the injector) fires
//!   at the next due commit that touches the shard: the suffix rolls back,
//!   optional torn-persist damage is planted, and the committing thread
//!   runs [`pabtree::recover`] and logs the [`CrashReport`] before any of
//!   the shard's operations in that window is answered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use absync::McsLock;
use abtree::TreeHandle;
use pabtree::{RelaxedPersist, WalElimABTree};

use crate::crash::{CrashReport, CrashSpec, Crashed};
use crate::DurableOp;

/// One durable shard: the concrete WAL tree plus its coordination state.
/// The tree is concrete (not `Box<dyn ConcurrentMap>`) because crash injection
/// and recovery need the real type: `force_partial_insert`,
/// `force_dirty_root_link` and [`pabtree::recover`] are tree methods.
pub(crate) struct ShardCell {
    /// The shard's index in its service.
    index: usize,
    pub(crate) tree: WalElimABTree,
    /// Held by one router from its first operation on this shard to the
    /// covering fence (see the `service` module docs).
    pub(crate) commit: Mutex<()>,
    /// Commits that touched the shard and did not crash (read-only ones
    /// included — they are ack-release points too).
    pub(crate) boundaries: AtomicU64,
    /// Fences issued, each counted once, on the lowest shard its window
    /// wrote to.
    pub(crate) fences: AtomicU64,
    /// Completed crash + recovery cycles.
    pub(crate) crashes: AtomicU64,
    /// The armed directive and the boundary count at which it is due.
    crash_directive: Mutex<Option<(u64, CrashSpec)>>,
    /// The service-wide crash log each recovery is appended to.
    crash_log: Arc<Mutex<Vec<CrashReport>>>,
}

/// The session type [`WalElimABTree`]'s inherent `handle()` returns.
type WalHandle<'t> = TreeHandle<'t, true, McsLock, RelaxedPersist>;

/// A router's session on one shard's tree, plus that router's unfenced log
/// for the shard.
pub(crate) struct Session {
    /// Borrows `cell`'s tree, so it is declared (and dropped) first.
    handle: WalHandle<'static>,
    cell: Arc<ShardCell>,
    /// State-changing operations since the last fence, oldest first.
    pub(crate) unfenced: Vec<UnfencedOp>,
    /// The last applied batch's answers not yet released, newest first, so
    /// releasing pops them in the batch's order.  A crash empties it.
    answers: Vec<Option<u64>>,
}

impl ShardCell {
    pub(crate) fn new(index: usize, crash_log: Arc<Mutex<Vec<CrashReport>>>) -> Self {
        Self {
            index,
            tree: WalElimABTree::new(),
            commit: Mutex::new(()),
            boundaries: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            crash_directive: Mutex::new(None),
            crash_log,
        }
    }

    /// Opens a session on this shard's tree that keeps the shard alive.
    pub(crate) fn open_session(self: &Arc<Self>) -> Session {
        let handle = self.tree.handle();
        // SAFETY: `self.tree` lives in the `Arc`'s allocation, never moves, and
        // outlives the handle: the `Session` owns a clone of that `Arc`, drops
        // it after the private `handle` field, and lends no borrow out of it.
        let handle = unsafe { std::mem::transmute::<WalHandle<'_>, WalHandle<'static>>(handle) };
        Session {
            handle,
            cell: Arc::clone(self),
            unfenced: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Arms a crash directive: the shard crashes at the first commit that
    /// touches it once `after_boundaries` further boundaries have completed.
    pub(crate) fn arm_crash(&self, spec: CrashSpec) {
        let target = self.boundaries.load(Ordering::SeqCst) + spec.after_boundaries;
        *self
            .crash_directive
            .lock()
            .expect("crash directive poisoned") = Some((target, spec));
    }

    /// Takes the directive if it is due at the current boundary count.
    /// Called under the commit lock, once per commit touching the shard.
    pub(crate) fn due_crash(&self) -> Option<CrashSpec> {
        let mut slot = self
            .crash_directive
            .lock()
            .expect("crash directive poisoned");
        match *slot {
            Some((target, spec)) if self.boundaries.load(Ordering::SeqCst) >= target => {
                *slot = None;
                Some(spec)
            }
            _ => None,
        }
    }
}

/// One state-changing operation of the current unfenced window, with enough
/// information to invert it exactly.  Refused inserts and missed deletes
/// change nothing and are not logged (their *acks* still gate on the fence,
/// because they observed state that is only durable at the fence).
pub(crate) enum UnfencedOp {
    /// `insert(key, value)` installed the key; inverse: delete it.
    Inserted { key: u64, value: u64 },
    /// `delete(key)` removed `(key, value)`; inverse: re-insert it.
    Removed { key: u64, value: u64 },
}

impl Session {
    /// Applies `ops`, this shard's part of a window, in order in one call
    /// of [`abtree::TreeHandle::apply`], logging every state change in the
    /// unfenced log.  Called under the shard's commit lock, so it never
    /// overlaps a crash's recovery.
    pub(crate) fn apply(&mut self, ops: &[DurableOp]) {
        self.answers.clear();
        self.handle.apply(ops, &mut self.answers);
        for (&op, &answer) in ops.iter().zip(&self.answers) {
            match (op, answer) {
                (DurableOp::Put { key, value }, None) => {
                    self.unfenced.push(UnfencedOp::Inserted { key, value });
                }
                (DurableOp::Delete { key }, Some(value)) => {
                    self.unfenced.push(UnfencedOp::Removed { key, value });
                }
                _ => {}
            }
        }
        self.answers.reverse();
    }

    /// The answer to the oldest unreleased op of the last applied batch:
    /// [`Crashed`] once a crash has ended the batch.
    pub(crate) fn answer(&mut self) -> Result<Option<u64>, Crashed> {
        self.answers.pop().ok_or(Crashed)
    }

    /// The crash and its recovery, under the shard's commit lock: destroy
    /// the unfenced suffix, plant the requested §5 damage, run
    /// [`pabtree::recover`] over the image and log the [`CrashReport`].
    /// Empties the unfenced log (whatever survived is the recovered image)
    /// and drops the batch's answers, so each of its ops answers
    /// [`Crashed`].
    pub(crate) fn crash(&mut self, spec: CrashSpec) {
        let cell = &*self.cell;
        let total = self.unfenced.len();
        let survived = (spec.survivor_seed as usize) % (total + 1);
        // Roll back the non-persisted suffix with exact inverse operations
        // in reverse order, restoring the state as of `survived` operations
        // past the last fence.
        let rolled: Vec<UnfencedOp> = self.unfenced.drain(survived..).collect();
        self.unfenced.clear();
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
        let torn_insert = rolled.iter().rev().find_map(|op| match *op {
            UnfencedOp::Inserted { key, value }
                if spec.torn_insert && cell.tree.force_partial_insert(key, value) =>
            {
                Some(key)
            }
            _ => None,
        });
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
                boundary_index: cell.boundaries.load(Ordering::SeqCst),
                unfenced: total,
                survived,
                rolled_back: total - survived,
                torn_insert,
                dirty_link: spec.dirty_link,
                recovery,
            });
        cell.crashes.fetch_add(1, Ordering::SeqCst);
        // The lost-ack mutant answers the crashed batch with its own
        // results: acks for writes the crash just rolled back, which the
        // durable checker must flag.
        if !cfg!(feature = "lost-ack") {
            self.answers.clear();
        }
    }
}
