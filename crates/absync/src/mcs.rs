//! MCS queue lock (Mellor-Crummey & Scott, 1991).
//!
//! The paper's trees lock individual nodes with MCS locks (§3.1): "In MCS
//! locks, threads waiting for the lock join a queue and spin on a local bit
//! (meaning they scale well across multiple NUMA nodes)."  The queue node on
//! which a waiter spins lives on the waiter's own stack, so contended
//! acquisitions do not bounce a shared cache line between cores.
//!
//! Two APIs are provided:
//!
//! * a safe, guard-based API ([`McsLock::lock_guard`] /
//!   [`McsLock::try_lock_guard`]) for general use, and
//! * a raw API ([`McsLock::lock_raw`] / [`McsLock::try_lock_raw`] /
//!   [`McsLock::unlock_raw`]) used by the tree implementations, which need to
//!   acquire up to four node locks with interleaved lifetimes during
//!   rebalancing (the paper's `fixTagged` / `fixUnderfull`).

use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use crate::backoff::Backoff;

/// Per-acquisition queue node for an [`McsLock`].
///
/// A queue node may be reused for any number of acquisitions, but it must not
/// be moved (or dropped) while it is enqueued, i.e. between a successful
/// `lock`/`try_lock` and the matching `unlock`.  The safe guard API enforces
/// this with a mutable borrow; the raw API documents it as a safety contract.
#[derive(Debug)]
#[repr(align(64))]
pub struct McsQueueNode {
    /// `true` while the owner of this node is waiting for its predecessor.
    locked: AtomicBool,
    /// Pointer to the successor's queue node, if any.
    next: AtomicPtr<McsQueueNode>,
}

impl Default for McsQueueNode {
    fn default() -> Self {
        Self::new()
    }
}

impl McsQueueNode {
    /// Creates a queue node ready for use with [`McsLock`].
    pub const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

/// An MCS queue lock.
///
/// The lock word is a single pointer to the tail of the waiter queue; an
/// unlocked lock has a null tail.
///
/// # Examples
///
/// ```
/// use absync::{McsLock, McsQueueNode};
///
/// let lock = McsLock::new();
/// let mut qnode = McsQueueNode::new();
/// {
///     let _guard = lock.lock_guard(&mut qnode);
///     // critical section
/// }
/// assert!(!lock.is_locked());
/// ```
#[derive(Debug)]
pub struct McsLock {
    tail: AtomicPtr<McsQueueNode>,
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl McsLock {
    /// Creates a new, unlocked MCS lock.
    pub const fn new() -> Self {
        Self {
            tail: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Returns `true` if some thread currently holds (or is queued for) the
    /// lock.  Only a heuristic: the answer may be stale by the time the
    /// caller observes it.
    pub fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Acquire).is_null()
    }

    /// Acquires the lock, enqueueing `qnode` and spinning locally until the
    /// predecessor hands the lock over.
    ///
    /// # Safety contract (not `unsafe`, but required for correctness)
    ///
    /// `qnode` must remain at a stable address and must not be reused until
    /// the matching [`unlock_raw`](Self::unlock_raw) returns.  Violations can
    /// lead to hangs or writes through dangling pointers; the tree code keeps
    /// queue nodes on the stack of the function that performs the paired
    /// lock/unlock, and the safe guard API enforces the contract with a
    /// borrow.
    pub fn lock_raw(&self, qnode: &mut McsQueueNode) {
        qnode.next.store(ptr::null_mut(), Ordering::Relaxed);
        qnode.locked.store(true, Ordering::Relaxed);
        let qptr: *mut McsQueueNode = qnode;
        let pred = self.tail.swap(qptr, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` was enqueued by another thread that, per the
            // safety contract above, keeps it alive until it unlocks; it
            // cannot unlock before observing us as its successor.
            unsafe {
                (*pred).next.store(qptr, Ordering::Release);
            }
            let mut backoff = Backoff::new();
            while qnode.locked.load(Ordering::Acquire) {
                backoff.wait();
            }
        }
    }

    /// Attempts to acquire the lock without waiting.  Returns `true` on
    /// success.  On failure the queue node was not enqueued and may be reused
    /// immediately.
    pub fn try_lock_raw(&self, qnode: &mut McsQueueNode) -> bool {
        qnode.next.store(ptr::null_mut(), Ordering::Relaxed);
        qnode.locked.store(false, Ordering::Relaxed);
        let qptr: *mut McsQueueNode = qnode;
        self.tail
            .compare_exchange(ptr::null_mut(), qptr, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the lock previously acquired with the same `qnode`.
    ///
    /// # Safety
    /// `qnode` is the node of this thread's matching successful [`lock_raw`](Self::lock_raw)
    /// or [`try_lock_raw`](Self::try_lock_raw) on this lock, which still holds it.
    pub unsafe fn unlock_raw(&self, qnode: &mut McsQueueNode) {
        let qptr: *mut McsQueueNode = qnode;
        let mut next = qnode.next.load(Ordering::Acquire);
        if next.is_null() {
            // No known successor: try to swing the tail back to null.
            if self
                .tail
                .compare_exchange(qptr, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            // A successor is in the middle of enqueueing itself; wait for it
            // to publish its node in our `next` field.
            let mut backoff = Backoff::new();
            loop {
                next = qnode.next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                backoff.wait();
            }
        }
        // SAFETY: the successor's queue node stays alive until it unlocks,
        // which it cannot do before we clear its `locked` flag here.
        unsafe {
            (*next).locked.store(false, Ordering::Release);
        }
    }

    /// Acquires the lock and returns a guard that releases it on drop.
    pub fn lock_guard<'a>(&'a self, qnode: &'a mut McsQueueNode) -> McsGuard<'a> {
        self.lock_raw(qnode);
        McsGuard { lock: self, qnode }
    }

    /// Attempts to acquire the lock; returns a releasing guard on success.
    pub fn try_lock_guard<'a>(&'a self, qnode: &'a mut McsQueueNode) -> Option<McsGuard<'a>> {
        if self.try_lock_raw(qnode) {
            Some(McsGuard { lock: self, qnode })
        } else {
            None
        }
    }

    /// Runs `f` while holding the lock, managing the queue node internally.
    pub fn with_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut qnode = McsQueueNode::new();
        let _guard = self.lock_guard(&mut qnode);
        f()
    }
}

/// RAII guard returned by [`McsLock::lock_guard`]; releases the lock on drop.
#[derive(Debug)]
pub struct McsGuard<'a> {
    lock: &'a McsLock,
    qnode: &'a mut McsQueueNode,
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: the guard was constructed from a successful acquisition
        // with exactly this queue node, and the borrow it holds prevented the
        // node from being moved or reused in the meantime.
        unsafe { self.lock.unlock_raw(self.qnode) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_single_thread() {
        let lock = McsLock::new();
        assert!(!lock.is_locked());
        let mut q = McsQueueNode::new();
        {
            let _g = lock.lock_guard(&mut q);
            assert!(lock.is_locked());
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = McsLock::new();
        let mut q1 = McsQueueNode::new();
        let mut q2 = McsQueueNode::new();
        let g = lock.lock_guard(&mut q1);
        assert!(lock.try_lock_guard(&mut q2).is_none());
        drop(g);
        assert!(lock.try_lock_guard(&mut q2).is_some());
    }

    #[test]
    fn queue_node_is_reusable_after_unlock() {
        let lock = McsLock::new();
        let mut q = McsQueueNode::new();
        for _ in 0..100 {
            let _g = lock.lock_guard(&mut q);
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn with_lock_returns_value() {
        let lock = McsLock::new();
        let v = lock.with_lock(|| 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn mutual_exclusion_counter() {
        const THREADS: usize = 8;
        const ITERS: u64 = 20_000;
        let lock = Arc::new(McsLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut q = McsQueueNode::new();
                for _ in 0..ITERS {
                    let _g = lock.lock_guard(&mut q);
                    // Non-atomic-style read-modify-write under the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ITERS);
        assert!(!lock.is_locked());
    }

    #[test]
    fn fairness_queue_hand_off() {
        // Two threads alternately acquire; neither should starve (the test
        // simply checks both make progress to completion).
        let lock = Arc::new(McsLock::new());
        let done = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let mut q = McsQueueNode::new();
                for _ in 0..50_000 {
                    let _g = lock.lock_guard(&mut q);
                }
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }
}
