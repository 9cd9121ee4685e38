//! The [`RawNodeLock`] abstraction over per-node locks.
//!
//! The trees in this repository lock at the granularity of a single tree
//! node.  The paper's final design uses MCS locks, but §7 reports that the
//! choice of lock materially affects scalability, so the tree types are
//! generic over the lock implementation.  A `RawNodeLock` is a lock whose
//! acquisition may need a small amount of caller-provided stack context (the
//! MCS queue node); lock implementations that need no context use `()` as
//! their token.

use crate::mcs::{McsLock, McsQueueNode};
use crate::tatas::TatasLock;

/// A per-node lock usable by the tree implementations.
///
/// The token is a caller-owned piece of stack context threaded through
/// `lock`/`try_lock`/`unlock`.  For the MCS lock it is the queue node the
/// acquiring thread spins on; for context-free locks it is `()`.
pub trait RawNodeLock: Default + Send + Sync + 'static {
    /// Stack context required for one acquisition of this lock.
    type Token: Default;

    /// Acquires the lock, blocking (spinning) until it is available.
    fn lock(&self, token: &mut Self::Token);

    /// Attempts to acquire the lock without waiting; returns `true` on
    /// success.  On failure the token may be reused immediately.
    fn try_lock(&self, token: &mut Self::Token) -> bool;

    /// Releases the lock.
    ///
    /// # Safety
    /// `token` is the unmoved token of this thread's matching successful [`lock`](Self::lock)
    /// or [`try_lock`](Self::try_lock) on this lock, which still holds it.
    unsafe fn unlock(&self, token: &mut Self::Token);

    /// Heuristic: is the lock currently held?
    fn is_locked(&self) -> bool;

    /// Human-readable name of the lock algorithm (used in benchmark output).
    fn algorithm_name() -> &'static str;
}

impl RawNodeLock for McsLock {
    type Token = McsQueueNode;

    #[inline]
    fn lock(&self, token: &mut Self::Token) {
        self.lock_raw(token);
    }

    #[inline]
    fn try_lock(&self, token: &mut Self::Token) -> bool {
        self.try_lock_raw(token)
    }

    // SAFETY: the trait's contract is `unlock_raw`'s, with the token as the queue node.
    #[inline]
    unsafe fn unlock(&self, token: &mut Self::Token) {
        // SAFETY: forwarded contract.
        unsafe { self.unlock_raw(token) }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        McsLock::is_locked(self)
    }

    fn algorithm_name() -> &'static str {
        "mcs"
    }
}

impl RawNodeLock for TatasLock {
    type Token = ();

    #[inline]
    fn lock(&self, _token: &mut Self::Token) {
        TatasLock::lock(self);
    }

    #[inline]
    fn try_lock(&self, _token: &mut Self::Token) -> bool {
        TatasLock::try_lock(self)
    }

    // SAFETY: the trait's contract implies `TatasLock::unlock`'s: this
    // thread holds the lock.
    #[inline]
    unsafe fn unlock(&self, _token: &mut Self::Token) {
        // SAFETY: forwarded contract.
        unsafe { TatasLock::unlock(self) }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        TatasLock::is_locked(self)
    }

    fn algorithm_name() -> &'static str {
        "tatas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn exercise<L: RawNodeLock>() {
        let lock = Arc::new(L::default());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut token = L::Token::default();
                for _ in 0..10_000 {
                    lock.lock(&mut token);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    // SAFETY: `token` acquired the lock just above.
                    unsafe { lock.unlock(&mut token) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40_000);
        assert!(!lock.is_locked());
    }

    #[test]
    fn generic_mutual_exclusion_mcs() {
        exercise::<McsLock>();
    }

    #[test]
    fn generic_mutual_exclusion_tatas() {
        exercise::<TatasLock>();
    }

    #[test]
    fn try_lock_generic() {
        fn run<L: RawNodeLock>() {
            let lock = L::default();
            let mut t1 = L::Token::default();
            let mut t2 = L::Token::default();
            assert!(lock.try_lock(&mut t1));
            assert!(!lock.try_lock(&mut t2));
            // SAFETY: `t1`'s try_lock succeeded and still holds the lock.
            unsafe { lock.unlock(&mut t1) };
            assert!(lock.try_lock(&mut t2));
            // SAFETY: likewise for `t2`.
            unsafe { lock.unlock(&mut t2) };
        }
        run::<McsLock>();
        run::<TatasLock>();
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(McsLock::algorithm_name(), "mcs");
        assert_eq!(TatasLock::algorithm_name(), "tatas");
    }
}
