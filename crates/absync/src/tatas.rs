//! Test-and-test-and-set spinlock with exponential backoff.
//!
//! The paper (§7) notes that switching the per-node locks from
//! test-and-test-and-set spinlocks to MCS locks "significantly increased the
//! scalability of the OCC-ABtree".  This lock exists so the lock-type
//! ablation benchmark (`ablation_locks`) can reproduce that comparison: the
//! tree types are generic over [`crate::RawNodeLock`], and instantiating them
//! with [`TatasLock`] yields the spinlock variant.

use core::sync::atomic::{AtomicBool, Ordering};

use crate::backoff::Backoff;

/// A test-and-test-and-set spinlock.
///
/// # Examples
///
/// ```
/// use absync::TatasLock;
///
/// let lock = TatasLock::new();
/// {
///     let _guard = lock.lock_guard();
/// }
/// assert!(!lock.is_locked());
/// ```
#[derive(Debug, Default)]
pub struct TatasLock {
    locked: AtomicBool,
}

impl TatasLock {
    /// Creates a new, unlocked spinlock.
    pub const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }

    /// Returns `true` if the lock is currently held (may be stale).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Acquire)
    }

    /// Acquires the lock, spinning with exponential backoff.
    pub fn lock(&self) {
        let mut backoff = Backoff::new();
        loop {
            // Test-and-test-and-set: spin on a read before attempting the
            // read-modify-write, so waiting threads do not keep the line in
            // the modified state.
            if !self.locked.load(Ordering::Relaxed)
                && self
                    .locked
                    .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            backoff.wait();
        }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> bool {
        !self.locked.load(Ordering::Relaxed)
            && self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// Must only be called by the thread that currently holds the lock.
    pub unsafe fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    /// Acquires the lock and returns a guard that releases it on drop.
    pub fn lock_guard(&self) -> TatasGuard<'_> {
        self.lock();
        TatasGuard { lock: self }
    }

    /// Attempts to acquire the lock; returns a releasing guard on success.
    pub fn try_lock_guard(&self) -> Option<TatasGuard<'_>> {
        if self.try_lock() {
            Some(TatasGuard { lock: self })
        } else {
            None
        }
    }

    /// Runs `f` while holding the lock.
    pub fn with_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.lock_guard();
        f()
    }
}

/// RAII guard for [`TatasLock`].
#[derive(Debug)]
pub struct TatasGuard<'a> {
    lock: &'a TatasLock,
}

impl Drop for TatasGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: the guard exists only while the lock is held by this thread.
        unsafe { self.lock.unlock() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn lock_unlock() {
        let lock = TatasLock::new();
        assert!(!lock.is_locked());
        {
            let _g = lock.lock_guard();
            assert!(lock.is_locked());
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_behaviour() {
        let lock = TatasLock::new();
        let g = lock.lock_guard();
        assert!(!lock.try_lock());
        drop(g);
        assert!(lock.try_lock());
        // SAFETY: the try_lock above succeeded on this thread.
        unsafe { lock.unlock() };
    }

    #[test]
    fn mutual_exclusion_counter() {
        const THREADS: usize = 8;
        const ITERS: u64 = 20_000;
        let lock = Arc::new(TatasLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _g = lock.lock_guard();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ITERS);
    }

    #[test]
    fn with_lock_returns_value() {
        let lock = TatasLock::new();
        assert_eq!(lock.with_lock(|| "ok"), "ok");
    }
}
