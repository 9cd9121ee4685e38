//! The persistence policy abstraction.
//!
//! The paper's durable trees (p-OCC-ABtree and p-Elim-ABtree, §5) are "minor
//! modifications" of the volatile trees: the algorithms are identical except
//! that
//!
//! * a simple insert flushes the value and then the key (the insert becomes
//!   durable when the key reaches persistent memory),
//! * a successful delete flushes the emptied key slot,
//! * structural updates flush the newly created nodes *before* publishing the
//!   single child-pointer write, and then flush that pointer using the
//!   **link-and-persist** technique: the pointer is first written with a
//!   "dirty" mark, flushed, and only then unmarked, so that no thread can act
//!   on a pointer that is not yet durable.
//!
//! Rather than maintaining a second copy of the tree code, the tree is
//! generic over a [`Persist`] policy.  [`VolatilePersist`] compiles every
//! hook to a no-op (yielding exactly the paper's volatile trees), while the
//! `pabtree` crate provides a durable policy backed by the `abpmem` crate's
//! flush/fence primitives.  A policy supplies only [`Persist::flush_range`]
//! and [`Persist::fence`]; every other hook is built from those two.
//!
//! The order of those hooks is checked here, by unit tests over
//! `recording::Recording`: a test-only durable policy that logs the calling
//! thread's flushes and fences instead of issuing them.  It is the one flush
//! log in the workspace; nothing records the order of the real flushes.

/// A persistence policy: how (and whether) stores are made durable.
pub trait Persist: Send + Sync + 'static {
    /// `true` for durable policies.  All persistence logic in the tree is
    /// guarded by this constant so the volatile instantiation carries zero
    /// overhead.
    const DURABLE: bool;

    /// Flushes the cache lines covering `[ptr, ptr + len)` without fencing.
    fn flush_range(ptr: *const u8, len: usize);

    /// Issues a store fence ordering previously issued flushes.
    fn fence();

    /// Flushes the cache lines covering `[ptr, ptr + len)` and fences (the
    /// paper's "flush": `clwb` + `sfence`).
    #[inline]
    fn persist_range(ptr: *const u8, len: usize) {
        Self::flush_range(ptr, len);
        Self::fence();
    }

    /// Convenience: flush + fence a single value.
    #[inline]
    fn persist_value<T>(value: &T) {
        Self::persist_range(value as *const T as *const u8, std::mem::size_of::<T>());
    }
}

/// The volatile policy: every hook is a no-op.  This is the paper's
/// OCC-ABtree / Elim-ABtree.
#[derive(Debug, Default, Clone, Copy)]
pub struct VolatilePersist;

impl Persist for VolatilePersist {
    const DURABLE: bool = false;

    #[inline(always)]
    fn flush_range(_ptr: *const u8, _len: usize) {}

    #[inline(always)]
    fn fence() {}
}

/// A durable policy for unit tests that logs the calling thread's flushes
/// and fences instead of issuing them.
#[cfg(test)]
pub(crate) mod recording {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::Persist;

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Event {
        /// `word` is the 8-byte word an 8-byte flush covered when it ran.
        Flush {
            addr: usize,
            len: usize,
            word: Option<u64>,
        },
        Fence,
    }

    thread_local! {
        /// This thread's flushes and fences, oldest first.
        pub(crate) static EVENTS: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    }

    /// A durable policy that logs this thread's flushes and fences.
    pub(crate) struct Recording;

    impl Persist for Recording {
        const DURABLE: bool = true;

        fn flush_range(ptr: *const u8, len: usize) {
            let word = (len == 8).then(|| {
                // SAFETY: the tree flushes 8 bytes only for one of a live
                // node's atomic words: a key, a value or a child slot.
                unsafe { (*ptr.cast::<AtomicU64>()).load(Ordering::Relaxed) }
            });
            let addr = ptr as usize;
            EVENTS.with(|e| e.borrow_mut().push(Event::Flush { addr, len, word }));
        }

        fn fence() {
            EVENTS.with(|e| e.borrow_mut().push(Event::Fence));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // asserts the policy's const
    fn volatile_policy_is_marked_not_durable() {
        assert!(!VolatilePersist::DURABLE);
        // The hooks must be callable with arbitrary (even null) ranges.
        VolatilePersist::persist_range(std::ptr::null(), 0);
        VolatilePersist::flush_range(std::ptr::null(), 64);
        VolatilePersist::fence();
        let x = 5u64;
        VolatilePersist::persist_value(&x);
    }
}
