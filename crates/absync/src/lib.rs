//! Synchronization primitives for the Elim-ABtree reproduction.
//!
//! The paper ("Elimination (a,b)-trees with fast, durable updates", PPoPP'22,
//! §3.1) protects every tree node with an MCS queue lock and uses a per-leaf
//! *version* counter (even = stable, odd = being modified) so that searches
//! can read leaves optimistically without acquiring any lock.  This crate
//! provides the lock (the tree embeds the version counter in its node type
//! as a raw `AtomicU64`, for layout control) plus a simple
//! test-and-test-and-set spinlock (used by the lock-type ablation benchmark,
//! cf. the paper's §7 remark that MCS locks "significantly increased the
//! scalability of the OCC-ABtree") and an exponential-backoff helper.
//!
//! # Modules
//!
//! * [`mcs`] — MCS queue lock with stack-allocated queue nodes.
//! * [`tatas`] — test-and-test-and-set spinlock with exponential backoff.
//! * [`backoff`] — bounded exponential backoff for retry loops.
//! * [`raw`] — the [`raw::RawNodeLock`] abstraction that lets the trees be
//!   generic over the per-node lock implementation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod mcs;
pub mod raw;
pub mod tatas;

pub use backoff::Backoff;
pub use mcs::{McsLock, McsQueueNode};
pub use raw::RawNodeLock;
pub use tatas::TatasLock;

/// A cache line is assumed to be 64 bytes on the x86-64 machines the paper
/// evaluates on (and on which this reproduction runs).
pub const CACHE_LINE_BYTES: usize = 64;

/// Pads and aligns a value to a cache line to avoid false sharing.
///
/// This is a tiny local equivalent of `crossbeam_utils::CachePadded`; it is
/// defined here so that the lock primitives have no external dependencies.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned container.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the wrapper and returns the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> core::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> core::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned() {
        assert!(core::mem::align_of::<CachePadded<u8>>() >= CACHE_LINE_BYTES);
        assert!(core::mem::size_of::<CachePadded<u8>>() >= CACHE_LINE_BYTES);
    }

    #[test]
    fn cache_padded_deref() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(c.into_inner(), 42);
    }
}
