//! Bounded single-producer / single-consumer ring queues on std atomics.
//!
//! No service path runs through a lane any more: the volatile
//! [`ShardRouter`](crate::ShardRouter) and the durable `crashkv` router both
//! run every request on the calling thread.  The ring stays as a measured
//! primitive (the ledger times a push/pop pair on it).  The SPSC
//! restriction is what keeps the fast path to two plain atomic loads and
//! one release store per side — no CAS loops, no locks, no external crates
//! (the build environment is offline).
//!
//! The ring is a power-of-two slot array indexed by free-running `head`
//! (consumer cursor) and `tail` (producer cursor) counters, the classic
//! Lamport queue: the producer publishes a slot with a release store of
//! `tail`, the consumer acquires it, and each cursor is written by exactly
//! one side.  [`Producer::try_push`] never blocks — a full ring hands the
//! value back as [`PushError::Full`] instead of wedging a producer inside
//! a queue.
//!
//! Both halves share ownership of the ring; dropping either half raises a
//! side-specific disconnect flag so the survivor can stop instead of
//! waiting on a peer that is gone.  Whichever half drops last releases the
//! values still in the ring.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a [`Producer::try_push`] could not enqueue; both cases hand the
/// rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity; retry after the consumer drains, or shed
    /// the request.
    Full(T),
    /// The consumer half was dropped; nothing will ever drain the ring.
    Disconnected(T),
}

impl<T> PushError<T> {
    /// The value that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(value) | PushError::Disconnected(value) => value,
        }
    }
}

/// The shared ring. `head`/`tail` are free-running counters (masked on
/// access), so `tail - head` is always the number of occupied slots.
struct Inner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `slots.len() - 1`; the slot count is a power of two.
    mask: usize,
    /// Next slot to pop; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to fill; written only by the producer.
    tail: AtomicUsize,
    producer_gone: AtomicBool,
    consumer_gone: AtomicBool,
}

// SAFETY: moving the ring to another thread moves only the `T`s in its
// slots, and those are `Send`.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: under the head/tail protocol the consumer reads only slots in
// `head..tail` and the producer writes only slots outside it, so no slot is
// touched by both sides at once; values only move between threads (`T: Send`).
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner at this point: both halves are gone, so plain reads of
        // the cursors are current and the occupied range is ours to drop.
        let tail = *self.tail.get_mut();
        let mut head = *self.head.get_mut();
        while head != tail {
            // SAFETY: every slot in `head..tail` was written by `try_push`
            // and not yet read by `try_pop`, so it holds an initialised `T`.
            unsafe { (*self.slots[head & self.mask].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// The sending half of an SPSC ring; see the module docs. Not clonable —
/// single-producer is the contract that makes the fast path cheap.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half of an SPSC ring; see the module docs.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
}

/// Creates a bounded SPSC queue holding at least `capacity` values
/// (rounded up to a power of two, minimum 1).
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let slots = capacity.max(1).next_power_of_two();
    let inner = Arc::new(Inner {
        slots: (0..slots)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        mask: slots - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        producer_gone: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
        },
        Consumer { inner },
    )
}

impl<T> Producer<T> {
    /// Enqueues `value` if the ring has a free slot and a live consumer,
    /// handing it back as a [`PushError`] otherwise. Never blocks.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        if inner.consumer_gone.load(Ordering::Acquire) {
            return Err(PushError::Disconnected(value));
        }
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > inner.mask {
            return Err(PushError::Full(value));
        }
        // SAFETY: `tail - head <= mask` leaves the slot at `tail` outside
        // `head..tail`, so the consumer does not touch it until the release
        // store below publishes it, and only this (sole) producer writes it.
        unsafe { (*inner.slots[tail & inner.mask].get()).write(value) };
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        len_of(&self.inner)
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots in the ring (the `Full` threshold).
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Whether the consumer half was dropped.
    pub fn is_disconnected(&self) -> bool {
        self.inner.consumer_gone.load(Ordering::Acquire)
    }

    /// Hangs up without dropping: the consumer sees the disconnect once it
    /// has drained what is queued.  Nothing may be pushed afterwards.
    pub(crate) fn close(&mut self) {
        self.inner.producer_gone.store(true, Ordering::Release);
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> Consumer<T> {
    /// Dequeues the oldest value, or `None` if the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        if head == inner.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `head != tail`, so the producer initialised this slot before
        // the release store of `tail` the acquire load saw, and will not reuse
        // it before the store of `head` below; the value is moved out once.
        let value = unsafe { (*inner.slots[head & inner.mask].get()).assume_init_read() };
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        len_of(&self.inner)
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer half was dropped. A disconnected *and* empty
    /// lane is dead: no value is in flight and none can arrive.
    pub fn is_disconnected(&self) -> bool {
        self.inner.producer_gone.load(Ordering::Acquire)
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.inner.consumer_gone.store(true, Ordering::Release);
    }
}

fn len_of<T>(inner: &Inner<T>) -> usize {
    let tail = inner.tail.load(Ordering::Acquire);
    let head = inner.head.load(Ordering::Acquire);
    tail.wrapping_sub(head)
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_len() {
        let (mut tx, mut rx) = channel::<u64>(4);
        assert_eq!(tx.capacity(), 4);
        assert!(tx.is_empty() && rx.is_empty());
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        assert_eq!(tx.len(), 4);
        for v in 0..4 {
            assert_eq!(rx.try_pop(), Some(v));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn full_ring_hands_the_value_back() {
        let (mut tx, mut rx) = channel::<u64>(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3), Err(PushError::Full(3)));
        assert_eq!(PushError::Full(3u64).into_inner(), 3);
        // Draining one slot makes room again (the ring wraps).
        assert_eq!(rx.try_pop(), Some(1));
        tx.try_push(3).unwrap();
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), Some(3));
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let (tx, _rx) = channel::<u8>(3);
        assert_eq!(tx.capacity(), 4);
        let (tx, _rx) = channel::<u8>(0);
        assert_eq!(tx.capacity(), 1);
    }

    #[test]
    fn disconnect_flags_both_ways() {
        let (mut tx, rx) = channel::<u64>(2);
        assert!(!tx.is_disconnected() && !rx.is_disconnected());
        drop(rx);
        assert!(tx.is_disconnected());
        assert_eq!(tx.try_push(7), Err(PushError::Disconnected(7)));

        let (tx, mut rx) = channel::<u64>(2);
        drop(tx);
        assert!(rx.is_disconnected());
        assert_eq!(rx.try_pop(), None, "disconnected and empty means dead");
    }

    #[test]
    fn queued_values_survive_a_producer_drop() {
        let (mut tx, mut rx) = channel::<u64>(2);
        tx.try_push(41).unwrap();
        tx.try_push(42).unwrap();
        drop(tx);
        assert!(rx.is_disconnected());
        assert_eq!(rx.try_pop(), Some(41));
        assert_eq!(rx.try_pop(), Some(42));
    }

    #[test]
    fn dropping_the_ring_drops_queued_values() {
        let witness = Arc::new(());
        let (mut tx, rx) = channel::<Arc<()>>(4);
        for _ in 0..3 {
            tx.try_push(Arc::clone(&witness)).unwrap();
        }
        assert_eq!(Arc::strong_count(&witness), 4);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&witness), 1, "ring released its slots");
    }

    #[test]
    fn two_thread_stress_keeps_order() {
        let (mut tx, mut rx) = channel::<u64>(8);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for v in 0..10_000u64 {
                    let mut value = v;
                    loop {
                        match tx.try_push(value) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                value = back;
                                // Yield, don't spin: on a single-core host a
                                // spinning producer starves the consumer for
                                // its whole timeslice.
                                std::thread::yield_now();
                            }
                            Err(PushError::Disconnected(_)) => panic!("consumer died"),
                        }
                    }
                }
            });
            scope.spawn(move || {
                let mut expected = 0u64;
                while expected < 10_000 {
                    if let Some(v) = rx.try_pop() {
                        assert_eq!(v, expected);
                        expected += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }

    #[test]
    fn debug_formats() {
        let (tx, rx) = channel::<u64>(2);
        assert!(format!("{tx:?}").contains("Producer"));
        assert!(format!("{rx:?}").contains("Consumer"));
    }
}
