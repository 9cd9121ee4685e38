//! The shared core of both reclamation policies: the collector's clock,
//! the slot table, the stash of garbage left behind by exited threads, and
//! the free rule every collection applies.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use absync::CachePadded;

use crate::smr::{RegisterError, SmrPolicy};
use crate::{HAZARD_SLOTS, MAX_THREADS, QUIESCENT};

/// A single piece of retired garbage: a raw pointer plus the function that
/// knows how to drop/free it.
#[derive(Debug)]
pub(crate) struct Garbage {
    /// Type-erased pointer to the retired allocation.
    pub(crate) ptr: *mut u8,
    /// Frees and drops the allocation behind `ptr`.
    pub(crate) destroy: unsafe fn(*mut u8),
}

// SAFETY: `ptr` refers to an allocation that has been unlinked from all
// shared structures; ownership (and the responsibility to free it) travels
// with the `Garbage` value, which is only ever run once.
unsafe impl Send for Garbage {}

impl Garbage {
    pub(crate) fn run(self) {
        // SAFETY: by construction `destroy` matches the allocation behind
        // `ptr`, and each Garbage value is run exactly once.
        unsafe { (self.destroy)(self.ptr) }
    }
}

/// A retired object tagged with its retire stamp: the epoch it was retired
/// in under EBR, its global retire sequence number under HP.
pub(crate) type Retired = (u64, Garbage);

/// [`Slot::oldest`] value meaning "no garbage held".
pub(crate) const NOTHING_HELD: u64 = u64::MAX;

/// One registration slot per participating thread.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Whether a live thread currently owns this slot.
    pub(crate) in_use: AtomicBool,
    /// The clock value the owning thread announced when it pinned (an
    /// epoch under EBR, a retire-sequence watermark under HP), or
    /// [`QUIESCENT`] while it is unpinned or pinned in fine mode.
    pub(crate) announce: AtomicU64,
    /// Stamp of the oldest garbage the owning thread still holds, or
    /// [`NOTHING_HELD`].  Written only by the owner (when its retire list's
    /// front changes), read by [`Inner::stats`] for the reclamation-lag
    /// gauge; a racy reading is at worst one collection cycle stale.
    pub(crate) oldest: AtomicU64,
}

/// The per-pointer hazards a fine-mode HP reader publishes in its slot.
pub(crate) type Hazards = [AtomicPtr<u8>; HAZARD_SLOTS];

impl Slot {
    fn new() -> Self {
        Self {
            in_use: AtomicBool::new(false),
            announce: AtomicU64::new(QUIESCENT),
            oldest: AtomicU64::new(NOTHING_HELD),
        }
    }
}

/// What a collection may free: every stamp below `below` that no hazard
/// in `hazards` (sorted addresses) names.
#[derive(Debug)]
pub(crate) struct Horizon {
    pub(crate) below: u64,
    pub(crate) hazards: Vec<usize>,
}

impl Horizon {
    /// The free rule, shared by the local walk and the stash.
    pub(crate) fn frees(&self, (stamp, garbage): &Retired) -> bool {
        *stamp < self.below && self.hazards.binary_search(&(garbage.ptr as usize)).is_err()
    }
}

/// Shared state of a collector, whichever policy it runs.
#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) policy: SmrPolicy,
    /// The global epoch under EBR, the global retire sequence under HP.
    pub(crate) clock: CachePadded<AtomicU64>,
    /// Per-thread registration slots.
    pub(crate) slots: Box<[CachePadded<Slot>]>,
    /// Each slot's hazards, indexed like `slots`.  Empty under EBR, which
    /// never publishes a hazard: inline hazards would double an EBR slot
    /// to two cache lines and the table to 64 KiB per collector.
    pub(crate) hazards: Box<[CachePadded<Hazards>]>,
    /// Garbage inherited from threads that unregistered before it was safe
    /// to free.  Drained during every collection cycle *and* by the
    /// periodic unpin check (`Local::maybe_drain_stash`), so it cannot
    /// grow unboundedly in a long-lived server whose surviving threads
    /// never retire; collector drop frees whatever remains.
    stash: Mutex<Vec<Retired>>,
    /// Number of items currently in `stash`, maintained alongside it so
    /// the per-unpin drain check never takes the lock when there is
    /// nothing to drain.
    pub(crate) stash_len: AtomicUsize,
    /// Total objects retired (statistics).
    pub(crate) retired: AtomicU64,
    /// Total objects freed (statistics).
    pub(crate) freed: AtomicU64,
    /// Successful slot registrations.
    registrations: AtomicU64,
    /// Cheap local re-pins served by already-held registrations.  Updated
    /// lazily: each thread counts locally and flushes the total when its
    /// registration drops, so this lags until handles/threads exit.
    pub(crate) local_pins: AtomicU64,
}

impl Inner {
    pub(crate) fn new(policy: SmrPolicy) -> Self {
        let hazard_slots = match policy {
            SmrPolicy::Ebr => 0,
            SmrPolicy::Hp => MAX_THREADS,
        };
        Self {
            policy,
            clock: CachePadded::new(AtomicU64::new(0)),
            slots: (0..MAX_THREADS)
                .map(|_| CachePadded::new(Slot::new()))
                .collect(),
            hazards: (0..hazard_slots)
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicPtr::default())))
                .collect(),
            stash: Mutex::new(Vec::new()),
            stash_len: AtomicUsize::new(0),
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            registrations: AtomicU64::new(0),
            local_pins: AtomicU64::new(0),
        }
    }

    /// Claims a free slot for the calling thread, or returns
    /// [`RegisterError`] when more than [`MAX_THREADS`] threads register
    /// simultaneously — a wire-reachable condition for servers that spawn
    /// workers on demand, so it must be surfaceable, not a panic.
    pub(crate) fn register(&self) -> Result<usize, RegisterError> {
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.in_use.load(Ordering::Relaxed)
                && slot
                    .in_use
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                slot.announce.store(QUIESCENT, Ordering::Release);
                self.registrations.fetch_add(1, Ordering::Relaxed);
                return Ok(i);
            }
        }
        Err(RegisterError {
            capacity: MAX_THREADS,
        })
    }

    /// Releases a slot and stashes the thread's unreclaimed garbage.
    pub(crate) fn unregister(&self, slot: usize, leftover: VecDeque<Retired>) {
        if !leftover.is_empty() {
            let mut stash = self
                .stash
                .lock()
                .expect("no panic while the stash is locked");
            self.stash_len.fetch_add(leftover.len(), Ordering::Relaxed);
            stash.extend(leftover);
        }
        let s = &self.slots[slot];
        s.announce.store(QUIESCENT, Ordering::Release);
        for h in self.hazards.get(slot).into_iter().flat_map(|hs| hs.iter()) {
            h.store(std::ptr::null_mut(), Ordering::Release);
        }
        // The thread's garbage now lives in the stash, which the lag gauge
        // scans directly; the slot no longer speaks for it.
        s.oldest.store(NOTHING_HELD, Ordering::Release);
        s.in_use.store(false, Ordering::Release);
    }

    /// The retire-stamp hook: EBR tags garbage with the current epoch and
    /// does no global read-modify-write; HP draws a fresh sequence number.
    pub(crate) fn stamp(&self) -> u64 {
        match self.policy {
            SmrPolicy::Ebr => self.clock.load(Ordering::SeqCst),
            SmrPolicy::Hp => self.hp_stamp(),
        }
    }

    /// The horizon hook: EBR tries to advance the epoch and frees what was
    /// retired two epochs back; HP scans watermarks and hazards.
    pub(crate) fn horizon(&self) -> Horizon {
        match self.policy {
            SmrPolicy::Ebr => Horizon {
                below: self.try_advance().saturating_sub(1),
                hazards: Vec::new(),
            },
            SmrPolicy::Hp => self.hp_horizon(),
        }
    }

    /// Attempts to advance the global epoch by one.  Returns the epoch value
    /// observed after the attempt (advanced or not).
    pub(crate) fn try_advance(&self) -> u64 {
        let global = self.clock.load(Ordering::SeqCst);
        fence(Ordering::SeqCst);
        for slot in self.slots.iter() {
            if slot.in_use.load(Ordering::Acquire) {
                let a = slot.announce.load(Ordering::SeqCst);
                if a != QUIESCENT && a != global {
                    // Some thread is still pinned in an older epoch.
                    return global;
                }
            }
        }
        match self
            .clock
            .compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => global + 1,
            Err(actual) => actual,
        }
    }

    /// Frees stashed garbage the free rule lets go.
    pub(crate) fn collect_stash(&self, horizon: &Horizon) {
        if self.stash_len.load(Ordering::Relaxed) == 0 {
            return;
        }
        let to_free: Vec<Retired> = {
            let mut stash = self
                .stash
                .lock()
                .expect("no panic while the stash is locked");
            let to_free = stash.extract_if(.., |item| horizon.frees(item)).collect();
            self.stash_len.store(stash.len(), Ordering::Relaxed);
            to_free
        };
        self.free(to_free);
    }

    /// Runs every item of `items` and counts them as freed.
    fn free(&self, items: Vec<Retired>) {
        if !items.is_empty() {
            self.freed.fetch_add(items.len() as u64, Ordering::Relaxed);
            items.into_iter().for_each(|(_, garbage)| garbage.run());
        }
    }

    /// Point-in-time statistics; `oldest_epoch_age` is recomputed from
    /// live state (every in-use slot's published oldest stamp plus the
    /// stash) at scrape time, so it cannot pin stale after garbage moves
    /// or drains behind a thread's back.
    pub(crate) fn stats(&self) -> CollectorStats {
        let epoch = self.clock.load(Ordering::SeqCst);
        let retired = self.retired.load(Ordering::Relaxed);
        let freed = self.freed.load(Ordering::Relaxed);
        let stashed = self
            .stash
            .lock()
            .expect("no panic while the stash is locked")
            .iter()
            .map(|&(stamp, _)| stamp)
            .min();
        let oldest = self
            .slots
            .iter()
            .filter(|s| s.in_use.load(Ordering::Acquire))
            .map(|s| s.oldest.load(Ordering::Acquire))
            .chain(stashed)
            .min()
            .unwrap_or(NOTHING_HELD);
        CollectorStats {
            epoch,
            retired,
            freed,
            registrations: self.registrations.load(Ordering::Relaxed),
            local_pins: self.local_pins.load(Ordering::Relaxed),
            // Saturating: `retired` and `freed` are read at different
            // instants under traffic, so `freed` can transiently lead.
            unreclaimed: retired.saturating_sub(freed),
            // `NOTHING_HELD` is `u64::MAX`, so no garbage reads as age 0.
            oldest_epoch_age: epoch.saturating_sub(oldest),
        }
    }

    pub(crate) fn any_thread_pinned(&self) -> bool {
        let hazard = |i: usize| {
            let mut hazards = self.hazards.get(i).into_iter().flat_map(|hs| hs.iter());
            hazards.any(|h| !h.load(Ordering::Acquire).is_null())
        };
        self.slots.iter().enumerate().any(|(i, s)| {
            s.in_use.load(Ordering::Acquire)
                && (s.announce.load(Ordering::Acquire) != QUIESCENT || hazard(i))
        })
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // At this point no thread holds a reference to the collector, so all
        // remaining stashed garbage is unreachable and safe to free.
        let stash = std::mem::take(self.stash.get_mut().unwrap_or_else(PoisonError::into_inner));
        self.free(stash);
    }
}

/// Point-in-time statistics of a [`crate::Collector`].
///
/// Both policies fill every field from the same core.  `epoch` reads the
/// collector's clock, which is the global epoch under EBR and the global
/// retire sequence number under HP, and `oldest_epoch_age` counts in the
/// same unit: epochs under EBR, retirements under HP.  Either way it is
/// the same "reclamation lag" reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorStats {
    /// The collector's clock: the global epoch (EBR) or retire sequence
    /// number (HP).
    pub epoch: u64,
    /// Total number of objects retired so far.
    pub retired: u64,
    /// Total number of objects freed so far.
    pub freed: u64,
    /// Successful slot registrations: one per [`crate::LocalHandle`]
    /// handed out by [`crate::Collector::register`] or
    /// [`crate::Collector::try_register`]; a refused `try_register` is not
    /// counted.  A session-per-thread workload accrues one per thread.
    pub registrations: u64,
    /// Cheap local re-pins made through owned [`crate::LocalHandle`]s.
    /// Each thread counts privately and flushes the tally when its
    /// registration drops, so this is exact only once the handles (or
    /// threads) that pinned have gone away.
    pub local_pins: u64,
    /// Objects retired but not yet freed (`retired - freed`): the live
    /// garbage backlog.  A stalled reader pins the epoch, every thread's
    /// garbage stops aging out, and this grows with the retire rate — the
    /// first-order reclamation-lag signal.
    pub unreclaimed: u64,
    /// How far behind `epoch` the oldest still-held garbage is (0 when no
    /// garbage is held).  Healthy EBR keeps this at ~2 (the reclamation
    /// horizon); a stalled reader freezes the epoch while garbage piles up
    /// *at* it, so a large or growing value means some thread is pinned
    /// far in the past and garbage cannot age out.
    pub oldest_epoch_age: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{retire_new, Collector};

    #[test]
    fn register_unregister_reuses_slots() {
        let inner = Inner::new(SmrPolicy::Ebr);
        let a = inner.register().unwrap();
        let b = inner.register().unwrap();
        assert_ne!(a, b);
        inner.unregister(a, VecDeque::new());
        let c = inner.register().unwrap();
        assert_eq!(a, c, "freed slot should be reused first");
        inner.unregister(b, VecDeque::new());
        inner.unregister(c, VecDeque::new());
    }

    #[test]
    fn register_returns_an_error_when_slots_run_out() {
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let held: Vec<_> = (0..crate::MAX_THREADS)
                .map(|_| collector.register())
                .collect();
            let err = collector.try_register().expect_err("slot table is full");
            assert_eq!(err.capacity, crate::MAX_THREADS, "{policy}");
            assert!(err.to_string().contains("threads registered"), "{policy}");
            drop(held);
            let _h = collector.try_register().expect("slots released on drop");
        }
    }

    #[test]
    fn advance_with_no_threads_always_succeeds() {
        let inner = Inner::new(SmrPolicy::Ebr);
        assert_eq!(inner.try_advance(), 1);
        assert_eq!(inner.try_advance(), 2);
        assert_eq!(inner.try_advance(), 3);
    }

    #[test]
    fn advance_blocked_by_old_announcement() {
        let inner = Inner::new(SmrPolicy::Ebr);
        let slot = inner.register().unwrap();
        inner.slots[slot].announce.store(0, Ordering::SeqCst);
        assert_eq!(inner.try_advance(), 1, "thread at epoch 0 allows 0->1");
        assert_eq!(
            inner.try_advance(),
            1,
            "thread still at epoch 0 blocks 1->2"
        );
        inner.slots[slot]
            .announce
            .store(QUIESCENT, Ordering::SeqCst);
        assert_eq!(inner.try_advance(), 2);
        inner.unregister(slot, VecDeque::new());
    }

    #[test]
    fn collector_clone_shares_state() {
        let c1 = Collector::new();
        let c2 = c1.clone();
        c1.register().flush();
        assert_eq!(c1.stats().epoch, c2.stats().epoch);
    }

    #[test]
    fn stalled_reader_shows_up_as_reclamation_lag() {
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let fresh = collector.stats();
            assert_eq!(fresh.unreclaimed, 0, "{policy}");
            assert_eq!(fresh.oldest_epoch_age, 0, "{policy}");

            // A reader pins (coarse under HP) and then stalls: it holds its
            // guard across the whole scenario, freezing the clock value it
            // announced.
            let stalled = collector.register();
            let stalled_guard = stalled.pin();

            // A worker thread's handle keeps retiring; its garbage lands in
            // its own retire list.
            let worker = collector.register();
            for _ in 0..5 {
                retire_new(&worker.pin(), 0u8);
            }
            // EBR: the stalled announcement at epoch 0 allows at most one
            // advance (0 -> 1), and garbage needs `stamp + 2 <= epoch` to
            // free.  HP: the stalled watermark 0 keeps every stamp.  So
            // nothing can be reclaimed no matter how often we try.
            for _ in 0..8 {
                worker.flush();
            }
            let lagging = collector.stats();
            assert_eq!(
                lagging.unreclaimed, 5,
                "{policy}: nothing freed under the stall"
            );
            // EBR: the epoch is frozen one past the stall and the oldest
            // garbage (epoch 0) is one epoch behind it.  HP: the clock
            // counts the five retirements and the oldest is stamped 0.
            let frozen = match policy {
                SmrPolicy::Ebr => 1,
                SmrPolicy::Hp => 5,
            };
            assert_eq!(lagging.epoch, frozen, "{policy}");
            assert_eq!(lagging.oldest_epoch_age, frozen, "{policy}");

            // The reader recovers: the horizon moves and the backlog drains.
            drop(stalled_guard);
            for _ in 0..8 {
                worker.flush();
            }
            let drained = collector.stats();
            assert_eq!(drained.unreclaimed, 0, "{policy}");
            assert_eq!(
                drained.oldest_epoch_age, 0,
                "{policy}: nothing held, age resets"
            );
            assert_eq!(drained.freed, 5, "{policy}");
        }
    }

    #[test]
    fn lag_gauge_resets_without_unregistering() {
        // Regression test for the stale `oldest` gauge: `try_collect` must
        // republish the slot's oldest stamp unconditionally, so once a
        // still-registered thread's garbage drains the scrape-time gauge
        // drops back to 0 instead of pinning at the stale stamp.
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let worker = collector.register();
            retire_new(&worker.pin(), 0u8);
            assert!(collector.stats().oldest_epoch_age <= 1, "{policy}");
            for _ in 0..8 {
                worker.flush();
            }
            let drained = collector.stats();
            assert_eq!(drained.freed, 1, "{policy}");
            assert_eq!(
                drained.oldest_epoch_age, 0,
                "{policy}: gauge recomputed from live state while the thread stays registered"
            );
            // The handle is still registered and usable afterwards.
            assert!(!worker.is_pinned(), "{policy}");
        }
    }

    #[test]
    fn lag_gauge_follows_garbage_into_the_stash() {
        // A thread that exits with unreclaimable garbage hands it to the
        // stash; the gauge must keep seeing it there.
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let stalled = collector.register();
            let stalled_guard = stalled.pin();

            {
                let worker = collector.register();
                retire_new(&worker.pin(), 0u8);
            } // worker handle drops: its garbage is stashed, its slot cleared

            let stats = collector.stats();
            assert_eq!(stats.unreclaimed, 1, "{policy}");
            assert!(
                stats.oldest_epoch_age >= 1,
                "{policy}: stashed garbage still counts toward lag, got {}",
                stats.oldest_epoch_age
            );

            drop(stalled_guard);
            for _ in 0..8 {
                stalled.flush();
            }
            assert_eq!(collector.stats().unreclaimed, 0, "{policy}");
            assert_eq!(collector.stats().oldest_epoch_age, 0, "{policy}");
        }
    }
}
