//! The global side of the reclamation scheme: epoch counter, thread slots,
//! and the stash of garbage left behind by exited threads.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use absync::CachePadded;

use crate::local::Bag;
use crate::smr::RegisterError;
use crate::{MAX_THREADS, QUIESCENT};

/// One registration slot per participating thread.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Whether a live thread currently owns this slot.
    pub(crate) in_use: AtomicBool,
    /// The epoch announced by the owning thread while pinned, or
    /// [`QUIESCENT`] while unpinned.
    pub(crate) announce: AtomicU64,
    /// Retirement epoch of the oldest bag the owning thread is still
    /// holding, or `u64::MAX` when it holds none.  Written only by the
    /// owning thread (when its bag deque's front changes), read by
    /// [`Inner::stats`] to compute the reclamation-lag gauge; a racy
    /// reading is at worst one collection cycle stale.
    pub(crate) oldest_bag: AtomicU64,
}

/// [`Slot::oldest_bag`] value meaning "no bags held".
pub(crate) const NO_BAGS: u64 = u64::MAX;

impl Slot {
    fn new() -> Self {
        Self {
            in_use: AtomicBool::new(false),
            announce: AtomicU64::new(QUIESCENT),
            oldest_bag: AtomicU64::new(NO_BAGS),
        }
    }
}

/// Shared state of a collector.
#[derive(Debug)]
pub(crate) struct Inner {
    /// The global epoch.
    pub(crate) epoch: CachePadded<AtomicU64>,
    /// Per-thread announcement slots.
    pub(crate) slots: Box<[CachePadded<Slot>]>,
    /// Garbage inherited from threads that unregistered before it was safe
    /// to free.  Drained during every collection cycle *and* by the
    /// periodic unpin check (`Local::maybe_drain_stash`), so it cannot
    /// grow unboundedly in a long-lived server whose surviving threads
    /// never retire; collector drop frees whatever remains.
    pub(crate) stash: Mutex<Vec<Bag>>,
    /// Number of bags currently in `stash`, maintained alongside it so
    /// the per-unpin drain check never takes the lock when there is
    /// nothing to drain.
    pub(crate) stash_len: AtomicUsize,
    /// Total objects retired (statistics).
    pub(crate) retired: AtomicU64,
    /// Total objects freed (statistics).
    pub(crate) freed: AtomicU64,
    /// Successful slot registrations.
    pub(crate) registrations: AtomicU64,
    /// Cheap local re-pins served by already-held registrations.  Updated
    /// lazily: each thread counts locally and flushes the total when its
    /// registration drops, so this lags until handles/threads exit.
    pub(crate) local_pins: AtomicU64,
}

impl Inner {
    pub(crate) fn new() -> Self {
        let slots = (0..MAX_THREADS)
            .map(|_| CachePadded::new(Slot::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            slots,
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
    pub(crate) fn unregister(&self, slot: usize, leftover: Vec<Bag>) {
        if !leftover.is_empty() {
            let mut stash = self.stash.lock().unwrap();
            self.stash_len
                .fetch_add(leftover.len(), Ordering::Relaxed);
            stash.extend(leftover);
        }
        let s = &self.slots[slot];
        s.announce.store(QUIESCENT, Ordering::Release);
        // The thread's bags now live in the stash, which the lag gauge
        // scans directly; the slot no longer speaks for them.
        s.oldest_bag.store(NO_BAGS, Ordering::Release);
        s.in_use.store(false, Ordering::Release);
    }

    /// Attempts to advance the global epoch by one.  Returns the epoch value
    /// observed after the attempt (advanced or not).
    pub(crate) fn try_advance(&self) -> u64 {
        let global = self.epoch.load(Ordering::SeqCst);
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
        match self.epoch.compare_exchange(
            global,
            global + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => global + 1,
            Err(actual) => actual,
        }
    }

    /// Frees stashed bags that have become safe at `global_epoch`.
    pub(crate) fn collect_stash(&self, global_epoch: u64) {
        if self.stash_len.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut to_free = Vec::new();
        {
            let mut stash = self.stash.lock().unwrap();
            let mut i = 0;
            while i < stash.len() {
                if stash[i].epoch + 2 <= global_epoch {
                    to_free.push(stash.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            self.stash_len.store(stash.len(), Ordering::Relaxed);
        }
        let mut freed = 0u64;
        for bag in to_free {
            freed += bag.len() as u64;
            bag.free_all();
        }
        if freed > 0 {
            self.freed.fetch_add(freed, Ordering::Relaxed);
        }
    }

    /// Statistics of the EBR backend; `oldest_epoch_age` is recomputed
    /// from live state (every in-use slot's published oldest bag plus the
    /// stash) at scrape time, so it cannot pin stale after bags move or
    /// drain behind a thread's back.
    pub(crate) fn stats(&self) -> CollectorStats {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let retired = self.retired.load(Ordering::Relaxed);
        let freed = self.freed.load(Ordering::Relaxed);
        // Oldest still-held bag across live threads' slots and the stash
        // of bags inherited from exited threads.
        let mut oldest = u64::MAX;
        for slot in self.slots.iter() {
            if slot.in_use.load(Ordering::Acquire) {
                oldest = oldest.min(slot.oldest_bag.load(Ordering::Acquire));
            }
        }
        for bag in self.stash.lock().unwrap().iter() {
            oldest = oldest.min(bag.epoch);
        }
        CollectorStats {
            epoch,
            retired,
            freed,
            registrations: self.registrations.load(Ordering::Relaxed),
            local_pins: self.local_pins.load(Ordering::Relaxed),
            // Saturating: `retired` and `freed` are read at different
            // instants under traffic, so `freed` can transiently lead.
            unreclaimed: retired.saturating_sub(freed),
            oldest_epoch_age: if oldest == u64::MAX {
                0
            } else {
                epoch.saturating_sub(oldest)
            },
        }
    }

    pub(crate) fn any_thread_pinned(&self) -> bool {
        self.slots.iter().any(|s| {
            s.in_use.load(Ordering::Acquire) && s.announce.load(Ordering::Acquire) != QUIESCENT
        })
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // At this point no thread holds a reference to the collector, so all
        // remaining stashed garbage is unreachable and safe to free.
        let stash = std::mem::take(self.stash.get_mut().unwrap());
        let mut freed = 0u64;
        for bag in stash {
            freed += bag.len() as u64;
            bag.free_all();
        }
        self.freed.fetch_add(freed, Ordering::Relaxed);
    }
}

/// Point-in-time statistics of a [`crate::Collector`].
///
/// The shape is shared by both backends.  Field docs describe the
/// EBR meanings; the hazard-pointer backend maps `epoch` to its global
/// retire sequence number and `oldest_epoch_age` to how many retirements
/// behind it the oldest still-held item is — the same "reclamation lag"
/// reading either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorStats {
    /// Current global epoch.
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
    /// bags stop aging out, and this grows with the retire rate — the
    /// first-order reclamation-lag signal.
    pub unreclaimed: u64,
    /// How many epochs behind the global epoch the oldest still-held bag
    /// is (0 when no garbage is held).  Healthy reclamation keeps this at
    /// ~2 (the reclamation horizon); a stalled reader freezes the epoch
    /// while bags accumulate *at* it, so a large or growing value means
    /// some thread is pinned far in the past and garbage cannot age out.
    pub oldest_epoch_age: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn register_unregister_reuses_slots() {
        let inner = Inner::new();
        let a = inner.register().unwrap();
        let b = inner.register().unwrap();
        assert_ne!(a, b);
        inner.unregister(a, Vec::new());
        let c = inner.register().unwrap();
        assert_eq!(a, c, "freed slot should be reused first");
        inner.unregister(b, Vec::new());
        inner.unregister(c, Vec::new());
    }

    #[test]
    fn register_returns_an_error_when_slots_run_out() {
        let collector = Collector::new();
        let held: Vec<_> = (0..crate::MAX_THREADS)
            .map(|_| collector.register())
            .collect();
        let err = collector.try_register().expect_err("slot table is full");
        assert_eq!(err.capacity, crate::MAX_THREADS);
        assert!(err.to_string().contains("threads registered"));
        drop(held);
        let _h = collector.try_register().expect("slots released on drop");
    }

    #[test]
    fn advance_with_no_threads_always_succeeds() {
        let inner = Inner::new();
        assert_eq!(inner.try_advance(), 1);
        assert_eq!(inner.try_advance(), 2);
        assert_eq!(inner.try_advance(), 3);
    }

    #[test]
    fn advance_blocked_by_old_announcement() {
        let inner = Inner::new();
        let slot = inner.register().unwrap();
        inner.slots[slot].announce.store(0, Ordering::SeqCst);
        assert_eq!(inner.try_advance(), 1, "thread at epoch 0 allows 0->1");
        assert_eq!(inner.try_advance(), 1, "thread still at epoch 0 blocks 1->2");
        inner.slots[slot].announce.store(QUIESCENT, Ordering::SeqCst);
        assert_eq!(inner.try_advance(), 2);
        inner.unregister(slot, Vec::new());
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
        let collector = Collector::new();
        let fresh = collector.stats();
        assert_eq!(fresh.unreclaimed, 0);
        assert_eq!(fresh.oldest_epoch_age, 0);

        // A reader pins and then stalls (holds its guard across the whole
        // scenario), freezing the epoch it announced.
        let stalled = collector.register();
        let stalled_guard = stalled.pin();

        // A worker thread's handle keeps retiring; its garbage lands in
        // its own bags at the current epoch.
        let worker = collector.register();
        for _ in 0..5 {
            let guard = worker.pin();
            let p = Box::into_raw(Box::new(0u8));
            unsafe { guard.defer_drop(p) };
        }
        // The stalled announcement at epoch 0 allows at most one advance
        // (0 -> 1); bags need `epoch + 2 <= global` to free, so nothing
        // can be reclaimed no matter how often we try.
        for _ in 0..8 {
            worker.flush();
        }
        let lagging = collector.stats();
        assert_eq!(lagging.unreclaimed, 5, "nothing freed under the stall");
        assert_eq!(lagging.epoch, 1, "epoch frozen one past the stall");
        assert_eq!(
            lagging.oldest_epoch_age, 1,
            "oldest bag (epoch 0) is one epoch behind the frozen global"
        );

        // The reader recovers: the epoch advances and the backlog drains.
        drop(stalled_guard);
        for _ in 0..8 {
            worker.flush();
        }
        let drained = collector.stats();
        assert_eq!(drained.unreclaimed, 0);
        assert_eq!(drained.oldest_epoch_age, 0, "no bags held, age resets");
        assert_eq!(drained.freed, 5);
    }

    #[test]
    fn lag_gauge_resets_without_unregistering() {
        // Regression test for the stale `oldest_bag` gauge: `try_collect`
        // must republish the slot's oldest-bag epoch unconditionally, so
        // once a still-registered thread's bags drain the scrape-time
        // gauge drops back to 0 instead of pinning at the stale epoch.
        let collector = Collector::new();
        let worker = collector.register();
        {
            let guard = worker.pin();
            let p = Box::into_raw(Box::new(0u8));
            unsafe { guard.defer_drop(p) };
        }
        assert!(collector.stats().oldest_epoch_age <= 1);
        for _ in 0..8 {
            worker.flush();
        }
        let drained = collector.stats();
        assert_eq!(drained.freed, 1);
        assert_eq!(
            drained.oldest_epoch_age, 0,
            "gauge recomputed from live state while the thread stays registered"
        );
        // The handle is still registered and usable afterwards.
        assert!(!worker.is_pinned());
    }

    #[test]
    fn lag_gauge_follows_garbage_into_the_stash() {
        // A thread that exits with unreclaimable garbage hands its bags to
        // the stash; the gauge must keep seeing them there.
        let collector = Collector::new();
        let stalled = collector.register();
        let stalled_guard = stalled.pin();

        {
            let worker = collector.register();
            let guard = worker.pin();
            let p = Box::into_raw(Box::new(0u8));
            unsafe { guard.defer_drop(p) };
            drop(guard);
        } // worker handle drops: its bag is stashed, its slot cleared

        let stats = collector.stats();
        assert_eq!(stats.unreclaimed, 1);
        assert!(
            stats.oldest_epoch_age >= 1,
            "stashed bag still counts toward lag, got {}",
            stats.oldest_epoch_age
        );

        drop(stalled_guard);
        for _ in 0..8 {
            stalled.flush();
        }
        assert_eq!(collector.stats().unreclaimed, 0);
        assert_eq!(collector.stats().oldest_epoch_age, 0);
    }
}
