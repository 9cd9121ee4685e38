//! Per-thread state: pin depth, the retire list, and the pin/retire/collect
//! protocol both policies share.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::collector::{Garbage, Hazards, Inner, Retired, Slot, NOTHING_HELD};
use crate::guard::Guard;
use crate::smr::RegisterError;
use crate::{COLLECT_THRESHOLD, QUIESCENT, STASH_DRAIN_INTERVAL};

/// Per-thread registration state behind a [`LocalHandle`].
///
/// Held behind `Rc` so that [`Guard`]s can keep it alive past a
/// [`LocalHandle`] drop, and unregistered (stashing leftover garbage) when
/// the last reference goes away.
#[derive(Debug)]
pub(crate) struct Local {
    pub(crate) inner: Arc<Inner>,
    slot: usize,
    pub(crate) pin_depth: Cell<usize>,
    /// Whether the current pin region announced a clock value in its slot.
    /// Always so for a region under EBR; under HP a region pinned with
    /// [`LocalHandle::pin_fine`] stays fine until it escalates.
    pub(crate) coarse: Cell<bool>,
    /// High-water mark of hazard indices written during this pin region,
    /// so unpin clears exactly the slots that were used.
    pub(crate) used_hazards: Cell<usize>,
    /// Retired garbage in stamp order (front = oldest).
    retired: RefCell<VecDeque<Retired>>,
    retired_since_collect: Cell<usize>,
    /// Unpins observed while the shared stash was non-empty; every
    /// [`STASH_DRAIN_INTERVAL`]th one runs a collection cycle so stashed
    /// garbage drains even when the surviving threads never retire.
    unpins_since_stash_check: Cell<usize>,
    /// Pins served through this registration.  Flushed into the
    /// collector's shared counter when the registration drops, so per-op
    /// pins never write a shared cache line.
    local_pins: Cell<u64>,
}

impl Local {
    /// Registers the calling thread with `inner` and returns its state,
    /// or [`RegisterError`] when every slot is taken.
    pub(crate) fn register(inner: Arc<Inner>) -> Result<Self, RegisterError> {
        let slot = inner.register()?;
        Ok(Self {
            inner,
            slot,
            pin_depth: Cell::new(0),
            coarse: Cell::new(false),
            used_hazards: Cell::new(0),
            retired: RefCell::new(VecDeque::new()),
            retired_since_collect: Cell::new(0),
            unpins_since_stash_check: Cell::new(0),
            local_pins: Cell::new(0),
        })
    }

    pub(crate) fn slot(&self) -> &Slot {
        &self.inner.slots[self.slot]
    }

    /// The hazards of this thread's slot (hazard pointers only).
    pub(crate) fn hazards(&self) -> &Hazards {
        &self.inner.hazards[self.slot]
    }

    /// Publishes the clock in the slot for the current pin region: the
    /// epoch announcement under EBR, the coarse watermark under HP.
    pub(crate) fn announce(&self) {
        let now = self.inner.clock.load(Ordering::SeqCst);
        self.slot().announce.store(now, Ordering::SeqCst);
        // Make the announcement visible before any subsequent shared
        // reads performed inside the critical region.
        fence(Ordering::SeqCst);
        self.coarse.set(true);
    }

    /// Enters a coarse pinned region (reentrant).  Nested over a fine HP
    /// region it escalates: coarse protection is strictly stronger, and
    /// the region stays coarse until the outermost unpin.  (`coarse` is
    /// always false outside a region, so an outermost pin announces.)
    pub(crate) fn pin(&self) {
        if !self.coarse.get() {
            self.announce();
        }
        self.pin_depth.set(self.pin_depth.get() + 1);
    }

    /// Leaves a pinned region; the outermost exit clears the announcement
    /// and every hazard slot used, then gives inherited stash garbage a
    /// periodic chance to drain.
    pub(crate) fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "unpin without matching pin");
        if depth == 1 {
            if self.coarse.get() {
                self.slot().announce.store(QUIESCENT, Ordering::Release);
                self.coarse.set(false);
            }
            let used = self.used_hazards.get();
            if used > 0 {
                for h in &self.hazards()[..used] {
                    h.store(std::ptr::null_mut(), Ordering::Release);
                }
                self.used_hazards.set(0);
            }
            self.maybe_drain_stash();
        }
        self.pin_depth.set(depth - 1);
    }

    /// Periodic stash-drain duty, run on every outermost unpin: when
    /// threads exited with unreclaimable garbage, a *read-only* survivor
    /// never calls [`Local::try_collect`] (no retires, so no threshold),
    /// which would freeze the stash forever.  Every
    /// [`STASH_DRAIN_INTERVAL`]th unpin while the stash is non-empty
    /// computes a fresh horizon and drains the stash against it.
    fn maybe_drain_stash(&self) {
        if self.inner.stash_len.load(Ordering::Relaxed) == 0 {
            self.unpins_since_stash_check.set(0);
            return;
        }
        let n = self.unpins_since_stash_check.get() + 1;
        if n >= STASH_DRAIN_INTERVAL {
            self.unpins_since_stash_check.set(0);
            self.inner.collect_stash(&self.inner.horizon());
        } else {
            self.unpins_since_stash_check.set(n);
        }
    }

    /// Appends `garbage` to the retire list under a fresh stamp and
    /// occasionally triggers a collection cycle.
    pub(crate) fn retire(&self, garbage: Garbage) {
        let stamp = self.inner.stamp();
        {
            let mut retired = self.retired.borrow_mut();
            if retired.is_empty() {
                // The new item is the front: publish its stamp for the
                // collector's reclamation-lag gauge.
                self.slot().oldest.store(stamp, Ordering::Release);
            }
            retired.push_back((stamp, garbage));
        }
        self.inner.retired.fetch_add(1, Ordering::Relaxed);
        let n = self.retired_since_collect.get() + 1;
        self.retired_since_collect.set(n);
        if n >= COLLECT_THRESHOLD {
            self.retired_since_collect.set(0);
            self.try_collect();
        }
    }

    /// Computes the horizon, then frees every local (and stashed) item the
    /// free rule lets go.  The local walk stops at the first stamp at or
    /// above the horizon: the list is in stamp order, so nothing behind it
    /// can qualify, and a stalled EBR reader's backlog costs one look per
    /// collection.  Items below the horizon that a hazard names stay, in
    /// order, at the front.
    pub(crate) fn try_collect(&self) {
        let horizon = self.inner.horizon();
        let mut freed = 0u64;
        {
            let mut retired = self.retired.borrow_mut();
            let mut named = Vec::new();
            while retired
                .front()
                .is_some_and(|&(stamp, _)| stamp < horizon.below)
            {
                let item = retired.pop_front().expect("front checked above");
                if horizon.frees(&item) {
                    item.1.run();
                    freed += 1;
                } else {
                    named.push(item);
                }
            }
            for item in named.into_iter().rev() {
                retired.push_front(item);
            }
            // Republished unconditionally (not only when something was
            // freed): a conditional store can leave the slot's gauge
            // pinned at a stale stamp after garbage drains elsewhere, and
            // the scrape-time reader (`Collector::stats`) trusts this value.
            self.slot().oldest.store(
                retired.front().map_or(NOTHING_HELD, |&(stamp, _)| stamp),
                Ordering::Release,
            );
        }
        if freed > 0 {
            self.inner.freed.fetch_add(freed, Ordering::Relaxed);
        }
        self.inner.collect_stash(&horizon);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.pin_depth.get(),
            0,
            "thread exited while pinned (a Guard outlived its thread?)"
        );
        self.inner
            .local_pins
            .fetch_add(self.local_pins.get(), Ordering::Relaxed);
        // One last collection on the way out so only garbage that is
        // still protected reaches the stash.
        self.try_collect();
        self.inner.unregister(self.slot, self.retired.take());
    }
}

/// An **owned** per-thread registration with a [`crate::Collector`]: the
/// one way a thread pins, retires and flushes.
///
/// Obtained once per thread (or session) via [`crate::Collector::register`].
/// [`LocalHandle::pin`] is a plain announcement of the collector's clock
/// (one uncontended store plus a fence), which is what makes per-operation
/// pinning cheap enough for the per-thread map sessions built on top of
/// this crate.
///
/// A `LocalHandle` is `!Send`: like a [`Guard`], it belongs to the thread
/// that registered it.  Dropping the handle while one of its guards is still
/// alive is safe — the registration stays alive (and the thread stays
/// pinned) until the last guard drops, after which the slot is released and
/// leftover garbage is stashed with the collector.
#[derive(Debug)]
pub struct LocalHandle {
    local: Rc<Local>,
}

impl LocalHandle {
    pub(crate) fn new(local: Local) -> Self {
        Self {
            local: Rc::new(local),
        }
    }

    /// Counts one pin and hands out a guard over the pinned registration.
    fn guard(&self) -> Guard {
        let local = &self.local;
        local.local_pins.set(local.local_pins.get() + 1);
        Guard {
            local: Rc::clone(local),
        }
    }

    /// Pins the owning thread.  Reentrant; see [`Guard`] for the guarantees
    /// the pin provides.  Under hazard pointers this is a *coarse* pin:
    /// like EBR it protects everything retired after it (and therefore
    /// stalls reclamation while held) — use it for traversals with
    /// unbounded footprints, e.g. range scans.
    pub fn pin(&self) -> Guard {
        self.local.pin();
        self.guard()
    }

    /// Pins in *fine* mode: under hazard pointers the returned guard
    /// protects only the pointers published through [`Guard::protect`]
    /// (validated by the caller), so a reader stalled inside the region
    /// blocks O([`crate::HAZARD_SLOTS`]) objects instead of all
    /// reclamation.  Under EBR this is identical to
    /// [`pin`](LocalHandle::pin).  Callers must check
    /// [`Guard::needs_protect`] and run the protect/validate protocol when
    /// it returns `true`.
    pub fn pin_fine(&self) -> Guard {
        self.local.pin_fine();
        self.guard()
    }

    /// Is this thread currently pinned through this registration?
    pub fn is_pinned(&self) -> bool {
        self.local.pin_depth.get() > 0
    }

    /// Number of garbage objects buffered by this registration (testing).
    pub fn pending(&self) -> usize {
        self.local.retired.borrow().len()
    }

    /// Attempts to reclaim garbage that has become safe (this
    /// registration's retirements plus the shared stash).
    pub fn flush(&self) {
        self.local.try_collect();
    }
}

#[cfg(test)]
mod tests {
    use crate::{retire_new, Collector, SmrPolicy};

    #[test]
    fn pending_counts_buffered_garbage() {
        let collector = Collector::new();
        let handle = collector.register();
        let guard = handle.pin();
        for _ in 0..5 {
            retire_new(&guard, 1u8);
        }
        assert_eq!(handle.pending(), 5);
        drop(guard);
        for _ in 0..8 {
            handle.flush();
        }
        let s = collector.stats();
        assert_eq!(s.freed, 5);
    }

    #[test]
    fn bag_epoch_grouping() {
        let collector = Collector::new();
        let handle = collector.register();
        retire_new(&handle.pin(), 1u8);
        handle.flush(); // advances epoch
        retire_new(&handle.pin(), 2u8);
        for _ in 0..8 {
            handle.flush();
        }
        assert_eq!(collector.stats().freed, 2);
    }

    #[test]
    fn owned_handle_pins_and_retires() {
        let collector = Collector::new();
        let handle = collector.register();
        assert!(!handle.is_pinned());
        {
            let guard = handle.pin();
            assert!(handle.is_pinned());
            retire_new(&guard, 3u8);
            assert_eq!(handle.pending(), 1);
        }
        assert!(!handle.is_pinned());
        for _ in 0..8 {
            handle.flush();
        }
        assert_eq!(collector.stats().freed, 1);
    }

    #[test]
    fn dropping_handle_while_pinned_keeps_registration_alive() {
        let collector = Collector::new();
        let handle = collector.register();
        let guard = handle.pin();
        // The guard keeps the registration (and the pin) alive past the
        // handle's drop.
        drop(handle);
        assert!(collector.debug_any_thread_pinned());
        retire_new(&guard, 4u8);
        drop(guard);
        assert!(!collector.debug_any_thread_pinned());
        // The registration is gone and its garbage stashed; another handle's
        // collection drains the stash.
        let flusher = collector.register();
        for _ in 0..8 {
            flusher.flush();
        }
        assert_eq!(collector.stats().freed, 1);
    }

    #[test]
    fn stash_drains_on_unpins_alone_after_a_thread_exits_dirty() {
        // Regression test for the stash-drain bug: a thread exits holding
        // unreclaimable garbage (it goes to the stash), and the only
        // surviving activity is *read-only* pin/unpin traffic — no retires,
        // so the collection threshold never fires.  The periodic unpin
        // check must still move the horizon and drain the stash; before
        // the fix, `stats().freed` stayed at 0 until the collector itself
        // was dropped.
        for policy in SmrPolicy::ALL {
            let collector = Collector::with_policy(policy);
            let reader = collector.register();

            // A pinned reader spans the dirty thread's exit so the stashed
            // garbage is not freeable at unregister time.
            let span = reader.pin();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let h = collector.register();
                    let g = h.pin();
                    for _ in 0..5 {
                        retire_new(&g, 9u8);
                    }
                })
                .join()
                .unwrap();
            });
            drop(span);
            assert_eq!(
                collector.stats().freed,
                0,
                "{policy}: stash not yet reclaimable"
            );

            // Read-only traffic only: enough unpins for several drain
            // intervals (under EBR the epoch needs two advances before the
            // garbage ages out).
            for _ in 0..(crate::STASH_DRAIN_INTERVAL * 4) {
                drop(reader.pin());
            }
            let s = collector.stats();
            assert_eq!(
                s.freed, 5,
                "{policy}: stash drained without dropping the collector"
            );
            assert_eq!(s.unreclaimed, 0, "{policy}");
            assert_eq!(s.oldest_epoch_age, 0, "{policy}");
        }
    }

    #[test]
    fn two_handles_on_one_thread_are_independent() {
        let collector = Collector::new();
        let h1 = collector.register();
        let h2 = collector.register();
        let g1 = h1.pin();
        assert!(h1.is_pinned());
        assert!(!h2.is_pinned(), "handles own distinct registrations");
        let g2 = h2.pin();
        assert!(h2.is_pinned());
        drop(g1);
        assert!(!h1.is_pinned());
        assert!(h2.is_pinned());
        drop(g2);
        assert!(!collector.debug_any_thread_pinned());
    }
}
