//! Per-thread state: pin depth, retirement bags, and the epoch announcement
//! protocol.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::collector::Inner;
use crate::guard::Guard;
use crate::hp::HpLocal;
use crate::smr::RegisterError;
use crate::{COLLECT_THRESHOLD, QUIESCENT, STASH_DRAIN_INTERVAL};

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

/// A bag of garbage retired during one epoch.
#[derive(Debug)]
pub(crate) struct Bag {
    /// Global epoch observed when the items were retired.
    pub(crate) epoch: u64,
    items: Vec<Garbage>,
}

impl Bag {
    fn new(epoch: u64) -> Self {
        Self {
            epoch,
            items: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn free_all(self) {
        for g in self.items {
            g.run();
        }
    }
}

/// Per-thread registration state behind an EBR [`LocalHandle`].
///
/// Held behind `Rc` so that [`Guard`]s can keep it alive past a
/// [`LocalHandle`] drop, and unregistered (stashing leftover garbage) when
/// the last reference goes away.
#[derive(Debug)]
pub(crate) struct Local {
    inner: Arc<Inner>,
    slot: usize,
    pin_depth: Cell<usize>,
    /// Bags of retired garbage ordered by retirement epoch (front = oldest).
    bags: RefCell<VecDeque<Bag>>,
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
            bags: RefCell::new(VecDeque::new()),
            retired_since_collect: Cell::new(0),
            unpins_since_stash_check: Cell::new(0),
            local_pins: Cell::new(0),
        })
    }

    /// Counts one cheap re-pin through an already-held registration.
    pub(crate) fn count_local_pin(&self) {
        self.local_pins.set(self.local_pins.get() + 1);
    }

    /// Enters a pinned region (reentrant).
    pub(crate) fn pin(self: &Rc<Self>) {
        let depth = self.pin_depth.get();
        if depth == 0 {
            let epoch = self.inner.epoch.load(Ordering::SeqCst);
            self.inner.slots[self.slot]
                .announce
                .store(epoch, Ordering::SeqCst);
            // Make the announcement visible before any subsequent shared
            // reads performed inside the critical region.
            fence(Ordering::SeqCst);
        }
        self.pin_depth.set(depth + 1);
    }

    /// Leaves a pinned region.
    pub(crate) fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "unpin without matching pin");
        if depth == 1 {
            self.inner.slots[self.slot]
                .announce
                .store(QUIESCENT, Ordering::Release);
            self.maybe_drain_stash();
        }
        self.pin_depth.set(depth - 1);
    }

    /// Periodic stash-drain duty, run on every outermost unpin: when
    /// threads exited with unreclaimable garbage, a *read-only* survivor
    /// never calls [`Local::try_collect`] (no retires, so no threshold),
    /// which used to freeze both the epoch and the stash forever.  Every
    /// [`STASH_DRAIN_INTERVAL`]th unpin while the stash is non-empty now
    /// attempts an epoch advance and drains the eligible stash bags.
    fn maybe_drain_stash(&self) {
        if self.inner.stash_len.load(Ordering::Relaxed) == 0 {
            self.unpins_since_stash_check.set(0);
            return;
        }
        let n = self.unpins_since_stash_check.get() + 1;
        if n >= STASH_DRAIN_INTERVAL {
            self.unpins_since_stash_check.set(0);
            let global = self.inner.try_advance();
            self.inner.collect_stash(global);
        } else {
            self.unpins_since_stash_check.set(n);
        }
    }

    /// Is the owning thread currently pinned through this registration?
    pub(crate) fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }

    /// Adds `garbage` to the current epoch's bag and occasionally triggers a
    /// collection cycle.
    pub(crate) fn retire(&self, garbage: Garbage) {
        let epoch = self.inner.epoch.load(Ordering::SeqCst);
        {
            let mut bags = self.bags.borrow_mut();
            let was_empty = bags.is_empty();
            match bags.back_mut() {
                Some(bag) if bag.epoch == epoch => bag.items.push(garbage),
                _ => {
                    let mut bag = Bag::new(epoch);
                    bag.items.push(garbage);
                    bags.push_back(bag);
                }
            }
            if was_empty {
                // The new bag is the front: publish its epoch for the
                // collector's reclamation-lag gauge.
                self.inner.slots[self.slot]
                    .oldest_bag
                    .store(epoch, Ordering::Release);
            }
        }
        self.inner.retired.fetch_add(1, Ordering::Relaxed);
        let n = self.retired_since_collect.get() + 1;
        self.retired_since_collect.set(n);
        if n >= COLLECT_THRESHOLD {
            self.retired_since_collect.set(0);
            self.try_collect();
        }
    }

    /// Attempts to advance the epoch, then frees every local bag (and shared
    /// stash bag) that has become safe.
    pub(crate) fn try_collect(&self) {
        let global = self.inner.try_advance();
        let mut freed = 0u64;
        {
            let mut bags = self.bags.borrow_mut();
            while let Some(front) = bags.front() {
                if front.epoch + 2 <= global {
                    let bag = bags.pop_front().expect("front checked above");
                    freed += bag.len() as u64;
                    bag.free_all();
                } else {
                    break;
                }
            }
            // Republished unconditionally (not only when something was
            // freed): a conditional store can leave the slot's gauge
            // pinned at a stale epoch after bags drain elsewhere, and the
            // scrape-time reader (`Collector::stats`) trusts this value.
            self.inner.slots[self.slot].oldest_bag.store(
                bags.front().map_or(crate::collector::NO_BAGS, |b| b.epoch),
                Ordering::Release,
            );
        }
        if freed > 0 {
            self.inner.freed.fetch_add(freed, Ordering::Relaxed);
        }
        self.inner.collect_stash(global);
    }

    /// Number of garbage objects currently buffered by this thread
    /// (diagnostics for tests).
    pub(crate) fn pending(&self) -> usize {
        self.bags.borrow().iter().map(Bag::len).sum()
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
        let leftover: Vec<Bag> = self.bags.borrow_mut().drain(..).collect();
        self.inner.unregister(self.slot, leftover);
        // Give the garbage we just stashed a chance to be freed promptly if
        // it is already safe.
        let global = self.inner.try_advance();
        self.inner.collect_stash(global);
    }
}

/// An **owned** per-thread registration with a [`crate::Collector`]: the
/// one way a thread pins, retires and flushes.
///
/// Obtained once per thread (or session) via [`crate::Collector::register`].
/// [`LocalHandle::pin`] is a plain epoch announcement (one uncontended store
/// plus a fence), which is what makes per-operation pinning cheap enough for
/// the per-thread map sessions built on top of this crate.
///
/// A `LocalHandle` is `!Send`: like a [`Guard`], it belongs to the thread
/// that registered it.  Dropping the handle while one of its guards is still
/// alive is safe — the registration stays alive (and the thread stays
/// pinned) until the last guard drops, after which the slot is released and
/// leftover garbage is stashed with the collector.
#[derive(Debug)]
pub struct LocalHandle {
    backend: HandleBackend,
}

/// The per-backend registration a [`LocalHandle`] owns.
#[derive(Debug)]
enum HandleBackend {
    Ebr(Rc<Local>),
    Hp(Rc<HpLocal>),
}

impl LocalHandle {
    /// Wraps a freshly registered EBR local.
    pub(crate) fn ebr(local: Local) -> Self {
        Self {
            backend: HandleBackend::Ebr(Rc::new(local)),
        }
    }

    /// Wraps a freshly registered hazard-pointer local.
    pub(crate) fn hp(local: HpLocal) -> Self {
        Self {
            backend: HandleBackend::Hp(Rc::new(local)),
        }
    }

    /// Pins the owning thread.  Reentrant; see [`Guard`] for the guarantees
    /// the pin provides.  Under the hazard-pointer backend this is a
    /// *coarse* pin: like EBR it protects everything retired after it (and
    /// therefore stalls reclamation while held) — use it for traversals
    /// with unbounded footprints, e.g. range scans.
    pub fn pin(&self) -> Guard {
        match &self.backend {
            HandleBackend::Ebr(local) => {
                local.count_local_pin();
                Local::pin(local);
                Guard::new(Rc::clone(local))
            }
            HandleBackend::Hp(local) => {
                local.count_local_pin();
                HpLocal::pin(local);
                Guard::new_hp(Rc::clone(local))
            }
        }
    }

    /// Pins in *fine* mode: under the hazard-pointer backend the returned
    /// guard protects only the pointers published through
    /// [`Guard::protect`] (validated by the caller), so a reader stalled
    /// inside the region blocks O([`crate::HAZARD_SLOTS`]) objects instead
    /// of all reclamation.  Under EBR this is identical to
    /// [`pin`](LocalHandle::pin).  Callers must check
    /// [`Guard::needs_protect`] and run the protect/validate protocol when
    /// it returns `true`.
    pub fn pin_fine(&self) -> Guard {
        match &self.backend {
            HandleBackend::Ebr(_) => self.pin(),
            HandleBackend::Hp(local) => {
                local.count_local_pin();
                HpLocal::pin_fine(local);
                Guard::new_hp(Rc::clone(local))
            }
        }
    }

    /// Is this thread currently pinned through this registration?
    pub fn is_pinned(&self) -> bool {
        match &self.backend {
            HandleBackend::Ebr(local) => local.is_pinned(),
            HandleBackend::Hp(local) => local.is_pinned(),
        }
    }

    /// Number of garbage objects buffered by this registration (testing).
    pub fn pending(&self) -> usize {
        match &self.backend {
            HandleBackend::Ebr(local) => local.pending(),
            HandleBackend::Hp(local) => local.pending(),
        }
    }

    /// Attempts to reclaim garbage that has become safe (this
    /// registration's retirements plus the shared stash).
    pub fn flush(&self) {
        match &self.backend {
            HandleBackend::Ebr(local) => local.try_collect(),
            HandleBackend::Hp(local) => local.try_collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Collector;

    #[test]
    fn pending_counts_buffered_garbage() {
        let collector = Collector::new();
        let handle = collector.register();
        let guard = handle.pin();
        for _ in 0..5 {
            let p = Box::into_raw(Box::new(1u8));
            unsafe { guard.defer_drop(p) };
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
        {
            let guard = handle.pin();
            let p = Box::into_raw(Box::new(1u8));
            unsafe { guard.defer_drop(p) };
        }
        handle.flush(); // advances epoch
        {
            let guard = handle.pin();
            let p = Box::into_raw(Box::new(2u8));
            unsafe { guard.defer_drop(p) };
        }
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
            let p = Box::into_raw(Box::new(3u8));
            unsafe { guard.defer_drop(p) };
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
        let p = Box::into_raw(Box::new(4u8));
        unsafe { guard.defer_drop(p) };
        drop(guard);
        assert!(!collector.debug_any_thread_pinned());
        // The registration is gone and its bag stashed; another handle's
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
        // unreclaimable garbage (its bags go to the stash), and the only
        // surviving activity is *read-only* pin/unpin traffic — no retires,
        // so the collection threshold never fires.  The periodic unpin
        // check must still advance the epoch and drain the stash; before
        // the fix, `stats().freed` stayed at 0 until the collector itself
        // was dropped.
        let collector = Collector::new();
        let reader = collector.register();

        // A pinned reader spans the dirty thread's exit so the stashed
        // bags are not freeable at unregister time.
        let span = reader.pin();
        std::thread::scope(|s| {
            s.spawn(|| {
                let h = collector.register();
                let g = h.pin();
                for _ in 0..5 {
                    let p = Box::into_raw(Box::new(9u8));
                    unsafe { g.defer_drop(p) };
                }
            })
            .join()
            .unwrap();
        });
        drop(span);
        assert_eq!(collector.stats().freed, 0, "stash not yet reclaimable");

        // Read-only traffic only: enough unpins for several drain
        // intervals (the epoch needs two advances before the bags age out).
        for _ in 0..(crate::STASH_DRAIN_INTERVAL * 4) {
            drop(reader.pin());
        }
        let s = collector.stats();
        assert_eq!(s.freed, 5, "stash drained without dropping the collector");
        assert_eq!(s.unreclaimed, 0);
        assert_eq!(s.oldest_epoch_age, 0);
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
