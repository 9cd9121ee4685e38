//! The hazard-pointer reclamation backend.
//!
//! A hybrid of Michael's classic per-pointer hazards with a coarse
//! retire-sequence watermark, so the same structures run unmodified under
//! either protection mode:
//!
//! * **Fine mode** ([`crate::LocalHandle::pin_fine`]): the reader protects
//!   each node it holds by publishing its address into one of the slot's
//!   [`crate::HAZARD_SLOTS`] hazard pointers
//!   ([`crate::Guard::protect`]) and re-validating reachability, exactly
//!   Michael's scheme.  A reader stalled in fine mode blocks at most the
//!   handful of nodes its hazards name — this is the bounded-garbage mode
//!   point lookups run in.
//! * **Coarse mode** ([`crate::LocalHandle::pin`], or
//!   [`crate::Guard::escalate`] on a fine guard): the reader publishes a
//!   **watermark** — the global retire sequence number observed at pin
//!   time — and the scanner keeps every item retired at or after the
//!   oldest announced watermark.  This protects *everything the reader
//!   could still reach* by the [`crate::Guard::defer_drop`] contract
//!   (retired objects are already unreachable to threads that pin later),
//!   which is what makes un-instrumented code (range scans, structural
//!   rebalancing after an [`crate::Guard::escalate`], the baseline
//!   structures) safe without naming individual pointers.  A coarse pin
//!   stalls reclamation like EBR does — which is why the hot point-op
//!   paths use fine mode.
//!
//! # Why the watermark is sound
//!
//! Retirement assigns the item's sequence number with a `SeqCst` fence
//! *between* the unlink (the caller's CAS that made the object
//! unreachable) and the `fetch_add` on the global counter; a coarse pin
//! stores its watermark and fences before its first shared read.  If an
//! item's `seq` is below a reader's watermark, the `fetch_add` precedes
//! the reader's counter load in the `SeqCst` order, so the fence pair
//! guarantees every read the reader performs after pinning sees the
//! unlink — the reader cannot reach the object, and freeing it is safe.
//! Conversely anything retired after the pin satisfies `seq >= watermark`
//! and is kept.  Fine-mode validation makes the matching argument through
//! the structure's mark-before-unlink invariant: a hazard published and
//! *validated* against an unmarked parent precedes the unlink, so the
//! retiring thread's scan (fence, then hazard loads) observes it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use absync::CachePadded;

use crate::collector::{CollectorStats, NO_BAGS};
use crate::local::Garbage;
use crate::smr::RegisterError;
use crate::{COLLECT_THRESHOLD, HAZARD_SLOTS, MAX_THREADS, QUIESCENT, STASH_DRAIN_INTERVAL};

/// One retired object, tagged with its global retire sequence number;
/// fine-mode hazards are compared against its `garbage.ptr`.
#[derive(Debug)]
struct HpItem {
    /// Global retire sequence number assigned when the item was retired.
    seq: u64,
    garbage: Garbage,
}

/// One registration slot per participating thread.
#[derive(Debug)]
struct HpSlot {
    /// Whether a live thread currently owns this slot.
    in_use: AtomicBool,
    /// The retire-sequence watermark announced by a coarse pin, or
    /// [`QUIESCENT`] while unpinned / pinned fine.
    watermark: AtomicU64,
    /// Sequence number of the oldest item the owning thread still holds
    /// in its local retire list, or [`NO_BAGS`] when it holds none.
    /// Written by the owner after every scan, read by [`HpInner::stats`]
    /// for the reclamation-lag gauge.
    oldest_item: AtomicU64,
    /// The per-pointer hazards published in fine mode.
    hazards: [AtomicPtr<u8>; HAZARD_SLOTS],
}

impl HpSlot {
    fn new() -> Self {
        Self {
            in_use: AtomicBool::new(false),
            watermark: AtomicU64::new(QUIESCENT),
            oldest_item: AtomicU64::new(NO_BAGS),
            hazards: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }
}

/// Shared state of a hazard-pointer collector.
#[derive(Debug)]
pub(crate) struct HpInner {
    /// Global retire sequence: incremented once per retirement; coarse
    /// pins announce the value they observed as their watermark.
    retire_seq: CachePadded<AtomicU64>,
    /// Per-thread slots.
    slots: Box<[CachePadded<HpSlot>]>,
    /// Items inherited from threads that unregistered before their
    /// retirements were freeable; drained during every scan and on the
    /// periodic unpin check ([`HpLocal::maybe_drain_stash`]).
    stash: Mutex<Vec<HpItem>>,
    /// Number of items currently in `stash` (lock-free fast-path check).
    stash_len: AtomicUsize,
    retired: AtomicU64,
    freed: AtomicU64,
    registrations: AtomicU64,
    local_pins: AtomicU64,
}

impl HpInner {
    pub(crate) fn new() -> Self {
        let slots = (0..MAX_THREADS)
            .map(|_| CachePadded::new(HpSlot::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            retire_seq: CachePadded::new(AtomicU64::new(0)),
            slots,
            stash: Mutex::new(Vec::new()),
            stash_len: AtomicUsize::new(0),
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            registrations: AtomicU64::new(0),
            local_pins: AtomicU64::new(0),
        }
    }

    /// Claims a free slot for the calling thread.
    fn register(&self) -> Result<usize, RegisterError> {
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.in_use.load(Ordering::Relaxed)
                && slot
                    .in_use
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                slot.watermark.store(QUIESCENT, Ordering::Release);
                self.registrations.fetch_add(1, Ordering::Relaxed);
                return Ok(i);
            }
        }
        Err(RegisterError {
            capacity: MAX_THREADS,
        })
    }

    /// Releases a slot and stashes the thread's unreclaimed items.
    fn unregister(&self, slot: usize, leftover: Vec<HpItem>) {
        if !leftover.is_empty() {
            let mut stash = self.stash.lock().unwrap();
            self.stash_len
                .fetch_add(leftover.len(), Ordering::Relaxed);
            stash.extend(leftover);
        }
        let s = &self.slots[slot];
        s.watermark.store(QUIESCENT, Ordering::Release);
        for h in &s.hazards {
            h.store(std::ptr::null_mut(), Ordering::Release);
        }
        s.oldest_item.store(NO_BAGS, Ordering::Release);
        s.in_use.store(false, Ordering::Release);
    }

    /// Snapshots the protection state every scan filters against: the
    /// minimum announced watermark and the sorted list of non-null hazard
    /// addresses.  The leading `SeqCst` fence orders the snapshot after
    /// the retirements the caller is about to judge (see the module docs).
    fn protected_set(&self, hazards: &mut Vec<usize>) -> u64 {
        fence(Ordering::SeqCst);
        hazards.clear();
        let mut min_watermark = u64::MAX;
        for slot in self.slots.iter() {
            if !slot.in_use.load(Ordering::Acquire) {
                continue;
            }
            min_watermark = min_watermark.min(slot.watermark.load(Ordering::SeqCst));
            for h in &slot.hazards {
                let p = h.load(Ordering::SeqCst) as usize;
                if p != 0 {
                    hazards.push(p);
                }
            }
        }
        hazards.sort_unstable();
        min_watermark
    }

    /// Is `item` still protected by some thread?
    fn is_protected(item: &HpItem, min_watermark: u64, hazards: &[usize]) -> bool {
        item.seq >= min_watermark || hazards.binary_search(&(item.garbage.ptr as usize)).is_ok()
    }

    /// Frees every stash item no announced watermark or hazard protects.
    fn collect_stash(&self, min_watermark: u64, hazards: &[usize]) {
        if self.stash_len.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut to_free = Vec::new();
        {
            let mut stash = self.stash.lock().unwrap();
            let mut i = 0;
            while i < stash.len() {
                if Self::is_protected(&stash[i], min_watermark, hazards) {
                    i += 1;
                } else {
                    to_free.push(stash.swap_remove(i));
                }
            }
            self.stash_len.store(stash.len(), Ordering::Relaxed);
        }
        if !to_free.is_empty() {
            self.freed
                .fetch_add(to_free.len() as u64, Ordering::Relaxed);
            for item in to_free {
                item.garbage.run();
            }
        }
    }

    /// Statistics in the shared [`CollectorStats`] shape: `epoch` is the
    /// global retire sequence number, `oldest_epoch_age` is how many
    /// retirements behind it the oldest still-held item is (the HP
    /// reclamation-lag equivalent), and the remaining fields keep their
    /// EBR meanings.
    pub(crate) fn stats(&self) -> CollectorStats {
        let epoch = self.retire_seq.load(Ordering::SeqCst);
        let retired = self.retired.load(Ordering::Relaxed);
        let freed = self.freed.load(Ordering::Relaxed);
        let mut oldest = u64::MAX;
        for slot in self.slots.iter() {
            if slot.in_use.load(Ordering::Acquire) {
                oldest = oldest.min(slot.oldest_item.load(Ordering::Acquire));
            }
        }
        for item in self.stash.lock().unwrap().iter() {
            oldest = oldest.min(item.seq);
        }
        CollectorStats {
            epoch,
            retired,
            freed,
            registrations: self.registrations.load(Ordering::Relaxed),
            local_pins: self.local_pins.load(Ordering::Relaxed),
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
            s.in_use.load(Ordering::Acquire)
                && (s.watermark.load(Ordering::Acquire) != QUIESCENT
                    || s.hazards
                        .iter()
                        .any(|h| !h.load(Ordering::Acquire).is_null()))
        })
    }
}

impl Drop for HpInner {
    fn drop(&mut self) {
        // No thread holds a reference to the collector any more, so all
        // remaining stashed items are unreachable and safe to free.
        let stash = std::mem::take(self.stash.get_mut().unwrap());
        self.freed.fetch_add(stash.len() as u64, Ordering::Relaxed);
        for item in stash {
            item.garbage.run();
        }
    }
}

/// Per-thread registration state of the hazard-pointer backend (the HP
/// sibling of [`crate::local::Local`]).
#[derive(Debug)]
pub(crate) struct HpLocal {
    inner: Arc<HpInner>,
    slot: usize,
    pin_depth: Cell<usize>,
    /// Whether the current pin region announced a watermark (coarse mode).
    coarse: Cell<bool>,
    /// High-water mark of hazard indices written during this pin region,
    /// so unpin clears exactly the slots that were used.
    used_hazards: Cell<usize>,
    /// Retired items ordered by sequence number (front = oldest).
    retired: RefCell<VecDeque<HpItem>>,
    retired_since_scan: Cell<usize>,
    unpins_since_stash_check: Cell<usize>,
    local_pins: Cell<u64>,
}

impl HpLocal {
    pub(crate) fn register(inner: Arc<HpInner>) -> Result<Self, RegisterError> {
        let slot = inner.register()?;
        Ok(Self {
            inner,
            slot,
            pin_depth: Cell::new(0),
            coarse: Cell::new(false),
            used_hazards: Cell::new(0),
            retired: RefCell::new(VecDeque::new()),
            retired_since_scan: Cell::new(0),
            unpins_since_stash_check: Cell::new(0),
            local_pins: Cell::new(0),
        })
    }

    pub(crate) fn count_local_pin(&self) {
        self.local_pins.set(self.local_pins.get() + 1);
    }

    /// Publishes the coarse watermark for the current pin region.
    fn announce_watermark(&self) {
        let w = self.inner.retire_seq.load(Ordering::SeqCst);
        self.inner.slots[self.slot]
            .watermark
            .store(w, Ordering::SeqCst);
        // Order the announcement before any subsequent shared reads
        // performed inside the critical region.
        fence(Ordering::SeqCst);
        self.coarse.set(true);
    }

    /// Enters a coarse pinned region (reentrant).  Nested over a fine
    /// region it escalates: coarse protection is strictly stronger, and
    /// the region stays coarse until the outermost unpin.
    pub(crate) fn pin(self: &Rc<Self>) {
        let depth = self.pin_depth.get();
        if depth == 0 || !self.coarse.get() {
            self.announce_watermark();
        }
        self.pin_depth.set(depth + 1);
    }

    /// Enters a fine pinned region: no watermark, protection comes from
    /// the per-pointer hazards the caller publishes via
    /// [`HpLocal::protect`].  Nested inside an existing region it inherits
    /// that region's mode (coarse is strictly stronger, so this never
    /// weakens protection).
    pub(crate) fn pin_fine(self: &Rc<Self>) {
        let depth = self.pin_depth.get();
        if depth == 0 {
            self.coarse.set(false);
        }
        self.pin_depth.set(depth + 1);
    }

    /// Upgrades the current region to coarse protection (no-op if it
    /// already is).  Callers invoke this *before* releasing the locks that
    /// pin their foothold in the structure, so everything reachable at
    /// escalation time stays protected for the rest of the region.
    pub(crate) fn escalate(&self) {
        if !self.coarse.get() {
            self.announce_watermark();
        }
    }

    /// Does the current region rely on per-pointer hazards?
    pub(crate) fn needs_protect(&self) -> bool {
        !self.coarse.get()
    }

    /// Publishes `ptr` in hazard slot `index` and fences, so a scan that
    /// starts after the caller's re-validation must observe it.
    pub(crate) fn protect(&self, index: usize, ptr: *mut u8) {
        debug_assert!(index < HAZARD_SLOTS, "hazard index out of range");
        self.inner.slots[self.slot].hazards[index].store(ptr, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if index + 1 > self.used_hazards.get() {
            self.used_hazards.set(index + 1);
        }
    }

    /// Leaves a pinned region; the outermost exit clears the watermark and
    /// every hazard slot used, then gives inherited stash garbage a
    /// periodic chance to drain.
    pub(crate) fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "unpin without matching pin");
        if depth == 1 {
            let s = &self.inner.slots[self.slot];
            if self.coarse.get() {
                s.watermark.store(QUIESCENT, Ordering::Release);
                self.coarse.set(false);
            }
            let used = self.used_hazards.get();
            for h in &s.hazards[..used] {
                h.store(std::ptr::null_mut(), Ordering::Release);
            }
            self.used_hazards.set(0);
            self.maybe_drain_stash();
        }
        self.pin_depth.set(depth - 1);
    }

    pub(crate) fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }

    /// Same periodic stash-drain duty as the EBR local (see
    /// `Local::maybe_drain_stash`): garbage inherited from exited threads
    /// must not depend on surviving threads happening to retire.
    fn maybe_drain_stash(&self) {
        if self.inner.stash_len.load(Ordering::Relaxed) == 0 {
            self.unpins_since_stash_check.set(0);
            return;
        }
        let n = self.unpins_since_stash_check.get() + 1;
        if n >= STASH_DRAIN_INTERVAL {
            self.unpins_since_stash_check.set(0);
            let mut hazards = Vec::new();
            let min_watermark = self.inner.protected_set(&mut hazards);
            self.inner.collect_stash(min_watermark, &hazards);
        } else {
            self.unpins_since_stash_check.set(n);
        }
    }

    /// Tags `garbage` with a fresh retire sequence number and buffers it;
    /// every [`COLLECT_THRESHOLD`] retirements triggers a scan.
    pub(crate) fn retire(&self, garbage: Garbage) {
        // The fence orders the caller's unlink before the sequence
        // assignment: an item numbered below a reader's watermark is
        // therefore provably unreachable to that reader (module docs).
        fence(Ordering::SeqCst);
        let seq = self.inner.retire_seq.fetch_add(1, Ordering::SeqCst);
        {
            let mut items = self.retired.borrow_mut();
            let was_empty = items.is_empty();
            items.push_back(HpItem { seq, garbage });
            if was_empty {
                self.inner.slots[self.slot]
                    .oldest_item
                    .store(seq, Ordering::Release);
            }
        }
        self.inner.retired.fetch_add(1, Ordering::Relaxed);
        let n = self.retired_since_scan.get() + 1;
        self.retired_since_scan.set(n);
        if n >= COLLECT_THRESHOLD {
            self.retired_since_scan.set(0);
            self.try_collect();
        }
    }

    /// Scans announced watermarks and hazards, frees every local (and
    /// stashed) item nothing protects, and republishes the lag gauge.
    pub(crate) fn try_collect(&self) {
        let mut hazards = Vec::new();
        let min_watermark = self.inner.protected_set(&mut hazards);
        let mut to_free = Vec::new();
        {
            let mut items = self.retired.borrow_mut();
            let old = std::mem::take(&mut *items);
            for item in old {
                if HpInner::is_protected(&item, min_watermark, &hazards) {
                    items.push_back(item);
                } else {
                    to_free.push(item);
                }
            }
            // Republished unconditionally (freed or not), so the gauge can
            // never pin stale-high — the same discipline as the EBR
            // `oldest_bag` fix.
            self.inner.slots[self.slot].oldest_item.store(
                items.front().map_or(NO_BAGS, |i| i.seq),
                Ordering::Release,
            );
        }
        if !to_free.is_empty() {
            self.inner
                .freed
                .fetch_add(to_free.len() as u64, Ordering::Relaxed);
            for item in to_free {
                item.garbage.run();
            }
        }
        self.inner.collect_stash(min_watermark, &hazards);
    }

    /// Number of garbage objects currently buffered by this thread
    /// (diagnostics for tests).
    pub(crate) fn pending(&self) -> usize {
        self.retired.borrow().len()
    }
}

impl Drop for HpLocal {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.pin_depth.get(),
            0,
            "thread exited while pinned (a Guard outlived its thread?)"
        );
        self.inner
            .local_pins
            .fetch_add(self.local_pins.get(), Ordering::Relaxed);
        // One last scan on the way out so only genuinely-protected items
        // reach the stash.
        self.try_collect();
        let leftover: Vec<HpItem> = self.retired.borrow_mut().drain(..).collect();
        self.inner.unregister(self.slot, leftover);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn coarse_guard_blocks_reclamation_like_ebr() {
        let c = Collector::new_hp();
        let stalled = c.register();
        let stalled_guard = stalled.pin();

        let worker = c.register();
        for _ in 0..5 {
            let guard = worker.pin();
            let p = Box::into_raw(Box::new(0u8));
            unsafe { guard.defer_drop(p) };
        }
        for _ in 0..8 {
            worker.flush();
        }
        let lagging = c.stats();
        assert_eq!(lagging.unreclaimed, 5, "coarse watermark holds everything");
        assert!(lagging.oldest_epoch_age >= 5, "lag gauge sees the backlog");

        drop(stalled_guard);
        for _ in 0..8 {
            worker.flush();
        }
        let drained = c.stats();
        assert_eq!(drained.unreclaimed, 0);
        assert_eq!(drained.oldest_epoch_age, 0);
        assert_eq!(drained.freed, 5);
    }

    #[test]
    fn fine_guard_blocks_only_its_hazards() {
        let c = Collector::new_hp();
        let stalled = c.register();
        let reader_guard = stalled.pin_fine();

        // The stalled fine reader protects exactly one node.
        let protected = Box::into_raw(Box::new(42u64));
        reader_guard.protect(0, protected);

        let worker = c.register();
        {
            let guard = worker.pin();
            // Retire the protected node plus a crowd of unrelated ones.
            unsafe { guard.defer_drop(protected) };
            for _ in 0..100 {
                let p = Box::into_raw(Box::new(7u64));
                unsafe { guard.defer_drop(p) };
            }
        }
        worker.flush();
        let s = c.stats();
        assert_eq!(
            s.unreclaimed, 1,
            "only the hazard-named node survives the scan"
        );

        drop(reader_guard);
        worker.flush();
        assert_eq!(c.stats().unreclaimed, 0, "dropping the guard frees it");
    }

    #[test]
    fn escalate_upgrades_a_fine_guard() {
        let c = Collector::new_hp();
        let h = c.register();
        let guard = h.pin_fine();
        assert!(guard.needs_protect());
        guard.escalate();
        assert!(!guard.needs_protect(), "escalated guards skip validation");
        assert!(c.debug_any_thread_pinned());

        // Garbage retired after the escalation is now protected.
        let w = c.register();
        {
            let g = w.pin();
            let p = Box::into_raw(Box::new(1u8));
            unsafe { g.defer_drop(p) };
        }
        w.flush();
        assert_eq!(c.stats().unreclaimed, 1);
        drop(guard);
        w.flush();
        assert_eq!(c.stats().unreclaimed, 0);
    }

    #[test]
    fn nested_coarse_pin_over_fine_escalates_and_sticks() {
        let c = Collector::new_hp();
        let h = c.register();
        let fine = h.pin_fine();
        assert!(fine.needs_protect());
        let coarse = h.pin();
        assert!(!fine.needs_protect(), "inner coarse pin escalates the region");
        drop(coarse);
        assert!(
            !fine.needs_protect(),
            "the region stays coarse until the outermost unpin"
        );
        drop(fine);
        assert!(!c.debug_any_thread_pinned());
        // A fresh fine pin starts un-escalated again.
        let fine2 = h.pin_fine();
        assert!(fine2.needs_protect());
    }

    #[test]
    fn hazards_clear_on_unpin() {
        let c = Collector::new_hp();
        let h = c.register();
        let node = Box::into_raw(Box::new(9u64));
        {
            let g = h.pin_fine();
            g.protect(0, node);
            g.protect(2, node);
            assert!(c.debug_any_thread_pinned());
        }
        assert!(
            !c.debug_any_thread_pinned(),
            "unpin must clear every used hazard slot"
        );
        // The node was never retired; clean it up.
        drop(unsafe { Box::from_raw(node) });
    }

    #[test]
    fn stash_from_exited_thread_drains_without_retires() {
        let c = Collector::new_hp();
        let blocker = c.register();
        let blocker_guard = blocker.pin();
        std::thread::scope(|s| {
            s.spawn(|| {
                let h = c.register();
                let g = h.pin();
                for _ in 0..5 {
                    let p = Box::into_raw(Box::new(3u8));
                    unsafe { g.defer_drop(p) };
                }
            })
            .join()
            .unwrap();
        });
        drop(blocker_guard);
        // The dirty thread is gone and its items are stashed (the coarse
        // blocker's watermark protected them at exit).  A read-only
        // survivor must still drain them via the periodic unpin check.
        assert_eq!(c.stats().unreclaimed, 5);
        for _ in 0..(STASH_DRAIN_INTERVAL * 3) {
            drop(blocker.pin());
        }
        assert_eq!(c.stats().freed, 5, "stash drained by pin/unpin alone");
        assert_eq!(c.stats().oldest_epoch_age, 0);
    }

    #[test]
    fn register_fails_gracefully_when_slots_exhausted() {
        let c = Collector::new_hp();
        let held: Vec<_> = (0..MAX_THREADS).map(|_| c.register()).collect();
        let err = c.try_register().expect_err("slot table is full");
        assert_eq!(err.capacity, MAX_THREADS);
        drop(held);
        // Slots free up again once handles drop.
        let _h = c.try_register().expect("slots released");
    }
}
