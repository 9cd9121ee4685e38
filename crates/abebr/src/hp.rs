//! The hazard-pointer hooks of the shared core.
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
//!   time, in the slot's `announce` field, the same store an EBR pin makes
//!   — and the horizon keeps every item retired at or after the oldest
//!   announced watermark.  This protects *everything the reader
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

use std::sync::atomic::{fence, Ordering};

use crate::collector::{Horizon, Inner};
use crate::local::Local;
use crate::smr::SmrPolicy;
use crate::HAZARD_SLOTS;

impl Inner {
    /// HP's retire stamp: a fresh sequence number.  The fence orders the
    /// caller's unlink before the sequence assignment: an item numbered
    /// below a reader's watermark is therefore provably unreachable to
    /// that reader (module docs).
    pub(crate) fn hp_stamp(&self) -> u64 {
        fence(Ordering::SeqCst);
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// HP's horizon: the minimum announced watermark plus the sorted list
    /// of non-null hazard addresses.  The leading `SeqCst` fence orders the
    /// snapshot after the retirements the caller is about to judge.
    pub(crate) fn hp_horizon(&self) -> Horizon {
        fence(Ordering::SeqCst);
        let mut horizon = Horizon {
            below: u64::MAX,
            hazards: Vec::new(),
        };
        for (slot, hazards) in self.slots.iter().zip(self.hazards.iter()) {
            if !slot.in_use.load(Ordering::Acquire) {
                continue;
            }
            horizon.below = horizon.below.min(slot.announce.load(Ordering::SeqCst));
            horizon.hazards.extend(
                hazards
                    .iter()
                    .map(|h| h.load(Ordering::SeqCst) as usize)
                    .filter(|&p| p != 0),
            );
        }
        horizon.hazards.sort_unstable();
        horizon
    }
}

impl Local {
    /// Enters a fine pinned region under HP: no watermark, protection comes
    /// from the per-pointer hazards the caller publishes via
    /// [`Local::protect`].  Nested inside an existing region it inherits
    /// that region's mode (coarse is strictly stronger, so this never
    /// weakens protection).  Under EBR it is [`Local::pin`].
    pub(crate) fn pin_fine(&self) {
        match self.inner.policy {
            SmrPolicy::Ebr => self.pin(),
            SmrPolicy::Hp => self.pin_depth.set(self.pin_depth.get() + 1),
        }
    }

    /// Does the current region rely on per-pointer hazards?  Only a fine
    /// HP region does; EBR regions are always coarse.
    pub(crate) fn needs_protect(&self) -> bool {
        !self.coarse.get()
    }

    /// Publishes `ptr` in hazard slot `index` and fences, so a scan that
    /// starts after the caller's re-validation must observe it.  A coarse
    /// region (every EBR region) already protects everything it can reach,
    /// so there this is a no-op.
    pub(crate) fn protect(&self, index: usize, ptr: *mut u8) {
        if !self.needs_protect() {
            return;
        }
        debug_assert!(index < HAZARD_SLOTS, "hazard index out of range");
        self.hazards()[index].store(ptr, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        self.used_hazards
            .set(self.used_hazards.get().max(index + 1));
    }

    /// Upgrades the current region to coarse protection (no-op if it
    /// already is, so always under EBR).  Callers invoke this *before*
    /// releasing the locks that pin their foothold in the structure, so
    /// everything reachable at escalation time stays protected for the
    /// rest of the region.
    pub(crate) fn escalate(&self) {
        if self.needs_protect() {
            self.announce();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{retire_new, Collector, MAX_THREADS, STASH_DRAIN_INTERVAL};

    #[test]
    fn coarse_guard_blocks_reclamation_like_ebr() {
        let c = Collector::new_hp();
        let stalled = c.register();
        let stalled_guard = stalled.pin();

        let worker = c.register();
        for _ in 0..5 {
            retire_new(&worker.pin(), 0u8);
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
            // SAFETY: `protected` is a `Box<u64>` that no structure links
            // and that only this retirement frees.
            unsafe { guard.defer_drop(protected) };
            for _ in 0..100 {
                retire_new(&guard, 7u64);
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
        retire_new(&w.pin(), 1u8);
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
        assert!(
            !fine.needs_protect(),
            "inner coarse pin escalates the region"
        );
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
        // SAFETY: the node was never retired or shared, so this is its
        // only owner.
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
                    retire_new(&g, 3u8);
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
