//! RAII pin guards.

use std::rc::Rc;

use crate::hp::HpLocal;
use crate::local::{Garbage, Local};

/// A guard keeping the current thread pinned.
///
/// While any guard exists on a thread, objects retired by *other* threads
/// after the pin took effect will not be freed, so raw pointers read from the
/// shared structure during the guard's lifetime remain dereferenceable.
///
/// Under the hazard-pointer backend a guard can be in one of two modes:
/// **coarse** (from [`crate::LocalHandle::pin`], or after
/// [`Guard::escalate`]) gives the blanket guarantee above, while
/// **fine** (from [`crate::LocalHandle::pin_fine`]) protects only the
/// pointers the caller publishes through [`Guard::protect`] and re-validates.
/// [`Guard::needs_protect`] tells structure code which protocol applies;
/// under EBR it is always `false` and the blanket guarantee always holds.
///
/// Guards are intentionally `!Send`: the pin is a property of the thread that
/// created it.
#[derive(Debug)]
pub struct Guard {
    backend: GuardBackend,
}

/// The per-backend registration a [`Guard`] keeps pinned.
#[derive(Debug)]
enum GuardBackend {
    Ebr(Rc<Local>),
    Hp(Rc<HpLocal>),
}

impl Guard {
    pub(crate) fn new(local: Rc<Local>) -> Self {
        Self {
            backend: GuardBackend::Ebr(local),
        }
    }

    pub(crate) fn new_hp(local: Rc<HpLocal>) -> Self {
        Self {
            backend: GuardBackend::Hp(local),
        }
    }

    /// Retires a heap allocation created with [`Box::into_raw`].  The
    /// allocation will be dropped and freed once no thread can still hold a
    /// reference to it.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by `Box::into_raw(Box::new(..))` for
    ///   exactly the type `T`;
    /// * the object must already be unreachable for threads that pin *after*
    ///   this call (i.e. it has been unlinked from the shared structure);
    /// * no other call path may free the same allocation.
    pub unsafe fn defer_drop<T: Send + 'static>(&self, ptr: *mut T) {
        unsafe fn destroy<T>(p: *mut u8) {
            // SAFETY: `p` was produced from a `Box<T>` by the caller of
            // `defer_drop`, and is executed exactly once.
            drop(unsafe { Box::from_raw(p.cast::<T>()) });
        }
        // SAFETY: forwarded from this function's contract; `destroy::<T>`
        // is the release that matches a `Box<T>`.
        unsafe { self.defer_free(ptr.cast(), destroy::<T>) }
    }

    /// Retires an object that `free` releases: `free(ptr)` runs once no
    /// thread can still hold a reference to it.  This is
    /// [`defer_drop`](Self::defer_drop) for memory that does not come from
    /// `Box` (a slab slot, say); a hazard-pointer guard that protects `ptr`
    /// delays it.
    ///
    /// # Safety
    ///
    /// * `free` must be the right way to destroy and release `ptr`, and may
    ///   run on any thread;
    /// * the object must already be unreachable for threads that pin *after*
    ///   this call;
    /// * no other call path may free the same object.
    pub unsafe fn defer_free(&self, ptr: *mut u8, free: unsafe fn(*mut u8)) {
        let garbage = Garbage { ptr, destroy: free };
        match &self.backend {
            GuardBackend::Ebr(local) => local.retire(garbage),
            GuardBackend::Hp(local) => local.retire(garbage),
        }
    }

    /// Does this guard require the fine-mode protect/validate protocol?
    ///
    /// `true` only for a hazard-pointer guard in fine mode: dereferencing a
    /// pointer read from the structure is then only safe after publishing
    /// it with [`Guard::protect`] and re-validating that it is still
    /// reachable (e.g. the parent is unmarked and the child slot unchanged).
    /// Always `false` under EBR and for coarse/escalated guards, whose
    /// blanket pin makes every pointer read during the region safe.
    #[inline]
    pub fn needs_protect(&self) -> bool {
        match &self.backend {
            GuardBackend::Ebr(_) => false,
            GuardBackend::Hp(local) => local.needs_protect(),
        }
    }

    /// Publishes `ptr` in the calling thread's hazard slot `index`
    /// (0..[`crate::HAZARD_SLOTS`]) and fences.  No-op under EBR.
    ///
    /// This alone does not make `ptr` dereferenceable: the caller must
    /// re-validate after publishing (re-read the link that produced `ptr`
    /// and check its source was not marked for unlinking); on validation
    /// failure, restart the traversal.  Slots may be reused round-robin —
    /// overwriting a slot drops protection of its previous pointer.
    #[inline]
    pub fn protect<T>(&self, index: usize, ptr: *mut T) {
        if let GuardBackend::Hp(local) = &self.backend {
            local.protect(index, ptr.cast());
        }
    }

    /// Upgrades a fine-mode guard to coarse protection for the rest of its
    /// region: everything retired from this point on stays alive until the
    /// guard drops, exactly as if the region had started with a coarse
    /// [`crate::LocalHandle::pin`].  No-op under EBR or when already
    /// coarse.
    ///
    /// Structure code calls this *before* releasing the locks that pin its
    /// foothold (e.g. when an update escalates into structural
    /// rebalancing), so nodes it will traverse afterwards cannot be freed
    /// between the unlock and the traversal.
    #[inline]
    pub fn escalate(&self) {
        if let GuardBackend::Hp(local) = &self.backend {
            local.escalate();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        match &self.backend {
            GuardBackend::Ebr(local) => local.unpin(),
            GuardBackend::Hp(local) => local.unpin(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Collector, SmrPolicy};

    #[test]
    fn guard_is_reentrant_and_unpins_in_any_order() {
        for policy in SmrPolicy::ALL {
            let c = Collector::with_policy(policy);
            let h = c.register();
            let g1 = h.pin();
            let g2 = h.pin();
            let g3 = h.pin();
            drop(g2);
            drop(g1);
            assert!(c.debug_any_thread_pinned(), "{policy}");
            drop(g3);
            assert!(!c.debug_any_thread_pinned(), "{policy}");
        }
    }

    #[test]
    fn guard_flush_reclaims_own_garbage_eventually() {
        for policy in SmrPolicy::ALL {
            let c = Collector::with_policy(policy);
            let h = c.register();
            {
                let g = h.pin();
                let p = Box::into_raw(Box::new([0u64; 8]));
                unsafe { g.defer_drop(p) };
            }
            for _ in 0..8 {
                h.flush();
            }
            assert_eq!(c.stats().freed, 1, "{policy}");
        }
    }

    #[test]
    fn defer_free_runs_the_given_release_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static RELEASED: AtomicUsize = AtomicUsize::new(0);
        unsafe fn release(p: *mut u8) {
            // SAFETY: `p` is the `Box<u64>` leaked below.
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
            RELEASED.fetch_add(1, Ordering::SeqCst);
        }
        for (round, policy) in SmrPolicy::ALL.into_iter().enumerate() {
            let c = Collector::with_policy(policy);
            let h = c.register();
            {
                let g = h.pin();
                let p = Box::into_raw(Box::new(5u64));
                unsafe { g.defer_free(p.cast(), release) };
            }
            for _ in 0..8 {
                h.flush();
            }
            assert_eq!(c.stats().freed, 1, "{policy}");
            assert_eq!(RELEASED.load(Ordering::SeqCst), round + 1, "{policy}");
        }
    }

    #[test]
    fn ebr_guards_never_ask_for_protection() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin_fine();
        assert!(!g.needs_protect());
        g.protect(0, std::ptr::null_mut::<u8>()); // no-op, must not panic
        g.escalate(); // no-op
    }
}
