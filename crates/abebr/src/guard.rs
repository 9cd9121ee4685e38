//! RAII pin guards.

use std::rc::Rc;

use crate::collector::Garbage;
use crate::local::Local;

/// A guard keeping the current thread pinned.
///
/// While any guard exists on a thread, objects retired by *other* threads
/// after the pin took effect will not be freed, so raw pointers read from the
/// shared structure during the guard's lifetime remain dereferenceable.
///
/// Under hazard pointers a guard can be in one of two modes:
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
    pub(crate) local: Rc<Local>,
}

impl Guard {
    /// Retires a heap allocation created with [`Box::into_raw`].  The
    /// allocation will be dropped and freed once no thread can still hold a
    /// reference to it.
    ///
    /// # Safety
    /// `ptr` came from `Box::<T>::into_raw`, threads that pin after this
    /// call cannot reach it (it is unlinked), and no other path frees it.
    pub unsafe fn defer_drop<T: Send + 'static>(&self, ptr: *mut T) {
        /// # Safety
        /// `p` is the `Box<T>` pointer `defer_drop` was given, run once.
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
    /// `free` destroys and releases `ptr` correctly on any thread, threads
    /// that pin after this call cannot reach `ptr`, and no other path frees it.
    pub unsafe fn defer_free(&self, ptr: *mut u8, free: unsafe fn(*mut u8)) {
        self.local.retire(Garbage { ptr, destroy: free });
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
        self.local.needs_protect()
    }

    /// Publishes `ptr` in the calling thread's hazard slot `index`
    /// (0..[`crate::HAZARD_SLOTS`]) and fences.  No-op under EBR and for a
    /// coarse guard, whose pin already protects `ptr`.
    ///
    /// This alone does not make `ptr` dereferenceable: the caller must
    /// re-validate after publishing (re-read the link that produced `ptr`
    /// and check its source was not marked for unlinking); on validation
    /// failure, restart the traversal.  Slots may be reused round-robin —
    /// overwriting a slot drops protection of its previous pointer.
    #[inline]
    pub fn protect<T>(&self, index: usize, ptr: *mut T) {
        self.local.protect(index, ptr.cast());
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
        self.local.escalate();
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.local.unpin();
    }
}

#[cfg(test)]
mod tests {
    use crate::{retire_new, Collector, SmrPolicy};

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
            retire_new(&h.pin(), [0u64; 8]);
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
        /// # Safety
        /// `p` is a leaked `Box<u64>`, released once.
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
                // SAFETY: `release` frees exactly this `Box<u64>`, which no
                // structure links and nothing else frees.
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
