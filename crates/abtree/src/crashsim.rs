//! Crash-state construction helpers (testing only, hidden from docs).
//!
//! The durable trees' recovery procedure (paper §5) must cope with states in
//! which a crash interrupted an update after some of its stores reached
//! persistent memory but before the operation finished.  Real crashes cannot
//! be produced inside a unit test, so these helpers *construct* the exact
//! memory states the paper reasons about, by applying the persisted half of
//! an update and skipping the volatile half:
//!
//! * [`AbTree::force_partial_insert`] — a simple insert whose key and value were
//!   flushed, but which crashed before the second version increment and the
//!   `size` update.  Strict linearizability requires this insert to be
//!   linearized *at the crash*, i.e. recovery must surface the key.
//! * [`AbTree::force_partial_delete`] — a successful delete whose emptied key slot
//!   was flushed but which crashed before completing.  Recovery must *not*
//!   resurrect the key.
//! * [`AbTree::force_dirty_root_link`] — a structural update that crashed after
//!   writing (and flushing) a new child pointer but before clearing its
//!   link-and-persist dirty mark.  Recovery must clear the mark.
//!
//! These functions require exclusive (single-threaded) access to the tree.

use std::sync::atomic::Ordering;

use absync::RawNodeLock;

use crate::node::{tag_dirty, untag};
use crate::persist::Persist;
use crate::tree::AbTree;
use crate::{EMPTY_KEY, MAX_KEYS};

impl<const ELIM: bool, L: RawNodeLock, P: Persist> AbTree<ELIM, L, P> {
    /// Simulates a crash in the middle of `insert(key, value)`, after the key
    /// and value stores were persisted but before the leaf's version was
    /// incremented back to even and before `size` was updated.
    ///
    /// Returns `false` (leaving the tree untouched) if the key is already
    /// present or the target leaf has no free slot.
    pub fn force_partial_insert(&self, key: u64, value: u64) -> bool {
        // Single-threaded maintenance: a throwaway registration is fine here.
        let local = self.collector.register();
        let guard = local.pin();
        let path = self.search(key, std::ptr::null_mut(), &guard);
        // SAFETY: single-threaded access per the module contract.
        let leaf = unsafe { self.deref(path.n, &guard) };
        if leaf.locked_find(key).is_some() {
            return false;
        }
        let Some(slot) = leaf.locked_empty_slot() else {
            return false;
        };
        // First half of the update: odd version, value then key stores (the
        // part that would have been flushed).
        leaf.begin_write();
        leaf.set_val(slot, value);
        leaf.keys[slot].store(key, Ordering::Relaxed);
        // Crash: no size update, no end_write().
        true
    }

    /// Simulates a crash in the middle of a successful `delete(key)`, after
    /// the emptied key slot was persisted but before the version returned to
    /// even and before `size` was updated.
    ///
    /// Returns `false` (leaving the tree untouched) if the key is absent.
    pub fn force_partial_delete(&self, key: u64) -> bool {
        let local = self.collector.register();
        let guard = local.pin();
        let path = self.search(key, std::ptr::null_mut(), &guard);
        // SAFETY: single-threaded access per the module contract.
        let leaf = unsafe { self.deref(path.n, &guard) };
        let Some((slot, _)) = leaf.locked_find(key) else {
            return false;
        };
        leaf.begin_write();
        leaf.keys[slot].store(EMPTY_KEY, Ordering::Relaxed);
        // Crash: no size update, no end_write().
        true
    }

    /// Simulates a crash after a structural update wrote (and flushed) the
    /// entry's root pointer but before clearing its link-and-persist dirty
    /// mark.
    pub fn force_dirty_root_link(&self) {
        let root = self.entry().child(0);
        self.entry().set_child(0, tag_dirty(root));
    }

    /// Returns `true` if any reachable child pointer still carries a dirty
    /// mark (used to verify that recovery cleared them all).
    pub fn has_dirty_links(&self) -> bool {
        let mut stack = vec![self.entry_ptr()];
        while let Some(ptr) = stack.pop() {
            if ptr.is_null() {
                continue;
            }
            // SAFETY: single-threaded access per the module contract.
            let node = unsafe { &*ptr };
            if node.is_leaf() {
                continue;
            }
            for i in 0..MAX_KEYS {
                let raw = node.child_raw(i);
                if crate::node::is_dirty(raw) {
                    return true;
                }
                let clean = untag(raw);
                if clean.is_null() {
                    break;
                }
                stack.push(clean);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::OccABTree;

    #[test]
    fn partial_insert_then_recover_surfaces_the_key() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        for k in 0..100u64 {
            t.insert(k, k);
        }
        assert!(t.force_partial_insert(1_000, 77));
        // Before recovery the structure is mid-update (version odd, size
        // stale); recovery must repair it and keep the persisted key.
        t.recover();
        t.check_invariants().unwrap();
        assert_eq!(t.get(1_000), Some(77));
        assert_eq!(t.len(), 101);
    }

    #[test]
    fn partial_delete_then_recover_drops_the_key() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        for k in 0..100u64 {
            t.insert(k, k);
        }
        assert!(t.force_partial_delete(50));
        t.recover();
        t.check_invariants().unwrap();
        assert_eq!(t.get(50), None);
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn dirty_link_is_cleared_by_recovery() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        for k in 0..2_000u64 {
            t.insert(k, k);
        }
        t.force_dirty_root_link();
        assert!(t.has_dirty_links());
        t.recover();
        assert!(!t.has_dirty_links());
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn force_helpers_reject_invalid_targets() {
        let t: OccABTree = OccABTree::new();
        let mut t = t.handle();
        t.insert(5, 5);
        assert!(!t.force_partial_insert(5, 99), "key already present");
        assert!(!t.force_partial_delete(6), "key absent");
        t.recover();
        t.check_invariants().unwrap();
    }
}
