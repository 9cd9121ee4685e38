//! Lock-based "lazy" concurrent skiplist (Herlihy–Lev–Luchangco–Shavit).
//!
//! Stands in for the list-shaped baselines of the paper's evaluation (the
//! SplayList is a skiplist that additionally adapts node heights to the
//! access distribution; see the substitution note in the crate docs).
//! Searches are wait-free; inserts and removes lock the predecessor towers,
//! validate, and link/unlink.  Removed nodes are retired through epoch-based
//! reclamation (unlike the original SplayList implementation, which never
//! frees memory — a point the paper remarks on in §6.2).

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Mutex;

use abebr::Collector;
use abtree::{ConcurrentMap, MapHandle};

use crate::{lock, HandleRng, OpCx, SessionHandle, SessionOps};

/// Maximum tower height.
const MAX_LEVEL: usize = 20;

struct SkipNode {
    key: u64,
    value: u64,
    next: [AtomicPtr<SkipNode>; MAX_LEVEL],
    /// Height of this node's tower (levels `0..top_level` are linked).
    top_level: usize,
    lock: Mutex<()>,
    marked: AtomicBool,
    fully_linked: AtomicBool,
}

impl SkipNode {
    fn new(key: u64, value: u64, top_level: usize) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value,
            next: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            top_level,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
        }))
    }
}

/// A lock-based lazy skiplist.
pub struct LazySkipList {
    /// Head sentinel (conceptually key = -∞), full height.
    head: *mut SkipNode,
    /// Tail sentinel (key = `u64::MAX`, reserved — user keys are smaller).
    tail: *mut SkipNode,
    collector: Collector,
}

// SAFETY: shared state behind atomics/locks; reclamation via EBR.
unsafe impl Send for LazySkipList {}
unsafe impl Sync for LazySkipList {}

impl Default for LazySkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl LazySkipList {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty skiplist reclaiming through an existing
    /// [`Collector`] (which selects the SMR backend — epochs or hazard
    /// pointers).
    pub fn with_collector(collector: Collector) -> Self {
        let tail = SkipNode::new(u64::MAX, 0, MAX_LEVEL);
        let head = SkipNode::new(0, 0, MAX_LEVEL);
        // SAFETY: freshly allocated, exclusively owned here.
        unsafe {
            (*tail).fully_linked.store(true, Ordering::Release);
            for level in 0..MAX_LEVEL {
                (*head).next[level].store(tail, Ordering::Release);
            }
            (*head).fully_linked.store(true, Ordering::Release);
        }
        Self {
            head,
            tail,
            collector,
        }
    }

    fn random_level(rng: &mut HandleRng) -> usize {
        // Geometric distribution with p = 1/2, capped at MAX_LEVEL.
        let mut level = 1;
        while level < MAX_LEVEL && rng.coin() {
            level += 1;
        }
        level
    }

    /// Finds the predecessors and successors of `key` at every level.
    /// Returns the level at which a node with `key` was found, or `None`.
    fn find(
        &self,
        key: u64,
        preds: &mut [*mut SkipNode; MAX_LEVEL],
        succs: &mut [*mut SkipNode; MAX_LEVEL],
    ) -> Option<usize> {
        let mut found = None;
        let mut pred = self.head;
        for level in (0..MAX_LEVEL).rev() {
            // SAFETY: nodes reachable while the caller is pinned; head/tail
            // are never reclaimed.
            let mut curr = unsafe { &*pred }.next[level].load(Ordering::Acquire);
            loop {
                // SAFETY: as above.
                let curr_ref = unsafe { &*curr };
                if curr != self.tail && curr_ref.key < key {
                    pred = curr;
                    curr = curr_ref.next[level].load(Ordering::Acquire);
                } else {
                    break;
                }
            }
            // SAFETY: as above.
            if found.is_none() && curr != self.tail && unsafe { &*curr }.key == key {
                found = Some(level);
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        found
    }
}

impl SessionOps for LazySkipList {
    fn collector(&self) -> Option<&Collector> {
        Some(&self.collector)
    }

    fn op_get(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        // Bind the session's pin explicitly: it keeps traversed towers
        // alive, and this fails loudly if `collector()` stops arming it.
        let _guard = cx.guard();
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        match self.find(key, &mut preds, &mut succs) {
            Some(level) => {
                // SAFETY: protected by the pinned epoch.
                let node = unsafe { &*succs[level] };
                if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire)
                {
                    Some(node.value)
                } else {
                    None
                }
            }
            None => None,
        }
    }

    fn op_insert(&self, key: u64, value: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        debug_assert_ne!(key, u64::MAX);
        let _guard = cx.guard();
        // Tower heights come from the session's own RNG: no thread-local
        // lookup per insert.
        let top_level = Self::random_level(cx.rng());
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        loop {
            if let Some(level) = self.find(key, &mut preds, &mut succs) {
                // SAFETY: protected by the pinned epoch.
                let node = unsafe { &*succs[level] };
                if !node.marked.load(Ordering::Acquire) {
                    // Wait for a concurrent inserter to finish linking, then
                    // report the key as already present.
                    while !node.fully_linked.load(Ordering::Acquire) {
                        core::hint::spin_loop();
                    }
                    return Some(node.value);
                }
                // The node is being removed; retry.
                core::hint::spin_loop();
                continue;
            }

            // Lock the predecessors bottom-up, skipping duplicates.
            let mut guards = Vec::with_capacity(top_level);
            let mut valid = true;
            let mut last_locked: *mut SkipNode = ptr::null_mut();
            for (level, (&pred, &succ)) in preds.iter().zip(&succs).enumerate().take(top_level) {
                if pred != last_locked {
                    // SAFETY: protected by the pinned epoch.
                    guards.push(lock(&unsafe { &*pred }.lock));
                    last_locked = pred;
                }
                // SAFETY: as above.
                let pred_ref = unsafe { &*pred };
                let succ_ref = unsafe { &*succ };
                if pred_ref.marked.load(Ordering::Acquire)
                    || succ_ref.marked.load(Ordering::Acquire)
                    || pred_ref.next[level].load(Ordering::Acquire) != succ
                {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue;
            }

            let node = SkipNode::new(key, value, top_level);
            // SAFETY: freshly allocated node; preds are locked and validated.
            unsafe {
                for (level, &succ) in succs.iter().enumerate().take(top_level) {
                    (*node).next[level].store(succ, Ordering::Release);
                }
                for (level, &pred) in preds.iter().enumerate().take(top_level) {
                    (*pred).next[level].store(node, Ordering::Release);
                }
                (*node).fully_linked.store(true, Ordering::Release);
            }
            return None;
        }
    }

    /// Native range scan: positions on the first node with key >= `lo` and
    /// walks the level-0 list until the key passes `hi`, skipping nodes that
    /// are marked or not yet fully linked.  Each element is individually
    /// linearizable (the list-order walk of the lazy-list literature); the
    /// result is not an atomic snapshot of the whole window.
    fn op_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, cx: &mut OpCx<'_>) {
        let _guard = cx.guard();
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        self.find(lo, &mut preds, &mut succs);
        let mut cur = succs[0];
        while cur != self.tail {
            // SAFETY: protected by the pinned epoch; unlinked nodes keep
            // valid next pointers until reclaimed.
            let node = unsafe { &*cur };
            if node.key > hi {
                break;
            }
            if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire) {
                out.push((node.key, node.value));
            }
            cur = node.next[0].load(Ordering::Acquire);
        }
    }

    fn op_delete(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        let guard = cx.guard();
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        let mut victim: *mut SkipNode = ptr::null_mut();
        let mut is_marked = false;
        let mut top_level = 0;
        loop {
            let found = self.find(key, &mut preds, &mut succs);
            if !is_marked {
                match found {
                    None => return None,
                    Some(level) => {
                        victim = succs[level];
                        // SAFETY: protected by the pinned epoch.
                        let v = unsafe { &*victim };
                        if !(v.fully_linked.load(Ordering::Acquire)
                            && v.top_level - 1 == level
                            && !v.marked.load(Ordering::Acquire))
                        {
                            return None;
                        }
                        top_level = v.top_level;
                    }
                }
            }
            // SAFETY: victim is protected by the pinned epoch.
            let v = unsafe { &*victim };
            let victim_guard = if !is_marked {
                let g = lock(&v.lock);
                if v.marked.load(Ordering::Acquire) {
                    return None;
                }
                v.marked.store(true, Ordering::Release);
                is_marked = true;
                Some(g)
            } else {
                Some(lock(&v.lock))
            };

            // Lock predecessors and validate.
            let mut guards = Vec::with_capacity(top_level);
            let mut valid = true;
            let mut last_locked: *mut SkipNode = ptr::null_mut();
            for (level, &pred) in preds.iter().enumerate().take(top_level) {
                if pred != last_locked {
                    // SAFETY: protected by the pinned epoch.
                    guards.push(lock(&unsafe { &*pred }.lock));
                    last_locked = pred;
                }
                // SAFETY: as above.
                let pred_ref = unsafe { &*pred };
                if pred_ref.marked.load(Ordering::Acquire)
                    || pred_ref.next[level].load(Ordering::Acquire) != victim
                {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(guards);
                drop(victim_guard);
                continue;
            }
            // Unlink top-down.
            // SAFETY: preds are locked and validated; victim is marked.
            unsafe {
                for level in (0..top_level).rev() {
                    (*preds[level]).next[level].store(
                        (*victim).next[level].load(Ordering::Acquire),
                        Ordering::Release,
                    );
                }
            }
            let value = v.value;
            drop(guards);
            drop(victim_guard);
            // SAFETY: the victim has been unlinked from every level.
            unsafe { guard.defer_drop(victim) };
            return Some(value);
        }
    }
}

impl ConcurrentMap for LazySkipList {
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(SessionHandle::try_new(self)?))
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        SessionOps::collector(self).map(Collector::stats)
    }
}

impl Drop for LazySkipList {
    fn drop(&mut self) {
        // Walk level 0 and free every node, including both sentinels.
        let mut cur = self.head;
        loop {
            let at_tail = cur == self.tail;
            // SAFETY: exclusive access during drop; each node freed once.
            let node = unsafe { Box::from_raw(cur) };
            if at_tail {
                break;
            }
            cur = node.next[0].load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::sync::Arc;

    #[test]
    fn sequential_oracle() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = LazySkipList::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..2_000u64);
            match rng.gen_range(0..3) {
                0 => {
                    let expected = oracle.get(&k).copied();
                    if expected.is_none() {
                        oracle.insert(k, k + 1);
                    }
                    assert_eq!(h.insert(k, k + 1), expected);
                }
                1 => assert_eq!(h.delete(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
        }
    }

    #[test]
    fn concurrent_key_sum_validation() {
        let t = Arc::new(LazySkipList::new());
        let mut h = t.handle();
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                let mut rng = StdRng::seed_from_u64(tid);
                let mut net: i128 = 0;
                for _ in 0..15_000 {
                    let k = rng.gen_range(0..1_000u64);
                    if rng.gen_bool(0.5) {
                        if h.insert(k, k).is_none() {
                            net += k as i128;
                        }
                    } else if h.delete(k).is_some() {
                        net -= k as i128;
                    }
                }
                net
            }));
        }
        let mut net = 0i128;
        for h in handles {
            net += h.join().unwrap();
        }
        // Sum the remaining keys through the map interface.
        let mut sum = 0i128;
        for k in 0..1_000u64 {
            if h.get(k).is_some() {
                sum += k as i128;
            }
        }
        assert_eq!(sum, net);
    }

    #[test]
    fn native_range_matches_collect() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = LazySkipList::new();
        let mut h = t.handle();
        for _ in 0..3_000 {
            let k = rng.gen_range(0..1_000u64);
            if rng.gen_bool(0.7) {
                h.insert(k, k * 2);
            } else {
                h.delete(k);
            }
        }
        let all = crate::entries(&t);
        let mut out = Vec::new();
        h.range(100, 899, &mut out);
        let expected: Vec<(u64, u64)> = all
            .iter()
            .copied()
            .filter(|&(k, _)| (100..=899).contains(&k))
            .collect();
        assert_eq!(out, expected);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        h.range(5, 2, &mut out);
        assert!(out.is_empty(), "lo > hi must be empty");
        assert_eq!(
            h.scan_len(100, 100),
            expected.iter().filter(|&&(k, _)| k < 200).count()
        );
    }

    #[test]
    fn towers_spread_across_levels() {
        let mut rng = HandleRng::from_seed(7);
        let mut max_seen = 0;
        for _ in 0..10_000 {
            max_seen = max_seen.max(LazySkipList::random_level(&mut rng));
        }
        assert!(max_seen > 5, "tower heights should vary, max={max_seen}");
        assert!(max_seen <= MAX_LEVEL);
    }
}
