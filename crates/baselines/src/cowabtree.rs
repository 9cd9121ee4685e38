//! Copy-on-update (a,b)-tree: the LF-ABtree stand-in.
//!
//! Brown's LF-ABtree (paper §2, "B-tree variants") is built from the same
//! relaxed (a,b)-tree as the OCC-ABtree, but its updates take a
//! read-copy-update approach: "inserting or deleting a key involves replacing
//! a tree node with a new copy".  The paper's analysis of its behaviour
//! (§6.1) rests entirely on that property — every update allocates and copies
//! a fat node, which is expensive on uniform update-heavy workloads but
//! performs well under skew where lock-based competitors convoy.
//!
//! This stand-in reproduces exactly that cost profile without the LLX/SCX
//! machinery: leaves are immutable fat nodes referenced from a routing layer;
//! an update builds a fresh copy of the leaf with the key added/removed and
//! installs it with a single compare-and-swap on the leaf pointer (retrying
//! on contention, as the LF-ABtree does when an SCX fails).  Leaves that grow
//! past the maximum size are split, and empty leaves are garbage collected,
//! under a writer lock on the routing layer.  Replaced leaves are reclaimed
//! through epoch-based reclamation.  See the crate docs for the substitution
//! rationale.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{PoisonError, RwLock};

use abebr::{Collector, Guard};
use abtree::{ConcurrentMap, MapHandle};

use crate::{read, write, OpCx, SessionHandle, SessionOps};

/// Maximum number of keys per leaf (matches the paper's b = 11).
const LEAF_CAP: usize = 11;

/// An immutable fat leaf.
struct CowLeaf {
    /// Sorted key/value pairs.
    entries: Vec<(u64, u64)>,
}

impl CowLeaf {
    fn find(&self, key: u64) -> Option<u64> {
        self.entries
            .binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// The copy-on-update (a,b)-tree.
pub struct CowABTree {
    /// Routing layer: each leaf's lower bound maps to a stable cell holding
    /// the current version of that leaf.
    inner: RwLock<BTreeMap<u64, Box<AtomicPtr<CowLeaf>>>>,
    collector: Collector,
}

// SAFETY: leaves are immutable once published and reclaimed through EBR; the
// routing layer is protected by the RwLock.
unsafe impl Send for CowABTree {}
unsafe impl Sync for CowABTree {}

impl Default for CowABTree {
    fn default() -> Self {
        Self::new()
    }
}

enum UpdateOutcome {
    Done(Option<u64>),
    NeedsSplit,
    Retry,
}

impl CowABTree {
    /// Creates an empty tree with one empty leaf covering the key space.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty tree reclaiming through an existing [`Collector`]
    /// (which selects the SMR backend — epochs or hazard pointers).
    pub fn with_collector(collector: Collector) -> Self {
        let mut map = BTreeMap::new();
        let leaf = Box::into_raw(Box::new(CowLeaf {
            entries: Vec::new(),
        }));
        map.insert(0u64, Box::new(AtomicPtr::new(leaf)));
        Self {
            inner: RwLock::new(map),
            collector,
        }
    }

    /// Attempts one copy-on-update of the leaf responsible for `key`.
    /// `guard` is the calling session's pin.
    fn try_update(
        &self,
        key: u64,
        guard: &Guard,
        mutate: impl Fn(&CowLeaf) -> Option<(Vec<(u64, u64)>, Option<u64>)>,
    ) -> UpdateOutcome {
        let inner = read(&self.inner);
        let (_, cell) = inner
            .range(..=key)
            .next_back()
            .expect("a leaf always covers every key");
        let current = cell.load(Ordering::Acquire);
        // SAFETY: the leaf is protected by the pinned epoch.
        let leaf = unsafe { &*current };
        match mutate(leaf) {
            None => UpdateOutcome::Done(leaf.find(key)),
            Some((new_entries, result)) => {
                if new_entries.len() > LEAF_CAP {
                    return UpdateOutcome::NeedsSplit;
                }
                let new_leaf = Box::into_raw(Box::new(CowLeaf {
                    entries: new_entries,
                }));
                match cell.compare_exchange(
                    current,
                    new_leaf,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // SAFETY: the old version was just unlinked.
                        unsafe { guard.defer_drop(current) };
                        UpdateOutcome::Done(result)
                    }
                    Err(_) => {
                        // SAFETY: never published; exclusively owned.
                        drop(unsafe { Box::from_raw(new_leaf) });
                        UpdateOutcome::Retry
                    }
                }
            }
        }
    }

    /// Splits the leaf responsible for `key` under the routing write lock.
    /// `guard` is the calling session's pin.
    fn split_leaf(&self, key: u64, guard: &Guard) {
        let mut inner = write(&self.inner);
        let (&lower, cell) = inner
            .range(..=key)
            .next_back()
            .expect("a leaf always covers every key");
        let current = cell.load(Ordering::Acquire);
        // SAFETY: protected by the pinned epoch (and the write lock excludes
        // concurrent splits).
        let leaf = unsafe { &*current };
        if leaf.entries.len() < LEAF_CAP {
            return; // someone already split or shrank it
        }
        let mid = leaf.entries.len() / 2;
        let split_key = leaf.entries[mid].0;
        let low = Box::into_raw(Box::new(CowLeaf {
            entries: leaf.entries[..mid].to_vec(),
        }));
        let high = Box::into_raw(Box::new(CowLeaf {
            entries: leaf.entries[mid..].to_vec(),
        }));
        cell.store(low, Ordering::Release);
        inner.insert(split_key, Box::new(AtomicPtr::new(high)));
        let _ = lower;
        // SAFETY: the old version was just unlinked.
        unsafe { guard.defer_drop(current) };
    }
}

impl SessionOps for CowABTree {
    fn collector(&self) -> Option<&Collector> {
        Some(&self.collector)
    }

    fn op_get(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        // Bind the session's pin explicitly: it keeps the leaf snapshot
        // alive, and this fails loudly if `collector()` stops arming it.
        let _guard = cx.guard();
        let inner = read(&self.inner);
        let (_, cell) = inner.range(..=key).next_back()?;
        // SAFETY: protected by the pinned epoch.
        let leaf = unsafe { &*cell.load(Ordering::Acquire) };
        leaf.find(key)
    }

    fn op_insert(&self, key: u64, value: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        loop {
            let outcome = self.try_update(key, cx.guard(), |leaf| {
                match leaf.entries.binary_search_by_key(&key, |e| e.0) {
                    Ok(_) => None, // already present: no copy needed
                    Err(pos) => {
                        let mut entries = leaf.entries.clone();
                        entries.insert(pos, (key, value));
                        Some((entries, None))
                    }
                }
            });
            match outcome {
                UpdateOutcome::Done(r) => return r,
                UpdateOutcome::NeedsSplit => self.split_leaf(key, cx.guard()),
                UpdateOutcome::Retry => continue,
            }
        }
    }

    /// Native range scan: walks the routing layer under the read lock from
    /// the leaf covering `lo` through the last leaf whose lower bound is
    /// <= `hi`.  Each fat leaf is an immutable snapshot, so the scan is
    /// atomic per leaf (and leaves arrive in key order, so the output needs
    /// no sort); concurrent copy-on-update installs make the cross-leaf
    /// composition per-element linearizable rather than a global snapshot.
    fn op_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, cx: &mut OpCx<'_>) {
        let _guard = cx.guard();
        let inner = read(&self.inner);
        let start = inner
            .range(..=lo)
            .next_back()
            .map(|(&bound, _)| bound)
            .unwrap_or(0);
        for cell in inner.range(start..=hi).map(|(_, cell)| cell) {
            // SAFETY: the leaf is protected by the pinned epoch.
            let leaf = unsafe { &*cell.load(Ordering::Acquire) };
            for &(k, v) in &leaf.entries {
                if k >= lo && k <= hi {
                    out.push((k, v));
                }
            }
        }
    }

    fn op_delete(&self, key: u64, cx: &mut OpCx<'_>) -> Option<u64> {
        loop {
            let outcome = self.try_update(key, cx.guard(), |leaf| {
                match leaf.entries.binary_search_by_key(&key, |e| e.0) {
                    Err(_) => None, // absent: no copy needed, find() reports None
                    Ok(pos) => {
                        let mut entries = leaf.entries.clone();
                        let (_, v) = entries.remove(pos);
                        Some((entries, Some(v)))
                    }
                }
            });
            match outcome {
                UpdateOutcome::Done(r) => return r,
                UpdateOutcome::NeedsSplit => self.split_leaf(key, cx.guard()),
                UpdateOutcome::Retry => continue,
            }
        }
    }
}

impl ConcurrentMap for CowABTree {
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        Box::new(SessionHandle::new(self))
    }

    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(SessionHandle::try_new(self)?))
    }

    fn name(&self) -> &'static str {
        "lf-abtree(cow)"
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        SessionOps::collector(self).map(Collector::stats)
    }
}

impl Drop for CowABTree {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        for cell in inner.values() {
            let ptr = cell.load(Ordering::Relaxed);
            if !ptr.is_null() {
                // SAFETY: exclusive access during drop.
                drop(unsafe { Box::from_raw(ptr) });
            }
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
        let t = CowABTree::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..2_000u64);
            if rng.gen_bool(0.5) {
                let expected = oracle.get(&k).copied();
                if expected.is_none() {
                    oracle.insert(k, k + 3);
                }
                assert_eq!(h.insert(k, k + 3), expected);
            } else {
                assert_eq!(h.delete(k), oracle.remove(&k));
            }
        }
        let got = crate::entries(&t);
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn deletion_of_absent_key_does_not_allocate_garbage() {
        let t = CowABTree::new();
        let mut h = t.handle();
        h.insert(1, 1);
        assert_eq!(h.delete(2), None);
        assert_eq!(h.get(1), Some(1));
    }

    #[test]
    fn native_range_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = CowABTree::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..5_000 {
            let k = rng.gen_range(0..2_000u64);
            if rng.gen_bool(0.6) {
                if h.insert(k, k + 7).is_none() {
                    oracle.insert(k, k + 7);
                }
            } else {
                h.delete(k);
                oracle.remove(&k);
            }
        }
        let mut out = Vec::new();
        // Window boundaries landing inside and between leaves.
        for (lo, hi) in [(0, 1_999), (250, 260), (1_990, 5_000), (7, 7), (9, 3)] {
            h.range(lo, hi, &mut out);
            let expected: Vec<(u64, u64)> = if lo > hi {
                Vec::new()
            } else {
                oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
            };
            assert_eq!(out, expected, "range({lo}, {hi})");
        }
        assert_eq!(h.scan_len(0, 2_000), oracle.len());
    }

    #[test]
    fn concurrent_key_sum_validation() {
        let t = Arc::new(CowABTree::new());
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
        assert_eq!(t.key_sum() as i128, net);
    }
}
