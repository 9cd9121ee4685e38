//! Simplified FPTree-style persistent B-tree baseline (Figure 17).
//!
//! The FPTree (Oukid et al., SIGMOD'16) keeps its inner nodes in DRAM and
//! only its leaves in persistent memory; each leaf stores a one-byte
//! *fingerprint* per key which is scanned before the keys themselves, a
//! validity bitmap, and unsorted key/value slots.  The original synchronizes
//! inner nodes with hardware transactional memory, which is unavailable
//! here; this reproduction protects the (volatile) inner structure with a
//! reader-writer lock and each leaf with a mutex, which reproduces the
//! scaling limitation the paper observes for the persistent comparison trees
//! (negative scaling under contention) while keeping the flush behaviour:
//! only leaf modifications are flushed, via the `abpmem` primitives.
//!
//! Recovery (rebuilding the volatile inner structure from the persistent
//! leaves) is out of scope for this baseline — Figure 17 measures steady-state
//! throughput only; see the substitution note in the crate docs.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, RwLock};

use abtree::{ConcurrentMap, MapHandle};

use crate::{lock, read, write, OpCx, SessionHandle, SessionOps};

/// Number of key slots per leaf (the original uses larger leaves than the
/// (a,b)-trees; 32 keeps splits reasonably rare).
const LEAF_CAP: usize = 32;

/// One persistent leaf.
struct FpLeaf {
    data: Mutex<FpLeafData>,
}

struct FpLeafData {
    /// Validity bitmap: bit `i` set means slot `i` holds a live pair.
    bitmap: u32,
    /// One-byte hashes of the keys, scanned before the keys themselves.
    fingerprints: [u8; LEAF_CAP],
    keys: [u64; LEAF_CAP],
    vals: [u64; LEAF_CAP],
}

impl FpLeafData {
    fn new() -> Self {
        Self {
            bitmap: 0,
            fingerprints: [0; LEAF_CAP],
            keys: [0; LEAF_CAP],
            vals: [0; LEAF_CAP],
        }
    }

    fn len(&self) -> usize {
        self.bitmap.count_ones() as usize
    }

    /// Scans fingerprints first (the FPTree's key optimization), confirming
    /// on the full key only when the fingerprint matches.
    fn find(&self, key: u64, fp: u8) -> Option<usize> {
        (0..LEAF_CAP).find(|&i| {
            self.bitmap & (1 << i) != 0 && self.fingerprints[i] == fp && self.keys[i] == key
        })
    }

    fn free_slot(&self) -> Option<usize> {
        (0..LEAF_CAP).find(|&i| self.bitmap & (1 << i) == 0)
    }

    /// The live pairs, in slot order (unsorted).
    fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..LEAF_CAP)
            .filter(|&i| self.bitmap & (1 << i) != 0)
            .map(|i| (self.keys[i], self.vals[i]))
    }
}

/// Computes the one-byte fingerprint of a key.
fn fingerprint(key: u64) -> u8 {
    // Simple multiplicative hash, top byte.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// Simplified FPTree: persistent fingerprinted leaves indexed by a volatile
/// ordered map under a reader-writer lock.
pub struct FpTree {
    /// Maps each leaf's lower bound to the leaf.  Leaf `i` owns keys in
    /// `[lower_i, lower_{i+1})`.
    inner: RwLock<BTreeMap<u64, Box<FpLeaf>>>,
    /// Count of leaf splits (diagnostics).
    splits: std::sync::atomic::AtomicU64,
}

impl Default for FpTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FpTree {
    /// Creates an empty tree with a single leaf covering the whole key space.
    pub fn new() -> Self {
        let mut map = BTreeMap::new();
        map.insert(
            0u64,
            Box::new(FpLeaf {
                data: Mutex::new(FpLeafData::new()),
            }),
        );
        Self {
            inner: RwLock::new(map),
            splits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of leaf splits performed so far.
    pub fn split_count(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Splits the (full) leaf responsible for `key`.  Takes the inner write
    /// lock, so it serializes with every other operation.
    fn split_leaf(&self, key: u64) {
        let mut inner = write(&self.inner);
        let (&lower, leaf) = inner
            .range(..=key)
            .next_back()
            .expect("a leaf always covers every key");
        let mut entries = {
            let data = lock(&leaf.data);
            if data.len() < LEAF_CAP {
                // Someone else already split (or removed keys); nothing to do.
                return;
            }
            data.entries().collect::<Vec<_>>()
        };
        entries.sort_unstable_by_key(|e| e.0);
        let mid = entries.len() / 2;
        let split_key = entries[mid].0;

        let build = |slice: &[(u64, u64)]| {
            let mut data = FpLeafData::new();
            for (i, &(k, v)) in slice.iter().enumerate() {
                data.bitmap |= 1 << i;
                data.fingerprints[i] = fingerprint(k);
                data.keys[i] = k;
                data.vals[i] = v;
            }
            // Persist the freshly built leaf before publishing it.
            abpmem::flush(
                &data as *const FpLeafData as *const u8,
                std::mem::size_of::<FpLeafData>(),
            );
            Box::new(FpLeaf {
                data: Mutex::new(data),
            })
        };
        let low = build(&entries[..mid]);
        let high = build(&entries[mid..]);
        abpmem::sfence();

        inner.remove(&lower);
        inner.insert(lower, low);
        inner.insert(split_key, high);
        self.splits.fetch_add(1, Ordering::Relaxed);
    }
}

impl SessionOps for FpTree {
    fn op_get(&self, key: u64, _cx: &mut OpCx<'_>) -> Option<u64> {
        let inner = read(&self.inner);
        let (_, leaf) = inner.range(..=key).next_back()?;
        let data = lock(&leaf.data);
        data.find(key, fingerprint(key)).map(|i| data.vals[i])
    }

    fn op_insert(&self, key: u64, value: u64, _cx: &mut OpCx<'_>) -> Option<u64> {
        loop {
            {
                let inner = read(&self.inner);
                let (_, leaf) = inner
                    .range(..=key)
                    .next_back()
                    .expect("a leaf always covers every key");
                let mut data = lock(&leaf.data);
                let fp = fingerprint(key);
                if let Some(i) = data.find(key, fp) {
                    return Some(data.vals[i]);
                }
                if let Some(slot) = data.free_slot() {
                    data.vals[slot] = value;
                    data.keys[slot] = key;
                    data.fingerprints[slot] = fp;
                    // Flush the new pair, then atomically validate it by
                    // flipping (and flushing) the bitmap bit — the FPTree's
                    // commit protocol.
                    abpmem::persist(&data.keys[slot] as *const u64 as *const u8, 16);
                    data.bitmap |= 1 << slot;
                    abpmem::persist(&data.bitmap as *const u32 as *const u8, 4);
                    return None;
                }
            }
            // Leaf full: split under the write lock and retry.
            self.split_leaf(key);
        }
    }

    fn op_delete(&self, key: u64, _cx: &mut OpCx<'_>) -> Option<u64> {
        let inner = read(&self.inner);
        let (_, leaf) = inner.range(..=key).next_back()?;
        let mut data = lock(&leaf.data);
        match data.find(key, fingerprint(key)) {
            None => None,
            Some(i) => {
                let value = data.vals[i];
                // Deletes only invalidate (and flush) the bitmap bit.
                data.bitmap &= !(1 << i);
                abpmem::persist(&data.bitmap as *const u32 as *const u8, 4);
                Some(value)
            }
        }
    }

    /// Under the inner read lock, which keeps splits out, visits the leaves
    /// from the one covering `lo` through the last one starting at or
    /// below `hi`, each under its own lock, then sorts: leaves keep their
    /// slots unsorted.
    fn op_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>, _cx: &mut OpCx<'_>) {
        let inner = read(&self.inner);
        let (&start, _) = inner
            .range(..=lo)
            .next_back()
            .expect("a leaf always covers every key");
        for leaf in inner.range(start..=hi).map(|(_, leaf)| leaf) {
            let data = lock(&leaf.data);
            out.extend(data.entries().filter(|(key, _)| (lo..=hi).contains(key)));
        }
        out.sort_unstable_by_key(|e| e.0);
    }
}

impl ConcurrentMap for FpTree {
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        Ok(Box::new(SessionHandle::try_new(self)?))
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
        let t = FpTree::new();
        let mut h = t.handle();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..2_000u64);
            if rng.gen_bool(0.5) {
                let expected = oracle.get(&k).copied();
                if expected.is_none() {
                    oracle.insert(k, k + 9);
                }
                assert_eq!(h.insert(k, k + 9), expected);
            } else {
                assert_eq!(h.delete(k), oracle.remove(&k));
            }
        }
        let got = crate::entries(&t);
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(got, expected);
        assert!(t.split_count() > 0, "the workload should split leaves");
    }

    #[test]
    fn fingerprints_do_not_cause_false_negatives() {
        let t = FpTree::new();
        let mut h = t.handle();
        // Keys engineered to stress fingerprint collisions within one leaf.
        for k in 0..1_000u64 {
            h.insert(k * 256, k);
        }
        for k in 0..1_000u64 {
            assert_eq!(h.get(k * 256), Some(k));
        }
    }

    #[test]
    fn concurrent_key_sum_validation() {
        let t = Arc::new(FpTree::new());
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                let mut rng = StdRng::seed_from_u64(tid);
                let mut net: i128 = 0;
                for _ in 0..15_000 {
                    let k = rng.gen_range(0..2_000u64);
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
