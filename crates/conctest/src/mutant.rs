//! The intentionally broken "torn scan" mutant (feature `torn-scan` only).
//!
//! [`TornScan`] wraps any correct structure and sabotages exactly one
//! guarantee: its range scans read the window in two halves with a
//! deliberate scheduling gap between them, so a concurrent writer can
//! mutate the window in the middle and the scan returns a state that never
//! existed — a *torn* scan.  Each half is individually correct (it is the
//! inner structure's own validated scan), which is what makes the tear the
//! interesting mutation: per-key checking cannot see it, only joint
//! snapshot checking can.
//!
//! This is the harness's proof of work: a checker that cannot flag
//! `TornScan<ElimABTree>` under the standard fuzz mix would be testing
//! nothing.  The mutation-detection test lives in `tests/mutation.rs` and
//! runs in CI as a dedicated `--features torn-scan` job; the feature gate
//! keeps the mutant out of every production dependency graph.

use abtree::{ConcurrentMap, MapHandle};

/// A wrapper whose `range` is torn in the middle (see the module docs).
#[derive(Debug, Default)]
pub struct TornScan<M> {
    inner: M,
}

impl<M> TornScan<M> {
    /// Wraps `inner`, breaking its scans.
    pub fn new(inner: M) -> Self {
        Self { inner }
    }
}

impl<M: ConcurrentMap> ConcurrentMap for TornScan<M> {
    fn handle(&self) -> Box<dyn MapHandle + '_> {
        Box::new(TornHandle {
            inner: self.inner.handle(),
        })
    }

    fn name(&self) -> &'static str {
        "torn-scan"
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        self.inner.ebr_stats()
    }
}

struct TornHandle<'m> {
    inner: Box<dyn MapHandle + 'm>,
}

impl MapHandle for TornHandle<'_> {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.inner.insert(key, value)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.inner.delete(key)
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        self.inner.get(key)
    }

    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        if lo >= hi {
            return self.inner.range(lo, hi, out);
        }
        // Two individually-correct half-window scans with a scheduling gap
        // between them.  The sleep guarantees the tear window opens even on
        // a single hardware thread, where a bare yield may return
        // immediately.
        let mid = lo + (hi - lo) / 2;
        self.inner.range(lo, mid, out);
        let low_half = std::mem::take(out);
        std::thread::yield_now();
        std::thread::sleep(std::time::Duration::from_micros(100));
        self.inner.range(mid + 1, hi, out);
        let mut merged = low_half;
        merged.append(out);
        *out = merged;
    }

    fn take_scan_buf(&mut self) -> Vec<(u64, u64)> {
        self.inner.take_scan_buf()
    }

    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>) {
        self.inner.put_scan_buf(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abtree::ElimABTree;

    #[test]
    fn torn_scans_are_sequentially_correct() {
        // Single-threaded the tear is invisible — that is the point: only
        // the concurrent checker can catch it.
        let torn = TornScan::new(ElimABTree::new() as ElimABTree);
        let mut session = torn.handle();
        for k in 0..50u64 {
            session.insert(k, k);
        }
        let mut out = Vec::new();
        session.range(10, 30, &mut out);
        assert_eq!(out.len(), 21);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        drop(session);
        assert_eq!(torn.name(), "torn-scan");
        assert_eq!(torn.key_sum(), (0..50u128).sum());
    }
}
