//! A store wrapper that opens race windows: [`Stalling`] delegates every
//! operation to a correct inner structure, but its sessions pause — a
//! yield, or a short spin of pseudo-random length — just before and just
//! after the inner call.
//!
//! It breaks nothing: each operation still takes effect atomically inside
//! the inner call.  What it stretches is the code *around* the operation in
//! whatever layer holds the session — for kvserve, the stamp protocol's
//! windows between announcing a write and applying it, and between applying
//! it and counting it done — so interleavings that need a preemption inside
//! a hundred-nanosecond window on a quiet machine happen thousands of times
//! per second on any machine, one hardware thread included.  The recorded
//! stress tests mount the service on it so that a protocol that survives
//! has actually been raced, and a mutant that does not is flagged in a few
//! rounds rather than when the neighbours are noisy.

use abtree::{ConcurrentMap, MapHandle};

/// A wrapper whose sessions stall around every operation (module docs).
pub(crate) struct Stalling<M> {
    inner: M,
}

impl<M> Stalling<M> {
    /// Wraps `inner`.
    pub(crate) fn new(inner: M) -> Self {
        Self { inner }
    }
}

impl<M: ConcurrentMap> ConcurrentMap for Stalling<M> {
    fn try_handle(&self) -> Result<Box<dyn MapHandle + '_>, abebr::RegisterError> {
        let inner = self.inner.try_handle()?;
        // Seeded from the session's address: distinct per session, and no
        // shared state between sessions to serialize them.
        let seed = &*inner as *const dyn MapHandle as *const u8 as u64;
        Ok(Box::new(StallingHandle {
            inner,
            state: seed | 1,
        }))
    }

    fn ebr_stats(&self) -> Option<abebr::CollectorStats> {
        self.inner.ebr_stats()
    }
}

struct StallingHandle<'m> {
    inner: Box<dyn MapHandle + 'm>,
    state: u64,
}

impl StallingHandle<'_> {
    /// Half the time nothing; otherwise a yield (another runnable thread
    /// gets the core) or a spin (the other core gets ahead).
    fn stall(&mut self) {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        match self.state % 4 {
            0 => std::thread::yield_now(),
            1 => {
                for _ in 0..(self.state >> 8) % 256 {
                    std::hint::spin_loop();
                }
            }
            _ => {}
        }
    }

    fn stalled<T>(&mut self, op: impl FnOnce(&mut dyn MapHandle) -> T) -> T {
        self.stall();
        let result = op(&mut *self.inner);
        self.stall();
        result
    }
}

impl MapHandle for StallingHandle<'_> {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.stalled(|inner| inner.insert(key, value))
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.stalled(|inner| inner.delete(key))
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        self.stalled(|inner| inner.get(key))
    }

    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        self.stalled(|inner| inner.range(lo, hi, out))
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
    fn stalling_changes_no_result() {
        let map = Stalling::new(ElimABTree::new() as ElimABTree);
        let mut session = map.handle();
        for k in 0..200u64 {
            assert_eq!(session.insert(k, k + 1), None);
        }
        assert_eq!(session.insert(7, 0), Some(8));
        assert_eq!(session.delete(7), Some(8));
        assert_eq!(session.get(7), None);
        let mut out = Vec::new();
        session.range(5, 9, &mut out);
        assert_eq!(out, vec![(5, 6), (6, 7), (8, 9), (9, 10)]);
        drop(session);
        assert_eq!(map.key_sum(), (0..200u128).sum::<u128>() - 7);
    }
}
