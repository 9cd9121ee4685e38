//! Prefilling to the steady-state size.
//!
//! The paper (§6, "Methodology"): "Each experiment run starts with a
//! prefilling phase, in which a random subset of 8-byte keys and values are
//! inserted into the data structure until the data structure size reaches its
//! expected steady-state size (half of the key range, since the proportions
//! of inserts and deletes are equal in our experiments)."

use rand::Rng;

/// Outcome of a prefill phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefillReport {
    /// Number of keys successfully inserted (== the target size).
    pub inserted: u64,
    /// Number of insert attempts that found the key already present.
    pub duplicates: u64,
}

/// Inserts uniformly random keys (with value = key) through `insert` until
/// `target` distinct keys have been inserted.  `insert` must return `true`
/// when the key was newly inserted and `false` when it was already present.
///
/// With the session-handle map API, the closure is typically backed by the
/// calling thread's own session, e.g.
/// `|k, v| session.insert(k, v).is_none()` where `session` is the
/// `abtree::MapHandle` the worker opened for its whole run (the layer
/// ledger under `bench/` prefills this way; the `setbench` harness loads
/// through its own loop, `harness::load`).
pub fn prefill<R: Rng + ?Sized>(
    rng: &mut R,
    key_range: u64,
    target: u64,
    mut insert: impl FnMut(u64, u64) -> bool,
) -> PrefillReport {
    assert!(target <= key_range, "cannot prefill beyond the key range");
    let mut report = PrefillReport::default();
    // Random-subset phase: efficient while the structure is sparse.
    while report.inserted < target {
        // Once the remaining fraction is small, switch to a scan so the tail
        // does not degenerate into coupon collecting.
        if report.inserted * 4 >= target * 3 && target * 2 >= key_range {
            for key in 0..key_range {
                if report.inserted >= target {
                    break;
                }
                if insert(key, key) {
                    report.inserted += 1;
                } else {
                    report.duplicates += 1;
                }
            }
            break;
        }
        let key = rng.gen_range(0..key_range);
        if insert(key, key) {
            report.inserted += 1;
        } else {
            report.duplicates += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn prefill_reaches_exact_target() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut set = HashSet::new();
        let report = prefill(&mut rng, 10_000, 5_000, |k, _v| set.insert(k));
        assert_eq!(report.inserted, 5_000);
        assert_eq!(set.len(), 5_000);
    }

    #[test]
    fn prefill_full_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut set = HashSet::new();
        let report = prefill(&mut rng, 2_000, 2_000, |k, _v| set.insert(k));
        assert_eq!(report.inserted, 2_000);
        assert_eq!(set.len(), 2_000);
    }

    #[test]
    fn prefill_small_target_keeps_random_subset() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut set = HashSet::new();
        prefill(&mut rng, 1_000_000, 100, |k, _v| set.insert(k));
        assert_eq!(set.len(), 100);
        // A random subset of a huge range should not be the first 100 keys.
        assert!(set.iter().any(|&k| k >= 100));
    }
}
