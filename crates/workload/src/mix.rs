//! Operation mixes.
//!
//! The paper's microbenchmark (§6.1) parameterizes each run by an *update
//! percentage* `x`: each thread repeatedly picks an operation that is an
//! insert with probability `x/2`, a delete with probability `x/2`, and a
//! `find` otherwise.  The prefill phase relies on inserts and deletes being
//! equally likely so the steady-state size is half the key range.
//!
//! Two extensions widen the mix beyond the paper's three point operations:
//!
//! * the scan subsystem added [`Operation::Scan`] (a range scan whose start
//!   key comes from the key distribution and whose length the caller
//!   samples separately);
//! * the `kvserve` service layer added the batched [`Operation::MGet`] and
//!   [`Operation::MPut`] (a multi-get / multi-put whose key count the driver
//!   chooses), which model the request batching a key-value front-end
//!   performs.
//!
//! Scans and batches take their shares out of the find percentage.
//!
//! A mix is only constructible through validating constructors: the six
//! percentages must sum to exactly 100, otherwise [`OperationMix::sample`]
//! would silently skew the drawn proportions.  [`OperationMix::try_new`]
//! surfaces the violation as a [`MixError`]; the panicking constructors
//! wrap it.

use rand::Rng;

/// One dictionary operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// `insert(key, value)`.
    Insert,
    /// `delete(key)`.
    Delete,
    /// `find(key)`.
    Find,
    /// `range(key, key + len)` — a range scan starting at the drawn key.
    Scan,
    /// `mget(keys)` — a batched multi-get (the driver draws the keys).
    MGet,
    /// `mput(pairs)` — a batched multi-put (the driver draws the
    /// pairs).
    MPut,
}

/// Why a set of operation percentages does not form a valid mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixError {
    /// The percentages do not sum to 100 (the offending total; `None` when
    /// the sum itself overflowed `u32`).
    BadSum(Option<u32>),
}

impl std::fmt::Display for MixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MixError::BadSum(Some(total)) => write!(
                f,
                "insert/delete/find/scan/mget/mput percentages must sum to 100, got {total}"
            ),
            MixError::BadSum(None) => write!(
                f,
                "insert/delete/find/scan/mget/mput percentages must sum to 100, \
                 sum overflows u32"
            ),
        }
    }
}

impl std::error::Error for MixError {}

/// A probability mix over the six operations (percentages sum to 100).
///
/// The fields are private so that every constructed mix satisfies the
/// sum-to-100 invariant that [`sample`](Self::sample) depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperationMix {
    insert_pct: u32,
    delete_pct: u32,
    find_pct: u32,
    scan_pct: u32,
    mget_pct: u32,
    mput_pct: u32,
}

impl OperationMix {
    /// Builds a mix from explicit percentages for all six operations,
    /// validating that they sum to exactly 100.
    pub fn try_new(
        insert_pct: u32,
        delete_pct: u32,
        find_pct: u32,
        scan_pct: u32,
        mget_pct: u32,
        mput_pct: u32,
    ) -> Result<Self, MixError> {
        let total = [delete_pct, find_pct, scan_pct, mget_pct, mput_pct]
            .iter()
            .try_fold(insert_pct, |sum, &pct| sum.checked_add(pct));
        match total {
            Some(100) => Ok(Self {
                insert_pct,
                delete_pct,
                find_pct,
                scan_pct,
                mget_pct,
                mput_pct,
            }),
            other => Err(MixError::BadSum(other)),
        }
    }

    /// The paper's convention: `update_percent` updates split evenly between
    /// inserts and deletes, the rest finds.  Odd percentages give the extra
    /// 1% to inserts.
    pub fn from_update_percent(update_percent: u32) -> Self {
        Self::from_shares(update_percent, 0, 0, 0)
    }

    /// The general form: `update_percent` updates split evenly
    /// between inserts and deletes, `scan_percent` range scans,
    /// `mget_percent` multi-gets and `mput_percent` multi-puts, the rest
    /// finds.  Panics if the shares exceed 100.
    pub fn from_shares(
        update_percent: u32,
        scan_percent: u32,
        mget_percent: u32,
        mput_percent: u32,
    ) -> Self {
        let taken = update_percent
            .saturating_add(scan_percent)
            .saturating_add(mget_percent)
            .saturating_add(mput_percent);
        assert!(
            update_percent <= 100 && taken <= 100,
            "update% + scan% + mget% + mput% must not exceed 100"
        );
        let delete = update_percent / 2;
        let insert = update_percent - delete;
        Self::try_new(
            insert,
            delete,
            100 - taken,
            scan_percent,
            mget_percent,
            mput_percent,
        )
        .expect("percentages sum to 100 by construction")
    }

    /// Percentage of inserts.
    pub fn insert_pct(&self) -> u32 {
        self.insert_pct
    }

    /// Percentage of deletes.
    pub fn delete_pct(&self) -> u32 {
        self.delete_pct
    }

    /// Percentage of finds.
    pub fn find_pct(&self) -> u32 {
        self.find_pct
    }

    /// Percentage of range scans.
    pub fn scan_pct(&self) -> u32 {
        self.scan_pct
    }

    /// Percentage of batched multi-gets.
    pub fn mget_pct(&self) -> u32 {
        self.mget_pct
    }

    /// Percentage of batched multi-puts.
    pub fn mput_pct(&self) -> u32 {
        self.mput_pct
    }

    /// Total update percentage (inserts + deletes).
    pub fn update_percent(&self) -> u32 {
        self.insert_pct + self.delete_pct
    }

    /// Samples an operation kind.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Operation {
        let p = rng.gen_range(0..100u32);
        let mut bound = self.insert_pct;
        if p < bound {
            return Operation::Insert;
        }
        bound += self.delete_pct;
        if p < bound {
            return Operation::Delete;
        }
        bound += self.find_pct;
        if p < bound {
            return Operation::Find;
        }
        bound += self.scan_pct;
        if p < bound {
            return Operation::Scan;
        }
        bound += self.mget_pct;
        if p < bound {
            return Operation::MGet;
        }
        Operation::MPut
    }

    /// Label such as `"u50"` (or `"u5s30"` for a scan mix, `"u10mg20mp10"`
    /// for a batched mix) used in benchmark output.
    pub fn label(&self) -> String {
        let mut label = format!("u{}", self.update_percent());
        if self.scan_pct > 0 {
            label.push_str(&format!("s{}", self.scan_pct));
        }
        if self.mget_pct > 0 {
            label.push_str(&format!("mg{}", self.mget_pct));
        }
        if self.mput_pct > 0 {
            label.push_str(&format!("mp{}", self.mput_pct));
        }
        label
    }
}

/// Lists all six operation percentages, e.g.
/// `insert 25% / delete 25% / find 40% / scan 10% / mget 0% / mput 0%`.
impl std::fmt::Display for OperationMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "insert {}% / delete {}% / find {}% / scan {}% / mget {}% / mput {}%",
            self.insert_pct,
            self.delete_pct,
            self.find_pct,
            self.scan_pct,
            self.mget_pct,
            self.mput_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_update_percent_splits_evenly() {
        let m = OperationMix::from_update_percent(50);
        assert_eq!(m.insert_pct(), 25);
        assert_eq!(m.delete_pct(), 25);
        assert_eq!(m.find_pct(), 50);
        assert_eq!(m.scan_pct(), 0);
        assert_eq!(m.mget_pct(), 0);
        assert_eq!(m.mput_pct(), 0);
        assert_eq!(m.update_percent(), 50);
        assert_eq!(m.label(), "u50");
    }

    #[test]
    fn odd_update_percent() {
        let m = OperationMix::from_update_percent(5);
        assert_eq!(m.insert_pct() + m.delete_pct(), 5);
        assert_eq!(m.find_pct(), 95);
    }

    #[test]
    fn scan_mix_takes_share_from_finds() {
        let m = OperationMix::from_shares(10, 60, 0, 0);
        assert_eq!(m.insert_pct(), 5);
        assert_eq!(m.delete_pct(), 5);
        assert_eq!(m.find_pct(), 30);
        assert_eq!(m.scan_pct(), 60);
        assert_eq!(m.label(), "u10s60");
    }

    #[test]
    fn batch_mix_takes_share_from_finds() {
        let m = OperationMix::from_shares(10, 5, 20, 15);
        assert_eq!(m.insert_pct(), 5);
        assert_eq!(m.delete_pct(), 5);
        assert_eq!(m.find_pct(), 50);
        assert_eq!(m.scan_pct(), 5);
        assert_eq!(m.mget_pct(), 20);
        assert_eq!(m.mput_pct(), 15);
        assert_eq!(m.label(), "u10s5mg20mp15");
    }

    #[test]
    fn extremes() {
        let all = OperationMix::from_update_percent(100);
        assert_eq!(all.find_pct(), 0);
        let none = OperationMix::from_update_percent(0);
        assert_eq!(none.insert_pct(), 0);
        assert_eq!(none.delete_pct(), 0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(none.sample(&mut rng), Operation::Find);
        }
        let scans_only = OperationMix::from_shares(0, 100, 0, 0);
        for _ in 0..100 {
            assert_eq!(scans_only.sample(&mut rng), Operation::Scan);
        }
        let mputs_only = OperationMix::from_shares(0, 0, 0, 100);
        for _ in 0..100 {
            assert_eq!(mputs_only.sample(&mut rng), Operation::MPut);
        }
    }

    /// `from_shares` edge cases: zero shares degrade to a find-only mix,
    /// single-share extremes leave no finds, and a fully subscribed budget
    /// (shares summing to exactly 100) is accepted with zero finds.
    #[test]
    fn from_shares_edge_cases() {
        let none = OperationMix::from_shares(0, 0, 0, 0);
        assert_eq!(none.find_pct(), 100, "zero shares mean all finds");
        assert_eq!(none.update_percent(), 0);
        assert_eq!(none.label(), "u0");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            assert_eq!(none.sample(&mut rng), Operation::Find);
        }

        // Each share can individually consume the whole budget.
        let all_updates = OperationMix::from_shares(100, 0, 0, 0);
        assert_eq!(all_updates.find_pct(), 0);
        assert_eq!(all_updates.insert_pct(), 50);
        assert_eq!(all_updates.delete_pct(), 50);
        let all_scans = OperationMix::from_shares(0, 100, 0, 0);
        assert_eq!(all_scans.scan_pct(), 100);
        let all_mgets = OperationMix::from_shares(0, 0, 100, 0);
        assert_eq!(all_mgets.mget_pct(), 100);

        // Exactly subscribed (sums to 100): accepted, zero finds.
        let full = OperationMix::from_shares(40, 30, 20, 10);
        assert_eq!(full.find_pct(), 0);
        assert_eq!(full.insert_pct() + full.delete_pct(), 40);
        assert_eq!(full.label(), "u40s30mg20mp10");

        // Odd update split gives the extra point to inserts.
        let odd = OperationMix::from_shares(1, 0, 0, 0);
        assert_eq!((odd.insert_pct(), odd.delete_pct()), (1, 0));
    }

    /// One past the budget must panic, for each share position.
    #[test]
    fn from_shares_rejects_oversubscription_in_every_position() {
        for (u, s, g, p) in [
            (101, 0, 0, 0),
            (0, 101, 0, 0),
            (0, 0, 101, 0),
            (0, 0, 0, 101),
            (97, 2, 1, 1),
        ] {
            let result = std::panic::catch_unwind(|| OperationMix::from_shares(u, s, g, p));
            assert!(result.is_err(), "shares ({u},{s},{g},{p}) must panic");
        }
        // u32 overflow in the share sum must not wrap into a valid total.
        let result =
            std::panic::catch_unwind(|| OperationMix::from_shares(u32::MAX, u32::MAX, 2, 0));
        assert!(result.is_err(), "overflowing shares must panic");
    }

    /// The sum-to-100 error text names all six operations, so a user who
    /// mis-specifies any share can see the full budget being validated.
    #[test]
    fn bad_sum_error_lists_all_six_operations() {
        for bad in [
            OperationMix::try_new(0, 0, 0, 0, 0, 0).unwrap_err(),
            OperationMix::try_new(10, 10, 10, 10, 10, 10).unwrap_err(),
            OperationMix::try_new(u32::MAX, 0, 0, 0, 0, 1).unwrap_err(),
        ] {
            let text = bad.to_string();
            for op in ["insert", "delete", "find", "scan", "mget", "mput"] {
                assert!(text.contains(op), "`{text}` omits {op}");
            }
            assert!(text.contains("100"), "`{text}` does not name the target");
        }
    }

    #[test]
    fn try_new_rejects_bad_sums() {
        assert_eq!(
            OperationMix::try_new(50, 50, 50, 0, 0, 0),
            Err(MixError::BadSum(Some(150)))
        );
        assert_eq!(
            OperationMix::try_new(10, 10, 10, 10, 5, 5),
            Err(MixError::BadSum(Some(50)))
        );
        assert_eq!(
            OperationMix::try_new(u32::MAX, 1, 0, 0, 0, 0),
            Err(MixError::BadSum(None)),
            "overflowing sums must be rejected, not wrapped"
        );
        let err = OperationMix::try_new(0, 0, 0, 0, 0, 0).unwrap_err();
        assert!(err.to_string().contains("sum to 100"), "{err}");
        // The error text names every operation in the mix.
        for op in ["insert", "delete", "find", "scan", "mget", "mput"] {
            assert!(err.to_string().contains(op), "error omits {op}: {err}");
        }
        assert!(OperationMix::try_new(20, 20, 20, 20, 10, 10).is_ok());
    }

    #[test]
    fn display_lists_all_six_operations() {
        let m = OperationMix::from_shares(50, 10, 5, 5);
        let text = m.to_string();
        for part in [
            "insert 25%",
            "delete 25%",
            "find 30%",
            "scan 10%",
            "mget 5%",
            "mput 5%",
        ] {
            assert!(text.contains(part), "Display omits `{part}`: {text}");
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed 100")]
    fn oversubscribed_scan_share_panics() {
        OperationMix::from_shares(60, 50, 0, 0);
    }

    #[test]
    #[should_panic(expected = "must not exceed 100")]
    fn oversubscribed_batch_share_panics() {
        OperationMix::from_shares(60, 20, 20, 10);
    }

    #[test]
    fn sampling_respects_proportions() {
        let m = OperationMix::from_shares(20, 10, 10, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 6];
        for _ in 0..100_000 {
            let slot = match m.sample(&mut rng) {
                Operation::Insert => 0,
                Operation::Delete => 1,
                Operation::Find => 2,
                Operation::Scan => 3,
                Operation::MGet => 4,
                Operation::MPut => 5,
            };
            counts[slot] += 1;
        }
        let expected = [10, 10, 50, 10, 10, 10];
        for (i, (&got, want_pct)) in counts.iter().zip(expected).enumerate() {
            let want = want_pct * 1_000;
            assert!(
                (want * 9 / 10..=want * 11 / 10).contains(&got),
                "op {i}: got {got}, want ~{want}"
            );
        }
    }
}
