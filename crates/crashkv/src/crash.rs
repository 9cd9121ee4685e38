//! The crash model: what a simulated shard crash does, and what its
//! in-place recovery leaves behind for the durable-linearizability checker.
//!
//! A crash always happens at a **group-fence boundary** — inside a commit
//! that touches the shard, the instant the committing router would
//! otherwise issue its window's `sfence` — because that is the only instant
//! with a crisp durability contract: every operation acked before the
//! previous fence is durable; every operation executed since is *unfenced*
//! and its stores may or may not have reached persistent memory.
//! The injector models that window by keeping a seeded **prefix** of the
//! unfenced state-changing operations (flushes are issued in program order
//! by [`pabtree::RelaxedPersist`], so a prefix is the consistent cut) and
//! rolling the suffix back with exact inverse operations in reverse order.
//! Optionally one rolled-back insert is re-applied *torn* — key and value
//! stores persisted, version/size not ([`abtree`]'s `force_partial_insert`)
//! — and a link-and-persist dirty mark is left on the root link, so
//! [`pabtree::recover`] has real §5 damage to repair, not just a clean
//! image.

/// Where and how to crash one shard (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashSpec {
    /// Crash inside the first commit touching the shard after this many
    /// further commits on it have completed (0 = the very next one).  A
    /// boundary is one commit that touches the shard, however many of the
    /// window's operations land there.  Nothing fires on a quiet shard:
    /// an armed crash waits for the next commit that touches it.
    pub after_boundaries: u64,
    /// Seeds the surviving prefix of the unfenced window:
    /// `seed % (unfenced + 1)` operations survive, the rest roll back.
    pub survivor_seed: u64,
    /// Re-apply one rolled-back insert as a torn partial insert (persisted
    /// key/value stores, interrupted version/size update) so recovery must
    /// linearize it at the crash.
    pub torn_insert: bool,
    /// Leave a link-and-persist dirty mark on the root link for recovery to
    /// clear.
    pub dirty_link: bool,
}

/// What one crash + recovery cycle did, recorded by the committing router
/// before it answers the crashed window, and consumed by the ledger's
/// `crashkv.recover_us` / `crashkv.lost_*` rows.
#[derive(Debug, Clone, Copy)]
pub struct CrashReport {
    /// The crashed shard.
    pub shard: usize,
    /// Group-fence boundaries the shard had completed before the crash.
    pub boundary_index: u64,
    /// State-changing operations in the unfenced window at the crash.
    pub unfenced: usize,
    /// Prefix of the window that reached persistent memory (these
    /// operations linearized at the crash despite never being acked).
    pub survived: usize,
    /// Unacknowledged operations whose effects the crash destroyed.
    pub rolled_back: usize,
    /// Key of the torn partial insert, if one was injected.
    pub torn_insert: Option<u64>,
    /// Whether a dirty link-and-persist mark was present at recovery (it
    /// must be gone afterwards; the committing router asserts that).
    pub dirty_link: bool,
    /// What [`pabtree::recover`] found and repaired, including the
    /// wall-clock recovery time.
    pub recovery: pabtree::RecoveryReport,
}

/// The retryable error a client sees for an operation whose shard crashed
/// before the covering group fence: the operation **was not acknowledged**
/// and may or may not have taken effect (it linearizes at the crash or
/// vanishes — the durable-linearizability checker treats it as optional).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

impl std::fmt::Display for Crashed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard crashed before the covering group fence; the operation was not acknowledged"
        )
    }
}

impl std::error::Error for Crashed {}
