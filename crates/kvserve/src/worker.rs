//! Executing writes against the service's tree: every router runs every
//! request on its own [`abtree::MapHandle`] session on that tree, and its
//! point requests and multi-puts through the functions here.
//!
//! The tree is a linearizable concurrent map that any thread may update
//! (paper §3–§4), so the routers need no coordination for the *map*: no
//! owner thread, no lane, no hand-off.  What they share is the stamp
//! protocol below, which keeps every router's hot-key cache linearizable
//! while the others write.
//!
//! ## The begun/done stamps and the hot-key cache
//!
//! The tree's mutators — every router's calls — run concurrently, so no
//! single writer's count describes a state.  [`ShardState`], one per
//! service, keeps two `SeqCst` counters instead, and every execution path
//! goes through [`ShardState::mutate`] and [`ShardState::read_stamp`]:
//!
//! * a **writer** announces itself (`before = begun.fetch_add(1)`), notes
//!   whether the tree was quiet at that point (`done == before`), runs the
//!   tree operation, and then either counts a real mutation
//!   (`done.fetch_add(1)`) or withdraws a no-op's announcement
//!   (`begun.fetch_sub(1)` — an insert that found the key, a delete that
//!   found nothing).  Only then may its reply leave.
//! * `begun - done` is therefore the number of writers in flight, and the
//!   service is **quiescent** whenever the two are equal: every mutation
//!   ever announced has completed, and the common value `s` names that
//!   state.  A *stamp* is such an `s`.
//! * a **read** gets a stamp only if the service is quiescent *before* the
//!   tree read (`done`, then `begun`, equal).
//! * a **write's** post-state gets a stamp only if the write ran alone:
//!   quiet at its start, and afterwards `begun` is exactly its own
//!   announcement (`before + 1`, stamp `before + 1`) or, for a no-op, back
//!   at `before` (stamp `before`).
//! * a router's [`crate::cache::ReadCache`] entry `(key, value, s)` **hits**
//!   while `begun == s` — one load.
//!
//! Why a hit is linearizable: a valid stamp `s` was taken at a quiescent
//! instant `q` with `s` mutations begun and all of them done, and the
//! cached value is the key's state at `q` (a stamped read starts after `q`;
//! a stamped write is the only mutation in flight between its own quiet
//! start and `q`).  Real mutations only ever add to `begun`, and a no-op
//! subtracts only what it added, so `begun == s` at a later instant means
//! no real mutation has so much as *begun* since `q`: the state is still
//! the one cached, and the hit linearizes at its `begun` load.  A value
//! read while some writer was in flight may be stale, but it was stored
//! without a stamp (or under an `s` that `begun` has left for good) and is
//! never served.  No-op writes leave `begun` where it was, so a Zipf-hot
//! key that absorbs failed inserts does not shed its cache entries.
//!
//! Why the quiet check sits at the *start* of a write as well: checking
//! only afterwards lets a writer that was already pending when this one
//! announced itself finish in the middle of it — overwriting this write's
//! key after this write's tree operation — and still leave `done` and
//! `begun` looking as if this write had been alone (`done.fetch_add`
//! returns `before`, `begun == before + 1`).  The stale post-state would be
//! stamped with the new quiescent value and served.  `done == before` at
//! the start rules it out: every earlier announcement has completed before
//! this write's tree operation begins.  (The `stale-stamp` feature compiles
//! exactly that end-only variant, for conctest's mutation test.)

use std::sync::atomic::{AtomicU64, Ordering};

use abtree::MapHandle;

use crate::request::Request;

/// The point-request kinds.
#[derive(Clone, Copy)]
pub(crate) enum PointOp {
    Get,
    Put,
    Delete,
}

impl PointOp {
    /// `request` as `(op, key, value)` if it is a point request (`value`
    /// is 0 for the kinds that carry none).
    pub(crate) fn of(request: &Request) -> Option<(PointOp, u64, u64)> {
        match *request {
            Request::Get { key } => Some((PointOp::Get, key, 0)),
            Request::Put { key, value } => Some((PointOp::Put, key, value)),
            Request::Delete { key } => Some((PointOp::Delete, key, 0)),
            _ => None,
        }
    }
}

/// The stamp protocol's state of the service, shared by every router.
pub(crate) struct ShardState {
    /// Writers announced and not withdrawn; see the module docs.
    begun: AtomicU64,
    /// Real mutations completed.
    done: AtomicU64,
}

impl ShardState {
    pub(crate) fn new() -> Self {
        Self {
            begun: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }
    }

    /// The service's completed-mutation count (`kv_shard_version`).
    #[inline]
    pub(crate) fn current_version(&self) -> u64 {
        self.done.load(Ordering::SeqCst)
    }

    /// What a cache entry's stamp must equal to hit.
    #[inline]
    pub(crate) fn begun(&self) -> u64 {
        self.begun.load(Ordering::SeqCst)
    }

    /// The stamp for a read about to start: the quiescent state, if the
    /// service is in one.
    #[inline]
    pub(crate) fn read_stamp(&self) -> Option<u64> {
        let done = self.done.load(Ordering::SeqCst);
        (self.begun.load(Ordering::SeqCst) == done).then_some(done)
    }

    /// Runs one write under the announce / complete-or-withdraw protocol.
    /// `op` returns its result and whether it changed the map; the stamp is
    /// the state the write's post-state is exact at, if it ran alone.
    #[inline]
    pub(crate) fn mutate<T>(&self, op: impl FnOnce() -> (T, bool)) -> (T, Option<u64>) {
        let before = self.begun.fetch_add(1, Ordering::SeqCst);
        let quiet = cfg!(feature = "stale-stamp") || self.done.load(Ordering::SeqCst) == before;
        let (result, mutated) = op();
        let stamp = if mutated {
            let finished = self.done.fetch_add(1, Ordering::SeqCst);
            (quiet && finished == before && self.begun.load(Ordering::SeqCst) == before + 1)
                .then_some(before + 1)
        } else {
            let announced = self.begun.fetch_sub(1, Ordering::SeqCst);
            (quiet && announced == before + 1).then_some(before)
        };
        (result, stamp)
    }
}

/// Executes one point request on `handle` under the stamp protocol (module
/// docs): its result, and the quiescent state it is exact at, if any.
pub(crate) fn execute(
    handle: &mut dyn MapHandle,
    state: &ShardState,
    op: PointOp,
    key: u64,
    value: u64,
) -> (Option<u64>, Option<u64>) {
    match op {
        PointOp::Get => {
            let stamp = state.read_stamp();
            (handle.get(key), stamp)
        }
        PointOp::Put => state.mutate(|| {
            let previous = handle.insert(key, value);
            (previous, previous.is_none())
        }),
        PointOp::Delete => state.mutate(|| {
            let removed = handle.delete(key);
            (removed, removed.is_some())
        }),
    }
}

/// Inserts `pairs` in order (insert-if-absent), pushing each pair's result
/// onto `out` (cleared first), announced as one write: the stamp the
/// post-state is exact at, if any.
pub(crate) fn mput(
    handle: &mut dyn MapHandle,
    state: &ShardState,
    pairs: &[(u64, u64)],
    out: &mut Vec<Option<u64>>,
) -> Option<u64> {
    let ((), stamp) = state.mutate(|| {
        out.clear();
        out.extend(pairs.iter().map(|&(key, value)| handle.insert(key, value)));
        ((), out.iter().any(Option::is_none))
    });
    stamp
}
