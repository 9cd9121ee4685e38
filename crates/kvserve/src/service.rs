//! The sharded service: shard construction, the router sessions that
//! serve it, and the telemetry registry wiring.
//!
//! A [`KvService`] owns `S` independent engine instances (*shards*) and no
//! threads.  Every request is executed by the thread that issued it, on
//! the caller's own [`abtree::MapHandle`] session on the shard's tree: a
//! [`ShardRouter`] opens one session per shard (see [`crate::router`]),
//! and the tree, a linearizable concurrent map, needs nothing else to be
//! shared.  Keys are spread over shards with a multiplicative hash
//! ([`shard_of`]), so contiguous hot key ranges (Zipfian traffic) still fan
//! out — but a *single* hot key concentrates on one shard, which is the
//! hot-shard regime the load driver exercises.
//!
//! All request traffic flows through per-client [`ShardRouter`] sessions.

use std::sync::Arc;

use abtree::ConcurrentMap;
use obs::{Registry, Sample, StageTrace};

use crate::router::ShardRouter;
use crate::stats::ServiceStats;
use crate::worker::ShardState;

/// The shard (of `shards`) that serves `key`: high bits of a Fibonacci
/// multiplicative hash, range-reduced without division.  The one placement
/// function of the volatile and the durable service.
///
/// Panics on the engine's reserved [`abtree::EMPTY_KEY`] sentinel: routers
/// sit on the wire boundary, and the codec accepts any `u64`, so this is
/// the always-on guard (the engine itself only debug-asserts) that keeps a
/// hostile or corrupt-but-well-formed frame from storing the empty-slot
/// marker into a shard.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    assert!(
        key != abtree::EMPTY_KEY,
        "the reserved EMPTY_KEY sentinel cannot be stored or queried"
    );
    let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hashed as u128 * shards as u128) >> 64) as usize
}

/// Failure of [`KvService::try_router`]: the store of shard `shard` could
/// not open a session for the router, because its SMR collector is out of
/// registration slots ([`abebr::MAX_THREADS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterError {
    /// Index of the first shard that refused a session.
    pub shard: usize,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} could not open a router session \
             (collector slot capacity exhausted)",
            self.shard
        )
    }
}

impl std::error::Error for RouterError {}

/// One shard: the store plus its stamp-protocol state.  `Arc`-shared
/// between the service and its registry source.
pub(crate) struct ShardCell {
    pub(crate) store: Box<dyn ConcurrentMap>,
    pub(crate) state: ShardState,
}

/// A sharded, batched, embedded key-value service (see the module docs).
pub struct KvService {
    shards: Vec<Arc<ShardCell>>,
    stats: Arc<ServiceStats>,
    /// The telemetry spine: every subsystem of the service (operation
    /// counters, stage trace, per-shard EBR health) registers a pull
    /// source here, and front ends layered on top add their own.
    registry: Arc<Registry>,
    /// The per-request stage trace the routers record into (sampled one
    /// point request in 16).
    trace: Arc<StageTrace>,
}

impl KvService {
    /// Builds a service with `shards` shards (clamped to at least 1),
    /// constructing each shard with `factory` (called with the shard index).
    ///
    /// The middle argument is ignored: it stays only because the layer
    /// ledger (`bench/`) still passes it, and ROADMAP item 15, the ledger's
    /// next change, drops it.  Pass 1.
    ///
    /// The factory returns boxed [`ConcurrentMap`]s, so shards can be
    /// concrete trees (`Box::new(ElimABTree::new())`) or registry-built trait
    /// objects (`make_structure(name)`): any registry structure can serve as
    /// a shard.
    pub fn new(
        shards: usize,
        _slots: usize,
        mut factory: impl FnMut(usize) -> Box<dyn ConcurrentMap>,
    ) -> Self {
        let shards: Vec<Arc<ShardCell>> = (0..shards.max(1))
            .map(|index| {
                Arc::new(ShardCell {
                    store: factory(index),
                    state: ShardState::new(),
                })
            })
            .collect();
        let stats = Arc::new(ServiceStats::new(shards.len()));
        let trace = Arc::new(StageTrace::new());
        let registry = Arc::new(Registry::new());
        {
            let stats = Arc::clone(&stats);
            registry.register(move |out| stats.collect(out));
        }
        {
            let trace = Arc::clone(&trace);
            registry.register(move |out| trace.collect(out));
        }
        {
            // Per-shard engine health, pulled live at scrape time: the
            // completed-mutation count and the EBR reclamation-lag gauges
            // from each shard's collector (when the store exposes one).
            let cells = shards.clone();
            registry.register(move |out| {
                for (index, cell) in cells.iter().enumerate() {
                    out.push(
                        Sample::gauge("kv_shard_version", cell.state.current_version())
                            .with("shard", index),
                    );
                    if let Some(ebr) = cell.store.ebr_stats() {
                        out.push(Sample::gauge("ebr_epoch", ebr.epoch).with("shard", index));
                        out.push(
                            Sample::counter("ebr_retired_total", ebr.retired).with("shard", index),
                        );
                        out.push(
                            Sample::counter("ebr_freed_total", ebr.freed).with("shard", index),
                        );
                        out.push(
                            Sample::gauge("ebr_unreclaimed", ebr.unreclaimed).with("shard", index),
                        );
                        out.push(
                            Sample::gauge("ebr_oldest_epoch_age", ebr.oldest_epoch_age)
                                .with("shard", index),
                        );
                        out.push(
                            Sample::gauge("ebr_pins", ebr.registrations + ebr.local_pins)
                                .with("shard", index),
                        );
                    }
                }
            });
        }
        Self {
            shards,
            stats,
            registry,
            trace,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared statistics (counters update live as routers serve
    /// traffic).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The service's metric registry.  The service registers its own
    /// sources (operation counters, stage trace, per-shard EBR health) at
    /// construction; front ends layered on top register theirs here too,
    /// so one [`crate::Request::Stats`] scrape — or one
    /// [`Registry::render`] call — covers the whole stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The per-request stage trace (sampled `apply` timing — front ends
    /// add recv/decode/write).
    pub fn stage_trace(&self) -> &Arc<StageTrace> {
        &self.trace
    }

    /// The shard serving `key` (see [`shard_of`]).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Opens a per-client router session: one tree session per shard plus
    /// a fresh hot-key cache.  Call once per client thread, on that thread,
    /// like [`ConcurrentMap::handle`].
    ///
    /// # Panics
    ///
    /// Panics if a shard cannot open a session (see
    /// [`try_router`](Self::try_router)), as [`ConcurrentMap::handle`]
    /// does.
    pub fn router(&self) -> ShardRouter<'_> {
        self.try_router().unwrap_or_else(|e| panic!("kvserve: {e}"))
    }

    /// Like [`router`](Self::router), but reports a shard whose store has
    /// no session slot left (its SMR collector is full) as an error: a
    /// front end refuses the client instead of crashing its thread.
    pub fn try_router(&self) -> Result<ShardRouter<'_>, RouterError> {
        let sessions = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, cell)| cell.store.try_handle().map_err(|_| RouterError { shard }))
            .collect::<Result<_, _>>()?;
        Ok(ShardRouter::new(self, sessions))
    }

    /// Sum of keys stored across all shards.  Quiescent only, like
    /// [`ConcurrentMap::key_sum`]; drives the cross-shard checksum
    /// validation.
    pub fn key_sum(&self) -> u128 {
        self.shards.iter().map(|cell| cell.store.key_sum()).sum()
    }

    /// Per-shard key sums, in shard order (quiescent only).
    pub fn shard_key_sums(&self) -> Vec<u128> {
        self.shards
            .iter()
            .map(|cell| cell.store.key_sum())
            .collect()
    }

    pub(crate) fn shard_state(&self, shard: usize) -> &ShardState {
        &self.shards[shard].state
    }
}

impl std::fmt::Debug for KvService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvService")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response};
    use abtree::ElimABTree;

    fn two_shard_service() -> KvService {
        KvService::new(2, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        })
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let service = two_shard_service();
        for key in 0..1_000u64 {
            let shard = service.shard_of(key);
            assert!(shard < 2);
            assert_eq!(shard, service.shard_of(key), "routing must be stable");
        }
        // The multiplicative hash must actually use both shards.
        let hits: std::collections::HashSet<_> = (0..100).map(|k| service.shard_of(k)).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn stats_request_renders_the_whole_registry() {
        let service = two_shard_service();
        let mut router = service.router();
        router.put(1, 2);
        router.get(1);
        let Response::Stats(text) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let samples = obs::expo::parse(&text).expect("the scrape parses back");
        // The shard closure always runs, so structural gauges are present
        // even with recording compiled out.
        assert!(
            obs::expo::value(&samples, "kv_shard_version", &[("shard", "0")]).is_some(),
            "per-shard version gauges are in the scrape"
        );
        assert!(
            samples.iter().any(|s| s.name == "ebr_epoch"),
            "the shards' EBR collectors report reclamation health"
        );
        if obs::ENABLED {
            assert_eq!(
                obs::expo::sum(&samples, "kv_ops_total", &[("op", "put")]),
                1,
                "the put is visible across the per-shard op counters"
            );
            assert_eq!(
                obs::expo::sum(&samples, "kv_ops_total", &[("op", "get")]),
                1
            );
        }
        // Scrapes are served by the router, not the shards: op counters
        // must not move.
        let before = obs::expo::sum(&obs::expo::parse(&text).unwrap(), "kv_ops_total", &[]);
        let Response::Stats(again) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let after = obs::expo::sum(&obs::expo::parse(&again).unwrap(), "kv_ops_total", &[]);
        assert_eq!(before, after, "a scrape does not count as an operation");
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let service = KvService::new(0, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        assert_eq!(service.shard_count(), 1);
        let mut router = service.router();
        assert_eq!(router.put(1, 2), None);
        assert_eq!(router.get(1), Some(2));
        assert!(format!("{service:?}").contains("KvService"));
        assert!(format!("{router:?}").contains("ShardRouter"));
    }

    /// A store whose SMR collector has no free registration slot refuses a
    /// router's session: `try_router` reports it as [`RouterError`], and
    /// the same call succeeds once slots free.
    #[test]
    fn collector_exhaustion_is_a_startup_error_not_a_panic() {
        let collector = abebr::Collector::new();
        let service = {
            let collector = collector.clone();
            KvService::new(2, 1, move |_| {
                let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
                Box::new(tree)
            })
        };
        let mut held = Vec::new();
        while let Ok(handle) = collector.try_register() {
            held.push(handle);
        }
        assert_eq!(held.len(), abebr::MAX_THREADS);
        let err = service
            .try_router()
            .expect_err("a router session must fail with every slot held");
        assert_eq!(err.shard, 0);
        assert!(err.to_string().contains("slot capacity"));

        // Freeing the hoarded sessions makes the same call succeed.
        drop(held);
        let mut router = service.try_router().expect("slots are free again");
        assert_eq!(router.put(9, 90), None);
        assert_eq!(router.get(9), Some(90));
    }

    #[test]
    #[should_panic(expected = "slot capacity")]
    fn a_router_without_a_session_slot_panics() {
        let collector = abebr::Collector::new();
        let service = {
            let collector = collector.clone();
            KvService::new(1, 1, move |_| {
                let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
                Box::new(tree)
            })
        };
        let _held: Vec<_> = std::iter::from_fn(|| collector.try_register().ok()).collect();
        let _ = service.router();
    }
}
