//! The service: its one store, the router sessions that serve it, and the
//! telemetry registry wiring.
//!
//! A [`KvService`] owns one engine instance and no threads.  Every request
//! is executed by the thread that issued it, on the caller's own
//! [`abtree::MapHandle`] session on that tree: a [`ShardRouter`] opens one
//! session (see [`crate::router`]), and the tree, a linearizable concurrent
//! map, needs nothing else to be shared.  This is the paper's setting: one
//! (a,b)-tree shared by every thread (§6), with a hot key contended at its
//! own leaf, where §4's elimination absorbs it.
//!
//! One stamp-protocol state covers every write of the service, so any real
//! write ends every router's cached entries (see [`crate::cache`]).
//!
//! All request traffic flows through per-client [`ShardRouter`] sessions.

use std::sync::Arc;

use abtree::ConcurrentMap;
use obs::{Registry, Sample, StageTrace};

use crate::router::ShardRouter;
use crate::stats::ServiceStats;
use crate::worker::ShardState;

/// The always-on guard that keeps the engine's reserved
/// [`abtree::EMPTY_KEY`] sentinel out of every request: routers sit on the
/// wire boundary, and the codec accepts any `u64`, so this (the engine
/// itself only debug-asserts) keeps a hostile or corrupt-but-well-formed
/// frame from storing the empty-slot marker.
#[inline]
pub(crate) fn assert_storable(key: u64) {
    assert!(
        key != abtree::EMPTY_KEY,
        "the reserved EMPTY_KEY sentinel cannot be stored or queried"
    );
}

/// The shard (of `shards`) that serves `key`: high bits of a Fibonacci
/// multiplicative hash, range-reduced without division.  The durable
/// service's placement function (`crashkv`).
///
/// Panics on the engine's reserved [`abtree::EMPTY_KEY`] sentinel, like
/// every router entry point.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    assert_storable(key);
    let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hashed as u128 * shards as u128) >> 64) as usize
}

/// Failure of [`KvService::try_router`]: the store could not open a
/// session for the router, because its SMR collector is out of
/// registration slots ([`abebr::MAX_THREADS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterError;

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the store could not open a router session \
             (collector slot capacity exhausted)"
        )
    }
}

impl std::error::Error for RouterError {}

/// The store plus its stamp-protocol state.  `Arc`-shared between the
/// service and its registry source.
struct Store {
    map: Box<dyn ConcurrentMap>,
    state: ShardState,
}

/// A batched, embedded key-value service over one tree (see the module
/// docs).
pub struct KvService {
    store: Arc<Store>,
    stats: Arc<ServiceStats>,
    /// The telemetry spine: every subsystem of the service (operation
    /// counters, stage trace, EBR health) registers a pull source here, and
    /// front ends layered on top add their own.
    registry: Arc<Registry>,
    /// The per-request stage trace the routers record into (sampled one
    /// point request in 16).
    trace: Arc<StageTrace>,
}

impl KvService {
    /// Builds a service over the one store `factory` returns (it is called
    /// once, with 0).
    ///
    /// The first two arguments are ignored: they stay only because the
    /// layer ledger (`bench/`) still passes them, and ROADMAP item 15, the
    /// ledger's next change, drops both.  Pass 1 and 1.
    ///
    /// The factory returns a boxed [`ConcurrentMap`], so the store can be a
    /// concrete tree (`Box::new(ElimABTree::new())`) or a registry-built
    /// trait object (`make_structure(name)`): any registry structure can
    /// serve.
    pub fn new(
        _shards: usize,
        _slots: usize,
        factory: impl FnOnce(usize) -> Box<dyn ConcurrentMap>,
    ) -> Self {
        let store = Arc::new(Store {
            map: factory(0),
            state: ShardState::new(),
        });
        let stats = Arc::new(ServiceStats::default());
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
            // Engine health, pulled live at scrape time: the
            // completed-mutation count and the EBR reclamation-lag gauges
            // from the store's collector (when it exposes one).
            let store = Arc::clone(&store);
            registry.register(move |out| {
                out.push(Sample::gauge(
                    "kv_shard_version",
                    store.state.current_version(),
                ));
                if let Some(ebr) = store.map.ebr_stats() {
                    out.push(Sample::gauge("ebr_epoch", ebr.epoch));
                    out.push(Sample::counter("ebr_retired_total", ebr.retired));
                    out.push(Sample::counter("ebr_freed_total", ebr.freed));
                    out.push(Sample::gauge("ebr_unreclaimed", ebr.unreclaimed));
                    out.push(Sample::gauge("ebr_oldest_epoch_age", ebr.oldest_epoch_age));
                    out.push(Sample::gauge(
                        "ebr_pins",
                        ebr.registrations + ebr.local_pins,
                    ));
                }
            });
        }
        Self {
            store,
            stats,
            registry,
            trace,
        }
    }

    /// The shared statistics (counters update live as routers serve
    /// traffic).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The service's metric registry.  The service registers its own
    /// sources (operation counters, stage trace, EBR health) at
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

    /// Opens a per-client router session: one tree session plus a fresh
    /// hot-key cache.  Call once per client thread, on that thread, like
    /// [`ConcurrentMap::handle`].
    ///
    /// # Panics
    ///
    /// Panics if the store cannot open a session (see
    /// [`try_router`](Self::try_router)), as [`ConcurrentMap::handle`]
    /// does.
    pub fn router(&self) -> ShardRouter<'_> {
        self.try_router().unwrap_or_else(|e| panic!("kvserve: {e}"))
    }

    /// Like [`router`](Self::router), but reports a store with no session
    /// slot left (its SMR collector is full) as an error: a front end
    /// refuses the client instead of crashing its thread.
    pub fn try_router(&self) -> Result<ShardRouter<'_>, RouterError> {
        let session = self.store.map.try_handle().map_err(|_| RouterError)?;
        Ok(ShardRouter::new(self, session))
    }

    /// Sum of the keys stored.  Quiescent only, like
    /// [`ConcurrentMap::key_sum`]; drives the checksum validation.
    pub fn key_sum(&self) -> u128 {
        self.store.map.key_sum()
    }

    pub(crate) fn state(&self) -> &ShardState {
        &self.store.state
    }
}

impl std::fmt::Debug for KvService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvService").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response};
    use abtree::ElimABTree;

    fn elim_service() -> KvService {
        KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        })
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for key in 0..1_000u64 {
            let shard = shard_of(key, 2);
            assert!(shard < 2);
            assert_eq!(shard, shard_of(key, 2), "placement must be stable");
        }
        // The multiplicative hash must actually use both shards.
        let hits: std::collections::HashSet<_> = (0..100).map(|k| shard_of(k, 2)).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn stats_request_renders_the_whole_registry() {
        let service = elim_service();
        let mut router = service.router();
        router.put(1, 2);
        router.get(1);
        let Response::Stats(text) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let samples = obs::expo::parse(&text).expect("the scrape parses back");
        // The store's closure always runs, so structural gauges are present
        // even with recording compiled out.
        assert_eq!(
            obs::expo::value(&samples, "kv_shard_version", &[]),
            Some(1),
            "one real write completed"
        );
        assert!(
            samples.iter().any(|s| s.name == "ebr_epoch"),
            "the store's EBR collector reports reclamation health"
        );
        assert!(
            samples.iter().all(|s| s.label("shard").is_none()),
            "no series carries a shard label"
        );
        if obs::ENABLED {
            assert_eq!(
                obs::expo::value(&samples, "kv_ops_total", &[("op", "put")]),
                Some(1),
                "the put is visible in the op counters"
            );
            assert_eq!(
                obs::expo::value(&samples, "kv_ops_total", &[("op", "get")]),
                Some(1)
            );
        }
        // Scrapes are served by the router, not the store: op counters
        // must not move.
        let before = obs::expo::sum(&obs::expo::parse(&text).unwrap(), "kv_ops_total", &[]);
        let Response::Stats(again) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let after = obs::expo::sum(&obs::expo::parse(&again).unwrap(), "kv_ops_total", &[]);
        assert_eq!(before, after, "a scrape does not count as an operation");
    }

    /// The shard count is ignored: the factory builds the one store.
    #[test]
    fn the_factory_builds_one_store() {
        let mut calls = Vec::new();
        let service = KvService::new(8, 1, |index| {
            calls.push(index);
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        assert_eq!(calls, [0], "one call, with 0");
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
            KvService::new(1, 1, move |_| {
                let tree: ElimABTree = ElimABTree::with_collector(collector);
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
        assert_eq!(err, RouterError);
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
                let tree: ElimABTree = ElimABTree::with_collector(collector);
                Box::new(tree)
            })
        };
        let _held: Vec<_> = std::iter::from_fn(|| collector.try_register().ok()).collect();
        let _ = service.router();
    }
}
