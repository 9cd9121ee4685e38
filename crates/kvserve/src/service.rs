//! The sharded service: shard construction, owner-thread lifecycle and
//! the telemetry registry wiring.
//!
//! A [`KvService`] owns `S` independent engine instances (*shards*).  Each
//! shard is owned by one dedicated worker thread (the private `worker`
//! module, on the [`crate::owner`] runtime) that opens a long-lived
//! [`abtree::MapHandle`] on it and executes every window of work routed to
//! the shard — pipelined point requests, batches, scans — so a window's
//! tree traffic stays on one core.  A point request with nothing to
//! overlap with is not worth the hand-off: a router runs it on its own
//! session against the same tree (see [`crate::router`]).  Keys are spread
//! over shards with a multiplicative hash
//! ([`shard_of`]), so contiguous hot key ranges (Zipfian traffic) still fan
//! out — but a *single* hot key concentrates on one shard, which is the
//! hot-shard regime the load driver exercises.
//!
//! All request traffic flows through per-client [`ShardRouter`] sessions
//! (see [`crate::router`]).

use std::sync::Arc;
use std::thread::JoinHandle;

use abtree::{ConcurrentMap, KeySum};
use obs::{Registry, Sample, StageTrace};

use crate::owner::Mailbox;
use crate::router::ShardRouter;
use crate::stats::{Histogram, ServiceStats};
use crate::worker::{serve_shard, Job, Reply, ShardCell, ShardState};

/// What a shard must provide: per-thread sessions ([`ConcurrentMap`]) plus
/// quiescent key-sum validation ([`KeySum`]).
///
/// Blanket-implemented for every `ConcurrentMap + KeySum` type, which
/// includes the benchmark registry's `Box<dyn Benchable>` values — so any
/// registry structure can serve as a shard.
pub trait ShardStore: ConcurrentMap + KeySum {}

impl<T: ConcurrentMap + KeySum + ?Sized> ShardStore for T {}

/// The shard (of `shards`) that serves `key`: high bits of a Fibonacci
/// multiplicative hash, range-reduced without division.  The one placement
/// function of every service on this crate's owner runtime.
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

/// Startup failure of [`KvService::try_new`]: a shard-owner thread could
/// not open its store session because the store's SMR collector is out of
/// registration slots ([`abebr::MAX_THREADS`]).  The partially started
/// service has already been torn down when this is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStartupError {
    /// Index of the first shard whose owner failed to register.
    pub shard: usize,
}

impl std::fmt::Display for ShardStartupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} owner could not register a reclamation session \
             (collector slot capacity exhausted)",
            self.shard
        )
    }
}

impl std::error::Error for ShardStartupError {}

/// A sharded, batched, embedded key-value service (see the module docs).
pub struct KvService {
    shards: Vec<Arc<ShardCell>>,
    owners: Vec<JoinHandle<()>>,
    stats: Arc<ServiceStats>,
    /// The telemetry spine: every subsystem of the service (operation
    /// counters, stage trace, per-shard EBR health) registers a pull
    /// source here, and front ends layered on top add their own.
    registry: Arc<Registry>,
    /// The per-request stage trace the routers and shard owners record
    /// into (sampled one point request in 16).
    trace: Arc<StageTrace>,
}

impl KvService {
    /// Builds a service with `shards` shards and `namespace_slots`
    /// namespace-stat rows (both clamped to at least 1), constructing each
    /// shard with `factory` (called with the shard index) and spawning its
    /// owner thread.
    ///
    /// The factory returns boxed [`ShardStore`]s, so shards can be concrete
    /// trees (`Box::new(ElimABTree::new())`) or registry-built trait objects
    /// (`Box::new(make_structure(name))`).
    pub fn new(
        shards: usize,
        namespace_slots: usize,
        factory: impl FnMut(usize) -> Box<dyn ShardStore>,
    ) -> Self {
        Self::try_new(shards, namespace_slots, factory)
            .expect("kvserve: shard owner failed to start")
    }

    /// Like [`KvService::new`], but reports shard-owner startup failure
    /// (a store whose SMR collector has no free registration slots) as an
    /// error instead of panicking.  On failure the already-spawned owners
    /// are shut down and joined before returning.
    pub fn try_new(
        shards: usize,
        namespace_slots: usize,
        mut factory: impl FnMut(usize) -> Box<dyn ShardStore>,
    ) -> Result<Self, ShardStartupError> {
        let trace = Arc::new(StageTrace::new());
        let shards: Vec<Arc<ShardCell>> = (0..shards.max(1))
            .map(|index| {
                Arc::new(ShardCell {
                    store: factory(index),
                    state: ShardState::new(),
                    mailbox: Arc::new(Mailbox::default()),
                    trace: Arc::clone(&trace),
                })
            })
            .collect();
        let stats = Arc::new(ServiceStats::new(shards.len(), namespace_slots.max(1)));
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
            // completed-mutation count, the owner's drain-run distribution,
            // how often a doorbell had to unpark it, and the EBR
            // reclamation-lag gauges from each shard's collector (when the
            // store exposes one).
            let cells = shards.clone();
            registry.register(move |out| {
                for (index, cell) in cells.iter().enumerate() {
                    out.push(
                        Sample::gauge("kv_shard_version", cell.state.current_version())
                            .with("shard", index),
                    );
                    out.push(
                        Sample::histogram("kv_run_length", &cell.state.run_length)
                            .with("shard", index),
                    );
                    out.push(
                        Sample::counter("kv_owner_wakes_total", cell.mailbox.wakes())
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
                            Sample::gauge("ebr_pins", ebr.registry_pins + ebr.local_pins)
                                .with("shard", index),
                        );
                    }
                }
            });
        }
        let owners = shards
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let cell = Arc::clone(cell);
                std::thread::Builder::new()
                    .name(format!("kvserve-shard-{index}"))
                    .spawn(move || serve_shard(cell))
                    .expect("failed to spawn a shard owner thread")
            })
            .collect();
        let service = Self {
            shards,
            owners,
            stats,
            registry,
            trace,
        };
        // Owners publish their startup outcome right after their (bounded)
        // session-registration attempt; wait for all of them so a capacity
        // failure surfaces here, not as a hang on the first request.  The
        // error path drops `service`, which shuts down and joins the
        // owners that did come up.
        for index in 0..service.shards.len() {
            if !service.shards[index].state.await_ready() {
                return Err(ShardStartupError { shard: index });
            }
        }
        Ok(service)
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

    /// The per-request stage trace (sampled pipeline timing: enqueue,
    /// queue wait, apply, ack — front ends add recv/decode/write/fence).
    pub fn stage_trace(&self) -> &Arc<StageTrace> {
        &self.trace
    }

    /// The shard serving `key` (see [`shard_of`]).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Opens a per-client router session: one lane pair per shard,
    /// registered with the owning workers, one tree session per shard (a
    /// shard whose store has no session slot left is served through its
    /// lane alone), plus a fresh hot-key cache.  Call once per client
    /// thread, on that thread, like [`ConcurrentMap::handle`].
    pub fn router(&self) -> ShardRouter<'_> {
        ShardRouter::new(self)
    }

    /// Sum of keys stored across all shards.  Quiescent only, like
    /// [`KeySum::key_sum`]; drives the cross-shard checksum validation.
    pub fn key_sum(&self) -> u128 {
        self.shards.iter().map(|cell| cell.store.key_sum()).sum()
    }

    /// Per-shard key sums, in shard order (quiescent only).
    pub fn shard_key_sums(&self) -> Vec<u128> {
        self.shards.iter().map(|cell| cell.store.key_sum()).collect()
    }

    /// The registry name of shard `index`'s structure.
    pub fn shard_name(&self, index: usize) -> &'static str {
        self.shards[index].store.name()
    }

    /// The per-shard queue-run-length histograms (how many requests each
    /// owner drains per lane visit — the dispatch amortization the
    /// ownership model buys), merged across shards with
    /// [`Histogram::merge`].
    pub fn run_length_histogram(&self) -> Histogram {
        let mut merged = Histogram::new();
        for cell in &self.shards {
            merged.merge(&cell.state.run_length);
        }
        merged
    }

    /// Stops and joins every shard owner thread.  Idempotent; also runs on
    /// drop.  Requires `&mut self`, so it cannot race any live router (a
    /// router borrows the service).
    pub fn shutdown(&mut self) {
        for cell in &self.shards {
            cell.mailbox.begin_shutdown();
        }
        for owner in self.owners.drain(..) {
            // A panicked owner already surfaced as a router panic; the
            // join result adds nothing (and must not double-panic in drop).
            let _ = owner.join();
        }
    }

    /// Whether [`shutdown`](Self::shutdown) has already joined the shard
    /// owners.
    pub fn is_shut_down(&self) -> bool {
        self.owners.is_empty()
    }

    pub(crate) fn shard_state(&self, shard: usize) -> &ShardState {
        &self.shards[shard].state
    }

    /// The shards' stores, in shard order: where a router opens its own
    /// sessions.
    pub(crate) fn stores(&self) -> impl Iterator<Item = &dyn ShardStore> {
        self.shards.iter().map(|cell| &*cell.store)
    }

    pub(crate) fn mailboxes(&self) -> impl Iterator<Item = &Arc<Mailbox<Job, Reply>>> {
        self.shards.iter().map(|cell| &cell.mailbox)
    }
}

impl Drop for KvService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for KvService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvService")
            .field("shards", &self.shards.len())
            .field("structure", &self.shards.first().map(|cell| cell.store.name()))
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
    fn shutdown_joins_owners_and_is_idempotent() {
        let mut service = two_shard_service();
        {
            let mut router = service.router();
            router.put(1, 2);
            // Leave a submission uncollected: the owner must drain it and
            // discard the undeliverable reply once the router is gone.
            router.submit(&Request::Put { key: 3, value: 4 }).unwrap();
        }
        assert!(!service.is_shut_down());
        service.shutdown();
        assert!(service.is_shut_down());
        service.shutdown(); // idempotent
        assert!(service.is_shut_down());
        // Quiescent reads still work after shutdown.
        assert!(service.key_sum() > 0);
    }

    #[test]
    fn owners_record_queue_run_lengths() {
        if !obs::ENABLED {
            return; // histograms are compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..64u64 {
            router.put(key, key);
        }
        let mut out = Vec::new();
        router.mget(&(0..64u64).collect::<Vec<_>>(), &mut out);
        drop(router);
        let runs = service.run_length_histogram();
        assert!(runs.count() > 0, "owners saw at least one drain run");
        assert!(runs.p50().is_some());
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
            assert_eq!(obs::expo::sum(&samples, "kv_ops_total", &[("op", "get")]), 1);
        }
        // Scrapes are served by the router, not the shards: op counters
        // must not move.
        let before = obs::expo::sum(
            &obs::expo::parse(&text).unwrap(),
            "kv_ops_total",
            &[],
        );
        let Response::Stats(again) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let after = obs::expo::sum(&obs::expo::parse(&again).unwrap(), "kv_ops_total", &[]);
        assert_eq!(before, after, "a scrape does not count as an operation");
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let service = KvService::new(0, 0, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        assert_eq!(service.shard_count(), 1);
        let mut router = service.router();
        assert_eq!(router.put(1, 2), None);
        assert_eq!(router.get(1), Some(2));
        assert_eq!(service.shard_name(0), "elim-abtree");
        assert!(format!("{service:?}").contains("KvService"));
        assert!(format!("{router:?}").contains("ShardRouter"));
    }

    /// Regression for the startup path: a store whose SMR collector has no
    /// free registration slots must surface as [`ShardStartupError`] from
    /// `try_new` (it used to panic on the owner thread), and the service
    /// must come up normally once slots free.
    #[test]
    fn collector_exhaustion_is_a_startup_error_not_a_panic() {
        let collector = abebr::Collector::new();
        let mut held = Vec::new();
        while let Ok(handle) = collector.try_register() {
            held.push(handle);
        }
        assert_eq!(held.len(), abebr::MAX_THREADS);

        let shard_factory = |collector: abebr::Collector| {
            move |_: usize| {
                let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
                Box::new(tree) as Box<dyn ShardStore>
            }
        };
        let err = KvService::try_new(1, 1, shard_factory(collector.clone()))
            .expect_err("owner registration must fail with every slot held");
        assert_eq!(err.shard, 0);
        assert!(err.to_string().contains("slot capacity"));

        // Freeing the hoarded sessions makes the same construction succeed.
        drop(held);
        let service = KvService::try_new(1, 1, shard_factory(collector))
            .expect("registration succeeds once slots are free");
        let mut router = service.router();
        assert_eq!(router.put(9, 90), None);
        assert_eq!(router.get(9), Some(90));
    }
}
