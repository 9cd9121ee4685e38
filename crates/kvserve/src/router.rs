//! The per-client router: point, pipelined and batched request paths, all
//! run on the caller's own tree sessions, one per shard.
//!
//! Every request runs on the calling thread.  The router holds one
//! [`MapHandle`] per shard and executes a point request, a shard's slice of
//! an `MGet`/`MPut`, or a shard's part of a scan on it directly, under the
//! stamp protocol of the private `worker` module.  The tree is a
//! linearizable concurrent map that any thread may update (paper §3–§4),
//! so no request is handed to another thread and none waits for one.  In
//! front sits a per-router hot-key read cache ([`crate::cache`]) validated
//! by the shards' stamps, so the top of the Zipf curve touches no tree.
//!
//! Two request interfaces:
//!
//! * the **blocking** methods ([`get`](ShardRouter::get),
//!   [`mget`](ShardRouter::mget), ...) — one call, one completed result;
//! * the **pipelined** pair [`submit`](ShardRouter::submit) /
//!   [`collect`](ShardRouter::collect) for point requests.  A submission
//!   executes at once; its response waits, in order, for `collect`.  A
//!   router holds at most [`LANE_CAPACITY`] uncollected responses and
//!   refuses the next submission with [`Overloaded`] — it never blocks.
//!   Blocking calls assert that nothing is uncollected, so their results
//!   cannot overtake earlier submissions' responses.
//!
//! [`serve_pipelined`](ShardRouter::serve_pipelined), what a front end
//! calls with each decoded frame, is a loop: each request completes before
//! the next one starts, and nothing is shed.

use std::collections::VecDeque;

use abtree::MapHandle;
use obs::{Stage, StageRecorder, Stamp};

use crate::cache::ReadCache;
use crate::request::{Request, Response};
use crate::service::KvService;
use crate::worker::{self, PointOp};
use crate::LANE_CAPACITY;

/// Point requests are stage-traced one in `2^TRACE_SAMPLE_SHIFT`: dense
/// enough to fill the per-stage latency histograms within seconds of real
/// load, sparse enough that the extra clock reads stay far inside the
/// telemetry budget on the hot path.
const TRACE_SAMPLE_SHIFT: u32 = 4;

/// Backpressure signal of [`ShardRouter::submit`]: the router already holds
/// [`LANE_CAPACITY`] uncollected responses.  The request was **not**
/// executed; collect responses (or shed the request — the wire codec can
/// answer [`Response::Overloaded`]) and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "router full: {LANE_CAPACITY} responses already in flight"
        )
    }
}

impl std::error::Error for Overloaded {}

/// Per-shard scratch used to regroup a batch by destination shard.
#[derive(Default)]
struct Group {
    keys: Vec<u64>,
    pairs: Vec<(u64, u64)>,
    /// Original batch positions of this group's entries, for scattering
    /// results back into input order.
    positions: Vec<u32>,
}

/// A per-client session over the whole service: one tree session per
/// shard, a private hot-key read cache, and the scratch that lets batches
/// and scans run without allocating once warm.
///
/// Obtained from [`KvService::router`].  Routers are independent; open one
/// per client thread, on that thread — a router is `!Send`, like the tree
/// sessions it owns.
pub struct ShardRouter<'s> {
    service: &'s KvService,
    /// This router's own session on each shard's store.
    sessions: Vec<Box<dyn MapHandle + 's>>,
    cache: ReadCache,
    groups: Vec<Group>,
    /// Shards with a non-empty group in the batch being executed (sparse
    /// clear: only touched groups are reset).
    touched: Vec<usize>,
    /// One shard's results of the batch or scan being executed.
    values: Vec<Option<u64>>,
    entries: Vec<(u64, u64)>,
    /// Responses of pipelined submissions awaiting
    /// [`collect`](Self::collect), oldest first.
    pending: VecDeque<Option<u64>>,
    /// Sampled stage recorder: decides which point requests get their
    /// `Apply` stage traced.
    recorder: StageRecorder,
}

impl<'s> ShardRouter<'s> {
    pub(crate) fn new(service: &'s KvService, sessions: Vec<Box<dyn MapHandle + 's>>) -> Self {
        ShardRouter {
            service,
            groups: sessions.iter().map(|_| Group::default()).collect(),
            sessions,
            cache: ReadCache::new(),
            touched: Vec::new(),
            values: Vec::new(),
            entries: Vec::new(),
            pending: VecDeque::new(),
            recorder: service.stage_trace().recorder(TRACE_SAMPLE_SHIFT),
        }
    }

    /// The service this router serves.
    pub fn service(&self) -> &'s KvService {
        self.service
    }

    /// A blocking call's result must not overtake the responses of earlier
    /// submissions.
    #[inline]
    fn assert_unpipelined(&self) {
        assert!(
            self.pending.is_empty(),
            "blocking router calls cannot run while pipelined submissions are in flight; \
             collect() them first"
        );
    }

    /// Point lookup of `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.assert_unpipelined();
        self.point(PointOp::Get, key, 0)
    }

    /// Insert-if-absent of `key -> value`: returns the existing value
    /// (leaving it unchanged) if `key` was present, `None` if the pair was
    /// inserted (see [`abtree::MapHandle::insert`]).
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        self.assert_unpipelined();
        self.point(PointOp::Put, key, value)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        self.assert_unpipelined();
        self.point(PointOp::Delete, key, 0)
    }

    /// Runs one point request on this router's session on the key's shard:
    /// a `Get` probes the hot-key cache first; then [`worker::execute`], the
    /// shard's counters and the cache fill.  A sampled
    /// request, a cache hit included, records its `Apply` stage: the
    /// request's latency, from one clock read.
    fn point(&mut self, op: PointOp, key: u64, value: u64) -> Option<u64> {
        let service = self.service;
        let shard = service.shard_of(key);
        let state = service.shard_state(shard);
        let stats = service.stats();
        // One sampling decision covers the stage trace: the untraced
        // 15-in-16 majority reads no clock at all.
        let started = self.recorder.sample_start();
        if matches!(op, PointOp::Get) {
            if let Some(cached) = self.cache.lookup(key, state.begun()) {
                stats.record_cache_hit();
                self.recorder.record(Stage::Apply, started);
                stats.shard(shard).record_get(cached.is_some());
                return cached;
            }
        }
        let (result, stamp) = worker::execute(&mut *self.sessions[shard], state, op, key, value);
        self.recorder.record(Stage::Apply, started);
        match op {
            PointOp::Get => {
                stats.shard(shard).record_get(result.is_some());
                self.cache.store(key, result, stamp);
            }
            PointOp::Put => {
                stats.shard(shard).record_put();
                // Either the insert landed (key -> value) or it was a no-op
                // (key kept its prior value); both are exact at the stamp.
                self.cache.store(key, Some(result.unwrap_or(value)), stamp);
            }
            PointOp::Delete => {
                stats.shard(shard).record_delete();
                // Whatever was there, the key is now absent.
                self.cache.store(key, None, stamp);
            }
        }
        result
    }

    /// Pipelined submission of a point request (`Get`/`Put`/`Delete`): it
    /// executes now, and its response is retrieved with
    /// [`collect`](Self::collect), in submission order.  Fails with
    /// [`Overloaded`] — refusing the request rather than blocking — when
    /// [`LANE_CAPACITY`] responses are already uncollected.
    ///
    /// # Panics
    ///
    /// Panics on `Scan`/`MGet`/`MPut` requests: batches and scans use the
    /// blocking methods.
    pub fn submit(&mut self, request: &Request) -> Result<(), Overloaded> {
        let Some((op, key, value)) = PointOp::of(request) else {
            panic!(
                "pipelined submission carries point requests only; \
                 use scan/mget/mput and execute() for stats scrapes"
            )
        };
        if self.pending.len() >= LANE_CAPACITY {
            self.service.stats().record_shed();
            return Err(Overloaded);
        }
        let result = self.point(op, key, value);
        self.pending.push_back(result);
        Ok(())
    }

    /// Number of pipelined submissions not yet collected.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Retrieves the response to the **oldest** uncollected submission.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn collect(&mut self) -> Response {
        Response::Value(self.pending.pop_front().expect("no submissions in flight"))
    }

    /// Scatter-gather scan of the window `[lo, lo + len - 1]` (clamped below
    /// the engine's reserved sentinel): each shard's slice is scanned on
    /// this router's session and the results are merged into `out`, sorted
    /// by key (`out` is cleared first).
    ///
    /// Each *per-shard* sub-scan has that shard's scan guarantee (a
    /// linearizable snapshot on the (a,b)-trees); the merged cross-shard
    /// result is *not* one atomic snapshot — shards are scanned one after
    /// another, like any scatter-gather service read.
    pub fn scan(&mut self, lo: u64, len: u64, out: &mut Vec<(u64, u64)>) {
        self.assert_unpipelined();
        // Same boundary guard as `shard_of` (which a scan bypasses): the
        // reserved sentinel is rejected loudly, not clamped into an empty
        // result.
        assert!(
            lo != abtree::EMPTY_KEY,
            "the reserved EMPTY_KEY sentinel cannot be stored or queried"
        );
        let stats = self.service.stats();
        out.clear();
        let Some((lo, hi)) = abtree::scan_window(lo, len) else {
            return;
        };
        let started = Stamp::now();
        for (shard, session) in self.sessions.iter_mut().enumerate() {
            session.range(lo, hi, &mut self.entries);
            out.extend_from_slice(&self.entries);
            stats.shard(shard).record_scan();
        }
        out.sort_unstable_by_key(|&(key, _)| key);
        stats.scan_latency_ns.record(started.elapsed_ns());
    }

    /// Batched multi-get: one lookup per key, results pushed to `out`
    /// (cleared first) in input order.
    ///
    /// Keys the hot-key cache can answer are filled in locally; the rest
    /// are regrouped by destination shard and looked up one shard at a
    /// time, each shard's keys under one read stamp.
    pub fn mget(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.assert_unpipelined();
        let service = self.service;
        let stats = service.stats();
        out.clear();
        out.resize(keys.len(), None);
        let started = Stamp::now();
        for (position, &key) in keys.iter().enumerate() {
            let shard = service.shard_of(key);
            let begun = service.shard_state(shard).begun();
            if let Some(cached) = self.cache.lookup(key, begun) {
                stats.record_cache_hit();
                stats.shard(shard).record_lookup(cached.is_some());
                out[position] = cached;
                continue;
            }
            let group = &mut self.groups[shard];
            if group.keys.is_empty() {
                self.touched.push(shard);
            }
            group.keys.push(key);
            group.positions.push(position as u32);
        }
        for &shard in &self.touched {
            let group = &mut self.groups[shard];
            let stamp = worker::mget(
                &mut *self.sessions[shard],
                service.shard_state(shard),
                &group.keys,
                &mut self.values,
            );
            let counters = stats.shard(shard);
            counters.record_mget();
            for (&position, &value) in group.positions.iter().zip(&self.values) {
                let key = keys[position as usize];
                counters.record_lookup(value.is_some());
                out[position as usize] = value;
                self.cache.store(key, value, stamp);
            }
            group.keys.clear();
            group.positions.clear();
        }
        self.touched.clear();
        stats.batch_latency_ns.record(started.elapsed_ns());
        stats.batch_size.record(keys.len() as u64);
    }

    /// Batched multi-put (insert-if-absent per pair): per-pair results
    /// pushed to `out` (cleared first) in input order, `None` meaning the
    /// pair was inserted.
    ///
    /// Same regrouping as [`mget`](Self::mget); each shard's pairs are
    /// inserted one by one, announced as one write.
    pub fn mput(&mut self, pairs: &[(u64, u64)], out: &mut Vec<Option<u64>>) {
        self.assert_unpipelined();
        let service = self.service;
        let stats = service.stats();
        out.clear();
        out.resize(pairs.len(), None);
        let started = Stamp::now();
        for (position, &(key, value)) in pairs.iter().enumerate() {
            let shard = service.shard_of(key);
            let group = &mut self.groups[shard];
            if group.pairs.is_empty() {
                self.touched.push(shard);
            }
            group.pairs.push((key, value));
            group.positions.push(position as u32);
        }
        for &shard in &self.touched {
            let group = &mut self.groups[shard];
            let stamp = worker::mput(
                &mut *self.sessions[shard],
                service.shard_state(shard),
                &group.pairs,
                &mut self.values,
            );
            stats.shard(shard).record_mput();
            for (&position, &previous) in group.positions.iter().zip(&self.values) {
                let (key, value) = pairs[position as usize];
                out[position as usize] = previous;
                // Same post-state as a point put: the key now holds either
                // its prior value or the inserted one.
                self.cache
                    .store(key, Some(previous.unwrap_or(value)), stamp);
            }
            group.pairs.clear();
            group.positions.clear();
        }
        self.touched.clear();
        stats.batch_latency_ns.record(started.elapsed_ns());
        stats.batch_size.record(pairs.len() as u64);
    }

    /// Executes one request, returning its response.
    pub fn execute(&mut self, request: &Request) -> Response {
        match request {
            Request::Get { key } => Response::Value(self.get(*key)),
            Request::Put { key, value } => Response::Value(self.put(*key, *value)),
            Request::Delete { key } => Response::Value(self.delete(*key)),
            Request::Scan { lo, len } => {
                let mut entries = Vec::new();
                self.scan(*lo, *len, &mut entries);
                Response::Entries(entries)
            }
            Request::MGet { keys } => {
                let mut values = Vec::new();
                self.mget(keys, &mut values);
                Response::Values(values)
            }
            Request::MPut { pairs } => {
                let mut results = Vec::new();
                self.mput(pairs, &mut results);
                Response::Values(results)
            }
            // A scrape touches no shard: the registry pulls every source
            // (shard counters, stage trace, EBR gauges, any front-end
            // sources) from right here, and it is not counted in the
            // per-shard operation counters.
            Request::Stats => Response::Stats(self.service.registry().render()),
        }
    }

    /// Serves one decoded request batch — a front end's frame — in order:
    /// one response per request is pushed onto `responses` (cleared
    /// first).  Each request completes before the next one starts, so a
    /// batch of any size is answered in full; nothing is shed.
    ///
    /// # Panics
    ///
    /// Panics if pipelined submissions are already in flight.
    pub fn serve_pipelined(&mut self, batch: &[Request], responses: &mut Vec<Response>) {
        self.assert_unpipelined();
        responses.clear();
        for request in batch {
            responses.push(self.execute(request));
        }
    }
}

impl std::fmt::Debug for ShardRouter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.sessions.len())
            .field("in_flight", &self.pending.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abtree::ElimABTree;

    fn two_shard_service() -> KvService {
        KvService::new(2, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        })
    }

    #[test]
    fn point_ops_round_trip_across_shards() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..500u64 {
            assert_eq!(router.put(key, key * 2), None);
        }
        for key in 0..500u64 {
            assert_eq!(router.get(key), Some(key * 2));
            assert_eq!(router.put(key, 999), Some(key * 2), "insert-if-absent");
        }
        for key in (0..500u64).step_by(2) {
            assert_eq!(router.delete(key), Some(key * 2));
            assert_eq!(router.get(key), None);
        }
        drop(router);
        assert_eq!(
            service.key_sum(),
            (0..500u128).filter(|k| k % 2 == 1).sum::<u128>()
        );
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..200u64 {
            router.put(key, key + 1);
        }
        let mut out = Vec::new();
        router.scan(50, 100, &mut out);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(out.first(), Some(&(50, 51)));
        assert_eq!(out.last(), Some(&(149, 150)));
        router.scan(10, 0, &mut out);
        assert!(out.is_empty(), "len 0 scans nothing");

        // At the top of the key space the window clamps below the sentinel
        // on every shard, and the merge still yields exactly its keys.
        let top = abtree::EMPTY_KEY - 40..abtree::EMPTY_KEY;
        for key in top.clone() {
            router.put(key, key - 1);
        }
        let shards: Vec<usize> = top.clone().map(|key| service.shard_of(key)).collect();
        assert!(shards.contains(&0) && shards.contains(&1), "{shards:?}");
        router.scan(abtree::EMPTY_KEY - 20, 100, &mut out);
        let expected: Vec<(u64, u64)> = top.skip(20).map(|key| (key, key - 1)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn mget_matches_single_gets_in_input_order() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..100u64 {
            router.put(key, key * 3);
        }
        let keys = [99, 0, 500, 42, 42, 7];
        let mut batched = Vec::new();
        router.mget(&keys, &mut batched);
        let singles: Vec<_> = keys.iter().map(|&k| router.get(k)).collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn mput_reports_per_pair_results() {
        let service = two_shard_service();
        let mut router = service.router();
        let mut results = Vec::new();
        router.mput(&[(1, 10), (2, 20), (1, 99)], &mut results);
        assert_eq!(results, vec![None, None, Some(10)]);
        assert_eq!(router.get(1), Some(10), "first writer wins");
    }

    #[test]
    fn execute_covers_every_request_kind() {
        let service = two_shard_service();
        let mut router = service.router();
        assert_eq!(
            router.execute(&Request::Put { key: 5, value: 50 }),
            Response::Value(None)
        );
        assert_eq!(
            router.execute(&Request::Get { key: 5 }),
            Response::Value(Some(50))
        );
        assert_eq!(
            router.execute(&Request::MPut {
                pairs: vec![(6, 60), (7, 70)]
            }),
            Response::Values(vec![None, None])
        );
        assert_eq!(
            router.execute(&Request::MGet {
                keys: vec![5, 6, 8]
            }),
            Response::Values(vec![Some(50), Some(60), None])
        );
        assert_eq!(
            router.execute(&Request::Scan { lo: 5, len: 3 }),
            Response::Entries(vec![(5, 50), (6, 60), (7, 70)])
        );
        assert_eq!(
            router.execute(&Request::Delete { key: 5 }),
            Response::Value(Some(50))
        );
        let mut responses = Vec::new();
        router.serve_pipelined(
            &[Request::Get { key: 6 }, Request::Get { key: 5 }],
            &mut responses,
        );
        assert_eq!(
            responses,
            vec![Response::Value(Some(60)), Response::Value(None)]
        );
    }

    #[test]
    fn stats_account_traffic() {
        if !obs::ENABLED {
            return; // counters are compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        router.put(1, 1);
        router.get(1);
        router.get(2);
        router.mget(&[1, 2, 3], &mut Vec::new());
        router.delete(1);
        let mut scan_out = Vec::new();
        router.scan(0, 10, &mut scan_out);
        drop(router);

        let stats = service.stats();
        let totals: u64 = stats.shards().iter().map(|s| s.total_ops()).sum();
        assert!(totals >= 5);
        let hits: u64 = stats.shards().iter().map(|s| s.hits()).sum();
        let misses: u64 = stats.shards().iter().map(|s| s.misses()).sum();
        assert_eq!(hits, 2, "get(1) and mget hit on key 1");
        assert_eq!(misses, 3, "get(2) and mget misses on 2 and 3");
        // Point latency is the `Apply` stage, sampled 1-in-16: a fresh
        // router's first traced call is the 15th (the sampler's fixed seed
        // draws offset 14 for the first block), so four point submissions
        // leave the histogram empty (the batch/scan histograms are
        // always-on — their clock reads amortize over the whole batch).
        let apply = service.stage_trace().histogram(Stage::Apply).count();
        assert_eq!(apply, 0, "4 ops < sample period");
        assert_eq!(stats.batch_latency_ns.count(), 1);
        assert_eq!(stats.scan_latency_ns.count(), 1);
        assert_eq!(stats.batch_size.count(), 1);
        // Every shard was scanned once by the scatter-gather scan.
        for shard in stats.shards() {
            assert_eq!(shard.scans(), 1);
        }
        // The put filled the cache for key 1, so the get and the mget both
        // hit it; key 2's miss is cached too and re-served to the mget.
        assert_eq!(stats.cache_hits(), 3, "get(1), mget keys 1 and 2");
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn cached_reads_observe_every_write() {
        let service = two_shard_service();
        let mut router = service.router();
        assert_eq!(router.put(8, 80), None);
        // Warm hit.
        assert_eq!(router.get(8), Some(80));
        // A delete through the same router must invalidate/overwrite.
        assert_eq!(router.delete(8), Some(80));
        assert_eq!(router.get(8), None);
        // A no-op put (insert-if-absent on a present key) must NOT shed
        // other cached entries: versions only move on real mutations.
        router.put(9, 90);
        let before = service.stats().cache_hits();
        router.put(9, 91); // no-op
        assert_eq!(router.get(9), Some(90), "first writer wins");
        assert!(
            !obs::ENABLED || service.stats().cache_hits() > before,
            "the no-op put must not invalidate key 9's cache entry"
        );
        // Writes from a *different* router invalidate this router's cache
        // through the shard version, not through any shared cache state.
        let mut other = service.router();
        assert_eq!(other.delete(9), Some(90));
        drop(other);
        assert_eq!(router.get(9), None, "stale hit would return Some(90)");
    }

    #[test]
    fn pipelined_window_collects_in_order() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..32u64 {
            router.put(key, key + 100);
        }
        // Submit a window of gets (some cache hits, some queued), then
        // collect: responses must arrive in submission order.
        for key in 0..32u64 {
            router.submit(&Request::Get { key }).unwrap();
        }
        assert_eq!(router.in_flight(), 32);
        for key in 0..32u64 {
            assert_eq!(router.collect(), Response::Value(Some(key + 100)));
        }
        assert_eq!(router.in_flight(), 0);
        // Mixed point kinds pipeline too.
        router.submit(&Request::Put { key: 900, value: 1 }).unwrap();
        router.submit(&Request::Get { key: 900 }).unwrap();
        router.submit(&Request::Delete { key: 900 }).unwrap();
        assert_eq!(router.collect(), Response::Value(None));
        assert_eq!(router.collect(), Response::Value(Some(1)));
        assert_eq!(router.collect(), Response::Value(Some(1)));
    }

    /// The per-router budget: [`LANE_CAPACITY`] uncollected responses, and
    /// the next submission is refused, not blocked on.
    #[test]
    fn full_lane_sheds_with_overloaded() {
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let mut router = service.router();
        for key in 0..LANE_CAPACITY as u64 {
            router.submit(&Request::Get { key }).unwrap();
        }
        assert_eq!(
            router.submit(&Request::Get { key: 9_999 }),
            Err(Overloaded),
            "the 65th in-flight request must be refused, not block"
        );
        assert!(!obs::ENABLED || service.stats().shed() == 1);
        assert!(Overloaded.to_string().contains("in flight"));
        // Collecting frees the window again.
        for _ in 0..LANE_CAPACITY {
            assert_eq!(router.collect(), Response::Value(None));
        }
        router.submit(&Request::Get { key: 9_999 }).unwrap();
        assert_eq!(router.collect(), Response::Value(None));
    }

    #[test]
    fn serve_pipelined_answers_in_request_order() {
        let service = two_shard_service();
        let mut router = service.router();
        let batch = vec![
            Request::Put { key: 1, value: 10 },
            Request::Put { key: 2, value: 20 },
            Request::Get { key: 1 },
            // A blocking request mid-batch forces a window drain first.
            Request::MGet {
                keys: vec![1, 2, 3],
            },
            Request::Delete { key: 2 },
            Request::Scan { lo: 1, len: 4 },
        ];
        let mut responses = Vec::new();
        router.serve_pipelined(&batch, &mut responses);
        assert_eq!(
            responses,
            vec![
                Response::Value(None),
                Response::Value(None),
                Response::Value(Some(10)),
                Response::Values(vec![Some(10), Some(20), None]),
                Response::Value(Some(20)),
                Response::Entries(vec![(1, 10)]),
            ]
        );
        assert_eq!(router.in_flight(), 0, "the pipeline drains fully");
    }

    /// A frame larger than the router's budget is answered in full: the
    /// budget bounds uncollected submissions, and a served request is done
    /// before the next one starts.
    #[test]
    fn serve_pipelined_answers_a_frame_over_the_budget_in_full() {
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let mut router = service.router();
        // Distinct keys, so the read cache cannot absorb any of them.
        let batch: Vec<Request> = (1..=LANE_CAPACITY as u64 + 8)
            .map(|key| Request::Get { key })
            .collect();
        let mut responses = Vec::new();
        router.serve_pipelined(&batch, &mut responses);
        assert_eq!(responses, vec![Response::Value(None); batch.len()]);
        assert_eq!(service.stats().shed(), 0);
    }

    #[test]
    fn pipelined_get_reads_its_own_in_flight_put() {
        // Regression: mget caches "absent" for missed keys, and the cache
        // fast path used to answer a pipelined Get at submit time even
        // while a Put of the same key sat uncollected in the lane — the
        // applied-version check cannot see in-flight writes.  The session
        // then failed to read its own write.
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let mut router = service.router();

        // Seed the cache with key 7 -> absent.
        let mut values = Vec::new();
        router.mget(&[7], &mut values);
        assert_eq!(values, vec![None]);

        // Same frame: Put(7) then Get(7).  The Get must see the Put, not
        // the stale cache entry.
        let mut responses = Vec::new();
        router.serve_pipelined(
            &[Request::Put { key: 7, value: 70 }, Request::Get { key: 7 }],
            &mut responses,
        );
        assert_eq!(
            responses,
            vec![Response::Value(None), Response::Value(Some(70))]
        );
    }

    #[test]
    fn serve_burst_answers_the_batches_back_to_back() {
        let service = two_shard_service();
        let mut router = service.router();
        let burst = vec![
            vec![
                Request::Put { key: 1, value: 10 },
                Request::Put { key: 2, value: 20 },
            ],
            // A barrier in the middle batch: it sees the first batch's
            // writes, the last batch sees its delete.
            vec![
                Request::Get { key: 2 },
                Request::Scan { lo: 1, len: 4 },
                Request::Delete { key: 1 },
            ],
            vec![],
            vec![Request::Get { key: 1 }],
        ];
        let mut responses = Vec::new();
        let mut frame_responses = Vec::new();
        for batch in &burst {
            router.serve_pipelined(batch, &mut frame_responses);
            responses.append(&mut frame_responses);
        }
        assert_eq!(
            responses,
            vec![
                Response::Value(None),
                Response::Value(None),
                Response::Value(Some(20)),
                Response::Entries(vec![(1, 10), (2, 20)]),
                Response::Value(Some(10)),
                Response::Value(None),
            ]
        );
        assert_eq!(router.in_flight(), 0, "the pipeline drains fully");
    }

    #[test]
    #[should_panic(expected = "pipelined submissions are in flight")]
    fn blocking_calls_refuse_to_overtake_the_pipeline() {
        let service = two_shard_service();
        let mut router = service.router();
        router.submit(&Request::Put { key: 1, value: 1 }).unwrap();
        let _ = router.get(2);
    }

    #[test]
    #[should_panic(expected = "point requests only")]
    fn batch_requests_cannot_be_pipelined() {
        let service = two_shard_service();
        let mut router = service.router();
        let _ = router.submit(&Request::MGet { keys: vec![1] });
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn reserved_sentinel_is_rejected_at_the_boundary() {
        // A decoded wire frame may carry any u64; the router must refuse the
        // engine's reserved key loudly even in release builds.
        let service = two_shard_service();
        let mut router = service.router();
        router.put(abtree::EMPTY_KEY, 1);
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn reserved_sentinel_is_rejected_in_batches() {
        let service = two_shard_service();
        let mut router = service.router();
        router.mget(&[1, abtree::EMPTY_KEY], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn reserved_sentinel_is_rejected_in_scans() {
        let service = two_shard_service();
        let mut router = service.router();
        router.scan(abtree::EMPTY_KEY, 10, &mut Vec::new());
    }

    #[test]
    fn sampled_point_traffic_fills_the_stage_histograms() {
        if !obs::ENABLED {
            return; // tracing is compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        // Windows of two puts (a put has no cache fast path): 1024
        // submissions at a 1-in-16 sample rate trace exactly 64 of them.
        for key in (0..1024u64).step_by(2) {
            router.submit(&Request::Put { key, value: key }).unwrap();
            router
                .submit(&Request::Put {
                    key: key + 1,
                    value: key,
                })
                .unwrap();
            router.collect();
            router.collect();
        }
        drop(router);
        let trace = service.stage_trace();
        assert_eq!(
            trace.histogram(Stage::Apply).count(),
            1024 >> TRACE_SAMPLE_SHIFT,
            "the sampler is deterministic"
        );
    }

    /// A sampled `Get` that the hot-key cache answers is traced like one
    /// the tree answers, so a workload of cache hits still fills `Apply`.
    #[test]
    fn a_sampled_cache_hit_records_apply() {
        if !obs::ENABLED {
            return; // tracing is compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        router.put(1, 10);
        for _ in 1..1024 {
            assert_eq!(router.get(1), Some(10));
        }
        drop(router);
        assert_eq!(service.stats().cache_hits(), 1023, "every get hit");
        assert_eq!(
            service.stage_trace().histogram(Stage::Apply).count(),
            1024 >> TRACE_SAMPLE_SHIFT,
            "every sampled request is a cache hit"
        );
    }

    #[test]
    fn a_direct_request_records_apply_and_no_lane_stage() {
        if !obs::ENABLED {
            return; // tracing is compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..1024u64 {
            router.put(key, key);
        }
        drop(router);
        assert_eq!(
            service.stats().total_ops(),
            1024,
            "each request is counted once"
        );
        let trace = service.stage_trace();
        assert_eq!(
            trace.histogram(Stage::Apply).count(),
            1024 >> TRACE_SAMPLE_SHIFT
        );
        for stage in [Stage::Enqueue, Stage::Dequeue, Stage::Ack] {
            assert_eq!(
                trace.histogram(stage).count(),
                0,
                "stage {}: no request crosses a lane",
                stage.name()
            );
        }
    }

    /// Lone point requests, and a pipelined window of two, run on the
    /// caller's own session: each is counted once and none is handed to an
    /// owner, so no enqueue, dequeue or ack stage is ever recorded.
    #[test]
    fn a_window_of_one_never_wakes_an_owner() {
        let service = two_shard_service();
        let mut router = service.router();
        for i in 0..10_000u64 {
            let key = 1 + i % 512;
            match i % 3 {
                0 => router.put(key, i),
                1 => router.get(key),
                _ => router.delete(key),
            };
        }
        assert!(
            !obs::ENABLED || service.stats().total_ops() == 10_000,
            "each request is counted once"
        );

        let mut responses = Vec::new();
        router.serve_pipelined(
            &[
                Request::Put { key: 600, value: 1 },
                Request::Put { key: 601, value: 2 },
            ],
            &mut responses,
        );
        assert_eq!(
            responses,
            vec![Response::Value(None), Response::Value(None)]
        );
        assert_eq!(router.get(600), Some(1));
        assert_eq!(router.get(601), Some(2));
        drop(router);
        assert!(!obs::ENABLED || service.stats().total_ops() == 10_004);
        let trace = service.stage_trace();
        for stage in [Stage::Enqueue, Stage::Dequeue, Stage::Ack] {
            assert_eq!(
                trace.histogram(stage).count(),
                0,
                "stage {}: no owner was handed a request",
                stage.name()
            );
        }
    }

    /// An open but idle router must not hold back its shards' reclamation:
    /// its sessions pin nothing (and protect nothing) between calls, so the
    /// garbage a second router churns out keeps being freed.
    #[test]
    fn an_idle_router_does_not_hold_back_reclamation() {
        for policy in abebr::SmrPolicy::ALL {
            let collector = abebr::Collector::with_policy(policy);
            let service = {
                let collector = collector.clone();
                KvService::new(1, 1, move |_| {
                    let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
                    Box::new(tree)
                })
            };
            // Idle after real use: the session has pinned, searched and
            // updated, and is left as the last call left it.  (It retired
            // nothing: a session's own last few retirements wait for its
            // next call, which is bounded but would age.)
            let mut idle = service.router();
            for key in 1..=8u64 {
                idle.put(key, key);
                idle.get(key);
            }
            let mut busy = service.router();
            for i in 0..100_000u64 {
                let key = 100 + i % 4096;
                if (i / 4096) % 2 == 0 {
                    busy.put(key, i);
                } else {
                    busy.delete(key);
                }
            }
            let stats = collector.stats();
            assert!(stats.retired > 1_000, "{policy}: the churn retired nodes");
            assert!(
                stats.unreclaimed < 1_000,
                "{policy}: {} of {} retired nodes unreclaimed",
                stats.unreclaimed,
                stats.retired
            );
            assert!(
                stats.oldest_epoch_age < 1_000,
                "{policy}: oldest garbage is {} behind",
                stats.oldest_epoch_age
            );
            drop(idle);
        }
    }
}
