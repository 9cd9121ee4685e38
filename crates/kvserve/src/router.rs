//! The per-client router: point, pipelined and batched request paths over
//! one [`ClientLane`] and one tree session per shard.
//!
//! Windows of work ride the lanes: the router splits `MGet`/`MPut` into
//! shard-local sub-batches, pushes them to the owning workers (fanning out
//! before collecting, so shards execute concurrently), and reassembles the
//! completions in input order.  In front sits a per-router hot-key read
//! cache ([`crate::cache`]) validated by the shards' mutation counters, so
//! the top of the Zipf curve touches neither a lane nor a tree.
//!
//! Two request interfaces share the lanes:
//!
//! * the **blocking** methods ([`get`](ShardRouter::get),
//!   [`mget`](ShardRouter::mget), ...) — one call, one completed result;
//! * the **pipelined** pair [`submit`](ShardRouter::submit) /
//!   [`collect`](ShardRouter::collect) for point requests, which keeps up
//!   to [`LANE_CAPACITY`] requests per shard in flight and returns
//!   [`Overloaded`] — never blocks — when a lane is full.  The two styles
//!   must not be interleaved: blocking calls assert that nothing is in
//!   flight.
//!
//! **A window of one is not handed off.**  A point request with nothing to
//! overlap with — a blocking [`get`](ShardRouter::get) /
//! [`put`](ShardRouter::put) / [`delete`](ShardRouter::delete), or the last
//! request of a [`serve_burst`](ShardRouter::serve_burst) when none of this
//! router's lane jobs is in flight — runs on the calling thread, on the
//! router's own [`MapHandle`] against the shard's tree: the tree is a
//! linearizable concurrent map, and a futex wake and a context switch each
//! way cost ten times the operation they would carry.  The owner and the
//! routers then mutate a shard concurrently; what keeps the cache sound is
//! the stamp protocol in the private `worker` module, which both go
//! through.
//!
//! Submitting only queues: a parked shard owner is woken by the lanes'
//! doorbell ([`crate::owner`]), which rings once per window — when a
//! [`collect`](ShardRouter::collect) or a blocking call has to wait — not
//! once per request.  A caller that submits and then waits on anything else
//! calls [`flush`](ShardRouter::flush).

use std::collections::VecDeque;

use abtree::MapHandle;
use obs::{Stage, StageRecorder, Stamp};

use crate::cache::ReadCache;
use crate::owner::{ClientLane, LANE_CAPACITY};
use crate::request::{Request, Response};
use crate::service::KvService;
use crate::worker::{self, Job, Reply, ShardJob, ShardReply};

/// Point requests are stage-traced one in `2^TRACE_SAMPLE_SHIFT`: dense
/// enough to fill the per-stage latency histograms within seconds of real
/// load, sparse enough that the extra clock reads stay far inside the
/// telemetry budget on the pipelined hot path.
const TRACE_SAMPLE_SHIFT: u32 = 4;

/// Backpressure signal of [`ShardRouter::submit`]: the target shard's lane
/// already holds [`LANE_CAPACITY`] uncollected requests from this router.
/// The request was **not** enqueued; collect completions (or shed the
/// request — the wire codec can answer [`Response::Overloaded`]) and
/// retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard lane full: {LANE_CAPACITY} requests already in flight")
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

/// The point-request kinds the pipelined interface carries.
#[derive(Clone, Copy)]
enum PointOp {
    Get,
    Put,
    Delete,
}

impl PointOp {
    /// `request` as `(op, key, value)` if it is a point request (`value`
    /// is 0 for the kinds that carry none).
    fn of(request: &Request) -> Option<(PointOp, u64, u64)> {
        match *request {
            Request::Get { key } => Some((PointOp::Get, key, 0)),
            Request::Put { key, value } => Some((PointOp::Put, key, value)),
            Request::Delete { key } => Some((PointOp::Delete, key, 0)),
            _ => None,
        }
    }

    fn job(self, key: u64, value: u64) -> ShardJob {
        match self {
            PointOp::Get => ShardJob::Get { key },
            PointOp::Put => ShardJob::Put { key, value },
            PointOp::Delete => ShardJob::Delete { key },
        }
    }
}

/// One submitted-but-uncollected request, in submission order.
enum Pending {
    /// Answered immediately (a cache hit); stats were already recorded.
    Ready { response: Response },
    /// In flight to `shard`; `value` is the put payload (for cache fill).
    /// `started` is a real stamp for every submission (it feeds the point
    /// latency histogram), traced or not.
    Point {
        op: PointOp,
        shard: usize,
        key: u64,
        value: u64,
        started: Stamp,
    },
}

/// A per-client session over the whole service: one [`ClientLane`] per
/// shard feeding the shard owners, one tree session per shard for the
/// requests that are not worth a hand-off, a private hot-key read cache,
/// and regrouping scratch so batch execution allocates only the sub-batch
/// vectors it ships across the lanes.
///
/// Obtained from [`KvService::router`].  Routers are independent; open one
/// per client thread, on that thread — a router is `!Send`, like the tree
/// sessions it owns.
pub struct ShardRouter<'s> {
    service: &'s KvService,
    lanes: Vec<ClientLane<Job, Reply>>,
    /// This router's own session on each shard's store, for windows of one.
    /// `None` where the store had no session slot left when the router was
    /// opened: that shard's point requests keep riding the lane.
    sessions: Vec<Option<Box<dyn MapHandle + 's>>>,
    cache: ReadCache,
    groups: Vec<Group>,
    /// Shards with a non-empty group in the batch being executed (sparse
    /// clear: only touched groups are reset).
    touched: Vec<usize>,
    /// FIFO of pipelined submissions awaiting [`collect`](Self::collect).
    pending: VecDeque<Pending>,
    /// Scratch of [`serve_burst`](Self::serve_burst): response positions of
    /// the open window.
    window: Vec<usize>,
    /// Sampled stage recorder: decides at submit time which point requests
    /// get stage-traced, and records the router-side stages (`Enqueue`,
    /// `Ack`) for those that do.
    recorder: StageRecorder,
}

impl<'s> ShardRouter<'s> {
    pub(crate) fn new(service: &'s KvService) -> Self {
        let lanes: Vec<_> = service
            .mailboxes()
            .map(|mailbox| mailbox.open_lane())
            .collect();
        ShardRouter {
            service,
            sessions: service
                .stores()
                .map(|store| store.try_handle().ok())
                .collect(),
            cache: ReadCache::new(),
            groups: lanes.iter().map(|_| Group::default()).collect(),
            lanes,
            touched: Vec::new(),
            pending: VecDeque::new(),
            window: Vec::new(),
            recorder: service.stage_trace().sampled_recorder(TRACE_SAMPLE_SHIFT),
        }
    }

    /// The service this router serves.
    pub fn service(&self) -> &'s KvService {
        self.service
    }

    /// Blocking calls must not overtake pipelined submissions: per-lane
    /// replies are matched to requests purely by FIFO order.
    #[inline]
    fn assert_unpipelined(&self) {
        assert!(
            self.pending.is_empty(),
            "blocking router calls cannot run while pipelined submissions are in flight; \
             collect() them first"
        );
    }

    /// Pushes `job` into `shard`'s lane; its owner is woken when a reply is
    /// waited for, not here. The caller guarantees lane capacity (sync calls
    /// keep at most one request per shard in flight; pipelined submission
    /// checks the in-flight count first).
    ///
    /// `stamp` is the request's trace stamp ([`Stamp::NONE`] for untraced
    /// requests, which makes every stage record below a no-op): the
    /// `Enqueue` stage — submit-side routing, cache probe and capacity
    /// check — closes here, and the post-enqueue stamp rides the lane so
    /// the owner can time the queue wait as `Dequeue`.
    fn enqueue(&mut self, shard: usize, stamp: Stamp, job: ShardJob) {
        let enqueued = self.recorder.record(Stage::Enqueue, stamp);
        if self.lanes[shard].try_send((enqueued, job)).is_err() {
            panic!("shard lane full despite the in-flight cap");
        }
    }

    /// Point lookup of `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.point_alone(PointOp::Get, key, 0)
    }

    /// Insert-if-absent of `key -> value`: returns the existing value
    /// (leaving it unchanged) if `key` was present, `None` if the pair was
    /// inserted (see [`abtree::MapHandle::insert`]).
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        self.point_alone(PointOp::Put, key, value)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        self.point_alone(PointOp::Delete, key, 0)
    }

    /// A blocking point call: a window of one by construction.
    fn point_alone(&mut self, op: PointOp, key: u64, value: u64) -> Option<u64> {
        self.assert_unpipelined();
        if let Some(result) = self.run_direct(op, key, value) {
            return result;
        }
        self.submit_point(op, key, value)
            .expect("nothing in flight, the lane cannot be full");
        match self.collect() {
            Response::Value(result) => result,
            _ => unreachable!("point submissions collect point responses"),
        }
    }

    /// Runs a point request on this router's own session — no lane, no
    /// owner — or returns `None` if it has no session on the key's shard.
    /// The caller guarantees that none of this router's lane jobs is in
    /// flight (nothing for the request to overtake).
    ///
    /// Same cache probe as a submission, same [`worker::execute`] as the
    /// owner, same completion bookkeeping as [`collect`](Self::collect).  Of
    /// the lane stages only `Apply` exists here: a sampled request records
    /// it and the point latency from one clock read.
    fn run_direct(&mut self, op: PointOp, key: u64, value: u64) -> Option<Option<u64>> {
        let service = self.service;
        let shard = service.shard_of(key);
        self.sessions[shard].as_ref()?;
        let started = self.recorder.sample_start();
        if matches!(op, PointOp::Get) {
            if let Some(cached) = self.probe_cache(shard, key, started) {
                return Some(cached);
            }
        }
        let session = self.sessions[shard].as_deref_mut()?;
        let reply = worker::execute(session, service.shard_state(shard), op.job(key, value));
        if started.is_traced() {
            let now = Stamp::now();
            self.recorder.record_at(Stage::Apply, started, now);
            service.stats().point_latency_ns.record(now.since(started));
        }
        Some(self.complete_point(op, shard, key, value, reply))
    }

    /// The hot-key fast path: `key`'s cached read result if its entry is
    /// still valid, with the request's stats recorded.  Sound only while
    /// this router has nothing in flight on `shard` (see
    /// [`submit_point`](Self::submit_point)).
    fn probe_cache(&self, shard: usize, key: u64, started: Stamp) -> Option<Option<u64>> {
        let begun = self.service.shard_state(shard).begun();
        let cached = self.cache.lookup(key, begun)?;
        let stats = self.service.stats();
        stats.record_cache_hit();
        if started.is_traced() {
            stats.point_latency_ns.record(started.elapsed_ns());
        }
        stats.shard(shard).record_get(cached.is_some());
        stats
            .namespace(stats.namespace_slot(key))
            .record_get(cached.is_some());
        Some(cached)
    }

    /// Completion bookkeeping of one executed point request, whichever
    /// thread executed it: the per-shard / per-namespace counters and the
    /// cache fill.
    fn complete_point(
        &mut self,
        op: PointOp,
        shard: usize,
        key: u64,
        value: u64,
        reply: ShardReply,
    ) -> Option<u64> {
        let ShardReply::Value {
            value: result,
            stamp,
        } = reply
        else {
            unreachable!("point jobs produce point replies")
        };
        let stats = self.service.stats();
        let ns = stats.namespace(stats.namespace_slot(key));
        match op {
            PointOp::Get => {
                stats.shard(shard).record_get(result.is_some());
                ns.record_get(result.is_some());
                self.cache.store(key, result, stamp);
            }
            PointOp::Put => {
                stats.shard(shard).record_put();
                ns.record_put();
                // Either the insert landed (key -> value) or it was a no-op
                // (key kept its prior value); both are exact at the stamp.
                self.cache.store(key, Some(result.unwrap_or(value)), stamp);
            }
            PointOp::Delete => {
                stats.shard(shard).record_delete();
                ns.record_delete();
                // Whatever was there, the key is now absent.
                self.cache.store(key, None, stamp);
            }
        }
        result
    }

    /// Pipelined submission of a point request (`Get`/`Put`/`Delete`).
    ///
    /// Returns without waiting for execution — and without waking a parked
    /// shard owner: that happens when [`collect`](Self::collect) has to wait,
    /// or on [`flush`](Self::flush).  Responses are retrieved with
    /// `collect` in submission order.  Fails with
    /// [`Overloaded`] — refusing the request rather than blocking — when
    /// the target shard already has [`LANE_CAPACITY`] of this router's
    /// requests in flight.  A `Get` answered by the hot-key cache completes
    /// immediately (it still must be `collect`ed, in order).
    ///
    /// # Panics
    ///
    /// Panics on `Scan`/`MGet`/`MPut` requests: batches and scans use the
    /// blocking methods, whose shard fan-out is already parallel.
    pub fn submit(&mut self, request: &Request) -> Result<(), Overloaded> {
        let Some((op, key, value)) = PointOp::of(request) else {
            panic!(
                "pipelined submission carries point requests only; \
                 use scan/mget/mput (their shard fan-out is already parallel) \
                 and execute() for stats scrapes"
            )
        };
        self.submit_point(op, key, value)
    }

    fn submit_point(&mut self, op: PointOp, key: u64, value: u64) -> Result<(), Overloaded> {
        let service = self.service;
        let shard = service.shard_of(key);
        // One sampling decision covers the stage trace AND the point-latency
        // histogram: the untraced 15-in-16 majority reads no clock at all.
        // (A single `Stamp::now` costs ~25ns on a virtualized TSC — two per
        // op would eat most of the telemetry budget by themselves; uniform
        // 1-in-16 sampling keeps the latency quantiles unbiased.)
        let started = self.recorder.sample_start();
        // The cache fast path answers at *submit* time against the shard's
        // counters — sound only while this router has nothing in flight on
        // the shard.  An uncollected submission may be a write to this very
        // key that the counters cannot see yet, and a cached answer would
        // jump it: the session would fail to read its own pipelined write.
        // Falling into the lane restores FIFO order.
        if matches!(op, PointOp::Get) && self.lanes[shard].in_flight() == 0 {
            if let Some(cached) = self.probe_cache(shard, key, started) {
                self.pending.push_back(Pending::Ready {
                    response: Response::Value(cached),
                });
                return Ok(());
            }
        }
        if self.lanes[shard].in_flight() >= LANE_CAPACITY {
            service.stats().record_shed();
            return Err(Overloaded);
        }
        self.enqueue(shard, started, op.job(key, value));
        self.pending.push_back(Pending::Point {
            op,
            shard,
            key,
            value,
            started,
        });
        Ok(())
    }

    /// Number of pipelined submissions not yet collected.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Wakes every shard owner that has submissions it may not know about.
    /// [`collect`](Self::collect) does this itself when it has to wait; call
    /// `flush` after [`submit`](Self::submit) only when the next thing this
    /// thread waits on is something else.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            lane.ring();
        }
    }

    /// The next reply on `shard`'s lane; if it has to wait, every shard
    /// with unannounced submissions is woken first (see
    /// [`ClientLane::recv_from`]).
    #[inline]
    fn recv(&mut self, shard: usize) -> Reply {
        ClientLane::recv_from(&mut self.lanes, shard)
    }

    /// Retrieves the response to the **oldest** uncollected submission,
    /// waiting for its shard if it has not completed yet.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn collect(&mut self) -> Response {
        let pending = self.pending.pop_front().expect("no submissions in flight");
        match pending {
            Pending::Ready { response } => response,
            Pending::Point {
                op,
                shard,
                key,
                value,
                started,
            } => {
                let (applied, reply) = self.recv(shard);
                // Sampled requests only: one clock read closes both the
                // `Ack` stage (reply-lane wait) and the point latency; the
                // untraced majority skips the read entirely.
                if started.is_traced() {
                    let now = Stamp::now();
                    self.recorder.record_at(Stage::Ack, applied, now);
                    let latency = &self.service.stats().point_latency_ns;
                    latency.record(now.since(started));
                }
                Response::Value(self.complete_point(op, shard, key, value, reply))
            }
        }
    }

    /// Scatter-gather scan of the window `[lo, lo + len - 1]` (clamped below
    /// the engine's reserved sentinel): every shard owner scans its slice
    /// concurrently and the results are merged into `out`, sorted by key
    /// (`out` is cleared first).
    ///
    /// Each *per-shard* sub-scan has that shard's scan guarantee (a
    /// linearizable snapshot on the (a,b)-trees); the merged cross-shard
    /// result is *not* one atomic snapshot — shards scan independently,
    /// like any scatter-gather service read.
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
        for shard in 0..self.lanes.len() {
            self.enqueue(shard, Stamp::NONE, ShardJob::Range { lo, hi });
        }
        for shard in 0..self.lanes.len() {
            let (_, ShardReply::Entries { entries }) = self.recv(shard) else {
                unreachable!("range jobs produce entry replies")
            };
            out.extend_from_slice(&entries);
            stats.shard(shard).record_scan();
        }
        out.sort_unstable_by_key(|&(key, _)| key);
        stats.scan_latency_ns.record(started.elapsed_ns());
        stats.namespace(stats.namespace_slot(lo)).record_scan();
    }

    /// Batched multi-get: one lookup per key, results pushed to `out`
    /// (cleared first) in input order.
    ///
    /// Keys the hot-key cache can answer are filled in locally; the rest
    /// are regrouped by destination shard and shipped as one
    /// [`abtree::MapHandle::get_batch`] sub-batch per shard, **all fanned
    /// out before any reply is awaited** — so an `N`-key multi-get costs
    /// one concurrent queue round-trip, not `N` serial ones.
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
                let ns = stats.namespace(stats.namespace_slot(key));
                ns.record_mget();
                ns.record_lookup(cached.is_some());
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
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let sub_batch = std::mem::take(&mut self.groups[shard].keys);
            self.enqueue(shard, Stamp::NONE, ShardJob::GetBatch { keys: sub_batch });
        }
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let (_, ShardReply::Values { values, stamp }) = self.recv(shard) else {
                unreachable!("batch jobs produce batch replies")
            };
            let counters = stats.shard(shard);
            counters.record_mget();
            let group = &mut self.groups[shard];
            for (&position, &value) in group.positions.iter().zip(&values) {
                let key = keys[position as usize];
                counters.record_lookup(value.is_some());
                let ns = stats.namespace(stats.namespace_slot(key));
                ns.record_mget();
                ns.record_lookup(value.is_some());
                out[position as usize] = value;
                self.cache.store(key, value, stamp);
            }
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
    /// Same regrouping and concurrent fan-out as [`mget`](Self::mget),
    /// through one [`abtree::MapHandle::insert_batch`] sub-batch per shard
    /// touched.
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
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let sub_batch = std::mem::take(&mut self.groups[shard].pairs);
            self.enqueue(shard, Stamp::NONE, ShardJob::PutBatch { pairs: sub_batch });
        }
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let (_, ShardReply::Values { values, stamp }) = self.recv(shard) else {
                unreachable!("batch jobs produce batch replies")
            };
            let counters = stats.shard(shard);
            counters.record_mput();
            let group = &mut self.groups[shard];
            for (&position, &previous) in group.positions.iter().zip(&values) {
                let (key, value) = pairs[position as usize];
                stats.namespace(stats.namespace_slot(key)).record_mput();
                out[position as usize] = previous;
                // Same post-state as a point put: the key now holds either
                // its prior value or the inserted one.
                self.cache.store(key, Some(previous.unwrap_or(value)), stamp);
            }
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
            // A scrape never crosses a shard lane: the registry pulls
            // every source (shard counters, stage trace, EBR gauges, any
            // front-end sources) from right here, so it cannot be shed,
            // cannot be reordered behind queued work, and is not counted
            // in the per-shard operation counters.
            Request::Stats => Response::Stats(self.service.registry().render()),
        }
    }

    /// Executes a request batch in order, pushing one response per request
    /// onto `out` (cleared first).
    pub fn execute_batch(&mut self, requests: &[Request], out: &mut Vec<Response>) {
        out.clear();
        out.reserve(requests.len());
        for request in requests {
            out.push(self.execute(request));
        }
    }

    /// Serves one decoded request batch the way a non-blocking front end
    /// must: [`serve_burst`](Self::serve_burst) with a burst of one.
    ///
    /// # Panics
    ///
    /// Panics if pipelined submissions are already in flight.
    pub fn serve_pipelined(&mut self, batch: &[Request], responses: &mut Vec<Response>) {
        self.serve_burst(&[batch], responses);
    }

    /// Serves a burst of decoded request batches as **one** pipelined
    /// window: every point request of every batch rides
    /// [`submit`](Self::submit) first, then the window is
    /// [`collect`](Self::collect)ed in order — so the whole burst costs one
    /// hand-off to each shard owner it touches, not one per batch.  A
    /// submission the window refuses is answered with
    /// [`Response::Overloaded`] in place — the request is shed, **never**
    /// blocked on; a burst of at most [`LANE_CAPACITY`] requests is never
    /// refused.  Scans, batches and scrapes use the blocking calls (their
    /// shard fan-out is already parallel) and are ordering barriers: the
    /// window is drained first so replies cannot be misattributed.
    ///
    /// A point request that would open and close a window by itself — the
    /// burst's last request, with none of this router's lane jobs in flight
    /// — is not handed off: it runs on this thread (module docs).  A
    /// one-request frame and `[Scan, Get]` both end that way; a two-request
    /// frame is a window.
    ///
    /// One response per request is pushed onto `responses` (cleared first),
    /// in request order, the batches back to back.  The pipeline is empty
    /// again when this returns.
    ///
    /// # Panics
    ///
    /// Panics if pipelined submissions are already in flight.
    pub fn serve_burst<B: AsRef<[Request]>>(&mut self, burst: &[B], responses: &mut Vec<Response>) {
        self.assert_unpipelined();
        responses.clear();
        let total: usize = burst.iter().map(|batch| batch.as_ref().len()).sum();
        responses.reserve(total);
        // Positions of submitted requests, whose placeholder response is
        // overwritten when the window is collected (submission order).
        let mut window = std::mem::take(&mut self.window);
        let requests = burst.iter().flat_map(|batch| batch.as_ref());
        for (position, request) in requests.enumerate() {
            let Some((op, key, value)) = PointOp::of(request) else {
                // Blocking calls must not overtake the window: drain it,
                // then serve the scan/batch.
                self.collect_window(&mut window, responses);
                responses.push(self.execute(request));
                continue;
            };
            if position + 1 == total && self.lanes_are_empty() {
                if let Some(result) = self.run_direct(op, key, value) {
                    responses.push(Response::Value(result));
                    continue;
                }
            }
            // A full lane sheds the request — the wire answer the codec
            // exists to carry — rather than block the serving loop on a hot
            // shard; a submitted one holds the same value as its
            // placeholder.
            if self.submit_point(op, key, value).is_ok() {
                window.push(position);
            }
            responses.push(Response::Overloaded);
        }
        self.collect_window(&mut window, responses);
        self.window = window;
    }

    /// Whether none of this router's lane jobs is in flight: the pipeline
    /// holds nothing but already-answered cache hits.
    fn lanes_are_empty(&self) -> bool {
        self.pending
            .iter()
            .all(|pending| matches!(pending, Pending::Ready { .. }))
    }

    fn collect_window(&mut self, window: &mut Vec<usize>, responses: &mut [Response]) {
        for position in window.drain(..) {
            responses[position] = self.collect();
        }
    }
}

impl std::fmt::Debug for ShardRouter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.lanes.len())
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
            router.execute(&Request::MGet { keys: vec![5, 6, 8] }),
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
        router.execute_batch(
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
        // Point latency is sampled 1-in-16 with the stage trace: four point
        // submissions on a fresh router stay below the sample period, so
        // the histogram is empty (the batch/scan histograms are always-on —
        // their clock reads amortize over the whole batch).
        assert_eq!(stats.point_latency_ns.count(), 0, "4 ops < sample period");
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
        // A delete through the same shard owner must invalidate/overwrite.
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

    #[test]
    fn full_lane_sheds_with_overloaded() {
        // One shard makes the target lane deterministic. `outstanding` is
        // only released by collect(), so the cap is reached regardless of
        // how fast the owner drains.
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
            Request::MGet { keys: vec![1, 2, 3] },
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

    #[test]
    fn serve_pipelined_sheds_with_overloaded_in_place() {
        // One shard: every point request targets the same lane, so the
        // 65th-and-later uncollected submissions in one frame must shed.
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
        assert_eq!(responses.len(), batch.len());
        let shed = responses
            .iter()
            .filter(|r| matches!(r, Response::Overloaded))
            .count();
        assert_eq!(shed, 8, "exactly the beyond-capacity tail is shed");
        assert!(
            responses[..LANE_CAPACITY]
                .iter()
                .all(|r| *r == Response::Value(None)),
            "the in-window prefix is served normally"
        );
        assert!(!obs::ENABLED || service.stats().shed() == 8);
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

        // Same frame: Put(7) then Get(7).  The Get must ride the lane
        // behind the Put, not hit the stale cache entry.
        let mut responses = Vec::new();
        router.serve_pipelined(
            &[
                Request::Put { key: 7, value: 70 },
                Request::Get { key: 7 },
            ],
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
        router.serve_burst(&burst, &mut responses);
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

    /// Doorbells that had to unpark an owner, per shard, as the scrape
    /// reports them.
    fn owner_wakes(service: &KvService) -> Vec<u64> {
        let samples = obs::expo::parse(&service.registry().render()).expect("the scrape parses");
        (0..service.shard_count())
            .map(|shard| {
                let shard = shard.to_string();
                obs::expo::value(
                    &samples,
                    "kv_owner_wakes_total",
                    &[("shard", shard.as_str())],
                )
                .expect("every shard exports its wake count")
            })
            .collect()
    }

    fn wait_parked(service: &KvService) {
        for mailbox in service.mailboxes() {
            crate::owner::wait_parked(mailbox);
        }
    }

    #[test]
    fn a_window_rings_at_most_one_doorbell_per_shard() {
        let service = two_shard_service();
        let mut router = service.router();
        wait_parked(&service);
        let before = owner_wakes(&service);
        for key in 1..=32u64 {
            router.submit(&Request::Put { key, value: key }).unwrap();
        }
        assert_eq!(owner_wakes(&service), before, "submit alone wakes nobody");
        for _ in 1..=32u64 {
            assert_eq!(router.collect(), Response::Value(None));
        }
        // 32 keys touch both shards: one doorbell each (none for an owner
        // that was not quite parked yet).
        for (after, before) in owner_wakes(&service).iter().zip(&before) {
            assert!(
                after - before <= 1,
                "{} doorbells for one window",
                after - before
            );
        }
    }

    #[test]
    fn flush_wakes_parked_owners_without_a_collect() {
        let service = two_shard_service();
        let mut router = service.router();
        wait_parked(&service);
        let shard = service.shard_of(5);
        let version = service.shard_state(shard).current_version();
        router.submit(&Request::Put { key: 5, value: 50 }).unwrap();
        router.flush();
        // The put is applied (it moves the shard's version) though nobody
        // waits for its reply yet.
        while service.shard_state(shard).current_version() == version {
            std::thread::yield_now();
        }
        assert_eq!(router.collect(), Response::Value(None));
    }

    /// The pipelined lost-wake-up reproducer.  The owner parks a fixed
    /// time after it last had work, so the pause *before* a window sweeps
    /// its pushes and doorbell across the owner's way into the park (last
    /// quiet scan, idle flag, re-scan), and the pause *after* the pushes —
    /// every other round — moves the doorbell away from them.  A doorbell
    /// whose fence does not order the pushes before its load of the idle
    /// flag leaves the owner parked on a non-empty lane, and this hangs.
    /// Window sizes are skewed small: on a strongly ordered machine only a
    /// window whose *first* push is still in flight at the doorbell can
    /// lose the race.
    #[test]
    fn pipelined_windows_never_lose_a_wake_up() {
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let service = KvService::new(1, 1, |_| {
                let tree: ElimABTree = ElimABTree::new();
                Box::new(tree)
            });
            let mut router = service.router();
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            let pause = |spins: u64| {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
            };
            for round in 0..25_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                pause((state >> 32) % 128 * 12);
                let window = 1 + ((state % LANE_CAPACITY as u64) >> ((state >> 8) % 7));
                for i in 0..window {
                    // A delete always crosses its lane (no cache path).
                    let key = 1 + (round + i) % 512;
                    router.submit(&Request::Delete { key }).unwrap();
                }
                if round % 2 == 1 {
                    pause((state >> 48) % 128 * 12);
                }
                for _ in 0..window {
                    assert_eq!(router.collect(), Response::Value(None));
                }
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a window hung: the owner parked on a non-empty lane");
        client.join().unwrap();
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
        // Windows of two puts: both cross a lane (a put has no cache fast
        // path, a window of two is not run directly), and 1024 submissions
        // at a 1-in-16 sample rate trace exactly 64 of them.
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
        for stage in [Stage::Enqueue, Stage::Dequeue, Stage::Apply, Stage::Ack] {
            assert_eq!(
                trace.histogram(stage).count(),
                1024 >> TRACE_SAMPLE_SHIFT,
                "stage {}: the sampler is deterministic",
                stage.name()
            );
        }
        // The same 1-in-16 decision feeds the point-latency histogram, so
        // the untraced majority pays no clock read anywhere.
        assert_eq!(
            service.stats().point_latency_ns.count(),
            1024 >> TRACE_SAMPLE_SHIFT,
            "point latency records exactly the sampled subset"
        );
        assert!(
            !trace.recent_events().is_empty(),
            "the rings hold the raw recent events"
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
        let trace = service.stage_trace();
        assert_eq!(
            trace.histogram(Stage::Apply).count(),
            1024 >> TRACE_SAMPLE_SHIFT
        );
        assert_eq!(
            service.stats().point_latency_ns.count(),
            1024 >> TRACE_SAMPLE_SHIFT
        );
        for stage in [Stage::Enqueue, Stage::Dequeue, Stage::Ack] {
            assert_eq!(
                trace.histogram(stage).count(),
                0,
                "stage {}: a window of one crosses no lane",
                stage.name()
            );
        }
    }

    #[test]
    fn a_window_of_one_never_wakes_an_owner() {
        let service = two_shard_service();
        let mut router = service.router();
        wait_parked(&service);
        let wakes = owner_wakes(&service);
        let runs = service.run_length_histogram().count();
        let ops = service.stats().total_ops();
        for i in 0..10_000u64 {
            let key = 1 + i % 512;
            match i % 3 {
                0 => router.put(key, i),
                1 => router.get(key),
                _ => router.delete(key),
            };
        }
        assert_eq!(owner_wakes(&service), wakes, "no doorbell rang");
        assert_eq!(service.run_length_histogram().count(), runs, "no lane run");
        assert!(
            !obs::ENABLED || service.stats().total_ops() - ops == 10_000,
            "each request is counted once"
        );

        // A window of two still rides the lanes: the owners were parked, so
        // at least one doorbell had to unpark one.
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
        let woken: u64 = owner_wakes(&service).iter().sum();
        assert!(woken > wakes.iter().sum(), "a window of two is handed off");
        assert!(!obs::ENABLED || service.stats().total_ops() - ops == 10_002);
    }

    #[test]
    fn the_last_request_behind_a_barrier_runs_directly() {
        if !obs::ENABLED {
            return; // the run-length witness is compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        router.put(5, 50);
        wait_parked(&service);
        let runs = service.run_length_histogram().count();
        let mut responses = Vec::new();
        router.serve_burst(
            &[[Request::Scan { lo: 0, len: 10 }, Request::Get { key: 5 }]],
            &mut responses,
        );
        assert_eq!(
            responses,
            vec![Response::Entries(vec![(5, 50)]), Response::Value(Some(50))]
        );
        // The scan is one lane run per shard, each over before the `Get` is
        // looked at; a `Get` through its lane would be one more.
        wait_parked(&service);
        assert_eq!(service.run_length_histogram().count() - runs, 2);
    }

    /// A store whose collector has no slot left for a router's session: the
    /// router still opens, and its point calls ride the lane as they always
    /// did.
    #[test]
    fn a_router_without_a_session_slot_uses_the_lane() {
        let collector = abebr::Collector::new();
        let service = {
            let collector = collector.clone();
            KvService::new(1, 1, move |_| {
                let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
                Box::new(tree)
            })
        };
        // Every slot but the owner's.
        let mut held = Vec::new();
        while let Ok(handle) = collector.try_register() {
            held.push(handle);
        }
        assert_eq!(held.len(), abebr::MAX_THREADS - 1);
        let mut router = service.router();
        wait_parked(&service);
        let wakes = owner_wakes(&service);
        assert_eq!(router.put(9, 90), None);
        assert_eq!(router.get(9), Some(90), "a cache hit");
        assert_eq!(router.delete(9), Some(90));
        assert_eq!(router.get(9), None);
        assert!(owner_wakes(&service) > wakes, "the owner served them");

        // With slots free again the next router gets its session.
        drop(held);
        drop(router);
        let mut router = service.router();
        wait_parked(&service);
        let wakes = owner_wakes(&service);
        assert_eq!(router.put(9, 91), None);
        assert_eq!(router.delete(9), Some(91));
        assert_eq!(owner_wakes(&service), wakes);
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
