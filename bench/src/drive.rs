//! The load loops: one per depth of the stack, each replaying an op ring
//! through that depth's public functions and timing from outside.
//!
//! Every loop is a closed loop on the calling thread, runs until
//! `keep_going` says stop (asked every [`CHECK_EVERY`] requests), books
//! every reply against a [`Model`] or [`Tally`], and feeds a [`Probe`].

use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::time::Instant;

use abtree::MapHandle;
use crashkv::{DurableOp, DurableRouter};
use kvserve::codec::{decode_batch, decode_response_batch, encode_batch, encode_response_batch};
use kvserve::{Request, Response, ShardRouter};
use netserve::frame::{self, FrameDecoder};
use netserve::Client;

use crate::span::{SpanLog, NO_PARENT};
use crate::spec::SCAN_LEN;
use crate::stats::Samples;
use crate::stream::{Model, Op, OpKind, RING_MASK};

/// Requests between two looks at the stop condition.
const CHECK_EVERY: u64 = 64;

/// What a loop measures besides counting: one request in `every` is timed
/// into `latencies`, and given spans when a log is attached.
pub struct Probe {
    every: u64,
    seen: u64,
    /// Added to request ids, so depths sharing a span file stay apart.
    id_base: u64,
    pub latencies: Samples,
    pub spans: Option<SpanLog>,
}

impl Probe {
    /// Times one request in `every`; no spans.
    pub fn latency(every: u64) -> Self {
        Self {
            every,
            seen: 0,
            id_base: 0,
            latencies: Samples::default(),
            spans: None,
        }
    }

    /// Counts only (the single sample at the first request keeps the loops
    /// branch-identical with the sampled ones).
    pub fn off() -> Self {
        Self::latency(u64::MAX)
    }

    /// Times and spans one request in `every`.
    pub fn traced(every: u64, log: SpanLog, id_base: u64) -> Self {
        Self {
            spans: Some(log),
            id_base,
            ..Self::latency(every)
        }
    }

    /// The request id if the next request is a sampled one.
    #[inline]
    fn sample(&mut self) -> Option<u64> {
        let n = self.seen;
        self.seen += 1;
        n.is_multiple_of(self.every).then_some(self.id_base + n)
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32, id: u64) {
        if let Some(log) = &mut self.spans {
            log.push(name, start, end, parent, id);
        }
    }

    fn open(&mut self, name: &'static str, start: Instant, id: u64) -> u32 {
        self.spans
            .as_mut()
            .map_or(NO_PARENT, |log| log.open(name, start, id))
    }

    fn close(&mut self, index: u32, end: Instant) {
        if let Some(log) = &mut self.spans {
            log.close(index, end);
        }
    }
}

/// A sampled in-flight request: its root span, request id and start.
type Mark = Option<(u32, u64, Instant)>;

/// What one loop run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests completed (a scan counts as 1).
    pub ops: u64,
    /// Requests refused or failed (`Overloaded`, `Error`, `Crashed`).
    pub failed: u64,
    pub secs: f64,
}

impl Counts {
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops.max(1) as f64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// Sum of keys a client inserted minus keys it removed, modulo 2^128: with
/// the prefill's key sum it must equal the structure's `key_sum()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally(pub u128);

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.0 = self.0.wrapping_add(other.0);
    }
}

#[inline]
fn tree_op<H: MapHandle>(handle: &mut H, op: Op, tally: &mut Tally) {
    match op.kind {
        OpKind::Find => {
            black_box(handle.get(op.key));
        }
        OpKind::Scan => {
            black_box(handle.scan_len(op.key, SCAN_LEN));
        }
        OpKind::Insert => {
            if handle.insert(op.key, op.key).is_none() {
                tally.0 = tally.0.wrapping_add(op.key as u128);
            }
        }
        OpKind::Delete => {
            if handle.delete(op.key).is_some() {
                tally.0 = tally.0.wrapping_sub(op.key as u128);
            }
        }
    }
}

/// Depth 0: the ring through one raw tree handle.
pub fn tree_handle<H: MapHandle>(
    handle: &mut H,
    ring: &[Op],
    pos: &mut usize,
    mut keep_going: impl FnMut() -> bool,
    probe: &mut Probe,
    tally: &mut Tally,
) -> Counts {
    let started = Instant::now();
    let mut ops = 0u64;
    loop {
        if ops.is_multiple_of(CHECK_EVERY) && !keep_going() {
            break;
        }
        let op = ring[*pos & RING_MASK];
        *pos += 1;
        if let Some(id) = probe.sample() {
            let t0 = Instant::now();
            tree_op(handle, op, tally);
            let t1 = Instant::now();
            probe.latencies.record((t1 - t0).as_nanos() as u64);
            probe.span("abtree.handle.op", t0, t1, NO_PARENT, id);
        } else {
            tree_op(handle, op, tally);
        }
        ops += 1;
    }
    Counts {
        ops,
        failed: 0,
        secs: started.elapsed().as_secs_f64(),
    }
}

fn request(op: Op) -> Request {
    match op.kind {
        // Scans reach the services as point reads: the pipelined path
        // carries point requests only.
        OpKind::Find | OpKind::Scan => Request::Get { key: op.key },
        OpKind::Insert => Request::Put {
            key: op.key,
            value: op.key,
        },
        OpKind::Delete => Request::Delete { key: op.key },
    }
}

/// Depth 1: blocking `ShardRouter` calls, window 1.  Sampled update
/// latencies (requests that must cross a lane) go to `lane_rtt`.
pub fn router_blocking(
    router: &mut ShardRouter<'_>,
    ring: &[Op],
    pos: &mut usize,
    mut keep_going: impl FnMut() -> bool,
    probe: &mut Probe,
    lane_rtt: &mut Samples,
    model: &mut Model,
) -> Counts {
    let call = |router: &mut ShardRouter<'_>, op: Op| match op.kind {
        OpKind::Find | OpKind::Scan => router.get(op.key),
        OpKind::Insert => router.put(op.key, op.key),
        OpKind::Delete => router.delete(op.key),
    };
    let started = Instant::now();
    let mut ops = 0u64;
    loop {
        if ops.is_multiple_of(CHECK_EVERY) && !keep_going() {
            break;
        }
        let op = ring[*pos & RING_MASK];
        *pos += 1;
        let reply = if let Some(id) = probe.sample() {
            let t0 = Instant::now();
            let reply = call(router, op);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            probe.latencies.record(ns);
            if op.is_update() {
                lane_rtt.record(ns);
            }
            probe.span("kvserve.router.call", t0, t1, NO_PARENT, id);
            reply
        } else {
            call(router, op)
        };
        model.ack(op, reply);
        ops += 1;
    }
    Counts {
        ops,
        failed: 0,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// A router with a submit/collect pipeline, as [`pipelined`] drives it.
pub trait Pipelined {
    /// Span names: the request, the submit call, the collect call.
    const SPANS: [&'static str; 3];
    /// Submits `op`.  The window stays within the lane capacity, so a
    /// submission is never refused.
    fn submit_op(&mut self, op: Op);
    /// The oldest reply; `None` if its shard crashed under it.
    fn collect_reply(&mut self) -> Option<Option<u64>>;
}

impl Pipelined for ShardRouter<'_> {
    const SPANS: [&'static str; 3] = ["request", "kvserve.router.submit", "kvserve.router.collect"];

    fn submit_op(&mut self, op: Op) {
        self.submit(&request(op))
            .expect("window within lane capacity");
    }

    fn collect_reply(&mut self) -> Option<Option<u64>> {
        let Response::Value(reply) = self.collect() else {
            unreachable!("point submissions collect point responses")
        };
        Some(reply)
    }
}

impl Pipelined for DurableRouter {
    const SPANS: [&'static str; 3] = [
        "durable.request",
        "crashkv.router.submit",
        "crashkv.router.collect_one",
    ];

    fn submit_op(&mut self, op: Op) {
        let durable_op = match op.kind {
            OpKind::Find | OpKind::Scan => DurableOp::Get { key: op.key },
            OpKind::Insert => DurableOp::Put {
                key: op.key,
                value: op.key,
            },
            OpKind::Delete => DurableOp::Delete { key: op.key },
        };
        self.submit(durable_op)
            .expect("window within lane capacity");
    }

    fn collect_reply(&mut self) -> Option<Option<u64>> {
        self.collect_one().expect("an operation is in flight").ok()
    }
}

/// Depth 2 and the durable depth: submit/collect keeping `window` requests
/// in flight; a sampled request's latency is submit to reply.
pub fn pipelined<R: Pipelined>(
    router: &mut R,
    ring: &[Op],
    pos: &mut usize,
    window: usize,
    mut keep_going: impl FnMut() -> bool,
    probe: &mut Probe,
    model: &mut Model,
) -> Counts {
    let [request_span, submit_span, collect_span] = R::SPANS;
    let started = Instant::now();
    let mut pending: VecDeque<(Op, Mark)> = VecDeque::with_capacity(window);
    let (mut counts, mut submitted, mut stopping) = (Counts::default(), 0u64, false);
    loop {
        while !stopping && pending.len() < window {
            if submitted.is_multiple_of(CHECK_EVERY) && !keep_going() {
                stopping = true;
                break;
            }
            let op = ring[*pos & RING_MASK];
            *pos += 1;
            submitted += 1;
            let mark = probe.sample().map(|id| (id, Instant::now()));
            router.submit_op(op);
            let mark = mark.map(|(id, t0)| {
                let root = probe.open(request_span, t0, id);
                probe.span(submit_span, t0, Instant::now(), root, id);
                (root, id, t0)
            });
            pending.push_back((op, mark));
        }
        let Some((op, mark)) = pending.pop_front() else {
            break;
        };
        let t2 = mark.map(|_| Instant::now());
        let reply = router.collect_reply();
        if let Some(((root, id, t0), t2)) = mark.zip(t2) {
            let t3 = Instant::now();
            probe.latencies.record((t3 - t0).as_nanos() as u64);
            probe.span(collect_span, t2, t3, root, id);
            probe.close(root, t3);
        }
        match reply {
            Some(value) => model.ack(op, value),
            None => {
                model.unacked(op);
                counts.failed += 1;
            }
        }
        counts.ops += 1;
    }
    counts.secs = started.elapsed().as_secs_f64();
    counts
}

/// Frames per timed block of the codec loop: one clock pair per step per
/// block keeps the clock out of the ~100 ns steps it measures.
const CODEC_BLOCK: usize = 256;

/// Per-step totals of the codec loop (depth 3), in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecLedger {
    pub requests: u64,
    pub frames: u64,
    pub req_encode_ns: u64,
    pub req_decode_ns: u64,
    pub resp_encode_ns: u64,
    pub resp_decode_ns: u64,
    /// `write_frame` on both directions.
    pub framing_ns: u64,
    /// `FrameDecoder::push` on both directions.
    pub reassembly_ns: u64,
    /// Wire bytes, both directions, headers included.
    pub bytes: u64,
}

impl CodecLedger {
    pub fn total_ns(&self) -> u64 {
        self.req_encode_ns
            + self.req_decode_ns
            + self.resp_encode_ns
            + self.resp_decode_ns
            + self.framing_ns
            + self.reassembly_ns
    }

    pub fn per_request(&self, ns: u64) -> f64 {
        ns as f64 / self.requests.max(1) as f64
    }
}

/// Depth 3: the ring through request encode, framing, reassembly and
/// decode, and the matching response path, with no socket.  Responses are
/// what a half-full store would answer.
pub fn codec_loop(
    ring: &[Op],
    pos: &mut usize,
    frame_requests: usize,
    mut keep_going: impl FnMut() -> bool,
    mut spans: Option<&mut SpanLog>,
) -> CodecLedger {
    let mut ledger = CodecLedger::default();
    let mut batches: Vec<Vec<Request>> = vec![Vec::new(); CODEC_BLOCK];
    let mut replies: Vec<Vec<Response>> = vec![Vec::new(); CODEC_BLOCK];
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); CODEC_BLOCK];
    let mut wire = Vec::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut server_side = FrameDecoder::new(frame::MAX_REQUEST_FRAME);
    let mut client_side = FrameDecoder::new(frame::MAX_RESPONSE_FRAME);
    let mut block = 0u64;
    while keep_going() {
        for (batch, reply) in batches.iter_mut().zip(&mut replies) {
            batch.clear();
            reply.clear();
            for _ in 0..frame_requests {
                let op = ring[*pos & RING_MASK];
                *pos += 1;
                batch.push(request(op));
                reply.push(Response::Value((op.key & 1 == 0).then_some(op.key)));
            }
        }
        let traced = block.is_multiple_of(16);
        let block_start = Instant::now();
        let root = match (&mut spans, traced) {
            (Some(log), true) => log.open("codec.block", block_start, block),
            _ => NO_PARENT,
        };
        let mut step = |name: &'static str, total: &mut u64, work: &mut dyn FnMut()| {
            let t0 = Instant::now();
            work();
            let t1 = Instant::now();
            *total += (t1 - t0).as_nanos() as u64;
            if let (Some(log), true) = (&mut spans, traced) {
                log.push(name, t0, t1, root, block);
                log.close(root, t1);
            }
        };

        step(
            "kvserve.codec.encode_batch",
            &mut ledger.req_encode_ns,
            &mut || {
                for (batch, payload) in batches.iter().zip(&mut payloads) {
                    encode_batch(batch, payload);
                }
            },
        );
        step(
            "netserve.frame.write_frame",
            &mut ledger.framing_ns,
            &mut || {
                wire.clear();
                for payload in &payloads {
                    frame::write_frame(&mut wire, payload);
                }
            },
        );
        ledger.bytes += wire.len() as u64;
        step(
            "netserve.frame.decoder_push",
            &mut ledger.reassembly_ns,
            &mut || {
                frames.clear();
                server_side
                    .push(&wire, &mut frames)
                    .expect("well-formed request frames");
            },
        );
        assert_eq!(frames.len(), CODEC_BLOCK, "every request frame reassembled");
        step(
            "kvserve.codec.decode_batch",
            &mut ledger.req_decode_ns,
            &mut || {
                for (payload, batch) in frames.iter().zip(&batches) {
                    let decoded = decode_batch(payload).expect("well-formed request batch");
                    assert_eq!(decoded.len(), batch.len());
                    black_box(decoded);
                }
            },
        );
        step(
            "kvserve.codec.encode_response_batch",
            &mut ledger.resp_encode_ns,
            &mut || {
                for (reply, payload) in replies.iter().zip(&mut payloads) {
                    encode_response_batch(reply, payload);
                }
            },
        );
        step(
            "netserve.frame.write_frame",
            &mut ledger.framing_ns,
            &mut || {
                wire.clear();
                for payload in &payloads {
                    frame::write_frame(&mut wire, payload);
                }
            },
        );
        ledger.bytes += wire.len() as u64;
        step(
            "netserve.frame.decoder_push",
            &mut ledger.reassembly_ns,
            &mut || {
                frames.clear();
                client_side
                    .push(&wire, &mut frames)
                    .expect("well-formed response frames");
            },
        );
        step(
            "kvserve.codec.decode_response_batch",
            &mut ledger.resp_decode_ns,
            &mut || {
                for (payload, reply) in frames.iter().zip(&replies) {
                    let decoded =
                        decode_response_batch(payload).expect("well-formed response batch");
                    assert_eq!(&decoded, reply, "responses survive the wire");
                    black_box(decoded);
                }
            },
        );
        ledger.frames += CODEC_BLOCK as u64;
        ledger.requests += (CODEC_BLOCK * frame_requests) as u64;
        block += 1;
    }
    ledger
}

/// What the TCP loop did, beyond [`Counts`].
#[derive(Debug, Default)]
pub struct NetCounts {
    pub counts: Counts,
    pub frames: u64,
    /// `Client::send` and `Client::recv` durations of sampled frames.
    pub send: Samples,
    pub recv: Samples,
}

/// Depth 4: TCP loopback, one connection keeping `depth` frames of
/// `frame_requests` requests in flight.  A sampled frame's latency is its
/// round trip, send start to reply decoded.
pub fn net_frames(
    client: &mut Client,
    ring: &[Op],
    pos: &mut usize,
    (depth, frame_requests): (usize, usize),
    mut keep_going: impl FnMut() -> bool,
    probe: &mut Probe,
    model: &mut Model,
) -> io::Result<NetCounts> {
    let started = Instant::now();
    let mut out = NetCounts::default();
    let mut batch: Vec<Request> = Vec::with_capacity(frame_requests);
    // Ring position of each in-flight frame's first op, and its sampling
    // mark (root span, request id, send start).
    let mut in_flight: VecDeque<(usize, Mark)> = VecDeque::with_capacity(depth);
    let (mut sent, mut stopping) = (0u64, false);
    loop {
        while !stopping && in_flight.len() < depth {
            // One frame is `frame_requests` requests: keep the cadence of
            // the stop check per request, like the other loops.
            if sent * frame_requests as u64 % CHECK_EVERY < frame_requests as u64 && !keep_going() {
                stopping = true;
                break;
            }
            let first = *pos;
            batch.clear();
            batch.extend((0..frame_requests).map(|i| request(ring[(first + i) & RING_MASK])));
            *pos += frame_requests;
            let mark = probe.sample().map(|id| (id, Instant::now()));
            client.send(&batch)?;
            sent += 1;
            let mark = mark.map(|(id, t0)| {
                let t1 = Instant::now();
                out.send.record((t1 - t0).as_nanos() as u64);
                let root = probe.open("net.frame", t0, id);
                probe.span("netserve.client.send", t0, t1, root, id);
                (root, id, t0)
            });
            in_flight.push_back((first, mark));
        }
        let Some((first, mark)) = in_flight.pop_front() else {
            break;
        };
        let t2 = mark.map(|_| Instant::now());
        let replies = client.recv()?;
        if let Some(((root, id, t0), t2)) = mark.zip(t2) {
            let t3 = Instant::now();
            out.recv.record((t3 - t2).as_nanos() as u64);
            probe.latencies.record((t3 - t0).as_nanos() as u64);
            probe.span("netserve.client.recv", t2, t3, root, id);
            probe.close(root, t3);
        }
        out.frames += 1;
        if replies.len() != frame_requests {
            // One reply per request is the protocol; anything else is a
            // wrong output, not a refusal.
            model.mismatches += 1;
        }
        for (i, reply) in replies.into_iter().enumerate().take(frame_requests) {
            match reply {
                Response::Value(value) => model.ack(ring[(first + i) & RING_MASK], value),
                Response::Overloaded | Response::Error { .. } => out.counts.failed += 1,
                _ => model.mismatches += 1,
            }
            out.counts.ops += 1;
        }
    }
    out.counts.secs = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Loads `keys` (value = key) through a handle.
pub fn load_handle<H: MapHandle>(handle: &mut H, keys: &[u64]) {
    for &key in keys {
        assert!(
            handle.insert(key, key).is_none(),
            "prefill keys are distinct"
        );
    }
}

/// Loads `keys` through a router, in `MPut` batches (one lane crossing per
/// shard per batch).
pub fn load_router(router: &mut ShardRouter<'_>, keys: &[u64]) {
    let mut pairs = Vec::new();
    let mut inserted = Vec::new();
    for batch in keys.chunks(1024) {
        pairs.clear();
        pairs.extend(batch.iter().map(|&key| (key, key)));
        router.mput(&pairs, &mut inserted);
        assert!(
            inserted.iter().all(Option::is_none),
            "prefill keys are distinct"
        );
    }
}

/// Loads `keys` through a durable router's pipelined path.
pub fn load_durable(router: &mut DurableRouter, keys: &[u64], window: usize) {
    let mut next = 0;
    let mut collected = 0;
    while collected < keys.len() {
        while next < keys.len()
            && router.in_flight() < window
            && router
                .submit(DurableOp::Put {
                    key: keys[next],
                    value: keys[next],
                })
                .is_ok()
        {
            next += 1;
        }
        assert_eq!(
            router.collect_one(),
            Some(Ok(None)),
            "prefill keys are distinct"
        );
        collected += 1;
    }
}
