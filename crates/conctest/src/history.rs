//! Concurrent-history recording: timestamped invoke/response event logs.
//!
//! A *history* is the observable trace of a concurrent execution: for every
//! operation, the thread that ran it, its arguments, its result, and two
//! timestamps — one taken immediately **before** the operation was invoked
//! and one immediately **after** it responded.  Timestamps come from one
//! process-wide atomic counter ([`Clock`]) shared by every recorder of a
//! run, so they are unique and totally ordered, and the order is consistent
//! with real time: if operation A responded before operation B was invoked,
//! then `A.response < B.invoke`.  The [`checker`](crate::checker) consumes
//! exactly this real-time order.
//!
//! Recording is deliberately dumb and cheap: each thread wraps its session
//! in a [`Recorder`] (any [`MapHandle`]) or a [`RouterRecorder`] (a kvserve
//! [`ShardRouter`]), which appends to a thread-local `Vec` — no shared
//! mutable state beyond the clock, so recording perturbs the interleavings
//! it observes as little as possible.  After the workers join,
//! [`History::merge`] combines the per-thread logs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use abtree::MapHandle;
use kvserve::{Request, Response, ShardRouter};

/// The shared event-order clock of one recorded run: a single atomic
/// counter ticked once per invoke and once per response.
#[derive(Debug, Default)]
pub struct Clock(AtomicU64);

impl Clock {
    /// A fresh clock at tick 0, shared by reference among recorders.
    pub fn new() -> Arc<Self> {
        Arc::new(Self(AtomicU64::new(0)))
    }

    /// The next tick.  `SeqCst` so that tick order is consistent with the
    /// real-time order of non-overlapping operations across threads.
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// One recorded operation invocation (arguments only; results live in
/// [`OpResult`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// `insert(key, value)` (insert-if-absent).
    Insert {
        /// Inserted key.
        key: u64,
        /// Inserted value.
        value: u64,
    },
    /// `delete(key)`.
    Delete {
        /// Deleted key.
        key: u64,
    },
    /// `get(key)`.
    Get {
        /// Probed key.
        key: u64,
    },
    /// `range(lo, hi)` — inclusive window scan.
    Range {
        /// Window start (inclusive).
        lo: u64,
        /// Window end (inclusive).
        hi: u64,
    },
    /// Batched multi-get (a kvserve `MGet`, or `MapHandle::get_batch`).
    MGet {
        /// Probed keys, in request order.
        keys: Vec<u64>,
    },
    /// Batched multi-put (a kvserve `MPut`, or `MapHandle::insert_batch`).
    MPut {
        /// Inserted pairs, in request order.
        pairs: Vec<(u64, u64)>,
    },
}

/// The response of a recorded operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Result of a point operation (`insert`/`delete`/`get`).
    Value(Option<u64>),
    /// Result of a range scan, sorted by key.
    Entries(Vec<(u64, u64)>),
    /// Per-key results of a batched operation, in request order.
    Values(Vec<Option<u64>>),
    /// The operation was **not acknowledged**: its shard crashed before the
    /// covering durability fence (crashkv's `Crashed` error).  Under
    /// durable linearizability an aborted write may have linearized at the
    /// crash or vanished entirely — the checker treats it as *optional* —
    /// while an aborted read carries no information at all.
    Aborted,
}

/// One completed operation: who ran it, what it was, what it returned, and
/// when it was on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Recording thread (dense ids, assigned by the caller).
    pub thread: u32,
    /// The invocation.
    pub kind: OpKind,
    /// The response.
    pub result: OpResult,
    /// Clock tick taken immediately before invoking.
    pub invoke: u64,
    /// Clock tick taken immediately after the response.
    pub response: u64,
}

impl OpRecord {
    /// Renders one record as a line like
    /// `t1 [12,17] insert(5, 100) -> None`.
    pub fn render(&self) -> String {
        let call = match &self.kind {
            OpKind::Insert { key, value } => format!("insert({key}, {value})"),
            OpKind::Delete { key } => format!("delete({key})"),
            OpKind::Get { key } => format!("get({key})"),
            OpKind::Range { lo, hi } => format!("range({lo}..={hi})"),
            OpKind::MGet { keys } => format!("mget({keys:?})"),
            OpKind::MPut { pairs } => format!("mput({pairs:?})"),
        };
        let result = match &self.result {
            OpResult::Value(v) => format!("{v:?}"),
            OpResult::Entries(entries) => format!("{entries:?}"),
            OpResult::Values(values) => format!("{values:?}"),
            OpResult::Aborted => "crashed (unacknowledged)".to_string(),
        };
        format!(
            "t{} [{},{}] {call} -> {result}",
            self.thread, self.invoke, self.response
        )
    }
}

/// A complete recorded history, sorted by invoke tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// The recorded operations, sorted by [`OpRecord::invoke`].
    pub ops: Vec<OpRecord>,
}

impl History {
    /// Merges per-thread logs into one history sorted by invoke tick.
    pub fn merge(parts: Vec<Vec<OpRecord>>) -> Self {
        let mut ops: Vec<OpRecord> = parts.into_iter().flatten().collect();
        ops.sort_by_key(|op| op.invoke);
        Self { ops }
    }

    /// Every key mentioned anywhere in the history — in arguments or in
    /// results.  This is the key *universe* the checker reasons over: a key
    /// outside it was never touched, so it is absent at every instant.
    pub fn universe(&self) -> std::collections::BTreeSet<u64> {
        let mut keys = std::collections::BTreeSet::new();
        for op in &self.ops {
            match &op.kind {
                OpKind::Insert { key, .. } | OpKind::Delete { key } | OpKind::Get { key } => {
                    keys.insert(*key);
                }
                OpKind::Range { .. } => {}
                OpKind::MGet { keys: batch } => keys.extend(batch.iter().copied()),
                OpKind::MPut { pairs } => keys.extend(pairs.iter().map(|&(k, _)| k)),
            }
            if let OpResult::Entries(entries) = &op.result {
                keys.extend(entries.iter().map(|&(k, _)| k));
            }
        }
        keys
    }

    /// Renders the whole history, one [`OpRecord::render`] line per op.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.render());
            out.push('\n');
        }
        out
    }
}

/// A recording wrapper around any [`MapHandle`] session.
///
/// Implements [`MapHandle`] itself, so a worker built against a generic
/// session type records transparently.  Batched `get_batch`/`insert_batch`
/// calls are recorded as [`OpKind::MGet`]/[`OpKind::MPut`] (one record per
/// batch — the checker decomposes them into per-key observations, which is
/// exactly the batching contract: batches are *not* atomic across keys).
#[derive(Debug)]
pub struct Recorder<H: MapHandle> {
    inner: H,
    thread: u32,
    clock: Arc<Clock>,
    ops: Vec<OpRecord>,
}

impl<H: MapHandle> Recorder<H> {
    /// Wraps `inner`, logging under thread id `thread` against `clock`.
    pub fn new(inner: H, thread: u32, clock: Arc<Clock>) -> Self {
        Self {
            inner,
            thread,
            clock,
            ops: Vec::new(),
        }
    }

    /// Finishes recording, returning this thread's log.
    pub fn finish(self) -> Vec<OpRecord> {
        self.ops
    }

    fn record<R>(
        &mut self,
        kind: OpKind,
        run: impl FnOnce(&mut H) -> R,
        result_of: impl FnOnce(&R) -> OpResult,
    ) -> R {
        let invoke = self.clock.tick();
        let value = run(&mut self.inner);
        let response = self.clock.tick();
        self.ops.push(OpRecord {
            thread: self.thread,
            kind,
            result: result_of(&value),
            invoke,
            response,
        });
        value
    }
}

impl<H: MapHandle> MapHandle for Recorder<H> {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.record(
            OpKind::Insert { key, value },
            |h| h.insert(key, value),
            |&r| OpResult::Value(r),
        )
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.record(OpKind::Delete { key }, |h| h.delete(key), |&r| {
            OpResult::Value(r)
        })
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        self.record(OpKind::Get { key }, |h| h.get(key), |&r| OpResult::Value(r))
    }

    fn range(&mut self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        let invoke = self.clock.tick();
        self.inner.range(lo, hi, out);
        let response = self.clock.tick();
        self.ops.push(OpRecord {
            thread: self.thread,
            kind: OpKind::Range { lo, hi },
            result: OpResult::Entries(out.clone()),
            invoke,
            response,
        });
    }

    fn get_batch(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        let invoke = self.clock.tick();
        self.inner.get_batch(keys, out);
        let response = self.clock.tick();
        self.ops.push(OpRecord {
            thread: self.thread,
            kind: OpKind::MGet { keys: keys.to_vec() },
            result: OpResult::Values(out.clone()),
            invoke,
            response,
        });
    }

    fn insert_batch(&mut self, pairs: &[(u64, u64)], out: &mut Vec<Option<u64>>) {
        let invoke = self.clock.tick();
        self.inner.insert_batch(pairs, out);
        let response = self.clock.tick();
        self.ops.push(OpRecord {
            thread: self.thread,
            kind: OpKind::MPut {
                pairs: pairs.to_vec(),
            },
            result: OpResult::Values(out.clone()),
            invoke,
            response,
        });
    }

    fn take_scan_buf(&mut self) -> Vec<(u64, u64)> {
        self.inner.take_scan_buf()
    }

    fn put_scan_buf(&mut self, buf: Vec<(u64, u64)>) {
        self.inner.put_scan_buf(buf)
    }
}

/// The kvserve adapter: records a [`ShardRouter`] session's traffic.
///
/// Service semantics map onto history events as: `put` is an
/// insert-if-absent, `scan(lo, len)` is a `Range` over the clamped
/// inclusive window, and `mget`/`mput` are batches.  The service promises
/// no cross-shard atomicity for scans or batches, so the checker is run
/// with per-key (non-snapshot) scan treatment over these histories.
#[derive(Debug)]
pub struct RouterRecorder<'s> {
    inner: ShardRouter<'s>,
    thread: u32,
    clock: Arc<Clock>,
    ops: Vec<OpRecord>,
    scan_buf: Vec<(u64, u64)>,
    batch_buf: Vec<Option<u64>>,
}

impl<'s> RouterRecorder<'s> {
    /// Wraps `router`, logging under thread id `thread` against `clock`.
    pub fn new(router: ShardRouter<'s>, thread: u32, clock: Arc<Clock>) -> Self {
        Self {
            inner: router,
            thread,
            clock,
            ops: Vec::new(),
            scan_buf: Vec::new(),
            batch_buf: Vec::new(),
        }
    }

    /// Finishes recording, returning this thread's log.
    pub fn finish(self) -> Vec<OpRecord> {
        self.ops
    }

    /// Recorded [`ShardRouter::get`].
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let invoke = self.clock.tick();
        let value = self.inner.get(key);
        let response = self.clock.tick();
        self.push(OpKind::Get { key }, OpResult::Value(value), invoke, response);
        value
    }

    /// Recorded [`ShardRouter::put`] (insert-if-absent).
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        let invoke = self.clock.tick();
        let previous = self.inner.put(key, value);
        let response = self.clock.tick();
        self.push(
            OpKind::Insert { key, value },
            OpResult::Value(previous),
            invoke,
            response,
        );
        previous
    }

    /// Recorded [`ShardRouter::delete`].
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        let invoke = self.clock.tick();
        let removed = self.inner.delete(key);
        let response = self.clock.tick();
        self.push(
            OpKind::Delete { key },
            OpResult::Value(removed),
            invoke,
            response,
        );
        removed
    }

    /// Recorded [`ShardRouter::scan`] of `[lo, lo + len - 1]`.  Zero-length
    /// scans return nothing and record nothing.
    pub fn scan(&mut self, lo: u64, len: u64) -> &[(u64, u64)] {
        // One source of truth for the window bounds: the same rule the
        // router applies, so the recorded `Range` is exactly what was
        // scanned.
        let Some((lo, hi)) = abtree::scan_window(lo, len) else {
            self.scan_buf.clear();
            return &self.scan_buf;
        };
        let invoke = self.clock.tick();
        let mut buf = std::mem::take(&mut self.scan_buf);
        self.inner.scan(lo, len, &mut buf);
        let response = self.clock.tick();
        self.scan_buf = buf;
        self.push(
            OpKind::Range { lo, hi },
            OpResult::Entries(self.scan_buf.clone()),
            invoke,
            response,
        );
        &self.scan_buf
    }

    /// Recorded [`ShardRouter::mget`].
    pub fn mget(&mut self, keys: &[u64]) -> &[Option<u64>] {
        let invoke = self.clock.tick();
        let mut buf = std::mem::take(&mut self.batch_buf);
        self.inner.mget(keys, &mut buf);
        let response = self.clock.tick();
        self.batch_buf = buf;
        self.push(
            OpKind::MGet { keys: keys.to_vec() },
            OpResult::Values(self.batch_buf.clone()),
            invoke,
            response,
        );
        &self.batch_buf
    }

    /// Recorded [`ShardRouter::mput`].
    pub fn mput(&mut self, pairs: &[(u64, u64)]) -> &[Option<u64>] {
        let invoke = self.clock.tick();
        let mut buf = std::mem::take(&mut self.batch_buf);
        self.inner.mput(pairs, &mut buf);
        let response = self.clock.tick();
        self.batch_buf = buf;
        self.push(
            OpKind::MPut {
                pairs: pairs.to_vec(),
            },
            OpResult::Values(self.batch_buf.clone()),
            invoke,
            response,
        );
        &self.batch_buf
    }

    /// Recorded [`ShardRouter::serve_pipelined`] of a window of point
    /// requests: every request is invoked before the call and responds
    /// after it, so the window's operations overlap each other in the
    /// history as they do in the lanes.  A shed request never executed and
    /// is not recorded.
    ///
    /// # Panics
    ///
    /// Panics on `Scan`/`MGet`/`MPut`/`Stats` requests: those have their own
    /// recorded calls.
    pub fn serve_pipelined(&mut self, window: &[Request]) -> Vec<Response> {
        let invokes: Vec<u64> = window.iter().map(|_| self.clock.tick()).collect();
        let mut responses = Vec::new();
        self.inner.serve_pipelined(window, &mut responses);
        for ((request, reply), invoke) in window.iter().zip(&responses).zip(invokes) {
            let kind = match *request {
                Request::Get { key } => OpKind::Get { key },
                Request::Put { key, value } => OpKind::Insert { key, value },
                Request::Delete { key } => OpKind::Delete { key },
                _ => panic!("a recorded window carries point requests only"),
            };
            let response = self.clock.tick();
            match *reply {
                Response::Value(value) => {
                    self.push(kind, OpResult::Value(value), invoke, response);
                }
                Response::Overloaded => {}
                _ => unreachable!("point requests get point responses"),
            }
        }
        responses
    }

    fn push(&mut self, kind: OpKind, result: OpResult, invoke: u64, response: u64) {
        self.ops.push(OpRecord {
            thread: self.thread,
            kind,
            result,
            invoke,
            response,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abtree::ElimABTree;

    #[test]
    fn recorder_logs_ordered_intervals_with_results() {
        let tree: ElimABTree = ElimABTree::new();
        let clock = Clock::new();
        let mut rec = Recorder::new(tree.handle(), 0, Arc::clone(&clock));
        assert_eq!(rec.insert(5, 50), None);
        assert_eq!(rec.insert(5, 51), Some(50));
        assert_eq!(rec.get(5), Some(50));
        let mut out = Vec::new();
        rec.range(0, 10, &mut out);
        assert_eq!(out, vec![(5, 50)]);
        assert_eq!(rec.delete(5), Some(50));
        let mut values = Vec::new();
        rec.get_batch(&[5, 6], &mut values);
        let ops = rec.finish();
        assert_eq!(ops.len(), 6);
        // Intervals are well-formed and non-overlapping on one thread.
        for pair in ops.windows(2) {
            assert!(pair[0].invoke < pair[0].response);
            assert!(pair[0].response < pair[1].invoke);
        }
        assert_eq!(ops[1].result, OpResult::Value(Some(50)));
        assert_eq!(ops[3].kind, OpKind::Range { lo: 0, hi: 10 });
        assert_eq!(ops[3].result, OpResult::Entries(vec![(5, 50)]));
        assert_eq!(ops[5].result, OpResult::Values(vec![None, None]));
    }

    #[test]
    fn history_merge_sorts_and_universe_collects_result_keys() {
        let a = vec![OpRecord {
            thread: 0,
            kind: OpKind::Get { key: 3 },
            result: OpResult::Value(None),
            invoke: 4,
            response: 5,
        }];
        let b = vec![OpRecord {
            thread: 1,
            kind: OpKind::Range { lo: 0, hi: 9 },
            result: OpResult::Entries(vec![(7, 70)]),
            invoke: 0,
            response: 9,
        }];
        let history = History::merge(vec![a, b]);
        assert_eq!(history.ops[0].thread, 1, "sorted by invoke");
        let universe: Vec<u64> = history.universe().into_iter().collect();
        assert_eq!(universe, vec![3, 7], "result-only keys are in the universe");
        let text = history.render();
        assert!(text.contains("t0 [4,5] get(3) -> None"), "{text}");
        assert!(text.contains("range(0..=9)"), "{text}");
    }

    #[test]
    fn router_recorder_round_trips() {
        use kvserve::KvService;
        let service = KvService::new(2, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let clock = Clock::new();
        let mut rec = RouterRecorder::new(service.router(), 0, clock);
        assert_eq!(rec.put(1, 10), None);
        assert_eq!(rec.mput(&[(2, 20), (1, 99)]), &[None, Some(10)]);
        assert_eq!(rec.mget(&[1, 2, 3]), &[Some(10), Some(20), None]);
        assert_eq!(rec.scan(0, 4), &[(1, 10), (2, 20)]);
        assert!(rec.scan(0, 0).is_empty(), "len-0 scans record nothing");
        assert_eq!(rec.delete(1), Some(10));
        assert_eq!(rec.get(1), None);
        assert_eq!(
            rec.serve_pipelined(&[Request::Put { key: 1, value: 11 }, Request::Get { key: 1 }]),
            vec![Response::Value(None), Response::Value(Some(11))]
        );
        let ops = rec.finish();
        assert_eq!(ops.len(), 8, "the len-0 scan is not recorded");
        assert_eq!(ops[3].kind, OpKind::Range { lo: 0, hi: 3 });
        assert_eq!(ops[6].kind, OpKind::Insert { key: 1, value: 11 });
        assert!(
            ops[7].invoke < ops[6].response,
            "a window's operations overlap"
        );
    }
}
