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
//! Every system under test speaks one interface: a per-thread [`Session`]
//! runs an [`OpKind`] and answers an [`OpResult`].  A tree session, a
//! kvserve [`ShardRouter`], crashkv's `DurableRouter`, a netserve `Client`
//! and the `BTreeMap` reference oracle each implement it once.  Recording is
//! deliberately dumb and cheap: each thread wraps its session in a
//! [`Recorder`], which ticks the clock around the call and appends to a
//! thread-local `Vec` — no shared mutable state beyond the clock, so
//! recording perturbs the interleavings it observes as little as possible.
//! After the workers join, [`History::merge`] combines the per-thread logs.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
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

/// One operation invocation (arguments only; results live in
/// [`OpResult`]): what a schedule runs and what a history records.
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
    /// Batched multi-get (a kvserve `MGet`, or a run of tree `get`s).
    MGet {
        /// Probed keys, in request order.
        keys: Vec<u64>,
    },
    /// Batched multi-put (a kvserve `MPut`, or a run of tree `insert`s).
    MPut {
        /// Inserted pairs, in request order.
        pairs: Vec<(u64, u64)>,
    },
}

impl OpKind {
    /// The service request that performs this operation: `Insert` is a
    /// `Put`, and a `Range` is the `Scan` whose clamped window it is.
    pub(crate) fn request(&self) -> Request {
        match self {
            &OpKind::Insert { key, value } => Request::Put { key, value },
            &OpKind::Delete { key } => Request::Delete { key },
            &OpKind::Get { key } => Request::Get { key },
            &OpKind::Range { lo, hi } => Request::Scan {
                lo,
                len: hi - lo + 1,
            },
            OpKind::MGet { keys } => Request::MGet { keys: keys.clone() },
            OpKind::MPut { pairs } => Request::MPut {
                pairs: pairs.clone(),
            },
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Insert { key, value } => write!(f, "insert({key}, {value})"),
            OpKind::Delete { key } => write!(f, "delete({key})"),
            OpKind::Get { key } => write!(f, "get({key})"),
            OpKind::Range { lo, hi } => write!(f, "range({lo}..={hi})"),
            OpKind::MGet { keys } => write!(f, "mget({keys:?})"),
            OpKind::MPut { pairs } => write!(f, "mput({pairs:?})"),
        }
    }
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

impl OpResult {
    /// The result a service reply carries.
    ///
    /// # Panics
    ///
    /// Panics on any other reply — `Overloaded` included: a request the
    /// service refused never executed, and leaving it out of the history
    /// would hide a regression that brought shedding back.
    pub(crate) fn from_reply(reply: Response) -> Self {
        match reply {
            Response::Value(value) => OpResult::Value(value),
            Response::Entries(entries) => OpResult::Entries(entries),
            Response::Values(values) => OpResult::Values(values),
            other => panic!("unexpected reply to a recorded operation: {other:?}"),
        }
    }
}

impl fmt::Display for OpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpResult::Value(value) => write!(f, "{value:?}"),
            OpResult::Entries(entries) => write!(f, "{entries:?}"),
            OpResult::Values(values) => write!(f, "{values:?}"),
            OpResult::Aborted => f.write_str("crashed (unacknowledged)"),
        }
    }
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
        format!(
            "t{} [{},{}] {} -> {}",
            self.thread, self.invoke, self.response, self.kind, self.result
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

/// A per-thread session on a system under test: runs one operation and
/// answers its result.
pub trait Session {
    /// Runs `op` to completion.
    fn run(&mut self, op: &OpKind) -> OpResult;

    /// Runs a window of operations that are all in flight at once — a
    /// pipelined frame — and answers one result per operation, in order.
    /// The default runs them one after another.
    fn run_window(&mut self, ops: &[OpKind]) -> Vec<OpResult> {
        ops.iter().map(|op| self.run(op)).collect()
    }
}

/// A tree session: any registry structure's [`MapHandle`].  A batch runs
/// key by key on the session, and the checker decomposes it into
/// per-key observations — the batching contract: batches are *not* atomic
/// across keys.
impl Session for Box<dyn MapHandle + '_> {
    fn run(&mut self, op: &OpKind) -> OpResult {
        match op {
            &OpKind::Insert { key, value } => OpResult::Value(self.insert(key, value)),
            &OpKind::Delete { key } => OpResult::Value(self.delete(key)),
            &OpKind::Get { key } => OpResult::Value(self.get(key)),
            &OpKind::Range { lo, hi } => {
                let mut entries = Vec::new();
                self.range(lo, hi, &mut entries);
                OpResult::Entries(entries)
            }
            OpKind::MGet { keys } => {
                OpResult::Values(keys.iter().map(|&key| self.get(key)).collect())
            }
            OpKind::MPut { pairs } => OpResult::Values(
                pairs
                    .iter()
                    .map(|&(key, value)| self.insert(key, value))
                    .collect(),
            ),
        }
    }
}

/// A kvserve router: each operation is one blocking request, and a window
/// is one [`ShardRouter::serve_pipelined`] frame.  A scan is the store's
/// own, so these histories are checked with the store's scan semantics;
/// batches promise no cross-key atomicity.
impl Session for ShardRouter<'_> {
    fn run(&mut self, op: &OpKind) -> OpResult {
        OpResult::from_reply(self.execute(&op.request()))
    }

    fn run_window(&mut self, ops: &[OpKind]) -> Vec<OpResult> {
        let requests: Vec<Request> = ops.iter().map(OpKind::request).collect();
        let mut replies = Vec::new();
        self.serve_pipelined(&requests, &mut replies);
        replies.into_iter().map(OpResult::from_reply).collect()
    }
}

/// The reference oracle: a plain ordered map with the trees'
/// insert-if-absent semantics.
impl Session for BTreeMap<u64, u64> {
    fn run(&mut self, op: &OpKind) -> OpResult {
        let mut put = |key, value| match self.entry(key) {
            Entry::Occupied(entry) => Some(*entry.get()),
            Entry::Vacant(entry) => {
                entry.insert(value);
                None
            }
        };
        match op {
            &OpKind::Insert { key, value } => OpResult::Value(put(key, value)),
            OpKind::MPut { pairs } => {
                OpResult::Values(pairs.iter().map(|&(k, v)| put(k, v)).collect())
            }
            OpKind::Delete { key } => OpResult::Value(self.remove(key)),
            OpKind::Get { key } => OpResult::Value(self.get(key).copied()),
            &OpKind::Range { lo, hi } => {
                OpResult::Entries(self.range(lo..=hi).map(|(&k, &v)| (k, v)).collect())
            }
            OpKind::MGet { keys } => {
                OpResult::Values(keys.iter().map(|k| self.get(k).copied()).collect())
            }
        }
    }
}

/// Records one thread's [`Session`]: every operation is logged with invoke
/// and response ticks from the shared [`Clock`].
#[derive(Debug)]
pub struct Recorder<S> {
    session: S,
    thread: u32,
    clock: Arc<Clock>,
    ops: Vec<OpRecord>,
}

impl<S: Session> Recorder<S> {
    /// Wraps `session`, logging under thread id `thread` against `clock`.
    pub fn new(session: S, thread: u32, clock: Arc<Clock>) -> Self {
        Self {
            session,
            thread,
            clock,
            ops: Vec::new(),
        }
    }

    /// Finishes recording, returning this thread's log.
    pub fn finish(self) -> Vec<OpRecord> {
        self.ops
    }

    /// Runs and records one operation.
    pub fn run(&mut self, op: &OpKind) -> OpResult {
        let invoke = self.clock.tick();
        let result = self.session.run(op);
        let response = self.clock.tick();
        self.push(op, &result, invoke, response);
        result
    }

    /// Runs and records a window of operations: every one is invoked before
    /// the window is sent and responds after it is answered, so they overlap
    /// each other in the history as a frame's requests do on the wire.
    pub fn run_window(&mut self, ops: &[OpKind]) -> Vec<OpResult> {
        let invokes: Vec<u64> = ops.iter().map(|_| self.clock.tick()).collect();
        let results = self.session.run_window(ops);
        assert_eq!(
            results.len(),
            ops.len(),
            "one result per windowed operation"
        );
        for ((op, result), invoke) in ops.iter().zip(&results).zip(invokes) {
            let response = self.clock.tick();
            self.push(op, result, invoke, response);
        }
        results
    }

    fn push(&mut self, op: &OpKind, result: &OpResult, invoke: u64, response: u64) {
        self.ops.push(OpRecord {
            thread: self.thread,
            kind: op.clone(),
            result: result.clone(),
            invoke,
            response,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abtree::{ConcurrentMap, ElimABTree};

    #[test]
    fn recorder_logs_ordered_intervals_with_results() {
        let tree: ElimABTree = ElimABTree::new();
        let clock = Clock::new();
        let mut rec = Recorder::new(ConcurrentMap::handle(&tree), 0, Arc::clone(&clock));
        let insert = |key, value| OpKind::Insert { key, value };
        assert_eq!(rec.run(&insert(5, 50)), OpResult::Value(None));
        assert_eq!(rec.run(&insert(5, 51)), OpResult::Value(Some(50)));
        assert_eq!(rec.run(&OpKind::Get { key: 5 }), OpResult::Value(Some(50)));
        let out = rec.run(&OpKind::Range { lo: 0, hi: 10 });
        assert_eq!(out, OpResult::Entries(vec![(5, 50)]));
        assert_eq!(
            rec.run(&OpKind::Delete { key: 5 }),
            OpResult::Value(Some(50))
        );
        rec.run(&OpKind::MGet { keys: vec![5, 6] });
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
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let clock = Clock::new();
        let mut rec = Recorder::new(service.router(), 0, clock);
        let insert = |key, value| OpKind::Insert { key, value };
        assert_eq!(rec.run(&insert(1, 10)), OpResult::Value(None));
        assert_eq!(
            rec.run(&OpKind::MPut {
                pairs: vec![(2, 20), (1, 99)]
            }),
            OpResult::Values(vec![None, Some(10)])
        );
        assert_eq!(
            rec.run(&OpKind::MGet {
                keys: vec![1, 2, 3]
            }),
            OpResult::Values(vec![Some(10), Some(20), None])
        );
        assert_eq!(
            rec.run(&OpKind::Range { lo: 0, hi: 3 }),
            OpResult::Entries(vec![(1, 10), (2, 20)])
        );
        assert_eq!(
            rec.run(&OpKind::Delete { key: 1 }),
            OpResult::Value(Some(10))
        );
        assert_eq!(rec.run(&OpKind::Get { key: 1 }), OpResult::Value(None));
        assert_eq!(
            rec.run_window(&[insert(1, 11), OpKind::Get { key: 1 }]),
            vec![OpResult::Value(None), OpResult::Value(Some(11))]
        );
        let ops = rec.finish();
        assert_eq!(ops.len(), 8);
        assert_eq!(ops[3].kind, OpKind::Range { lo: 0, hi: 3 });
        assert_eq!(ops[6].kind, OpKind::Insert { key: 1, value: 11 });
        assert!(
            ops[7].invoke < ops[6].response,
            "a window's operations overlap"
        );
    }
}
