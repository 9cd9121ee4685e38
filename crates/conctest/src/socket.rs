//! Recording kvserve traffic **through a real socket**: a
//! [`ClientRecorder`] wraps a [`netserve::Client`] the way
//! [`RouterRecorder`](crate::history::RouterRecorder) wraps an in-process
//! [`kvserve::ShardRouter`], producing the same [`OpRecord`] stream for the
//! linearizability checker.  The recorded window covers the full wire path
//! — encode, TCP, the reactor's frame reassembly, its router, and the
//! response trip back — so a reordering anywhere in the netserve stack
//! shows up as a per-key linearizability violation.
//!
//! Two recording modes:
//! - the blocking calls ([`get`](ClientRecorder::get),
//!   [`put`](ClientRecorder::put), ...) round-trip one frame per op, like
//!   the in-process recorder;
//! - the pipelined pair [`send_point`](ClientRecorder::send_point) /
//!   [`collect_point`](ClientRecorder::collect_point) keeps several point
//!   frames in flight per connection, which is the regime the reactor's
//!   per-connection state machine actually serves.  Invoke ticks are taken
//!   at send time and response ticks at receive time, so in-flight ops
//!   overlap in the recorded history exactly as they did on the wire.
//!
//! [`Response::Overloaded`] means the service *refused* the request (it
//! never executed), so refused ops are not recorded; the blocking calls
//! retry them, bounded by [`OVERLOAD_RETRIES`].

use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;

use kvserve::{Request, Response};
use netserve::Client;

use crate::history::{Clock, OpKind, OpRecord, OpResult};

/// Attempts per blocking op before an `Overloaded` answer becomes a panic.
/// A reactor serves every request of a frame to completion and sheds
/// nothing, so hitting this bound means the service is wedged, not busy.
pub const OVERLOAD_RETRIES: usize = 1000;

/// Records one socket session's operations for the checker.
#[derive(Debug)]
pub struct ClientRecorder {
    inner: Client,
    thread: u32,
    clock: Arc<Clock>,
    ops: Vec<OpRecord>,
    /// Invocations sent but not yet collected, in frame order.
    in_flight: std::collections::VecDeque<(OpKind, u64)>,
}

impl ClientRecorder {
    /// Connects to a netserve server and records under `thread` / `clock`.
    pub fn connect(
        addr: impl ToSocketAddrs,
        thread: u32,
        clock: Arc<Clock>,
    ) -> io::Result<Self> {
        Ok(Self::from_client(Client::connect(addr)?, thread, clock))
    }

    /// Wraps an already-connected client.
    pub fn from_client(client: Client, thread: u32, clock: Arc<Clock>) -> Self {
        Self {
            inner: client,
            thread,
            clock,
            ops: Vec::new(),
            in_flight: std::collections::VecDeque::new(),
        }
    }

    /// Finishes recording, returning this session's log.
    ///
    /// # Panics
    ///
    /// Panics if pipelined sends were never collected: their results are
    /// unknown, so the history would be missing completed operations.
    pub fn finish(self) -> Vec<OpRecord> {
        assert!(
            self.in_flight.is_empty(),
            "finish() with {} uncollected pipelined ops",
            self.in_flight.len()
        );
        self.ops
    }

    /// One blocking round trip; retries refused (`Overloaded`) requests.
    /// Responses come back in frame order, so the pipelined window must be
    /// collected first — otherwise this call would read some older point
    /// op's answer as its own.
    fn call_one(&mut self, request: Request, kind: OpKind) -> Response {
        while !self.in_flight.is_empty() {
            self.collect_point();
        }
        for _ in 0..OVERLOAD_RETRIES {
            let invoke = self.clock.tick();
            let mut replies = self
                .inner
                .call(std::slice::from_ref(&request))
                .expect("socket round trip");
            let response = self.clock.tick();
            assert_eq!(replies.len(), 1, "one reply to a one-request frame");
            let reply = replies.pop().expect("checked length");
            if matches!(reply, Response::Overloaded) {
                continue; // refused, not executed: nothing to record
            }
            self.ops.push(OpRecord {
                thread: self.thread,
                kind,
                result: result_of(&reply),
                invoke,
                response,
            });
            return reply;
        }
        panic!("request refused {OVERLOAD_RETRIES} times: {request:?}");
    }

    /// Recorded `Get` round trip.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        match self.call_one(Request::Get { key }, OpKind::Get { key }) {
            Response::Value(v) => v,
            other => panic!("get answered {other:?}"),
        }
    }

    /// Recorded `Put` (insert-if-absent) round trip.
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        match self.call_one(
            Request::Put { key, value },
            OpKind::Insert { key, value },
        ) {
            Response::Value(v) => v,
            other => panic!("put answered {other:?}"),
        }
    }

    /// Recorded `Delete` round trip.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        match self.call_one(Request::Delete { key }, OpKind::Delete { key }) {
            Response::Value(v) => v,
            other => panic!("delete answered {other:?}"),
        }
    }

    /// Recorded `Scan` of `[lo, lo + len - 1]`.  Zero-length scans return
    /// nothing and record nothing.
    pub fn scan(&mut self, lo: u64, len: u64) -> Vec<(u64, u64)> {
        let Some((lo_clamped, hi)) = abtree::scan_window(lo, len) else {
            return Vec::new();
        };
        match self.call_one(
            Request::Scan { lo, len },
            OpKind::Range {
                lo: lo_clamped,
                hi,
            },
        ) {
            Response::Entries(entries) => entries,
            other => panic!("scan answered {other:?}"),
        }
    }

    /// Recorded `MGet` round trip.
    pub fn mget(&mut self, keys: &[u64]) -> Vec<Option<u64>> {
        match self.call_one(
            Request::MGet { keys: keys.to_vec() },
            OpKind::MGet { keys: keys.to_vec() },
        ) {
            Response::Values(values) => values,
            other => panic!("mget answered {other:?}"),
        }
    }

    /// Recorded `MPut` round trip.
    pub fn mput(&mut self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        match self.call_one(
            Request::MPut { pairs: pairs.to_vec() },
            OpKind::MPut { pairs: pairs.to_vec() },
        ) {
            Response::Values(values) => values,
            other => panic!("mput answered {other:?}"),
        }
    }

    /// Sends one point request as its own frame without waiting for the
    /// answer; pair with [`collect_point`](Self::collect_point).
    pub fn send_point(&mut self, request: Request) {
        let kind = match &request {
            Request::Get { key } => OpKind::Get { key: *key },
            Request::Put { key, value } => OpKind::Insert {
                key: *key,
                value: *value,
            },
            Request::Delete { key } => OpKind::Delete { key: *key },
            other => panic!("send_point takes point requests, got {other:?}"),
        };
        let invoke = self.clock.tick();
        self.inner
            .send(std::slice::from_ref(&request))
            .expect("socket send");
        self.in_flight.push_back((kind, invoke));
    }

    /// Ops sent with [`send_point`](Self::send_point) and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Receives the oldest in-flight point answer and records it.  Refused
    /// (`Overloaded`) ops never executed and are dropped from the record;
    /// the return value says whether this collect produced a record.
    pub fn collect_point(&mut self) -> bool {
        let (kind, invoke) = self
            .in_flight
            .pop_front()
            .expect("collect_point with nothing in flight");
        let mut replies = self.inner.recv().expect("socket reply");
        let response = self.clock.tick();
        assert_eq!(replies.len(), 1, "one reply to a one-request frame");
        let reply = replies.pop().expect("checked length");
        if matches!(reply, Response::Overloaded) {
            return false;
        }
        self.ops.push(OpRecord {
            thread: self.thread,
            kind,
            result: result_of(&reply),
            invoke,
            response,
        });
        true
    }
}

fn result_of(reply: &Response) -> OpResult {
    match reply {
        Response::Value(v) => OpResult::Value(*v),
        Response::Values(values) => OpResult::Values(values.clone()),
        Response::Entries(entries) => OpResult::Entries(entries.clone()),
        Response::Overloaded => unreachable!("refused ops are never recorded"),
        Response::Error { code } => panic!("server answered protocol error {code}"),
        Response::Stats(_) => unreachable!("the history harness never scrapes stats"),
    }
}
