//! `kvserve`: an embedded, sharded, batched key-value service layer over
//! the engine's per-thread [`abtree::MapHandle`] sessions.
//!
//! The reproduction's trees absorb high-contention update traffic; this
//! crate grows them toward the front half of a real serving system.  It
//! adds the pieces a data structure does not have but a service needs:
//!
//! * **Sharding** ([`KvService`]): `S` independent engine instances behind
//!   a multiplicative-hash router.  Each shard can be any structure —
//!   concrete trees, or the benchmark registry's `Box<dyn Benchable>` trait
//!   objects (the [`ShardStore`] bound is blanket-implemented for every
//!   `ConcurrentMap + KeySum` type).  The service owns no threads.
//! * **Routing sessions** ([`ShardRouter`]): a per-client session holding
//!   one engine session of its own per shard.  Every request runs on the
//!   calling thread, on that session: the trees are linearizable concurrent
//!   maps, so nothing is handed to another thread.  The pipelined
//!   [`submit`](ShardRouter::submit)/[`collect`](ShardRouter::collect) pair
//!   keeps up to [`LANE_CAPACITY`] responses uncollected and refuses the
//!   next submission with [`Overloaded`] (never blocks).
//! * **A hot-key read cache** ([`cache`]): a small per-router direct-mapped
//!   cache validated by per-shard mutation stamps, so the top of the Zipf
//!   curve touches no tree.
//! * **Request batching** ([`Request::MGet`]/[`Request::MPut`]): batches
//!   are regrouped by destination shard, run as one session batch per shard,
//!   and served with one latency sample and one stats pass per shard
//!   touched, instead of per key.
//! * **The shard-owner runtime** ([`owner`]): lanes ([`queue`]), mailbox
//!   and park loop for a service that needs one thread per shard — the
//!   durable `crashkv` service, whose group fence has a single committer.
//! * **A compact wire codec** ([`codec`]): varint-based request/response
//!   framing with strict, allocation-capped decoding.
//! * **Namespaces** ([`Namespace`]): 16-bit tenant prefixes packed into the
//!   high key bits, keeping each tenant's keys contiguous in the ordered
//!   shards (a tenant scan is one window).
//! * **Observability** ([`ServiceStats`] + [`obs`]): per-shard and
//!   per-namespace counters (ops, hit rate) plus fixed-bucket power-of-two
//!   histograms for p50/p99 latency and batch sizes, all registered as pull
//!   sources in the service's [`obs::Registry`] — one [`Request::Stats`]
//!   scrape renders the whole stack (op counters, sampled per-stage
//!   pipeline latency, per-shard EBR reclamation lag) as Prometheus-style
//!   text exposition.  Building `obs` with its `compile-out` feature
//!   removes every recording site — no external crates either way.
//!
//! # Example
//!
//! ```
//! use kvserve::{KvService, Namespace, Request, Response};
//!
//! // Four elim-abtree shards, stats for up to 2 tenants.
//! let service = KvService::new(4, 2, |_| {
//!     let tree: abtree::ElimABTree = abtree::ElimABTree::new();
//!     Box::new(tree)
//! });
//!
//! // One router per worker thread.
//! let mut router = service.router();
//! let tenant = Namespace::new(1);
//! assert_eq!(router.put(tenant.prefixed(7), 700), None);
//! assert_eq!(
//!     router.execute(&Request::Get { key: tenant.prefixed(7) }),
//!     Response::Value(Some(700)),
//! );
//!
//! // Batches amortize dispatch and bookkeeping across keys.
//! let keys: Vec<u64> = (0..8).map(|k| tenant.prefixed(k)).collect();
//! let mut values = Vec::new();
//! router.mget(&keys, &mut values);
//! assert_eq!(values[7], Some(700));
//!
//! // One Stats request scrapes every registered metric as text.
//! let Response::Stats(text) = router.execute(&Request::Stats) else {
//!     unreachable!()
//! };
//! assert!(text.contains("kv_shard_version"));
//! drop(router);
//! assert!(!obs::ENABLED || service.stats().namespace(1).hits() >= 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod namespace;
pub mod owner;
pub mod queue;
pub mod request;
pub mod router;
pub mod service;
pub mod stats;
mod worker;

pub use cache::ReadCache;
pub use codec::{
    decode_batch, decode_response_batch, encode_batch, encode_response_batch, CodecError,
};
pub use namespace::{Namespace, LOCAL_KEY_BITS, MAX_LOCAL_KEY};
pub use queue::{Consumer, Producer, PushError};
pub use request::{Request, Response};
pub use router::{Overloaded, ShardRouter};
pub use service::{shard_of, KvService, RouterError, ShardStore};
pub use stats::{Histogram, OpCounters, ServiceStats};

/// The in-flight bound of both request paths: a volatile
/// [`ShardRouter`] holds at most this many uncollected responses (the next
/// [`submit`](ShardRouter::submit) is refused), and each SPSC lane of the
/// [`owner`] runtime holds at most this many jobs, so an owner can always
/// release a full group of held replies.
pub const LANE_CAPACITY: usize = 64;
