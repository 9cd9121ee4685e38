//! `netserve` — a real TCP front end for the [`kvserve`] service layer.
//!
//! Everything below runs on the standard library plus this workspace's
//! offline shims: the event loop is the [`polling`] shim (raw `epoll(7)`
//! bindings on Linux with a portable `poll(2)` fallback), not an external
//! async runtime.  The result is a compact, inspectable network stack for
//! the paper's (a,b)-tree engine:
//!
//! * [`frame`] — length-prefixed framing with incremental reassembly and
//!   pre-buffering rejection of oversized or malformed headers;
//! * [`wbuf`] — per-connection write buffering with high-water-mark
//!   backpressure (slow clients pause their own reads, nobody else's);
//! * [`server`] — reactor threads, each accepting its own connections on
//!   its own clone of the listening socket, owning its poller and a
//!   [`kvserve::ShardRouter`] and serving every request of a read's frames
//!   on it, in order, without handing anything to another thread; one
//!   deadline loop per reactor bounds each wait by idle eviction, accept
//!   retry, the drain deadline and a fixed tick;
//! * [`client`] — a small blocking client speaking the same framing,
//!   with optional send-ahead pipelining.
//!
//! ```no_run
//! use std::sync::Arc;
//! use netserve::{Client, Server, ServerConfig};
//! use kvserve::{KvService, Request, Response};
//!
//! // Four elim-abtree shards behind the socket front end.
//! let service = Arc::new(KvService::new(4, 1, |_| {
//!     let tree: abtree::ElimABTree = abtree::ElimABTree::new();
//!     Box::new(tree)
//! }));
//! let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let replies = client.call(&[Request::Put { key: 7, value: 70 }]).unwrap();
//! assert_eq!(replies, vec![Response::Value(None)]);
//!
//! server.shutdown(); // graceful: drains in-flight frames, joins reactors
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;
pub mod stats;
pub mod wbuf;

pub use client::Client;
pub use frame::{FrameDecoder, FrameError};
pub use server::{Server, ServerConfig, ERR_BAD_BATCH, ERR_BAD_FRAME, ERR_FRAME_TOO_LARGE};
pub use stats::NetStats;
