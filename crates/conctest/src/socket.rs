//! Recording kvserve traffic **through a real socket**: a
//! [`netserve::Client`] is a [`Session`] like an in-process
//! [`kvserve::ShardRouter`], so a [`Recorder`](crate::Recorder) over one
//! produces the same [`OpRecord`](crate::OpRecord) stream for the
//! linearizability checker, and a [`Server`] is a [`Target`] the fuzzer
//! drives end to end.  The recorded window covers the full wire path —
//! encode, TCP, the reactor's frame reassembly, its router, and the
//! response trip back — so a reordering anywhere in the netserve stack
//! shows up as a per-key linearizability violation.
//!
//! An operation is one request frame.  A window sends one frame per
//! operation before receiving any answer, which keeps several frames in
//! flight per connection — the regime the reactor's per-connection state
//! machine actually serves.  A reply the operation cannot carry
//! (`Overloaded` included) panics: a refused request never executed, and
//! leaving it out would hide a hole in the checked history.

use std::sync::Arc;

use kvserve::KvService;
use netserve::{Client, Server, ServerConfig};

use crate::fuzz::Target;
use crate::history::{OpKind, OpResult, Session};

impl Session for Client {
    fn run(&mut self, op: &OpKind) -> OpResult {
        let mut results = self.run_window(std::slice::from_ref(op));
        results.pop().expect("one result per operation")
    }

    fn run_window(&mut self, ops: &[OpKind]) -> Vec<OpResult> {
        for op in ops {
            self.send(&[op.request()]).expect("socket send");
        }
        ops.iter()
            .map(|_| {
                let mut replies = self.recv().expect("socket reply");
                assert_eq!(replies.len(), 1, "one reply to a one-request frame");
                OpResult::from_reply(replies.pop().expect("checked length"))
            })
            .collect()
    }
}

/// A running server; its sessions are loopback connections.
impl Target for Server {
    type Session<'t> = Client;

    fn open(&self) -> Client {
        Client::connect(self.local_addr()).expect("connect to the server")
    }
}

/// Starts a loopback server with `reactors` reactor threads in front of
/// `service`.
pub fn loopback_server(service: KvService, reactors: usize) -> Server {
    let config = ServerConfig {
        reactors,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(service)).expect("start the server")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{differential_fuzz, kv_service, FuzzConfig};

    /// Client sessions over a 2-reactor loopback server agree op-for-op
    /// with the oracle on a seeded schedule of every operation kind.
    #[test]
    fn socket_client_matches_the_oracle() {
        let cfg = FuzzConfig {
            ops_per_thread: 100,
            key_space: 256,
            ..FuzzConfig::default()
        };
        let build = || loopback_server(kv_service("elim-abtree", 2), 2);
        let replayed = differential_fuzz(&build, &cfg)
            .unwrap_or_else(|failure| panic!("{}", failure.render()));
        assert_eq!(replayed, 300);
    }
}
