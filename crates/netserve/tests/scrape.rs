//! Scrape consistency over real TCP: the wire `Request::Stats` frame must
//! agree with the traffic the clients themselves observed.
//!
//! The kvserve routers bump each op counter *before* emitting the op's
//! response, and the protocol is FIFO per connection, so two invariants
//! are checkable from the outside:
//!
//! * **mid-load (lower bound)** — a scrape on a connection happens after
//!   every response already received on it, so the global point-op
//!   counters must cover that client's acked count;
//! * **quiescent (exact)** — once every worker joined, each acked
//!   `Response::Value` is exactly one op-counter bump and each
//!   `Response::Overloaded` exactly one shed bump.
//!
//! The workload is point-only (`Put`/`Get`) because point ops map 1:1 to
//! counter bumps (batch ops also count their keys as lookups).

use std::sync::Arc;

use kvserve::{KvService, Request, Response};
use netserve::{Client, Server, ServerConfig};
use obs::expo::{self, ParsedSample};

fn elim_service() -> Arc<KvService> {
    Arc::new(KvService::new(1, 1, |_| {
        let tree: abtree::ElimABTree = abtree::ElimABTree::new();
        Box::new(tree)
    }))
}

/// Point operations (get + put + delete): one unlabeled row each.
fn point_ops(samples: &[ParsedSample]) -> u64 {
    ["get", "put", "delete"]
        .iter()
        .map(|op| expo::value(samples, "kv_ops_total", &[("op", op)]).expect("a row per op"))
        .sum()
}

#[test]
fn wire_scrape_agrees_with_acked_traffic() {
    const CLIENTS: u64 = 6;
    const FRAMES_PER_CLIENT: u64 = 150;

    let service = elim_service();
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let addr = server.local_addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || -> (u64, u64) {
                let mut client = Client::connect(addr).unwrap();
                let mut values = 0u64;
                let mut overloaded = 0u64;
                for i in 0..FRAMES_PER_CLIENT {
                    let key = ((t % 4) << 48) | (t * FRAMES_PER_CLIENT + i + 1);
                    let batch = [Request::Put { key, value: i }, Request::Get { key }];
                    for reply in client.call(&batch).unwrap() {
                        match reply {
                            Response::Value(_) => values += 1,
                            Response::Overloaded => overloaded += 1,
                            other => panic!("point op answered {other:?}"),
                        }
                    }
                    // Mid-load FIFO invariant, a few times per client: this
                    // scrape runs after every response this connection has
                    // already received, so the global counters are at least
                    // our own acked count.
                    if obs::ENABLED && i % 50 == 25 {
                        let text = client.scrape().unwrap();
                        let samples = expo::parse(&text).unwrap();
                        let global = point_ops(&samples);
                        assert!(
                            global >= values,
                            "scrape shows {global} point ops, this client alone acked {values}"
                        );
                    }
                }
                (values, overloaded)
            })
        })
        .collect();

    let mut values = 0u64;
    let mut overloaded = 0u64;
    for worker in workers {
        let (v, o) = worker.join().unwrap();
        values += v;
        overloaded += o;
    }

    // Every worker joined, so every acked response's counter bump landed:
    // the quiescent scrape must match the client-side tallies exactly.
    let mut client = Client::connect(addr).unwrap();
    let samples = expo::parse(&client.scrape().unwrap()).unwrap();
    if obs::ENABLED {
        assert_eq!(point_ops(&samples), values, "acked ops vs op counters");
        assert_eq!(
            expo::value(&samples, "kv_shed_total", &[]),
            Some(overloaded),
            "Overloaded responses vs shed counter"
        );
    } else {
        // Compiled out, the scrape still answers with the structural rows.
        assert!(samples.iter().any(|s| s.name == "kv_shard_version"));
    }
    drop(client);
    server.shutdown();
}
