//! The **in-process** variant of the key-value server: client threads
//! encode request batches with the `kvserve` wire codec and send them over
//! `mpsc` channels to server workers, each of which owns one `ShardRouter`
//! over a shared 4-shard service.  The same scenario served over a real TCP
//! socket — epoll reactor, pipelined connections, graceful shutdown —
//! lives in `examples/netserve_server.rs`; this variant keeps the full
//! codec-to-router path with zero kernel involvement, which makes it the
//! baseline for quantifying socket overhead.
//!
//! Each shard is owned by its own dedicated service thread holding the
//! shard's single long-lived engine session; the routers feed those owners
//! through bounded SPSC lanes.  Every client is a tenant: its keys live
//! under its own namespace prefix, so tenants never collide and the final
//! per-tenant stats show exactly who sent what.  Batches are served with
//! `ShardRouter::serve_pipelined` — a one-batch call of the `serve_burst`
//! routine the netserve reactor bridges to — so point requests overlap
//! across shard lanes and a
//! full lane surfaces as the codec's `Overloaded` response instead of
//! blocking the serving loop.
//!
//! Run with: `cargo run --release --example kvserve_server`

use std::sync::{mpsc, Arc, Mutex};

use elim_abtree_repro::abtree::ElimABTree;
use elim_abtree_repro::kvserve::{
    decode_batch, decode_response_batch, encode_batch, encode_response_batch, KvService,
    Namespace, Request, Response,
};
use elim_abtree_repro::obs;

/// One request frame: the encoded batch plus the channel to answer on.
type Frame = (Vec<u8>, mpsc::Sender<Vec<u8>>);

const TENANTS: u16 = 4;
const SERVER_WORKERS: usize = 2;
const BATCHES_PER_TENANT: u64 = 200;

fn main() {
    let service = Arc::new(KvService::new(4, TENANTS as usize, |_| {
        let shard: ElimABTree = ElimABTree::new();
        Box::new(shard)
    }));

    // A plain mpsc queue shared by the server workers (std's receiver is
    // single-consumer, so the workers share it behind a mutex — the
    // contended path here is the service, not the queue).
    let (requests_tx, requests_rx) = mpsc::channel::<Frame>();
    let requests_rx = Arc::new(Mutex::new(requests_rx));

    std::thread::scope(|scope| {
        // Server side: each worker opens one router (one engine session per
        // shard) and serves frames until the queue closes.
        for _ in 0..SERVER_WORKERS {
            let service = Arc::clone(&service);
            let requests_rx = Arc::clone(&requests_rx);
            scope.spawn(move || {
                let mut router = service.router();
                let mut responses = Vec::new();
                let mut wire = Vec::new();
                loop {
                    let frame = requests_rx.lock().unwrap().recv();
                    let Ok((bytes, reply_tx)) = frame else { break };
                    // Strict decoding is the trust boundary: corrupt frames,
                    // oversized batches and the engine's reserved key all
                    // surface here as errors, never inside a shard.  With
                    // in-process clients a bad frame is a bug, so panic; a
                    // network server would answer with an error frame.
                    let batch = decode_batch(&bytes).expect("client sent a corrupt frame");
                    router.serve_pipelined(&batch, &mut responses);
                    encode_response_batch(&responses, &mut wire);
                    // A closed reply channel just means the client is gone.
                    let _ = reply_tx.send(wire.clone());
                }
            });
        }

        // Client side: one thread per tenant, each mixing puts, batched
        // mgets and a tenant-scoped scan, and checking its answers.
        for tenant_id in 0..TENANTS {
            let requests_tx = requests_tx.clone();
            scope.spawn(move || {
                let tenant = Namespace::new(tenant_id);
                let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
                let mut wire = Vec::new();
                for round in 0..BATCHES_PER_TENANT {
                    let base = round * 8;
                    let batch = vec![
                        Request::MPut {
                            pairs: (base..base + 8)
                                .map(|k| (tenant.prefixed(k), k * 10))
                                .collect(),
                        },
                        Request::Get {
                            key: tenant.prefixed(base),
                        },
                        Request::MGet {
                            keys: (base..base + 8).map(|k| tenant.prefixed(k)).collect(),
                        },
                        Request::Scan {
                            lo: tenant.prefixed(base),
                            len: 8,
                        },
                    ];
                    encode_batch(&batch, &mut wire);
                    requests_tx
                        .send((wire.clone(), reply_tx.clone()))
                        .expect("server hung up");
                    let reply = reply_rx.recv().expect("server dropped a frame");
                    let responses = decode_response_batch(&reply).expect("corrupt response");
                    assert_eq!(responses.len(), batch.len());
                    assert_eq!(responses[1], Response::Value(Some(base * 10)));
                    match &responses[3] {
                        Response::Entries(entries) => {
                            assert_eq!(entries.len(), 8, "tenant scan sees its own 8 keys");
                            assert!(entries.iter().all(|&(k, _)| tenant.contains(k)));
                        }
                        other => panic!("expected scan entries, got {other:?}"),
                    }
                }
            });
        }

        // Main thread's sender closes once the clients (which hold clones)
        // finish, which in turn shuts the server workers down.
        drop(requests_tx);
    });

    // Quiescent wrap-up: per-tenant accounting and service-wide latency.
    let stats = service.stats();
    println!("tenant   ops        hit-rate");
    for tenant_id in 0..TENANTS {
        let row = stats.namespace(tenant_id as usize);
        println!(
            "{:<8} {:<10} {:.3}",
            Namespace::new(tenant_id).to_string(),
            row.total_ops(),
            row.hit_rate()
        );
    }
    // The workload above always records both histograms, so quantiles are
    // `Some`; an empty histogram would print "n/a" instead of a fake 0.
    let fmt_ns = |q: Option<u64>| q.map_or_else(|| "n/a".to_string(), |ns| ns.to_string());
    println!(
        "point ops: p50 {} ns, p99 {} ns; batches: p50 {} ns, p99 {} ns",
        fmt_ns(stats.point_latency_ns.p50()),
        fmt_ns(stats.point_latency_ns.p99()),
        fmt_ns(stats.batch_latency_ns.p50()),
        fmt_ns(stats.batch_latency_ns.p99()),
    );
    // The same numbers, through the telemetry spine: render the service's
    // metric registry (what a netserve `Stats` scrape ships over the wire)
    // and read rows back with the expo helpers.
    let samples = obs::expo::parse(&service.registry().render()).expect("well-formed exposition");
    let gets = obs::expo::sum(&samples, "kv_ops_total", &[("op", "get")]);
    println!(
        "registry snapshot: {} rows; gets {}, mget keys {}, cache hits {}",
        samples.len(),
        gets,
        obs::expo::sum(&samples, "kv_lookups_total", &[]) - gets,
        obs::expo::sum(&samples, "kv_cache_hits_total", &[]),
    );
    assert_eq!(gets, TENANTS as u64 * BATCHES_PER_TENANT, "one Get per batch");
    // Cross-shard validation: the shards must hold exactly the keys the
    // tenants inserted.
    let expected: u128 = (0..TENANTS)
        .flat_map(|t| (0..BATCHES_PER_TENANT * 8).map(move |k| Namespace::new(t).prefixed(k) as u128))
        .sum();
    assert_eq!(service.key_sum(), expected, "cross-shard key-sum validation");
    println!(
        "service holds {} keys across {} shards; key-sum validation ok",
        TENANTS as u64 * BATCHES_PER_TENANT * 8,
        service.shard_count(),
    );
}
