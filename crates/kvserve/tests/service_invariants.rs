//! Service-level invariants, headlined by the key-sum check: after any
//! amount of concurrent batched traffic, the sum of keys stored must equal
//! the net sum of keys the workers observed themselves inserting minus
//! deleting — the paper's §6 checksum validation lifted from one structure
//! to the service's routers.

use std::sync::Arc;

use abtree::ElimABTree;
use kvserve::{KvService, Request, Response};
use rand::prelude::*;

fn elim_service() -> KvService {
    KvService::new(1, 1, |_| {
        let tree: ElimABTree = ElimABTree::new();
        Box::new(tree)
    })
}

/// Concurrent batched `MPut`/`Delete` traffic from several routers must
/// leave the service with a key sum equal to the net of what the workers
/// saw succeed.
#[test]
fn cross_shard_key_sum_survives_concurrent_batched_updates() {
    let threads = abtree::par::detected_parallelism().clamp(2, 8);
    let service = Arc::new(elim_service());
    let key_space = 10_000u64;
    let mut net: i128 = 0;

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..threads as u64 {
            let service = Arc::clone(&service);
            workers.push(scope.spawn(move || {
                let mut router = service.router();
                let mut rng = StdRng::seed_from_u64(0xD15C ^ t);
                let mut pairs = Vec::new();
                let mut results = Vec::new();
                let mut net = 0i128;
                for _ in 0..400 {
                    // One MPut batch...
                    pairs.clear();
                    for _ in 0..16 {
                        let k = rng.gen_range(0..key_space);
                        pairs.push((k, k));
                    }
                    router.mput(&pairs, &mut results);
                    for (&(k, _), prev) in pairs.iter().zip(&results) {
                        if prev.is_none() {
                            net += k as i128;
                        }
                    }
                    // ... then a burst of deletes over the same key space.
                    for _ in 0..8 {
                        let k = rng.gen_range(0..key_space);
                        if router.delete(k).is_some() {
                            net -= k as i128;
                        }
                    }
                }
                net
            }));
        }
        for worker in workers {
            net += worker.join().expect("worker panicked");
        }
    });

    assert_eq!(
        service.key_sum() as i128,
        net,
        "the key sum diverged from the workers' net"
    );
    assert!(
        !obs::ENABLED || service.stats().mputs() == threads as u64 * 400,
        "every multi-put counts once"
    );
}

/// A sequential oracle check: the service must behave exactly like a
/// `BTreeMap` under a long random request stream, including scans, over
/// four 500-key windows spread across the key space (window `t` starts at
/// `t << 48`).
#[test]
fn service_matches_sequential_oracle() {
    use std::collections::BTreeMap;
    let service = elim_service();
    let mut router = service.router();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x0_5EED);
    let mut scan_out = Vec::new();
    for _ in 0..9_000 {
        let window = rng.gen_range(0..4u64) << 48;
        let key = window | rng.gen_range(0..500u64);
        match rng.gen_range(0..5u32) {
            0 => {
                let value = rng.gen::<u32>() as u64;
                let expected = oracle.get(&key).copied();
                if expected.is_none() {
                    oracle.insert(key, value);
                }
                assert_eq!(router.put(key, value), expected);
            }
            1 => {
                assert_eq!(router.delete(key), oracle.remove(&key));
            }
            2 => {
                assert_eq!(router.get(key), oracle.get(&key).copied());
            }
            3 => {
                let len = 1 << 48;
                router.scan(window, len, &mut scan_out);
                let expected: Vec<(u64, u64)> = oracle
                    .range(window..window + len)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(scan_out, expected, "window scan");
            }
            _ => {
                let keys: Vec<u64> = (0..8).map(|_| window | rng.gen_range(0..500u64)).collect();
                let mut values = Vec::new();
                router.mget(&keys, &mut values);
                let expected: Vec<Option<u64>> =
                    keys.iter().map(|k| oracle.get(k).copied()).collect();
                assert_eq!(values, expected);
            }
        }
    }
    drop(router);
    let oracle_sum: u128 = oracle.keys().map(|&k| k as u128).sum();
    assert_eq!(service.key_sum(), oracle_sum);
}

/// End-to-end wire path: encode a batch, decode it, execute it, encode the
/// responses, decode them — what the in-process server example does over a
/// channel.
#[test]
fn wire_round_trip_through_execution() {
    let service = elim_service();
    let mut router = service.router();
    // Keys above 2^48, so every varint on the wire is multi-byte.
    let key = |k: u64| (3 << 48) | k;
    let requests = vec![
        Request::MPut {
            pairs: (0..10).map(|k| (key(k), k * 11)).collect(),
        },
        Request::Get { key: key(4) },
        Request::Scan { lo: key(0), len: 6 },
        Request::Delete { key: key(4) },
        Request::MGet {
            keys: vec![key(4), key(5)],
        },
    ];

    let mut wire = Vec::new();
    kvserve::encode_batch(&requests, &mut wire);
    let decoded = kvserve::decode_batch(&wire).unwrap();
    assert_eq!(decoded, requests);

    let mut responses = Vec::new();
    router.serve_pipelined(&decoded, &mut responses);
    let mut response_wire = Vec::new();
    kvserve::encode_response_batch(&responses, &mut response_wire);
    let returned = kvserve::decode_response_batch(&response_wire).unwrap();

    assert_eq!(returned[1], Response::Value(Some(44)));
    match &returned[2] {
        Response::Entries(entries) => {
            assert_eq!(entries.len(), 6);
            assert_eq!(entries[0], (key(0), 0));
        }
        other => panic!("expected entries, got {other:?}"),
    }
    assert_eq!(returned[3], Response::Value(Some(44)));
    assert_eq!(returned[4], Response::Values(vec![None, Some(55)]));

    // Stats saw the traffic: the batch histograms are populated, the
    // multi-put counts once and every lookup once: the get and the mget's
    // key 5 hit, the mget's key 4 misses.
    if !obs::ENABLED {
        return; // counters are compiled out
    }
    let stats = service.stats();
    assert!(stats.batch_size.count() >= 2);
    assert!(stats.batch_size.p50().expect("batches were recorded") >= 2);
    assert_eq!(stats.mputs(), 1);
    assert_eq!(stats.hits(), 2);
    assert_eq!(stats.misses(), 1);
}
