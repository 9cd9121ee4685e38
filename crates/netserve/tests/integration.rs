//! End-to-end socket tests for the netserve front end: real loopback
//! connections against a live [`kvserve::KvService`], covering fan-out
//! (hundreds of concurrent pipelining connections), write-side
//! backpressure under a client that never reads, frames larger than a
//! router's in-flight budget, graceful shutdown draining pipelined frames,
//! a bounded shutdown of an idle server, idle-connection eviction, bursts
//! — several frames arriving in one read, which the reactor serves in one
//! pass — single-request frames, and a reactor that cannot open its
//! router.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use kvserve::codec::{decode_response_batch, encode_batch};
use kvserve::{KvService, Request, Response};
use netserve::frame::{write_frame, FrameDecoder};
use netserve::{Client, Server, ServerConfig, ERR_BAD_BATCH};

fn elim_service(shards: usize) -> Arc<KvService> {
    Arc::new(KvService::new(shards, 1, |_| {
        let tree: abtree::ElimABTree = abtree::ElimABTree::new();
        Box::new(tree)
    }))
}

/// Waits (bounded) for `predicate` to become true while reactor threads
/// make progress in the background.
fn eventually(what: &str, mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance workload: 8 worker threads x 32 connections each — 256
/// connections all open at once, every one of them pipelining several
/// frames before reading any responses.
#[test]
fn sustains_256_pipelined_connections() {
    const THREADS: u64 = 8;
    const CONNS_PER_THREAD: u64 = 32;
    const FRAMES_PER_CONN: u64 = 4;

    let service = elim_service(4);
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let addr = server.local_addr();

    // Both barriers include every worker: all connections exist before any
    // workload runs, and none closes before every workload is done.
    let all_open = Arc::new(Barrier::new(THREADS as usize));
    let all_done = Arc::new(Barrier::new(THREADS as usize));
    let checked = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let all_open = Arc::clone(&all_open);
            let all_done = Arc::clone(&all_done);
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                let mut clients: Vec<Client> = (0..CONNS_PER_THREAD)
                    .map(|_| Client::connect(addr).expect("connect"))
                    .collect();
                all_open.wait();
                // Pipeline: every connection sends all its frames before
                // any response is read.
                for (c, client) in clients.iter_mut().enumerate() {
                    for f in 0..FRAMES_PER_CONN {
                        let key = 1 + ((t * CONNS_PER_THREAD + c as u64) * FRAMES_PER_CONN + f);
                        client
                            .send(&[
                                Request::Put {
                                    key,
                                    value: key * 10,
                                },
                                Request::Get { key },
                            ])
                            .expect("send");
                    }
                }
                for (c, client) in clients.iter_mut().enumerate() {
                    assert_eq!(client.in_flight(), FRAMES_PER_CONN as usize);
                    for f in 0..FRAMES_PER_CONN {
                        let key = 1 + ((t * CONNS_PER_THREAD + c as u64) * FRAMES_PER_CONN + f);
                        let replies = client.recv().expect("recv");
                        assert_eq!(
                            replies,
                            vec![Response::Value(None), Response::Value(Some(key * 10))],
                            "connection {c} frame {f}"
                        );
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                }
                all_done.wait();
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }

    let total_frames = THREADS * CONNS_PER_THREAD * FRAMES_PER_CONN;
    assert_eq!(checked.load(Ordering::Relaxed), total_frames);
    assert_eq!(server.stats().accepted(), THREADS * CONNS_PER_THREAD);
    assert_eq!(server.stats().frames(), total_frames);
    server.shutdown();
    assert_eq!(server.stats().open_connections(), 0);
}

/// A client that requests megabytes of scan results and never reads must
/// trip the write high-water mark (pausing only its own reads) while a
/// well-behaved client on the *same reactor* keeps getting served.
#[test]
fn slow_client_trips_high_water_without_stalling_others() {
    const PREFILL: u64 = 2000;
    const SLOW_SCANS: usize = 200;

    let service = elim_service(2);
    let config = ServerConfig {
        reactors: 1, // both clients share one event loop: stalls would show
        write_high_water: 2048,
        drain_timeout: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, Arc::clone(&service)).unwrap();
    let addr = server.local_addr();

    let mut fast = Client::connect(addr).unwrap();
    let pairs: Vec<(u64, u64)> = (1..=PREFILL).map(|k| (k, k)).collect();
    for chunk in pairs.chunks(500) {
        let replies = fast
            .call(&[Request::MPut {
                pairs: chunk.to_vec(),
            }])
            .unwrap();
        assert_eq!(replies.len(), 1);
    }

    // The slow client floods scan requests (tiny frames in, ~30 KiB
    // responses out) and never reads a byte back.
    let mut slow = Client::connect(addr).unwrap();
    for _ in 0..SLOW_SCANS {
        slow.send(&[Request::Scan {
            lo: 1,
            len: PREFILL,
        }])
        .unwrap();
    }

    eventually("the write high-water mark to trip", || {
        server.stats().hwm_pauses() > 0
    });

    // Same reactor, same moment: the fast client still gets round trips.
    for i in 0..200u64 {
        let key = PREFILL + 10 + i;
        let replies = fast
            .call(&[Request::Put { key, value: i }, Request::Get { key }])
            .unwrap();
        assert_eq!(
            replies,
            vec![Response::Value(None), Response::Value(Some(i))]
        );
    }

    // Hanging up with megabytes still queued must tear the connection down
    // without hurting anyone else.
    drop(slow);
    eventually("the slow client connection to be reaped", || {
        server.stats().open_connections() == 1
    });
    let replies = fast.call(&[Request::Get { key: 1 }]).unwrap();
    assert_eq!(replies, vec![Response::Value(Some(1))]);

    assert!(server.stats().hwm_pauses() >= 1);
    drop(fast);
    server.shutdown();
}

/// A single frame holding more requests than a router's in-flight budget,
/// all on one shard, is answered in full: the reactor runs each request to
/// completion before the next, so nothing is shed.
#[test]
fn a_frame_over_the_budget_is_answered_in_full() {
    use kvserve::LANE_CAPACITY;

    let service = elim_service(1); // one shard: every key lands on it
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let batch: Vec<Request> = (1..=(LANE_CAPACITY + 8) as u64)
        .map(|key| Request::Get { key })
        .collect();
    let replies = client.call(&batch).unwrap();
    assert_eq!(replies, vec![Response::Value(None); batch.len()]);
    assert_eq!(server.stats().requests(), batch.len() as u64);
    assert_eq!(service.stats().shed(), 0);
    drop(client);
    server.shutdown();
}

/// A reactor opens its router when it starts: if a shard's store has no
/// session slot left for it, `Server::start` fails instead of the reactor
/// thread, and the server comes up once slots are free.
#[test]
fn a_reactor_without_a_session_slot_fails_start() {
    let collector = abebr::Collector::new();
    let service = {
        let collector = collector.clone();
        Arc::new(KvService::new(2, 1, move |_| {
            let tree: abtree::ElimABTree = abtree::ElimABTree::with_collector(collector.clone());
            Box::new(tree)
        }))
    };
    let held: Vec<_> = std::iter::from_fn(|| collector.try_register().ok()).collect();
    let err = Server::start(ServerConfig::default(), Arc::clone(&service))
        .expect_err("no reactor can open a router");
    assert!(err.to_string().contains("slot capacity"), "{err}");

    drop(held);
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.call(&[Request::Put { key: 1, value: 10 }]).unwrap(),
        vec![Response::Value(None)]
    );
    drop(client);
    server.shutdown();
}

/// Graceful shutdown: frames pipelined before the shutdown are all
/// answered and flushed.  Draining keeps reading — request bytes may still
/// be in flight when the shutdown lands — so each client signals "done"
/// with a write-side half-close and only then sees the server's EOF.  New
/// connections are refused once draining starts.
#[test]
fn graceful_shutdown_drains_pipelined_frames() {
    const CLIENTS: u64 = 4;
    const FRAMES: u64 = 50;

    let service = elim_service(4);
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let addr = server.local_addr();

    let sent = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for f in 0..FRAMES {
                    let key = 1 + w * FRAMES + f;
                    client
                        .send(&[Request::Put { key, value: key }, Request::Get { key }])
                        .expect("send");
                }
                sent.wait(); // shutdown races with the reads below
                for f in 0..FRAMES {
                    let key = 1 + w * FRAMES + f;
                    let replies = client.recv().expect("every pipelined frame is drained");
                    assert_eq!(
                        replies,
                        vec![Response::Value(None), Response::Value(Some(key))],
                        "client {w} frame {f}"
                    );
                }
                // All frames answered.  Half-close to tell the draining
                // server we are done; the reply is a clean EOF, not a reset.
                client
                    .stream()
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close");
                let err = client.recv().expect_err("server is gone");
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            })
        })
        .collect();

    sent.wait();
    server.shutdown();
    for worker in workers {
        worker.join().expect("client");
    }

    assert_eq!(server.stats().frames(), CLIENTS * FRAMES);
    assert_eq!(server.stats().open_connections(), 0);
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener is closed after shutdown"
    );
}

/// Connections idle past the timeout are evicted by the reactor's idle
/// sweep; active ones are not.
#[test]
fn idle_connections_are_evicted() {
    let service = elim_service(2);
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, Arc::clone(&service)).unwrap();
    let addr = server.local_addr();

    let mut idlers: Vec<Client> = (0..3)
        .map(|i| {
            let mut client = Client::connect(addr).unwrap();
            let replies = client
                .call(&[Request::Put {
                    key: 100 + i,
                    value: i,
                }])
                .unwrap();
            assert_eq!(replies, vec![Response::Value(None)]);
            client
        })
        .collect();

    // A busy connection keeps renewing its deadline while the idlers age.
    let mut busy = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().idle_evictions() < 3 {
        assert!(Instant::now() < deadline, "idlers were never evicted");
        let replies = busy.call(&[Request::Get { key: 100 }]).unwrap();
        assert_eq!(replies.len(), 1);
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(server.stats().idle_evictions(), 3);
    // The evicted sockets are really closed: reads see EOF.
    for idler in &mut idlers {
        let err = idler.recv().expect_err("evicted");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
    // The busy connection survived the whole time.
    let replies = busy.call(&[Request::Get { key: 101 }]).unwrap();
    assert_eq!(replies, vec![Response::Value(Some(1))]);
    drop(busy);
    server.shutdown();
}

/// With idle eviction off and no connection left, a reactor has no
/// deadline of its own; its wait is still bounded by the loop's tick, so
/// `shutdown` returns promptly with nothing to wake the reactors.
#[test]
fn shutdown_of_an_idle_server_is_bounded() {
    let service = elim_service(2);
    let config = ServerConfig {
        idle_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let replies = client.call(&[Request::Put { key: 1, value: 1 }]).unwrap();
    assert_eq!(replies, vec![Response::Value(None)]);
    drop(client);
    eventually("the hang-up", || server.stats().open_connections() == 0);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    println!("shutdown of an idle server took {took:?}");
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(server.is_shut_down());
}

/// The server-side state machine reassembles a frame dribbled one byte per
/// segment exactly like one delivered whole.
#[test]
fn byte_dribble_reassembles_on_the_wire() {
    let service = elim_service(2);
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let mut payload = Vec::new();
    encode_batch(
        &[Request::Put { key: 1, value: 10 }, Request::Get { key: 1 }],
        &mut payload,
    );
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload);
    for &byte in &wire {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
    }

    let mut decoder = FrameDecoder::new(1 << 20);
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    while frames.is_empty() {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server hung up mid-response");
        decoder.push(&buf[..n], &mut frames).unwrap();
    }
    let replies = decode_response_batch(&frames[0]).unwrap();
    assert_eq!(
        replies,
        vec![Response::Value(None), Response::Value(Some(10))]
    );
    drop(stream);
    server.shutdown();
}

/// Appends one request frame per batch to `wire`.
fn encode_frames(frames: &[Vec<Request>], wire: &mut Vec<u8>) {
    let mut payload = Vec::new();
    for batch in frames {
        encode_batch(batch, &mut payload);
        write_frame(wire, &payload);
    }
}

/// Sends `wire` in a single `write`, so the frames in it reach the reactor
/// in one read (loopback delivers a few KiB whole) and are served as one
/// burst.  What the tests assert holds however the bytes are split.
fn write_at_once(client: &Client, wire: &[u8]) {
    let mut stream = client.stream();
    stream.write_all(wire).expect("write the burst");
}

/// What a single client must be answered, request by request.
fn model_reply(model: &mut BTreeMap<u64, u64>, request: &Request) -> Response {
    let mut put = |key: u64, value: u64| {
        let prior = model.get(&key).copied();
        model.entry(key).or_insert(value);
        prior
    };
    match request {
        Request::Get { key } => Response::Value(model.get(key).copied()),
        Request::Put { key, value } => Response::Value(put(*key, *value)),
        Request::Delete { key } => Response::Value(model.remove(key)),
        Request::MGet { keys } => {
            Response::Values(keys.iter().map(|key| model.get(key).copied()).collect())
        }
        Request::MPut { pairs } => {
            Response::Values(pairs.iter().map(|&(key, value)| put(key, value)).collect())
        }
        Request::Scan { lo, len } => Response::Entries(
            model
                .range(*lo..lo.saturating_add(*len))
                .map(|(&key, &value)| (key, value))
                .collect(),
        ),
        Request::Stats => unreachable!("the burst tests send no scrapes"),
    }
}

/// k frames in one write earn k reply frames, in order, each answering its
/// own requests as a single-client model predicts — including frames whose
/// scans and batches must not be overtaken by (or overtake) the point
/// requests pipelined around them.
#[test]
fn a_burst_is_answered_frame_by_frame_in_order() {
    let service = elim_service(4);
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A seeded mix over a small key space, so frames read and overwrite
    // each other's keys: any reordering across frames changes an answer.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut model = BTreeMap::new();
    for round in 0..20 {
        let frames: Vec<Vec<Request>> = (0..12)
            .map(|frame| {
                if frame == 5 {
                    // An ordering barrier in the middle of the burst.
                    return vec![
                        Request::Put {
                            key: 7,
                            value: round,
                        },
                        Request::MGet {
                            keys: vec![1, 7, 20, 33],
                        },
                        Request::Delete { key: 7 },
                        Request::Scan { lo: 1, len: 40 },
                        Request::MPut {
                            pairs: vec![(7, 70), (8, 80)],
                        },
                        Request::Get { key: 7 },
                    ];
                }
                (0..1 + next(8))
                    .map(|_| {
                        let key = 1 + next(40);
                        match next(3) {
                            0 => Request::Get { key },
                            1 => Request::Put {
                                key,
                                value: next(1000),
                            },
                            _ => Request::Delete { key },
                        }
                    })
                    .collect()
            })
            .collect();
        let mut wire = Vec::new();
        encode_frames(&frames, &mut wire);
        write_at_once(&client, &wire);
        for (index, batch) in frames.iter().enumerate() {
            let expected: Vec<Response> = batch
                .iter()
                .map(|request| model_reply(&mut model, request))
                .collect();
            assert_eq!(
                client.recv().expect("one reply frame per request frame"),
                expected,
                "round {round} frame {index}"
            );
        }
    }
    assert_eq!(server.stats().frames(), 20 * 12);
    drop(client);
    server.shutdown();
}

/// A thousand single-request frames: each reply is what a single client
/// must see, and each request is counted once.
#[test]
fn single_request_frames_are_counted_once() {
    let service = elim_service(4);
    let config = ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let ops = service.stats().total_ops();

    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut model = BTreeMap::new();
    for round in 0..1_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = 1 + (state >> 8) % 64;
        let request = match state % 3 {
            0 => Request::Get { key },
            1 => Request::Put { key, value: round },
            _ => Request::Delete { key },
        };
        assert_eq!(
            client
                .call(std::slice::from_ref(&request))
                .expect("round trip"),
            vec![model_reply(&mut model, &request)],
            "round {round}: {request:?}"
        );
    }
    assert!(
        !obs::ENABLED || service.stats().total_ops() - ops == 1_000,
        "each request is counted once"
    );
    drop(client);
    server.shutdown();
}

/// A burst that aims more than a router's in-flight budget at one shard is
/// served whole: nothing is refused.
#[test]
fn a_burst_over_one_lane_sheds_nothing() {
    use kvserve::LANE_CAPACITY;
    const FRAMES: u64 = 10;
    const PER_FRAME: u64 = 8;
    assert!(FRAMES * PER_FRAME > LANE_CAPACITY as u64);

    let service = elim_service(1); // one shard: every key lands on it
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let frames: Vec<Vec<Request>> = (0..FRAMES)
        .map(|frame| {
            (0..PER_FRAME)
                .map(|i| Request::Put {
                    key: 1 + frame * PER_FRAME + i,
                    value: frame,
                })
                .collect()
        })
        .collect();
    let mut wire = Vec::new();
    encode_frames(&frames, &mut wire);
    write_at_once(&client, &wire);
    for frame in 0..FRAMES {
        assert_eq!(
            client.recv().unwrap(),
            vec![Response::Value(None); PER_FRAME as usize],
            "frame {frame}"
        );
    }
    assert_eq!(service.stats().shed(), 0);
    drop(client);
    server.shutdown();
    assert_eq!(
        service.key_sum(),
        (1..=(FRAMES * PER_FRAME) as u128).sum::<u128>()
    );
}

/// A malformed frame in the middle of a burst: every frame before it is
/// answered, then comes the error frame, then the close — the frames
/// behind it are never served.
#[test]
fn a_malformed_frame_mid_burst_answers_what_came_before_it() {
    let service = elim_service(2);
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut wire = Vec::new();
    encode_frames(
        &[
            vec![Request::Put { key: 1, value: 10 }],
            vec![Request::Get { key: 1 }, Request::Put { key: 2, value: 20 }],
        ],
        &mut wire,
    );
    // Well-framed, but the payload announces two requests and holds none.
    write_frame(&mut wire, &[2]);
    encode_frames(&[vec![Request::Put { key: 3, value: 30 }]], &mut wire);
    write_at_once(&client, &wire);

    assert_eq!(client.recv().unwrap(), vec![Response::Value(None)]);
    assert_eq!(
        client.recv().unwrap(),
        vec![Response::Value(Some(10)), Response::Value(None)]
    );
    assert_eq!(
        client.recv().unwrap(),
        vec![Response::Error {
            code: ERR_BAD_BATCH
        }]
    );
    let err = client
        .recv()
        .expect_err("the connection is closed after the error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert_eq!(server.stats().protocol_errors(), 1);
    drop(client);
    server.shutdown();
    assert_eq!(
        service.key_sum(),
        3,
        "the frame behind the bad one was not served"
    );
}
