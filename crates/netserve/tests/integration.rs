//! End-to-end socket tests for the netserve front end: real loopback
//! connections against a live [`kvserve::KvService`], covering fan-out
//! (hundreds of concurrent pipelining connections), write-side
//! backpressure under a client that never reads, wire-level `Overloaded`
//! on a full shard lane, graceful shutdown draining pipelined frames, and
//! idle-connection eviction.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use kvserve::codec::{decode_response_batch, encode_batch};
use kvserve::{KvService, Request, Response};
use netserve::frame::{write_frame, FrameDecoder};
use netserve::{Client, Server, ServerConfig};

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
                                Request::Put { key, value: key * 10 },
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
            .call(&[Request::MPut { pairs: chunk.to_vec() }])
            .unwrap();
        assert_eq!(replies.len(), 1);
    }

    // The slow client floods scan requests (tiny frames in, ~30 KiB
    // responses out) and never reads a byte back.
    let mut slow = Client::connect(addr).unwrap();
    for _ in 0..SLOW_SCANS {
        slow.send(&[Request::Scan { lo: 1, len: PREFILL }]).unwrap();
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

/// A single frame overfilling one shard's lane is answered with wire
/// `Overloaded` for exactly the overflow — the reactor sheds, it never
/// blocks.
#[test]
fn full_lane_sheds_with_wire_overloaded() {
    use kvserve::LANE_CAPACITY;
    const OVERFLOW: usize = 8;

    let service = elim_service(1); // one shard: every key shares a lane
    let mut server = Server::start(ServerConfig::default(), Arc::clone(&service)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let batch: Vec<Request> = (1..=(LANE_CAPACITY + OVERFLOW) as u64)
        .map(|key| Request::Get { key })
        .collect();
    let replies = client.call(&batch).unwrap();
    assert_eq!(replies.len(), batch.len());
    let shed = replies
        .iter()
        .filter(|r| matches!(r, Response::Overloaded))
        .count();
    assert_eq!(shed, OVERFLOW, "exactly the beyond-capacity tail is shed");
    assert_eq!(server.stats().requests(), batch.len() as u64);
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

/// Connections idle past the timeout are evicted by the timer wheel;
/// active ones are not.
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
                .call(&[Request::Put { key: 100 + i, value: i }])
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
