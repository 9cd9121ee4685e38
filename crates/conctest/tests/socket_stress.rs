//! Conctest coverage for the netserve socket front end: concurrent
//! recorded [`Client`] sessions over real loopback connections, with the
//! recorded histories — whose windows span encode, TCP, frame reassembly,
//! the reactor's router, and the reply trip — checked for per-key
//! linearizability.  Plus a malicious-client case: garbage, oversized
//! length prefixes, and truncated frames must each earn an error frame (or
//! a plain close) without taking the server down for anyone else.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use conctest::{
    check, kv_service, loopback_server, CheckConfig, Clock, History, OpKind, Outcome, Recorder,
};
use kvserve::{Request, Response};
use netserve::{Client, ERR_BAD_FRAME, ERR_FRAME_TOO_LARGE};

/// Concurrent recorded stress over the socket: client threads hammer a hot
/// key space through real loopback connections, mixing blocking round
/// trips with pipelined point frames, and the merged history must be
/// linearizable per key.
#[test]
fn socket_histories_stay_linearizable() {
    const CLIENTS: u32 = 4;
    const OPS: u64 = 300;
    const HOT_KEYS: u64 = 10;
    const PIPELINE: usize = 6;

    let mut server = loopback_server(kv_service("elim-abtree", 4), 2);
    let addr = server.local_addr();
    let clock = Clock::new();

    let mut logs: Vec<Vec<conctest::OpRecord>> = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for thread in 0..CLIENTS {
            let clock = Arc::clone(&clock);
            joins.push(scope.spawn(move || {
                let client = Client::connect(addr).expect("connect");
                let mut rec = Recorder::new(client, thread, clock);
                let mut window = Vec::new();
                let mut state = 0x9E37_79B9u64
                    .wrapping_mul(thread as u64 + 1)
                    .wrapping_add(0xBEEF);
                for op in 0..OPS {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (state >> 33) % HOT_KEYS;
                    // Unique values let the checker match each read to the
                    // exact write it observed.
                    let value = (thread as u64) << 32 | op;
                    match (state >> 13) % 10 {
                        // Pipelined point traffic: the reactor regime.
                        0..=5 => {
                            window.push(match (state >> 7) % 3 {
                                0 => OpKind::Insert { key, value },
                                1 => OpKind::Delete { key },
                                _ => OpKind::Get { key },
                            });
                            if window.len() == PIPELINE {
                                rec.run_window(&window);
                                window.clear();
                            }
                        }
                        // Blocking round trips, including multi-key ops.
                        6 => {
                            rec.run(&OpKind::Range {
                                lo: 0,
                                hi: HOT_KEYS - 1,
                            });
                        }
                        7 => {
                            rec.run(&OpKind::MPut {
                                pairs: vec![(key, value), ((key + 1) % HOT_KEYS, value)],
                            });
                        }
                        8 => {
                            rec.run(&OpKind::MGet {
                                keys: vec![key, (key + 3) % HOT_KEYS],
                            });
                        }
                        _ => {
                            rec.run(&OpKind::Get { key });
                        }
                    }
                }
                rec.run_window(&window);
                rec.finish()
            }));
        }
        for join in joins {
            logs.push(join.join().expect("client thread panicked"));
        }
    });

    let history = History::merge(logs);
    assert!(
        history.ops.len() >= (CLIENTS as usize) * (OPS as usize) / 2,
        "most ops should be recorded (got {})",
        history.ops.len()
    );
    match check(&history, &CheckConfig::default()) {
        Outcome::Linearizable | Outcome::Bounded { .. } => {}
        Outcome::Violation(report) => {
            panic!("socket path broke linearizability: {report}")
        }
    }

    server.shutdown();
    assert_eq!(server.stats().protocol_errors(), 0);
    assert_eq!(server.stats().open_connections(), 0);
}

/// Reads frames until the server closes the connection, returning the
/// decoded responses of the final frame (if any).
fn read_until_close(stream: &mut TcpStream) -> Vec<Vec<Response>> {
    use std::io::Read;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut decoder = netserve::FrameDecoder::new(64 << 20);
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => decoder
                .push(&buf[..n], &mut frames)
                .expect("well-framed reply"),
            Err(e) => panic!("read: {e}"),
        }
    }
    frames
        .iter()
        .map(|f| kvserve::decode_response_batch(f).expect("decodable reply"))
        .collect()
}

fn eventually(what: &str, mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Malicious clients: each attack earns a protocol error frame (or a plain
/// close for a truncated frame, which is indistinguishable from a client
/// that gave up) and its connection is closed — while the server keeps
/// serving well-behaved clients throughout.
#[test]
fn malicious_clients_are_closed_and_the_server_survives() {
    let mut server = loopback_server(kv_service("elim-abtree", 2), 2);
    let addr = server.local_addr();

    let mut honest = Client::connect(addr).unwrap();
    let replies = honest.call(&[Request::Put { key: 1, value: 11 }]).unwrap();
    assert_eq!(replies, vec![Response::Value(None)]);

    // Attack 1: garbage bytes — a frame whose payload is not a batch.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        netserve::frame::write_frame(&mut wire, &[0xFF, 0xAA, 0x55, 0x00, 0x13, 0x37]);
        stream.write_all(&wire).unwrap();
        let batches = read_until_close(&mut stream);
        let last = batches.last().expect("an error frame before the close");
        assert!(
            matches!(last.as_slice(), [Response::Error { .. }]),
            "garbage earned {last:?}"
        );
    }

    // Attack 2: an oversized length prefix, rejected before any payload is
    // buffered.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        kvserve::codec::write_varint(&mut wire, 1 << 40); // "a terabyte follows"
        stream.write_all(&wire).unwrap();
        let batches = read_until_close(&mut stream);
        let last = batches.last().expect("an error frame before the close");
        assert_eq!(
            last.as_slice(),
            [Response::Error {
                code: ERR_FRAME_TOO_LARGE
            }],
            "oversized prefix earned {last:?}"
        );
    }

    // Attack 3: an overlong varint header (a malformed length that never
    // terminates).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0xFF; 10]).unwrap();
        let batches = read_until_close(&mut stream);
        let last = batches.last().expect("an error frame before the close");
        assert_eq!(
            last.as_slice(),
            [Response::Error {
                code: ERR_BAD_FRAME
            }],
            "overlong varint earned {last:?}"
        );
    }

    // Attack 4: a truncated frame — promise 100 bytes, send 3, hang up.
    // Nothing decodable ever arrives, so the server just closes.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        kvserve::codec::write_varint(&mut wire, 100);
        wire.extend_from_slice(&[1, 2, 3]);
        stream.write_all(&wire).unwrap();
        drop(stream);
    }

    // Every attack was tallied, every attacker reaped — and the honest
    // client never noticed.
    assert!(server.stats().protocol_errors() >= 3);
    eventually("attack connections to be reaped", || {
        server.stats().open_connections() == 1
    });
    let replies = honest.call(&[Request::Get { key: 1 }]).unwrap();
    assert_eq!(replies, vec![Response::Value(Some(11))]);

    drop(honest);
    server.shutdown();
    assert_eq!(server.stats().open_connections(), 0);
}
