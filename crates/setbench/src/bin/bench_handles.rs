//! Before/after microbenchmark for the per-thread session-handle API.
//!
//! Runs the same single-threaded 50%-update mix over a prefilled tree two
//! ways and reports both throughputs as JSON rows (the repository keeps one
//! run checked in as `BENCH_handles.json`, next to `BENCH_scans.json`):
//!
//! * `mode = "per-op-session"` — every operation opens (and drops) its own
//!   session: `map.handle().insert(k, v)`.  Note this is not an exact
//!   reconstruction of the pre-handle code: the old API paid a
//!   thread-registry-lookup pin per op, while a per-call `handle()`
//!   additionally pays a slot registration, so the ratio bounds the old
//!   cost from above.
//! * `mode = "session-handle"` — one [`abtree::MapHandle`] session for the
//!   whole run; per-op pinning is a local epoch announcement.
//!
//! Usage:
//!   cargo run -p setbench --release --bin bench_handles -- \[ops\]
//!   cargo run -p setbench --release --bin bench_handles -- --smoke

use std::time::Instant;

use rand::prelude::*;
use setbench::make_structure;

const KEY_RANGE: u64 = 100_000;

/// One measured pass; returns (ops, elapsed seconds).
fn run(structure: &str, ops: u64, per_op_session: bool) -> (u64, f64) {
    let map = make_structure(structure);
    // Prefill to half the key range through a session.
    {
        let mut session = map.handle();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        workload::prefill(&mut rng, KEY_RANGE, KEY_RANGE / 2, |k, v| {
            session.insert(k, v).is_none()
        });
    }

    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let started = Instant::now();
    if per_op_session {
        for _ in 0..ops {
            let key = rng.gen_range(0..KEY_RANGE);
            match rng.gen_range(0..4u32) {
                0 => {
                    std::hint::black_box(map.handle().insert(key, key));
                }
                1 => {
                    std::hint::black_box(map.handle().delete(key));
                }
                _ => {
                    std::hint::black_box(map.handle().get(key));
                }
            }
        }
    } else {
        let mut session = map.handle();
        for _ in 0..ops {
            let key = rng.gen_range(0..KEY_RANGE);
            match rng.gen_range(0..4u32) {
                0 => {
                    std::hint::black_box(session.insert(key, key));
                }
                1 => {
                    std::hint::black_box(session.delete(key));
                }
                _ => {
                    std::hint::black_box(session.get(key));
                }
            }
        }
    }
    (ops, started.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let ops: u64 = if smoke {
        50_000
    } else {
        args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2_000_000)
    };

    println!(
        "{:<14} {:>18} {:>16} {:>9}",
        "structure", "per-op-session", "session-handle", "speedup"
    );
    for structure in ["elim-abtree", "occ-abtree"] {
        let mut mops = [0.0f64; 2];
        for (i, per_op_session) in [(0, true), (1, false)] {
            let mode = if per_op_session {
                "per-op-session"
            } else {
                "session-handle"
            };
            let (done, secs) = run(structure, ops, per_op_session);
            mops[i] = done as f64 / secs / 1e6;
            eprintln!(
                "{{\"experiment\":\"handles\",\"structure\":\"{structure}\",\"mode\":\"{mode}\",\
                 \"threads\":1,\"key_range\":{KEY_RANGE},\"total_ops\":{done},\
                 \"duration_secs\":{secs},\"throughput_mops\":{}}}",
                mops[i]
            );
        }
        println!(
            "{:<14} {:>13.3} mops {:>11.3} mops {:>8.2}x",
            structure,
            mops[0],
            mops[1],
            mops[1] / mops[0]
        );
    }
}
