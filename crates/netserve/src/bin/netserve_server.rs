//! A standalone netserve server over elim-abtree shards.
//!
//! ```text
//! netserve_server [--addr HOST:PORT] [--shards N] [--reactors N]
//!                 [--stats-dump] [--selftest]
//! ```
//!
//! Default mode binds the address, prints it, and serves until stdin
//! reaches EOF (so `netserve_server < /dev/null` starts, drains, and
//! exits cleanly — handy under process supervisors and in scripts).  A
//! final stats snapshot is printed after the graceful shutdown;
//! `--stats-dump` additionally prints the full Prometheus-style text
//! exposition of the service's metric registry (the same text a wire
//! `Request::Stats` scrape returns).
//!
//! `--selftest` is the CI smoke mode: bind an ephemeral loopback port,
//! run a mixed workload from several client threads, scrape the metric
//! registry over the wire and cross-check it against the observed
//! traffic (printing the per-reactor frame split it reports), then shut
//! down gracefully and verify every in-flight frame was answered and every
//! thread joined.  Exits non-zero on any failure.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use kvserve::{KvService, Request, Response};
use netserve::{Client, Server, ServerConfig};

struct Args {
    addr: String,
    shards: usize,
    reactors: usize,
    selftest: bool,
    stats_dump: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        shards: 4,
        reactors: 2,
        selftest: false,
        stats_dump: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--reactors" => {
                args.reactors = value("--reactors")?
                    .parse()
                    .map_err(|e| format!("--reactors: {e}"))?
            }
            "--selftest" => args.selftest = true,
            "--stats-dump" => args.stats_dump = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn service(shards: usize) -> Arc<KvService> {
    Arc::new(KvService::new(shards, 1, |_| {
        let tree: abtree::ElimABTree = abtree::ElimABTree::new();
        Box::new(tree)
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("netserve_server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.selftest {
        return selftest(args.shards, args.reactors);
    }

    let svc = service(args.shards);
    let addr = match args.addr.parse() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("netserve_server: bad --addr {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        addr,
        reactors: args.reactors,
        ..ServerConfig::default()
    };
    let mut server = match Server::start(config, Arc::clone(&svc)) {
        Ok(server) => server,
        Err(e) => {
            // A bind failure, or a reactor whose router could not open a
            // session on every shard: an orderly error, not a panic.
            eprintln!("netserve_server: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // With --stats-dump the exposition owns stdout (so it pipes straight
    // into a parser); chatter goes to stderr.
    let mut chatter: Box<dyn std::io::Write> = if args.stats_dump {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::io::stdout())
    };
    let _ = writeln!(chatter, "netserve listening on {}", server.local_addr());

    // Serve until stdin closes.
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);

    server.shutdown();
    let stats = server.stats();
    let _ = writeln!(
        chatter,
        "served {} frames / {} requests over {} connections ({} protocol errors)",
        stats.frames(),
        stats.requests(),
        stats.accepted(),
        stats.protocol_errors()
    );
    if args.stats_dump {
        // Shutdown unregistered the server's registry source, so graft the
        // front end's *final* counters (drained frames included) back onto
        // the service-side samples for the farewell dump.
        let mut samples = svc.registry().snapshot();
        stats.collect(&mut samples);
        print!("{}", obs::expo::render(&samples));
    }
    ExitCode::SUCCESS
}

/// CI smoke test: mixed workload, graceful shutdown, drained responses.
fn selftest(shards: usize, reactors: usize) -> ExitCode {
    const CLIENTS: u64 = 8;
    const FRAMES_PER_CLIENT: u64 = 200;

    let svc = service(shards);
    let config = ServerConfig {
        reactors,
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let mut server = match Server::start(config, Arc::clone(&svc)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("selftest: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|worker| {
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut answered = 0;
                for i in 0..FRAMES_PER_CLIENT {
                    let key = worker * FRAMES_PER_CLIENT + i;
                    let batch = [
                        Request::Put { key, value: i },
                        Request::Get { key },
                        Request::Scan { lo: key, len: 4 },
                        Request::MGet {
                            keys: vec![key, key + 1],
                        },
                    ];
                    let replies = client.call(&batch).map_err(|e| format!("call: {e}"))?;
                    if replies.len() != batch.len() {
                        return Err(format!(
                            "{} replies to {} requests",
                            replies.len(),
                            batch.len()
                        ));
                    }
                    if replies[1] != Response::Value(Some(i)) {
                        return Err(format!("get after put answered {:?}", replies[1]));
                    }
                    answered += replies.len() as u64;
                }
                Ok(answered)
            })
        })
        .collect();

    let mut answered = 0;
    for worker in workers {
        match worker.join() {
            Ok(Ok(n)) => answered += n,
            Ok(Err(e)) => {
                eprintln!("selftest: client failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                eprintln!("selftest: client panicked");
                return ExitCode::FAILURE;
            }
        }
    }

    // Wire-level scrape while the server is still up: the metric registry
    // must be reachable as a 0x07 Stats frame, parse back, and agree with
    // the traffic the clients just pushed (every worker has joined, so
    // the counters are quiescent — equality, not just a lower bound).
    let expected_frames = CLIENTS * FRAMES_PER_CLIENT;
    match scrape_check(addr, expected_frames) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("selftest: stats scrape: {e}");
            return ExitCode::FAILURE;
        }
    }

    server.shutdown();
    if !server.is_shut_down() {
        eprintln!("selftest: server did not report shutdown");
        return ExitCode::FAILURE;
    }
    let stats = server.stats();
    let expected_requests = expected_frames * 4;
    // The scrape connection itself served one more frame of one request.
    // NetStats is functional accounting, so this holds in both telemetry
    // configurations.
    if stats.frames() != expected_frames + 1 || stats.requests() != expected_requests + 1 {
        eprintln!(
            "selftest: served {}/{} frames, {}/{} requests",
            stats.frames(),
            expected_frames + 1,
            stats.requests(),
            expected_requests + 1
        );
        return ExitCode::FAILURE;
    }
    if answered != expected_requests {
        eprintln!("selftest: clients saw {answered}/{expected_requests} responses");
        return ExitCode::FAILURE;
    }
    if stats.open_connections() != 0 {
        eprintln!("selftest: {} connections leaked", stats.open_connections());
        return ExitCode::FAILURE;
    }
    println!(
        "selftest ok: {} clients x {} frames, {} requests, {} hwm pauses, graceful shutdown clean",
        CLIENTS,
        FRAMES_PER_CLIENT,
        stats.requests(),
        stats.hwm_pauses()
    );
    ExitCode::SUCCESS
}

/// Scrapes the live server over the wire (a 0x07 Stats frame) and
/// cross-checks the exposition against the traffic the selftest pushed:
/// every frame carried exactly one point put and one point get, so with
/// the workers joined the per-shard op counters must sum to exactly that.
fn scrape_check(addr: std::net::SocketAddr, expected_frames: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let text = client.scrape().map_err(|e| e.to_string())?;
    let samples = obs::expo::parse(&text).map_err(|e| format!("exposition: {e}"))?;
    // Structural rows are present even with recording compiled out.
    for name in ["kv_shard_version", "ebr_epoch", "net_frames_total"] {
        if !samples.iter().any(|s| s.name == name) {
            return Err(format!("metric {name} missing from the scrape"));
        }
    }
    if !obs::ENABLED {
        return Ok(());
    }
    for op in ["put", "get"] {
        let counted = obs::expo::sum(&samples, "kv_ops_total", &[("op", op)]);
        if counted != expected_frames {
            return Err(format!(
                "kv_ops_total{{op={op}}} sums to {counted}, expected {expected_frames}"
            ));
        }
    }
    // The scrape's own frame is counted before it renders the registry.
    let frames = obs::expo::sum(&samples, "net_frames_total", &[]);
    if frames != expected_frames + 1 {
        return Err(format!(
            "net_frames_total is {frames}, expected {}",
            expected_frames + 1
        ));
    }
    let per_reactor = obs::expo::sum(&samples, "net_reactor_frames_total", &[]);
    if per_reactor != frames {
        return Err(format!(
            "per-reactor frame counters sum to {per_reactor}, aggregate says {frames}"
        ));
    }
    // Placement is reported, not judged: a connection lands on whichever
    // reactor wakes first for it, so a skewed split is no failure.
    let split: Vec<String> = samples
        .iter()
        .filter(|s| s.name == "net_reactor_frames_total")
        .map(|s| format!("reactor {}: {}", s.label("reactor").unwrap_or("?"), s.value))
        .collect();
    println!(
        "selftest placement: frames per reactor: {}",
        split.join(", ")
    );
    // Sampled stage tracing saw the load: 1600 point submissions at
    // 1-in-16 sampling leave ~100 traces in the apply-stage histogram.
    let applies = obs::expo::sum(&samples, "stage_latency_ns_count", &[("stage", "apply")]);
    if applies == 0 {
        return Err("stage_latency_ns{stage=apply} recorded nothing under load".into());
    }
    Ok(())
}
