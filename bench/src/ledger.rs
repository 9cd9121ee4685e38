//! The traced run: the workload's seeded stream replayed at successive
//! depths of the stack, plus single-layer probes, giving every per-layer
//! metric and the span file.
//!
//! Depths: D0 raw handle, D1 blocking `ShardRouter`, D2 `submit`/`collect`
//! at window 64, D3 codec loop with no socket, D4 TCP loopback; beside
//! them the durable service at window 32.  Successive depths subtract to
//! give the `*_self_*` metrics.  Everything is timed from outside, around
//! calls into public functions, and read from public counters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use absync::McsLock;
use abtree::{ElimABTree, MapHandle, OccABTree};
use crashkv::DurableKvService;
use netserve::Client;
use pabtree::PElimABTree;

use crate::drive::{self, Counts, Probe, Tally};
use crate::procfs::{self, Cpu, CtxSwitches};
use crate::span::{mean_self_by_name, SpanLog};
use crate::spec::{Spec, Target, PERSIST_MODE, PER_LAYER, SCAN_LEN, SHARDS};
use crate::stats::Samples;
use crate::stream::{self, Model, Op, RING_OPS};
use crate::timed::{crash_and_heal, durable_service, start_server, tree_threads, volatile_service};

/// One request in this many gets spans and a latency sample.
const TRACE_EVERY: u64 = 16;
/// Spans kept per depth and thread; the mean self times need no more, and
/// the span file stays a few megabytes.
const SPAN_CAP: usize = 4096;
/// Window of the pipelined router depth.
const D2_WINDOW: usize = 64;
/// Keys per chunk of the single-handle loops.
const CHUNK: usize = 1 << 14;
/// Iterations of the fixed-count micro probes.
const MICRO_ITERS: u64 = 1_000_000;

/// Everything the traced run produced.
pub struct Traced {
    /// Every per-layer metric, in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The depth ledger and bases of the ratios, for the report.
    pub notes: Vec<String>,
    pub span_file: PathBuf,
}

#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is {value}");
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Mean nanoseconds per iteration of `body`, run [`MICRO_ITERS`] times.
fn micro(mut body: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..MICRO_ITERS {
        body(i);
    }
    started.elapsed().as_nanos() as f64 / MICRO_ITERS as f64
}

/// Totals of the single-handle homogeneous loops over some chunks.
#[derive(Debug, Clone, Copy, Default)]
struct PointLoops {
    finds: u64,
    find_ns: u64,
    /// Successful deletes, each followed by a successful re-insert, so the
    /// key set is unchanged.
    updates: u64,
    delete_ns: u64,
    insert_ns: u64,
}

impl PointLoops {
    fn update_ns(&self) -> f64 {
        (self.delete_ns + self.insert_ns) as f64 / (2 * self.updates).max(1) as f64
    }
}

/// One chunk of homogeneous loops: find every key, then delete the present
/// ones (each once), then put them back.
fn point_loops<H: MapHandle>(
    handle: &mut H,
    chunk: &[Op],
    seen: &mut [bool],
    into: &mut PointLoops,
) {
    let mut present = Vec::with_capacity(chunk.len());
    let t0 = Instant::now();
    for op in chunk {
        present.push(handle.get(op.key).is_some());
    }
    let t1 = Instant::now();
    let victims: Vec<u64> = chunk
        .iter()
        .zip(&present)
        .filter(|(op, &hit)| hit && !std::mem::replace(&mut seen[op.key as usize], true))
        .map(|(op, _)| op.key)
        .collect();
    victims.iter().for_each(|&k| seen[k as usize] = false);
    let t2 = Instant::now();
    for &key in &victims {
        assert_eq!(handle.delete(key), Some(key), "present key deletes");
    }
    let t3 = Instant::now();
    for &key in &victims {
        assert_eq!(handle.insert(key, key), None, "deleted key re-inserts");
    }
    let t4 = Instant::now();
    into.finds += chunk.len() as u64;
    into.find_ns += (t1 - t0).as_nanos() as u64;
    into.updates += victims.len() as u64;
    into.delete_ns += (t3 - t2).as_nanos() as u64;
    into.insert_ns += (t4 - t3).as_nanos() as u64;
}

/// `point_loops` over successive chunks of `ring` for about `secs`.
fn timed_point_loops<H: MapHandle>(
    handle: &mut H,
    ring: &[Op],
    seen: &mut [bool],
    secs: f64,
) -> PointLoops {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut loops = PointLoops::default();
    for chunk in ring.chunks(CHUNK).cycle() {
        point_loops(handle, chunk, seen, &mut loops);
        if Instant::now() >= deadline {
            break;
        }
    }
    loops
}

/// Nanoseconds per key returned by `scan_len(k, SCAN_LEN)`.
fn scan_loop<H: MapHandle>(handle: &mut H, ring: &[Op], secs: f64) -> f64 {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let mut keys = 0usize;
    for chunk in ring.chunks(256).cycle() {
        keys += chunk
            .iter()
            .map(|op| handle.scan_len(op.key, SCAN_LEN))
            .sum::<usize>();
        if Instant::now() >= deadline {
            break;
        }
    }
    started.elapsed().as_nanos() as f64 / keys.max(1) as f64
}

/// The median of `stage`'s histogram in a parsed scrape; 0 when the stage
/// recorded nothing.  The buckets are powers of two (`[2^i, 2^(i+1))`), so
/// the median is placed inside its bucket by the share of the bucket's
/// samples below the middle rank: a bare bucket bound moves only when the
/// median doubles.
fn stage_p50(scrape: &[obs::expo::ParsedSample], stage: &str) -> f64 {
    let labels = [("stage", stage)];
    let total = obs::expo::value(scrape, "stage_latency_ns_count", &labels).unwrap_or(0) as f64;
    let mut below = 0.0;
    for sample in scrape {
        if sample.name != "stage_latency_ns_bucket" || !sample.has_labels(&labels) {
            continue;
        }
        let Some(le) = sample.label("le").and_then(|le| le.parse::<u64>().ok()) else {
            break; // +Inf
        };
        let upto = sample.value as f64;
        if upto > below && upto * 2.0 >= total {
            let (lo, hi) = (
                if le <= 1 { 0.0 } else { (le / 2 + 1) as f64 },
                le as f64 + 1.0,
            );
            return lo + (hi - lo) * (total / 2.0 - below) / (upto - below);
        }
        below = upto;
    }
    0.0
}

fn new_log(origin: Instant) -> SpanLog {
    SpanLog::new(origin, SPAN_CAP)
}

fn traced_probe(origin: Instant, depth: u64) -> Probe {
    Probe::traced(TRACE_EVERY, new_log(origin), depth << 48)
}

fn until(secs: f64) -> impl FnMut() -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    move || Instant::now() < deadline
}

/// Share of throughput the spans cost: `1 - traced/untraced`.
fn overhead(untraced: &Counts, traced: &Counts) -> f64 {
    1.0 - traced.ops_per_s() / untraced.ops_per_s()
}

pub fn run_traced(spec: &'static Spec, seed: u64, seconds: f64, out_dir: &Path) -> Traced {
    let origin = Instant::now();
    // Ten phase units: six depths and the OCC control at one each, the
    // homogeneous loops, the depth-1 TCP probe and the untraced native run
    // share the rest.
    let unit = seconds / 10.0;
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut spans = new_log(origin);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut native: Option<(Counts, Counts, Samples)> = None; // untraced, traced, latencies

    // --- generator -------------------------------------------------------
    let started = Instant::now();
    let rings = stream::rings(spec, seed);
    let gen_ns = started.elapsed().as_nanos() as f64;
    m.set(
        "workload.gen_ns_per_op",
        gen_ns / (rings.len() * RING_OPS) as f64,
    );
    let prefill = stream::prefill_keys(spec, seed);
    let prefill_sum = stream::key_sum(&prefill);
    let threads = rings.len();

    // --- single-layer micro probes ---------------------------------------
    let lock = McsLock::default();
    m.set(
        "absync.mcs_uncontended_ns",
        micro(|i| {
            black_box(lock.with_lock(|| i));
        }),
    );
    let collector = abebr::Collector::new();
    let local = collector.register();
    m.set("abebr.pin_ns", micro(|_| drop(black_box(local.pin()))));
    drop(local);
    let (mut tx, mut rx) = kvserve::queue::channel::<u64>(kvserve::LANE_CAPACITY);
    m.set(
        "kvserve.queue_push_pop_ns",
        micro(|i| {
            tx.try_push(i).expect("the ring was drained");
            black_box(rx.try_pop());
        }),
    );

    // --- D0: raw handle ---------------------------------------------------
    let rss_before = procfs::rss_bytes();
    let tree: ElimABTree = ElimABTree::new();
    drive::load_handle(&mut tree.handle(), &prefill);
    let shape = tree.stats();
    m.set(
        "abtree.bytes_per_key",
        (procfs::rss_bytes() - rss_before).max(0.0) / shape.keys as f64,
    );
    m.set("abtree.height", shape.height as f64);
    m.set("abtree.leaves", shape.leaves as f64);
    m.set(
        "abtree.keys_per_leaf",
        shape.keys as f64 / shape.leaves as f64,
    );

    let mut pos = vec![0usize; threads];
    let mut tally = Tally::default();
    let is_tree = matches!(spec.target, Target::Tree { .. });
    // A workload's own depth runs three times: a discarded warm-up, then
    // without and with spans.
    let mut untraced_d0 = |secs| {
        let off = rings.iter().map(|_| Probe::off()).collect();
        tree_threads(&tree, &rings, &mut pos, secs, off, &mut tally).0
    };
    let d0_untraced = is_tree.then(|| {
        attempted += untraced_d0(unit / 4.0).ops;
        untraced_d0(unit / 2.0)
    });
    let (ebr0, elim0) = (tree.collector().stats(), tree.elimination_count());
    let probes = (0..threads)
        .map(|t| traced_probe(origin, t as u64))
        .collect();
    let (d0, probes) = tree_threads(&tree, &rings, &mut pos, unit, probes, &mut tally);
    let (ebr1, elim1) = (tree.collector().stats(), tree.elimination_count());
    attempted += d0.ops + d0_untraced.map_or(0, |c| c.ops);
    let kops = d0.ops as f64 / 1e3;
    m.set(
        "abebr.retired_per_kop",
        (ebr1.retired - ebr0.retired) as f64 / kops,
    );
    m.set("abebr.unreclaimed_end", ebr1.unreclaimed as f64);
    m.set("abebr.oldest_epoch_age_end", ebr1.oldest_epoch_age as f64);
    m.set("abtree.elim_per_kop", (elim1 - elim0) as f64 / kops);
    let d0_ns = d0.secs * 1e9 * threads as f64 / d0.ops as f64;
    m.set("abtree.d0_ns_per_op", d0_ns);
    let mut d0_latencies = Samples::default();
    for probe in probes {
        d0_latencies.extend(&probe.latencies);
        spans.absorb(probe.spans.expect("traced probes carry a log"));
    }
    if let Some(untraced) = d0_untraced {
        native = Some((untraced, d0, d0_latencies));
    }

    let mut seen = vec![false; spec.key_range as usize];
    let mut handle = tree.handle();
    let volatile = timed_point_loops(&mut handle, &rings[0], &mut seen, unit / 2.0);
    m.set(
        "abtree.find_ns",
        volatile.find_ns as f64 / volatile.finds as f64,
    );
    m.set(
        "abtree.delete_ns",
        volatile.delete_ns as f64 / volatile.updates.max(1) as f64,
    );
    m.set(
        "abtree.insert_ns",
        volatile.insert_ns as f64 / volatile.updates.max(1) as f64,
    );
    m.set(
        "abtree.scan_ns_per_key",
        scan_loop(&mut handle, &rings[0], unit / 4.0),
    );
    drop(handle);
    if prefill_sum.wrapping_add(tally.0) != tree.key_sum() {
        failures.push("D0: client tally and tree key sum differ".to_string());
    }
    if let Err(e) = tree.check_invariants() {
        failures.push(format!("D0: check_invariants: {e}"));
    }
    drop(tree);

    // --- D0 control: OCC-ABtree on the same stream -------------------------
    let occ: OccABTree = OccABTree::new();
    drive::load_handle(&mut occ.handle(), &prefill);
    let mut occ_pos = vec![0usize; threads];
    let mut occ_tally = Tally::default();
    let probes = (0..threads).map(|_| traced_probe(origin, 0)).collect();
    let (occ_counts, _) = tree_threads(&occ, &rings, &mut occ_pos, unit, probes, &mut occ_tally);
    attempted += occ_counts.ops;
    m.set(
        "abtree.elim_vs_occ_ratio",
        d0.ops_per_s() / occ_counts.ops_per_s(),
    );
    notes.push(format!(
        "abtree.elim_vs_occ_ratio base: occ-abtree {:.0} ops/s on the same stream and threads",
        occ_counts.ops_per_s()
    ));
    if prefill_sum.wrapping_add(occ_tally.0) != occ.key_sum() {
        failures.push("OCC control: client tally and tree key sum differ".to_string());
    }
    drop(occ);

    // --- abpmem / pabtree: the paper's durable tree, one handle -----------
    let ring = &rings[0];
    abpmem::set_mode(abpmem::PersistMode::CountOnly);
    let ptree: PElimABTree = PElimABTree::new();
    drive::load_handle(&mut ptree.handle(), &prefill);
    let mut phandle = ptree.handle();
    let mut counted = PointLoops::default();
    abpmem::reset_stats();
    point_loops(&mut phandle, &ring[..CHUNK], &mut seen, &mut counted);
    let pm = abpmem::stats();
    let updates = (2 * counted.updates).max(1) as f64;
    m.set("abpmem.flushes_per_update", pm.flushes as f64 / updates);
    m.set("abpmem.fences_per_update", pm.fences as f64 / updates);
    abpmem::set_mode(PERSIST_MODE);
    let mut simulated = PointLoops::default();
    point_loops(
        &mut phandle,
        &ring[CHUNK..2 * CHUNK],
        &mut seen,
        &mut simulated,
    );
    abpmem::set_mode(abpmem::PersistMode::CountOnly);
    m.set("pabtree.update_ns", simulated.update_ns());
    m.set(
        "pabtree.overhead_vs_volatile",
        simulated.update_ns() / volatile.update_ns(),
    );
    notes.push(format!(
        "pabtree.overhead_vs_volatile base: volatile elim-abtree {:.1} ns per successful update; \
         persist mode {PERSIST_MODE:?}",
        volatile.update_ns()
    ));
    drop(phandle);
    if let Err(e) = ptree.check_invariants() {
        failures.push(format!("pabtree: check_invariants: {e}"));
    }
    drop(ptree);
    drop(seen);

    // --- D1, D2: the sharded service in process ---------------------------
    let service = volatile_service();
    let mut model = Model::new(spec, &prefill);
    let mut spos = 0usize;
    let (d1, d2);
    {
        let mut router = service.router();
        drive::load_router(&mut router, &prefill);

        let hot = prefill[0];
        assert_eq!(router.get(hot), Some(hot));
        let hits_before = service.stats().cache_hits();
        m.set(
            "kvserve.cache_hit_ns",
            micro(|_| {
                black_box(router.get(hot));
            }),
        );
        if service.stats().cache_hits() - hits_before != MICRO_ITERS && obs::ENABLED {
            failures.push("cache probe: repeated reads of one key missed the cache".to_string());
        }

        let mut lane_rtt = Samples::default();
        let mut probe = traced_probe(origin, 0x10);
        d1 = drive::router_blocking(
            &mut router,
            ring,
            &mut spos,
            until(unit),
            &mut probe,
            &mut lane_rtt,
            &mut model,
        );
        spans.absorb(probe.spans.expect("traced"));
        m.set("kvserve.blocking_ns_per_req", d1.ns_per_op());
        let rtt = lane_rtt.p50().unwrap_or(0.0);
        m.set("kvserve.lane_rtt_ns", rtt);
        m.set("kvserve.owner_self_ns", rtt - volatile.update_ns());

        let hits_before = service.stats().cache_hits();
        let mut probe = traced_probe(origin, 0x20);
        d2 = drive::pipelined(
            &mut router,
            ring,
            &mut spos,
            D2_WINDOW,
            until(unit),
            &mut probe,
            &mut model,
        );
        spans.absorb(probe.spans.expect("traced"));
        m.set("kvserve.pipelined_ns_per_req", d2.ns_per_op());
        m.set(
            "kvserve.cache_hit_share",
            (service.stats().cache_hits() - hits_before) as f64 / d2.ops as f64,
        );
    }
    let before_service = attempted;
    attempted += d1.ops + d2.ops;

    // --- D3: codec, no socket ----------------------------------------------
    let net_shape = spec.net_shape();
    let mut cpos = 0usize;
    let codec = drive::codec_loop(
        ring,
        &mut cpos,
        net_shape.1,
        until(unit / 2.0),
        Some(&mut spans),
    );
    m.set(
        "kvserve.codec_req_encode_ns",
        codec.per_request(codec.req_encode_ns),
    );
    m.set(
        "kvserve.codec_req_decode_ns",
        codec.per_request(codec.req_decode_ns),
    );
    m.set(
        "kvserve.codec_resp_encode_ns",
        codec.per_request(codec.resp_encode_ns),
    );
    m.set(
        "kvserve.codec_resp_decode_ns",
        codec.per_request(codec.resp_decode_ns),
    );
    m.set(
        "kvserve.codec_bytes_per_req",
        codec.per_request(codec.bytes),
    );
    m.set(
        "kvserve.codec_ns_per_req",
        codec.per_request(codec.total_ns()),
    );
    m.set(
        "netserve.frame_reassembly_ns",
        codec.reassembly_ns as f64 / (2 * codec.frames) as f64,
    );

    // --- D4: TCP loopback ----------------------------------------------------
    let mut server = start_server(&service);
    let started = Instant::now();
    let mut client = Client::connect(server.local_addr()).expect("connect over loopback");
    m.set(
        "netserve.connect_us",
        started.elapsed().as_nanos() as f64 / 1e3,
    );
    let mut frames = 0u64;
    let mut net = |client: &mut Client,
                   ring: &[Op],
                   pos: &mut usize,
                   shape,
                   secs,
                   probe: &mut Probe,
                   model: &mut Model| {
        let out = drive::net_frames(client, ring, pos, shape, until(secs), probe, model)
            .expect("loopback io");
        frames += out.frames;
        out
    };
    let is_net = matches!(spec.target, Target::Net { .. });
    let mut untraced_d4 = |secs| {
        net(
            &mut client,
            ring,
            &mut spos,
            net_shape,
            secs,
            &mut Probe::off(),
            &mut model,
        )
        .counts
    };
    let d4_warmup = is_net.then(|| untraced_d4(unit / 4.0));
    let d4_untraced = is_net.then(|| untraced_d4(unit / 2.0));
    let (cpu0, ctx0) = (Cpu::now(), CtxSwitches::now());
    let mut probe = traced_probe(origin, 0x40);
    let mut d4 = net(
        &mut client,
        ring,
        &mut spos,
        net_shape,
        unit,
        &mut probe,
        &mut model,
    );
    let (cpu, ctx) = (Cpu::now().since(cpu0), CtxSwitches::now().since(ctx0));
    spans.absorb(probe.spans.take().expect("traced"));
    let d4_ops = d4.counts.ops as f64;
    m.set("netserve.tcp_ns_per_req", d4.counts.ns_per_op());
    m.set(
        "netserve.client_send_ns",
        d4.send.quantile(0.5).unwrap_or(0) as f64,
    );
    m.set(
        "netserve.client_recv_wait_ns",
        d4.recv.quantile(0.5).unwrap_or(0) as f64,
    );
    m.set(
        "netserve.wire_self_ns_per_req",
        d4.counts.ns_per_op() - d2.ns_per_op() - codec.per_request(codec.total_ns()),
    );
    m.set("proc.vol_ctx_switches_per_op", ctx.voluntary / d4_ops);
    m.set("proc.invol_ctx_switches_per_op", ctx.involuntary / d4_ops);
    m.set(
        "proc.sys_cpu_share",
        if cpu.total_s() > 0.0 {
            cpu.sys_s / cpu.total_s()
        } else {
            0.0
        },
    );
    for counts in [d4_warmup, d4_untraced, Some(d4.counts)]
        .into_iter()
        .flatten()
    {
        attempted += counts.ops;
        failed += counts.failed;
    }
    if let Some(untraced) = d4_untraced {
        native = Some((untraced, d4.counts, probe.latencies));
    }

    // Depth-1 round trips of single updates: what `lane_rtt_ns` is on the
    // wire.
    let update_ring: Vec<Op> = ring
        .iter()
        .copied()
        .filter(|op| op.is_update())
        .cycle()
        .take(RING_OPS)
        .collect();
    let mut upos = 0usize;
    let mut probe = Probe::latency(1);
    let rtt1 = net(
        &mut client,
        &update_ring,
        &mut upos,
        (1, 1),
        unit / 2.0,
        &mut probe,
        &mut model,
    );
    attempted += rtt1.counts.ops;
    failed += rtt1.counts.failed;
    let rtt1_ns = probe.latencies.p50().unwrap_or(0.0);
    let codec_1 = m.get("kvserve.codec_ns_per_req");
    m.set("netserve.rtt1_us", rtt1_ns / 1e3);
    m.set(
        "netserve.rtt1_self_us",
        (rtt1_ns - m.get("kvserve.lane_rtt_ns") - codec_1) / 1e3,
    );

    let started = Instant::now();
    let scrape = client.scrape().expect("wire scrape");
    frames += 1;
    m.set("obs.scrape_us", started.elapsed().as_nanos() as f64 / 1e3);
    m.set("obs.scrape_bytes", scrape.len() as f64);
    let parsed = obs::expo::parse(&scrape).unwrap_or_else(|e| {
        failures.push(format!("wire scrape does not parse: {e}"));
        Vec::new()
    });
    // Everything attempted since D1 went through the service.
    m.set(
        "kvserve.shed_share",
        service.stats().shed() as f64 / (attempted - before_service) as f64,
    );
    m.set("netserve.hwm_pauses", server.stats().hwm_pauses() as f64);
    drop(client);
    server.shutdown();
    if server.stats().frames() != frames {
        failures.push(format!(
            "client got {frames} reply frames, server served {}",
            server.stats().frames()
        ));
    }
    if model.mismatches > 0 {
        failures.push(format!(
            "{} service replies differ from the single-client model",
            model.mismatches
        ));
    }
    if model.key_sum() != service.key_sum() {
        failures.push("service key sum differs from the confirmed writes".to_string());
    }
    drop(service);

    // --- the durable service at window 32 ----------------------------------
    let window = match spec.target {
        Target::Durable { window } => window,
        _ => 32,
    };
    let (mut durable, mut router) = durable_service(&prefill, window);
    let mut dmodel = Model::new(spec, &prefill);
    let mut dpos = 0usize;
    let fence_stage;
    {
        let is_durable = matches!(spec.target, Target::Durable { .. });
        let mut untraced_dd = |secs| {
            drive::pipelined(
                &mut router,
                ring,
                &mut dpos,
                window,
                until(secs),
                &mut Probe::off(),
                &mut dmodel,
            )
        };
        let warmup = is_durable.then(|| untraced_dd(unit / 4.0));
        let untraced = is_durable.then(|| untraced_dd(unit / 2.0));
        let counters = |s: &DurableKvService| {
            (0..SHARDS).fold((0, 0), |(f, b), i| (f + s.fences(i), b + s.boundaries(i)))
        };
        let (fences0, boundaries0) = counters(&durable);
        let mut probe = traced_probe(origin, 0x50);
        let acked = drive::pipelined(
            &mut router,
            ring,
            &mut dpos,
            window,
            until(unit),
            &mut probe,
            &mut dmodel,
        );
        let (fences1, boundaries1) = counters(&durable);
        spans.absorb(probe.spans.take().expect("traced"));
        for counts in [warmup, untraced, Some(acked)].into_iter().flatten() {
            attempted += counts.ops;
            failed += counts.failed;
        }
        let fences_per_ack = (fences1 - fences0) as f64 / acked.ops as f64;
        m.set("crashkv.ns_per_ack", acked.ns_per_op());
        m.set("crashkv.fences_per_ack", fences_per_ack);
        m.set(
            "crashkv.boundaries_per_ack",
            (boundaries1 - boundaries0) as f64 / acked.ops as f64,
        );
        // What the owner adds: an ack's cost minus the flush-only tree
        // update and the amortised group fence.
        let abpmem::PersistMode::Simulated { fence_ns, .. } = PERSIST_MODE else {
            unreachable!("the stated policy is simulated pmem")
        };
        let flush_only_update =
            m.get("pabtree.update_ns") - m.get("abpmem.fences_per_update") * fence_ns as f64;
        m.set(
            "crashkv.owner_self_ns",
            acked.ns_per_op() - flush_only_update - fences_per_ack * fence_ns as f64,
        );
        if let Some(untraced) = untraced {
            native = Some((untraced, acked, probe.latencies));
        }

        let healed = crash_and_heal(
            &durable,
            &mut router,
            spec,
            ring,
            &mut dpos,
            window,
            &mut dmodel,
            seed,
        );
        m.set("crashkv.recover_us", healed.recover_us);
        m.set("crashkv.lost_unacked", healed.lost_unacked as f64);
        m.set("crashkv.lost_acked", healed.lost_acked as f64);
        if healed.lost_acked > 0 {
            failures.push(format!(
                "{} acknowledged writes lost across crash and heal",
                healed.lost_acked
            ));
        }
        let text = durable.registry().render();
        fence_stage = obs::expo::parse(&text)
            .map(|p| stage_p50(&p, "fence"))
            .unwrap_or(0.0);
    }
    drop(router);
    durable.shutdown();
    abpmem::set_mode(abpmem::PersistMode::CountOnly);
    if dmodel.mismatches > 0 {
        failures.push(format!(
            "{} durable acks differ from the single-client model",
            dmodel.mismatches
        ));
    }
    if let Err(e) = durable.check_invariants() {
        failures.push(format!("durable: check_invariants: {e}"));
    }
    drop(durable);
    for stage in obs::Stage::ALL {
        let name = PER_LAYER
            .iter()
            .map(|entry| entry.0)
            .find(|n| n.strip_prefix("obs.stage_p50_ns.") == Some(stage.name()))
            .expect("one metric per stage");
        let p50 = if stage == obs::Stage::Fence {
            fence_stage
        } else {
            stage_p50(&parsed, stage.name())
        };
        m.set(name, p50);
    }

    // --- the workload's own depth: tails and tracing overhead -------------
    let (untraced, traced, mut latencies) = native.expect("every target has a native depth");
    m.set("trace.overhead_share", overhead(&untraced, &traced));
    m.set(
        "client.op_p99_us",
        latencies.tail().map_or(0.0, |(_, ns)| ns as f64 / 1e3),
    );
    m.set(
        "client.op_max_us",
        latencies.max().unwrap_or(0) as f64 / 1e3,
    );
    m.set("trace.spans", spans.len() as f64);
    if let Some((p, _)) = latencies.tail() {
        notes.push(format!(
            "client.op_p99_us is the p{} of {} samples (the highest percentile with 10 samples beyond it)",
            p * 100.0,
            latencies.len()
        ));
    }

    // --- the depth ledger ----------------------------------------------------
    let tree_op = if is_tree { d0_ns } else { d0.ns_per_op() };
    let rows = [
        ("D0 raw handle (tree op)", tree_op),
        ("D1 blocking router, window 1", d1.ns_per_op()),
        ("D2 submit/collect, window 64", d2.ns_per_op()),
        (
            "D3 codec + framing, no socket",
            m.get("kvserve.codec_ns_per_req"),
        ),
        ("D4 TCP loopback", d4.counts.ns_per_op()),
        (
            "   wire self = D4 - D2 - D3",
            m.get("netserve.wire_self_ns_per_req"),
        ),
        ("   router self at D2 = D2 - D0", d2.ns_per_op() - tree_op),
        ("durable, window 32", m.get("crashkv.ns_per_ack")),
    ];
    notes.push(format!(
        "depth ledger, ns per request (TCP framing {} frames x {} requests): D0 + router self + D3 + wire self = D4",
        net_shape.0, net_shape.1
    ));
    notes.extend(
        rows.iter()
            .map(|(label, ns)| format!("  {label:<34} {ns:>12.1}")),
    );
    notes.push("mean span self times (ns; codec rows are per 256-frame block):".to_string());
    notes.extend(
        mean_self_by_name(spans.spans())
            .into_iter()
            .map(|(name, ns, n)| format!("  {name:<38} {ns:>12.1}  n={n}")),
    );

    let span_file = out_dir.join(format!("trace-{}.jsonl", spec.name));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&span_file)?);
        spans.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    if let Err(e) = written {
        failures.push(format!("writing {}: {e}", span_file.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            (
                name,
                unit,
                *m.0.get(name)
                    .unwrap_or_else(|| panic!("{name} not measured")),
            )
        })
        .collect();
    Traced {
        metrics,
        attempted,
        failed,
        failures,
        notes,
        span_file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn stage_median_is_placed_inside_its_bucket() {
        let text = "stage_latency_ns_bucket{stage=\"apply\",le=\"511\"} 10\n\
                    stage_latency_ns_bucket{stage=\"apply\",le=\"1023\"} 90\n\
                    stage_latency_ns_bucket{stage=\"apply\",le=\"+Inf\"} 100\n\
                    stage_latency_ns_count{stage=\"apply\"} 100\n";
        let scrape = obs::expo::parse(text).unwrap();
        // Rank 50 is the 40th of the 80 samples in [512, 1024).
        assert_eq!(stage_p50(&scrape, "apply"), 768.0);
        assert_eq!(stage_p50(&scrape, "fence"), 0.0, "a silent stage reads 0");
    }

    /// The exact counts are functions of the seed alone: a later PR may
    /// compare them as counts, not as timings.
    #[test]
    fn same_seed_same_exact_counts() {
        let spec = &WORKLOADS[4];
        let measure = |seed| {
            let prefill = stream::prefill_keys(spec, seed);
            let ring = stream::ring(spec, seed, 0);
            let tree: ElimABTree = ElimABTree::new();
            drive::load_handle(&mut tree.handle(), &prefill);
            let shape = tree.stats();

            abpmem::set_mode(abpmem::PersistMode::CountOnly);
            let ptree: PElimABTree = PElimABTree::new();
            drive::load_handle(&mut ptree.handle(), &prefill);
            let mut seen = vec![false; spec.key_range as usize];
            let mut counted = PointLoops::default();
            abpmem::reset_stats();
            point_loops(&mut ptree.handle(), &ring[..CHUNK], &mut seen, &mut counted);
            let pm = abpmem::stats();
            (
                shape.keys,
                shape.leaves,
                shape.height,
                counted.updates,
                pm.flushes,
                pm.fences,
            )
        };
        let first = measure(11);
        assert_eq!(first, measure(11));
        assert_ne!(first, measure(12), "another seed builds another tree");
        assert!(
            first.3 > 0 && first.4 > 0,
            "the counted chunk updated and flushed"
        );
    }
}
