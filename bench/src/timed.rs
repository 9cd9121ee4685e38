//! The timed run: set-up, one discarded warm-up trial, five timed trials,
//! then the correctness check — tracing off.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use absync::McsLock;
use abtree::{AbTree, ElimABTree, Persist};
use crashkv::{CrashSpec, DurableKvService, DurableOp, DurableRouter};
use kvserve::KvService;
use netserve::{Client, Server, ServerConfig};

use crate::affinity;
use crate::drive::{self, Counts, Probe, Tally};
use crate::procfs::{self, Cpu};
use crate::spec::{Spec, Target, ACKS_PER_FENCE, PERSIST_MODE, SHARDS};
use crate::stats::Samples;
use crate::stream::{self, Model, Op};

/// Timed trials per run, each on a fresh set-up; each end-to-end metric is
/// the median of its trial values.  Throughput depends on where a set-up's
/// nodes land in memory (same seed, same process: 6.3 to 8.4 Mops on
/// `tree-zipf-update`), so one set-up measured for longer reads steadier
/// than it is; ten set-ups sample that spread and the median holds still.
pub const TRIALS: usize = 10;
/// The warm-up trial is this long at most.
const WARMUP_S: f64 = 0.3;

/// One timed trial's values.
#[derive(Debug, Clone, Copy)]
pub struct TrialValues {
    pub ops: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub cpu_us_per_op: f64,
    pub latency_samples: usize,
    /// `(percentile, us)`: the highest percentile with ten samples beyond
    /// it.
    pub tail_us: Option<(f64, f64)>,
    pub max_us: f64,
}

/// Everything the timed run measured.
#[derive(Default)]
pub struct Timed {
    pub setups_s: Vec<f64>,
    pub trials: Vec<TrialValues>,
    pub peak_rss_mb: f64,
    /// Correctness failures; empty means every output checked out.
    pub failures: Vec<String>,
    /// What the check saw, for the report.
    pub notes: Vec<String>,
}

/// The shipped volatile service: `SHARDS` elim-abtree shards.
pub fn volatile_service() -> Arc<KvService> {
    Arc::new(KvService::new(SHARDS, 1, |_| {
        let tree: ElimABTree = ElimABTree::new();
        Box::new(tree)
    }))
}

/// The durable service, prefilled with `keys` through a router it returns.
/// The stated persist policy starts after the prefill, whose flushes nobody
/// waits for.
pub fn durable_service(keys: &[u64], window: usize) -> (DurableKvService, DurableRouter) {
    abpmem::set_mode(abpmem::PersistMode::CountOnly);
    let service = DurableKvService::new(SHARDS, ACKS_PER_FENCE);
    let mut router = service.router();
    drive::load_durable(&mut router, keys, window);
    abpmem::set_mode(PERSIST_MODE);
    (service, router)
}

/// The shipped front end over `service`, one reactor, on a free loopback
/// port.
pub fn start_server(service: &Arc<KvService>) -> Server {
    let config = ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::clone(service)).expect("bind a loopback port")
}

/// Runs every ring through its own handle on its own thread for `secs`.
/// Threads start together; the returned `secs` is the slowest thread's.
pub fn tree_threads<const ELIM: bool, P: Persist>(
    tree: &AbTree<ELIM, McsLock, P>,
    rings: &[Vec<Op>],
    pos: &mut [usize],
    secs: f64,
    probes: Vec<Probe>,
    tally: &mut Tally,
) -> (Counts, Vec<Probe>) {
    let barrier = Barrier::new(rings.len());
    let results: Vec<(Counts, Probe, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = rings
            .iter()
            .zip(pos.iter_mut())
            .zip(probes)
            .enumerate()
            .map(|(thread, ((ring, pos), mut probe))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    affinity::pin_to_core(thread);
                    let mut handle = tree.handle();
                    let mut tally = Tally::default();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(secs);
                    let counts = drive::tree_handle(
                        &mut handle,
                        ring,
                        pos,
                        || Instant::now() < deadline,
                        &mut probe,
                        &mut tally,
                    );
                    (counts, probe, tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("tree worker panicked"))
            .collect()
    });
    let mut total = Counts::default();
    let mut probes = Vec::new();
    for (counts, probe, part) in results {
        total.ops += counts.ops;
        total.secs = total.secs.max(counts.secs);
        tally.merge(part);
        probes.push(probe);
    }
    (total, probes)
}

/// One workload's timed-run state.
trait Bench: Sized {
    /// One request in this many is timed.
    const SAMPLE_EVERY: u64;
    /// Ring generation, service build, prefill, connect.
    fn setup(spec: &'static Spec, seed: u64) -> Self;
    fn trial(&mut self, secs: f64) -> (Counts, Samples);
    /// Tears down and checks outputs; returns `(failures, notes)`.  The
    /// run's last trial passes a `crash_seed`: the durable workload then
    /// injects one crash per shard and heals it before checking.
    fn check(self, crash_seed: Option<u64>) -> (Vec<String>, Vec<String>);
}

struct TreeBench {
    tree: ElimABTree,
    rings: Vec<Vec<Op>>,
    pos: Vec<usize>,
    tally: Tally,
    prefill_sum: u128,
}

impl Bench for TreeBench {
    const SAMPLE_EVERY: u64 = 64;

    fn setup(spec: &'static Spec, seed: u64) -> Self {
        let rings = stream::rings(spec, seed);
        let prefill = stream::prefill_keys(spec, seed);
        let tree: ElimABTree = ElimABTree::new();
        drive::load_handle(&mut tree.handle(), &prefill);
        Self {
            tree,
            pos: vec![0; rings.len()],
            rings,
            tally: Tally::default(),
            prefill_sum: stream::key_sum(&prefill),
        }
    }

    fn trial(&mut self, secs: f64) -> (Counts, Samples) {
        let probes = self
            .rings
            .iter()
            .map(|_| Probe::latency(Self::SAMPLE_EVERY))
            .collect();
        let (counts, probes) = tree_threads(
            &self.tree,
            &self.rings,
            &mut self.pos,
            secs,
            probes,
            &mut self.tally,
        );
        let mut latencies = Samples::default();
        probes.iter().for_each(|p| latencies.extend(&p.latencies));
        (counts, latencies)
    }

    fn check(self, _crash_seed: Option<u64>) -> (Vec<String>, Vec<String>) {
        let mut failures = Vec::new();
        let expected = self.prefill_sum.wrapping_add(self.tally.0);
        let actual = self.tree.key_sum();
        if expected != actual {
            failures.push(format!(
                "client tally says key sum {expected}, tree holds {actual}"
            ));
        }
        if let Err(e) = self.tree.check_invariants() {
            failures.push(format!("check_invariants: {e}"));
        }
        let stats = self.tree.stats();
        let notes = vec![format!(
            "tree: {} keys in {} leaves, height {}, key sum matches the client tally: {}",
            stats.keys,
            stats.leaves,
            stats.height,
            expected == actual
        )];
        (failures, notes)
    }
}

// Field order is drop order: the client hangs up before the server drains,
// and the server stops before the service it fronts.
struct NetBench {
    client: Client,
    server: Server,
    service: Arc<KvService>,
    shape: (usize, usize),
    ring: Vec<Op>,
    pos: usize,
    model: Model,
    frames: u64,
}

impl Bench for NetBench {
    const SAMPLE_EVERY: u64 = 1;

    fn setup(spec: &'static Spec, seed: u64) -> Self {
        let ring = stream::ring(spec, seed, 0);
        let prefill = stream::prefill_keys(spec, seed);
        let service = volatile_service();
        drive::load_router(&mut service.router(), &prefill);
        let server = start_server(&service);
        let client = Client::connect(server.local_addr()).expect("connect over loopback");
        Self {
            client,
            server,
            service,
            shape: spec.net_shape(),
            ring,
            pos: 0,
            model: Model::new(spec, &prefill),
            frames: 0,
        }
    }

    fn trial(&mut self, secs: f64) -> (Counts, Samples) {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut probe = Probe::latency(Self::SAMPLE_EVERY);
        let net = drive::net_frames(
            &mut self.client,
            &self.ring,
            &mut self.pos,
            self.shape,
            || Instant::now() < deadline,
            &mut probe,
            &mut self.model,
        );
        match net {
            Ok(net) => {
                self.frames += net.frames;
                (net.counts, probe.latencies)
            }
            Err(e) => {
                // An io error fails everything the trial had in flight.
                self.model.mismatches += 1;
                eprintln!("io error mid-trial: {e}");
                (
                    Counts {
                        ops: 1,
                        failed: 1,
                        secs,
                    },
                    probe.latencies,
                )
            }
        }
    }

    fn check(self, _crash_seed: Option<u64>) -> (Vec<String>, Vec<String>) {
        let NetBench {
            client,
            mut server,
            service,
            model,
            frames,
            ..
        } = self;
        drop(client);
        server.shutdown();
        let mut failures = Vec::new();
        if model.mismatches > 0 {
            failures.push(format!(
                "{} replies differ from the single-client model",
                model.mismatches
            ));
        }
        if server.stats().frames() != frames {
            failures.push(format!(
                "client got {frames} reply frames, server served {}",
                server.stats().frames()
            ));
        }
        let (expected, actual) = (model.key_sum(), service.key_sum());
        if expected != actual {
            failures.push(format!(
                "confirmed writes say key sum {expected}, shards hold {actual}"
            ));
        }
        let notes = vec![format!(
            "net: {frames} frames, one reply per request, every reply as the model predicts, \
             key sum after graceful shutdown matches: {}; shed {} hwm pauses {}",
            expected == actual,
            service.stats().shed(),
            server.stats().hwm_pauses(),
        )];
        (failures, notes)
    }
}

// The router drops before the service shuts down.
struct DurableBench {
    router: DurableRouter,
    service: DurableKvService,
    spec: &'static Spec,
    window: usize,
    ring: Vec<Op>,
    pos: usize,
    model: Model,
}

impl Bench for DurableBench {
    const SAMPLE_EVERY: u64 = 16;

    fn setup(spec: &'static Spec, seed: u64) -> Self {
        let Target::Durable { window } = spec.target else {
            unreachable!("durable bench on a durable spec")
        };
        let ring = stream::ring(spec, seed, 0);
        let prefill = stream::prefill_keys(spec, seed);
        let (service, router) = durable_service(&prefill, window);
        Self {
            router,
            service,
            spec,
            window,
            ring,
            pos: 0,
            model: Model::new(spec, &prefill),
        }
    }

    fn trial(&mut self, secs: f64) -> (Counts, Samples) {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut probe = Probe::latency(Self::SAMPLE_EVERY);
        let counts = drive::pipelined(
            &mut self.router,
            &self.ring,
            &mut self.pos,
            self.window,
            || Instant::now() < deadline,
            &mut probe,
            &mut self.model,
        );
        (counts, probe.latencies)
    }

    fn check(self, crash_seed: Option<u64>) -> (Vec<String>, Vec<String>) {
        let DurableBench {
            mut router,
            mut service,
            spec,
            window,
            ring,
            mut pos,
            mut model,
        } = self;
        let mut failures = Vec::new();
        let healed = crash_seed.map(|seed| {
            crash_and_heal(
                &service,
                &mut router,
                spec,
                &ring,
                &mut pos,
                window,
                &mut model,
                seed,
            )
        });
        if model.mismatches > 0 {
            failures.push(format!(
                "{} acks differ from the single-client model",
                model.mismatches
            ));
        }
        drop(router);
        service.shutdown();
        if let Err(e) = service.check_invariants() {
            failures.push(format!("check_invariants: {e}"));
        }
        let (held, modelled) = (service.total_keys(), model.keys());
        if held.abs_diff(modelled) > model.uncertain() as u64 {
            failures.push(format!(
                "shards hold {held} keys, acked state says {modelled}"
            ));
        }
        let mut notes = vec![format!(
            "durable: persist mode {PERSIST_MODE:?}, {SHARDS} shards, {ACKS_PER_FENCE} acks/fence; \
             shards hold the {held} keys the acked state says"
        )];
        if let Some(healed) = healed {
            if healed.lost_acked > 0 {
                failures.push(format!(
                    "{} acknowledged writes lost across crash and heal",
                    healed.lost_acked
                ));
            }
            notes.push(format!(
                "crash walk: {} crashes, {} unacked ops answered Crashed, {} unfenced writes rolled back, \
                 {} acknowledged writes lost, mean recovery {:.1} us; {} keys re-read after heal",
                healed.crashes, healed.crashed_replies, healed.lost_unacked, healed.lost_acked,
                healed.recover_us, spec.key_range,
            ));
        }
        abpmem::set_mode(abpmem::PersistMode::CountOnly);
        (failures, notes)
    }
}

/// What injecting one crash per shard did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Healed {
    pub crashes: usize,
    /// Operations answered `Crashed` while the shards were down.
    pub crashed_replies: u64,
    /// Unfenced writes the crashes rolled back (never acknowledged).
    pub lost_unacked: usize,
    /// Keys whose post-heal read contradicts an acknowledged write.
    pub lost_acked: u64,
    /// Mean `pabtree::recover` time per crash.
    pub recover_us: f64,
}

/// Arms one seeded `CrashSpec` per shard, keeps the load running until the
/// supervisor has healed it, then re-reads every key against the model of
/// acknowledged state.
pub fn crash_and_heal(
    service: &DurableKvService,
    router: &mut DurableRouter,
    spec: &Spec,
    ring: &[Op],
    pos: &mut usize,
    window: usize,
    model: &mut Model,
    seed: u64,
) -> Healed {
    let mut healed = Healed::default();
    for shard in 0..service.shard_count() {
        service.inject_crash(
            shard,
            CrashSpec {
                after_boundaries: 3,
                survivor_seed: seed ^ shard as u64,
                torn_insert: shard % 2 == 0,
                dirty_link: true,
            },
        );
        let counts = drive::pipelined(
            router,
            ring,
            pos,
            window,
            || service.crash_count(shard) == 0,
            &mut Probe::off(),
            model,
        );
        healed.crashed_replies += counts.failed;
    }
    let reports = service.crash_reports();
    healed.crashes = reports.len();
    healed.lost_unacked = reports.iter().map(|r| r.rolled_back).sum();
    healed.recover_us = reports
        .iter()
        .map(|r| r.recovery.elapsed_ns as f64)
        .sum::<f64>()
        / 1e3
        / reports.len().max(1) as f64;
    // Re-read every key through the pipelined path: the owners never go
    // idle between two requests, which window-1 blocking calls would make
    // them do 200,000 times.
    let mut check = |router: &mut DurableRouter, key: u64| {
        let read = router
            .collect_one()
            .expect("a read is in flight")
            .expect("shards are healed");
        if !model.consistent(key, read) {
            healed.lost_acked += 1;
        }
    };
    for key in 0..spec.key_range {
        if key >= window as u64 {
            check(router, key - window as u64);
        }
        router
            .submit(DurableOp::Get { key })
            .expect("window within lane capacity");
    }
    for key in spec.key_range.saturating_sub(window as u64)..spec.key_range {
        check(router, key);
    }
    healed
}

fn run<B: Bench>(spec: &'static Spec, seed: u64, seconds: f64) -> Timed {
    let trial_s = seconds / TRIALS as f64;
    let mut timed = Timed::default();
    for trial in 0..TRIALS as u64 {
        let trial_seed = seed.wrapping_mul(TRIALS as u64).wrapping_add(trial);
        let started = Instant::now();
        let mut bench = B::setup(spec, trial_seed);
        timed.setups_s.push(started.elapsed().as_secs_f64());
        bench.trial(trial_s.min(WARMUP_S));

        let cpu = Cpu::now();
        let (counts, mut latencies) = bench.trial(trial_s);
        let cpu = Cpu::now().since(cpu);
        timed.trials.push(TrialValues {
            ops: counts.ops,
            failed: counts.failed,
            ops_per_s: counts.ops_per_s(),
            op_p50_us: latencies.p50().unwrap_or(0.0) / 1e3,
            cpu_us_per_op: cpu.total_s() * 1e6 / counts.ops.max(1) as f64,
            latency_samples: latencies.len(),
            tail_us: latencies.tail().map(|(p, ns)| (p, ns as f64 / 1e3)),
            max_us: latencies.max().unwrap_or(0) as f64 / 1e3,
        });
        let last = trial + 1 == TRIALS as u64;
        let (failures, notes) = bench.check(last.then_some(trial_seed));
        timed
            .failures
            .extend(failures.into_iter().map(|f| format!("trial {trial}: {f}")));
        // The notes read alike from trial to trial; keep the last.
        timed.notes = notes;
    }
    timed.peak_rss_mb = procfs::peak_rss_mb();
    timed
}

pub fn run_timed(spec: &'static Spec, seed: u64, seconds: f64) -> Timed {
    match spec.target {
        Target::Tree { .. } => run::<TreeBench>(spec, seed, seconds),
        Target::Net { .. } => run::<NetBench>(spec, seed, seconds),
        Target::Durable { .. } => run::<DurableBench>(spec, seed, seconds),
    }
}
