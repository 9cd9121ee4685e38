//! Per-request stage tracing: where does a request's time go?
//!
//! A request traverses the stack as a pipeline — received and decoded by a
//! reactor, applied to the tree (on a volatile shard, by the reactor's own
//! router; on a durable shard, by the committing router, window by window,
//! each window's link-and-persist writes covered by one group fence), and
//! written to the socket.  Aggregate latency histograms cannot say *which*
//! of those stages ate a regression; this module can, at a cost small
//! enough to leave on.
//!
//! What is recorded today: the volatile path records `recv`, `decode`,
//! `apply` and `write`; a durable router records only `fence`, once per
//! committed window.  No code records the lane stages (`enqueue`,
//! `dequeue`, `ack`); they stay in [`Stage::ALL`] so every stage keeps its
//! metric series.
//!
//! One sink: [`StageRecorder::record`] adds the stage's duration to that
//! stage's [`Histogram`] on the shared [`StageTrace`] with a relaxed
//! fetch-add, and the registry scrapes the eight histograms
//! (`stage_latency_ns{stage=...}`).  Recording never blocks or allocates,
//! and opening a recorder takes no lock.
//!
//! Tracing the full stage pipeline costs several [`Stamp`]s per request,
//! so hot paths open a *sampled* recorder ([`StageTrace::recorder`] with
//! a nonzero shift): 1-in-N requests carry a real start stamp through
//! their stages, the rest carry [`Stamp::NONE`] and skip every downstream
//! record at the cost of one predictable branch.

use std::cell::Cell;
use std::sync::Arc;

use crate::hist::Histogram;
use crate::registry::Sample;
use crate::time::Stamp;

/// Number of pipeline stages (the arms of [`Stage`]).
pub const STAGE_COUNT: usize = 8;

/// One stage of the request pipeline.  The discriminants (`u8`) index
/// [`Stage::ALL`] and the histograms, ordered as a request traverses the
/// stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Reactor: bytes read off the socket into the connection buffer.
    Recv = 0,
    /// Reactor: a complete frame decoded into a request.
    Decode = 1,
    /// Client: request pushed onto a shard lane.  No code records it:
    /// neither service has lanes, and a durable router records only
    /// [`Fence`](Stage::Fence).
    Enqueue = 2,
    /// Time a job spent waiting in a lane.  No code records it (see
    /// [`Enqueue`](Stage::Enqueue)).
    Dequeue = 3,
    /// The tree operation itself.
    Apply = 4,
    /// Durable shard: persistence fence covering the operation.
    Fence = 5,
    /// Client: reply wait, from apply completion to reply collection.  No
    /// code records it (see [`Enqueue`](Stage::Enqueue)).
    Ack = 6,
    /// Reactor: response encoded and flushed toward the socket.
    Write = 7,
}

impl Stage {
    /// All stages, in pipeline order (index == discriminant).
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Recv,
        Stage::Decode,
        Stage::Enqueue,
        Stage::Dequeue,
        Stage::Apply,
        Stage::Fence,
        Stage::Ack,
        Stage::Write,
    ];

    /// The stage's metric-label name (lowercase, stable).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Decode => "decode",
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "dequeue",
            Stage::Apply => "apply",
            Stage::Fence => "fence",
            Stage::Ack => "ack",
            Stage::Write => "write",
        }
    }
}

/// The shared stage-tracing sink: one latency histogram per [`Stage`]
/// (see the module docs).
#[derive(Debug)]
pub struct StageTrace {
    hists: [Histogram; STAGE_COUNT],
}

impl Default for StageTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl StageTrace {
    /// An empty trace sink.
    pub fn new() -> Self {
        Self {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// A recorder that traces one in `2^sample_shift` calls to
    /// [`StageRecorder::sample_start`]; the rest return [`Stamp::NONE`],
    /// which every downstream [`record`](StageRecorder::record) skips for
    /// the cost of a branch.  `sample_shift == 0` traces everything: use
    /// it for frame-level stages (recv/decode/write), where one event
    /// covers a whole batch, and for stamps taken with [`Stamp::now`].
    pub fn recorder(self: &Arc<Self>, sample_shift: u32) -> StageRecorder {
        let rec = StageRecorder {
            trace: Arc::clone(self),
            sample_mask: (1u32 << sample_shift.min(31)) - 1,
            countdown: Cell::new(0),
            pick: Cell::new(0),
            rng: Cell::new(SAMPLER_SEED),
        };
        let first = rec.next_pick();
        rec.pick.set(first);
        rec.countdown.set(first);
        rec
    }

    /// The latency histogram for one stage.
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Registry source: appends `stage_latency_ns{stage=...}` histogram
    /// samples, in pipeline order.
    pub fn collect(&self, out: &mut Vec<Sample>) {
        for stage in Stage::ALL {
            out.push(
                Sample::histogram("stage_latency_ns", self.histogram(stage))
                    .with("stage", stage.name()),
            );
        }
    }
}

/// The sampler's xorshift seed.  Fixed, so a recorder's sampling is
/// reproducible run to run.
const SAMPLER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A per-thread handle for recording stage events (`!Sync`: its sampler
/// state is plain cells).
///
/// Sampling is stratified: the calls to [`sample_start`](Self::sample_start)
/// fall into blocks of `2^sample_shift`, and exactly one call per block is
/// traced, at an offset drawn from a xorshift.  A count over whole blocks
/// is therefore exact, and a request mix with a period (a frame of `Put,
/// Get`) is sampled in every phase, where a plain every-Nth counter would
/// only ever pick one.  An untraced call is one decrement of a countdown.
#[derive(Debug)]
pub struct StageRecorder {
    trace: Arc<StageTrace>,
    sample_mask: u32,
    /// Untraced calls left before the next traced one.
    countdown: Cell<u32>,
    /// The traced offset within the current block.
    pick: Cell<u32>,
    /// xorshift64 state.
    rng: Cell<u64>,
}

impl StageRecorder {
    /// Start-of-pipeline sampling decision: returns a real [`Stamp::now`]
    /// for the 1-in-N requests this recorder traces, [`Stamp::NONE`] for
    /// the rest.  Carry the result through the pipeline and pass it to
    /// [`record`](Self::record) at each stage boundary.
    #[inline]
    pub fn sample_start(&self) -> Stamp {
        if !crate::ENABLED {
            return Stamp::NONE;
        }
        let countdown = self.countdown.get();
        if countdown > 0 {
            self.countdown.set(countdown - 1);
            return Stamp::NONE;
        }
        // Traced: skip the rest of this block, then the next one's offset.
        let next = self.next_pick();
        self.countdown
            .set(self.sample_mask - self.pick.get() + next);
        self.pick.set(next);
        Stamp::now()
    }

    /// Advances the xorshift64 and returns the next block's traced offset
    /// (from the high bits, the better-mixed half).
    fn next_pick(&self) -> u32 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        (x >> 32) as u32 & self.sample_mask
    }

    /// Records that `stage` ran from `started` to now, returning the
    /// end stamp so consecutive stages chain with one clock read each.
    /// A branch-only no-op when `started` is [`Stamp::NONE`] (untraced
    /// request) or telemetry is compiled out — in both cases the returned
    /// stamp is `NONE` too, so the skip propagates down the pipeline.
    #[inline]
    pub fn record(&self, stage: Stage, started: Stamp) -> Stamp {
        if !crate::ENABLED || !started.is_traced() {
            return Stamp::NONE;
        }
        let now = Stamp::now();
        self.trace.hists[stage as usize].record(now.since(started));
        now
    }
}

#[cfg(all(test, not(feature = "compile-out")))]
mod tests {
    use super::*;
    use crate::expo;

    #[test]
    fn recorded_stages_land_in_histograms() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder(0);
        let start = rec.sample_start();
        assert!(start.is_traced(), "unsampled recorder traces everything");
        let t1 = rec.record(Stage::Enqueue, start);
        let t2 = rec.record(Stage::Apply, t1);
        rec.record(Stage::Ack, t2);
        assert_eq!(trace.histogram(Stage::Enqueue).count(), 1);
        assert_eq!(trace.histogram(Stage::Apply).count(), 1);
        assert_eq!(trace.histogram(Stage::Ack).count(), 1);
        assert_eq!(trace.histogram(Stage::Fence).count(), 0);
    }

    #[test]
    fn untraced_stamps_record_nothing() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder(0);
        let next = rec.record(Stage::Apply, Stamp::NONE);
        assert!(!next.is_traced(), "NONE propagates through the pipeline");
        rec.record(Stage::Ack, next);
        for stage in Stage::ALL {
            assert_eq!(trace.histogram(stage).count(), 0);
        }
    }

    #[test]
    fn sampled_recorder_traces_one_in_n() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder(3); // 1 in 8
        let traced = (0..64).filter(|_| rec.sample_start().is_traced()).count();
        assert_eq!(traced, 8);
    }

    /// A request mix with period 2 (a frame of `Put, Get`) is sampled in
    /// both phases; an every-16th counter would only ever pick one.
    #[test]
    fn sampling_does_not_alias_with_a_periodic_mix() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder(4);
        let mut per_phase = [0usize; 2];
        for i in 0..4_096 {
            if rec.sample_start().is_traced() {
                per_phase[i % 2] += 1;
            }
        }
        assert_eq!(per_phase[0] + per_phase[1], 4_096 >> 4, "one per block");
        assert!(
            per_phase.iter().all(|&n| n > 0),
            "both phases sampled: {per_phase:?}"
        );
    }

    /// Two recorders write one trace while a third thread scrapes it: no
    /// update is lost, and a scrape never waits for a writer.
    #[test]
    fn concurrent_recorders_and_scrapes_count_every_event() {
        const EVENTS: usize = 8_000;
        let trace = Arc::new(StageTrace::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = {
            let trace = Arc::clone(&trace);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut out = Vec::new();
                    trace.collect(&mut out);
                    assert!(!expo::render(&out).is_empty());
                    scrapes += 1;
                }
                scrapes
            })
        };
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let trace = Arc::clone(&trace);
                std::thread::spawn(move || {
                    let rec = trace.recorder(0);
                    for i in 0..EVENTS {
                        rec.record(Stage::ALL[i % STAGE_COUNT], rec.sample_start());
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(scraper.join().unwrap() > 0, "the scraper ran");
        for stage in Stage::ALL {
            assert_eq!(
                trace.histogram(stage).count(),
                (2 * EVENTS / STAGE_COUNT) as u64,
                "stage {}",
                stage.name()
            );
        }
    }

    #[test]
    fn collect_emits_one_labeled_histogram_per_stage() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder(0);
        let start = rec.sample_start();
        rec.record(Stage::Fence, start);
        let mut out = Vec::new();
        trace.collect(&mut out);
        assert_eq!(out.len(), STAGE_COUNT);
        let text = expo::render(&out);
        let parsed = expo::parse(&text).unwrap();
        assert_eq!(
            expo::value(&parsed, "stage_latency_ns_count", &[("stage", "fence")]),
            Some(1)
        );
        assert_eq!(
            expo::value(&parsed, "stage_latency_ns_count", &[("stage", "apply")]),
            Some(0)
        );
    }
}
