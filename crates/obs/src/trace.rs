//! Per-request stage tracing: where does a request's time go?
//!
//! A request traverses the stack as a pipeline — received and decoded by a
//! reactor, applied to the tree (on a volatile shard, by the reactor's own
//! router; on a durable shard, by the committing router, window by window),
//! fenced to the durable log, and written to the socket.  Aggregate latency
//! histograms cannot say *which* of those stages ate a regression; this
//! module can, at a cost small enough to leave on.
//!
//! What is recorded today: the volatile path records `recv`, `decode`,
//! `apply` and `write`; a durable router records only `fence`, once per
//! committed window.  No code records the lane stages (`enqueue`,
//! `dequeue`, `ack`); they stay in [`Stage::ALL`] so every stage keeps its
//! metric series.
//!
//! Two sinks, both fed by [`StageRecorder::record`]:
//!
//! * **Per-stage latency histograms** on the shared [`StageTrace`] — one
//!   [`Histogram`] per [`Stage`], recorded with a relaxed fetch-add.
//!   These are what the registry scrapes (`stage_latency_ns{stage=...}`).
//! * **A per-thread ring of recent events** ([`StageRing`]) — the last
//!   [`RING_CAPACITY`] `(stage, end, duration)` events each serving
//!   thread produced, readable by any thread without stopping the writer
//!   via a per-cell seqlock.  This is the flight recorder: a scrape of
//!   aggregate histograms tells you p99 moved, the rings tell you what
//!   the slow requests were doing just now.
//!
//! The writer path never blocks and never allocates: a ring write is two
//! relaxed stores between two sequence-number stores, and a histogram
//! update is one fetch-add.  Readers retry or skip cells being written.
//!
//! Tracing the full stage pipeline costs several [`Stamp`]s per request,
//! so hot paths use a *sampled* recorder
//! ([`StageTrace::sampled_recorder`]): 1-in-N requests carry a real start
//! stamp through their stages, the rest carry [`Stamp::NONE`] and skip
//! every downstream record at the cost of one predictable branch.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::registry::Sample;
use crate::time::Stamp;

/// Number of pipeline stages (the arms of [`Stage`]).
pub const STAGE_COUNT: usize = 8;

/// Events kept per serving thread in its [`StageRing`].
pub const RING_CAPACITY: usize = 256;

/// One stage of the request pipeline.  The discriminants are wire- and
/// ring-stable (`u8`), ordered as a request traverses the stack.
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

/// One recorded stage event, as read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// Which stage completed.
    pub stage: Stage,
    /// When it completed (nanoseconds since the process-local epoch).
    pub end_ns: u64,
    /// How long it took, in nanoseconds.
    pub dur_ns: u64,
}

/// Durations are packed next to the stage tag in one word; anything
/// longer than ~2.3 years clamps.
const MAX_PACKED_DUR: u64 = (1 << 56) - 1;

/// A cell is `(seq, end_ns, meta)` where `meta = dur_ns << 8 | stage`.
/// `seq == 0` means never written; odd means a write is in progress.
struct RingCell {
    seq: AtomicU64,
    end_ns: AtomicU64,
    meta: AtomicU64,
}

/// A fixed-capacity ring of the most recent stage events from *one*
/// writer thread, readable concurrently by any number of threads.
///
/// Each cell is an independent seqlock: the writer bumps the cell's
/// sequence to odd, stores the payload, and bumps it to even; a reader
/// that observes an odd or changed sequence discards the cell.  There is
/// exactly one writer per ring (the [`StageRecorder`] is `!Sync`), so
/// writes never contend — the fences exist purely so readers can detect
/// torn cells.
pub struct StageRing {
    cells: Box<[RingCell]>,
    /// Next cell to write.  Only the owning recorder advances it; relaxed
    /// is fine because cell consistency comes from the per-cell seqlock.
    next: AtomicU64,
}

impl StageRing {
    fn new() -> Self {
        Self {
            cells: (0..RING_CAPACITY)
                .map(|_| RingCell {
                    seq: AtomicU64::new(0),
                    end_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Writer side (single thread): publish one event, overwriting the
    /// oldest.
    fn push(&self, stage: Stage, end_ns: u64, dur_ns: u64) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) as usize % RING_CAPACITY;
        let cell = &self.cells[idx];
        let seq = cell.seq.load(Ordering::Relaxed);
        // Odd sequence = write in progress.  The Release fence orders the
        // odd-store before the payload stores for any reader that acquires
        // the final even sequence.
        cell.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        cell.end_ns.store(end_ns, Ordering::Relaxed);
        cell.meta.store(
            (dur_ns.min(MAX_PACKED_DUR) << 8) | stage as u64,
            Ordering::Relaxed,
        );
        cell.seq.store(seq + 2, Ordering::Release);
    }

    /// Reader side: every event currently consistent in the ring, oldest
    /// first is *not* guaranteed (cells are returned in slot order); sort
    /// by `end_ns` if order matters.  Cells mid-write after a few retries
    /// are skipped rather than blocking the writer.
    pub fn read(&self) -> Vec<StageEvent> {
        let mut out = Vec::with_capacity(RING_CAPACITY);
        'cells: for cell in self.cells.iter() {
            for _ in 0..8 {
                let s1 = cell.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    continue 'cells; // never written
                }
                if s1 % 2 == 1 {
                    std::hint::spin_loop();
                    continue; // write in progress, retry
                }
                let end_ns = cell.end_ns.load(Ordering::Relaxed);
                let meta = cell.meta.load(Ordering::Relaxed);
                // The Acquire fence orders the payload loads before the
                // re-check; if seq is unchanged, the payload is the one
                // this sequence number published.
                fence(Ordering::Acquire);
                let s2 = cell.seq.load(Ordering::Relaxed);
                if s1 == s2 {
                    let stage = Stage::ALL[(meta & 0xFF) as usize % STAGE_COUNT];
                    out.push(StageEvent {
                        stage,
                        end_ns,
                        dur_ns: meta >> 8,
                    });
                    continue 'cells;
                }
                // Torn read: the writer lapped us; retry.
            }
            // Still inconsistent after bounded retries (writer is lapping
            // this exact cell continuously): skip it, don't stall.
        }
        out
    }
}

/// The shared stage-tracing sink: per-stage latency histograms plus the
/// per-thread event rings (see the module docs).
pub struct StageTrace {
    hists: [Histogram; STAGE_COUNT],
    /// Every ring handed out.  A ring whose recorder has dropped keeps its
    /// events readable until a new recorder reuses it, so the list is
    /// bounded by the peak number of live recorders.
    rings: Mutex<Vec<Arc<StageRing>>>,
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
            rings: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that records *every* traced request.  For frame-level
    /// stages (recv/decode/write) where one event covers a whole batch.
    pub fn recorder(self: &Arc<Self>) -> StageRecorder {
        self.sampled_recorder(0)
    }

    /// A recorder that samples: only 1 in `2^sample_shift` calls to
    /// [`StageRecorder::sample_start`] return a real stamp; the rest
    /// return [`Stamp::NONE`], which every downstream
    /// [`record`](StageRecorder::record) skips for the cost of a branch.
    /// `sample_shift == 0` means trace everything.
    pub fn sampled_recorder(self: &Arc<Self>, sample_shift: u32) -> StageRecorder {
        let ring = if crate::ENABLED {
            let mut rings = self.rings.lock().expect("stage ring list poisoned");
            // A ring only the list holds has lost its recorder, and no
            // reader can clone it while we hold the lock.  `get_mut`'s
            // uniqueness check synchronizes with the old recorder's drop,
            // so its last writes happen before the new writer's first.
            match rings
                .iter_mut()
                .position(|ring| Arc::get_mut(ring).is_some())
            {
                Some(free) => Arc::clone(&rings[free]),
                None => {
                    let ring = Arc::new(StageRing::new());
                    rings.push(Arc::clone(&ring));
                    ring
                }
            }
        } else {
            Arc::new(StageRing::new())
        };
        StageRecorder {
            trace: Arc::clone(self),
            ring,
            sample_mask: (1u32 << sample_shift.min(31)) - 1,
            tick: Cell::new(0),
        }
    }

    /// The latency histogram for one stage.
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Recent events across all recorders' rings, sorted oldest-first by
    /// completion time.  A diagnostic snapshot: events recorded while
    /// this runs may or may not appear.
    pub fn recent_events(&self) -> Vec<StageEvent> {
        let rings: Vec<Arc<StageRing>> =
            self.rings.lock().expect("stage ring list poisoned").clone();
        let mut events: Vec<StageEvent> = rings.iter().flat_map(|r| r.read()).collect();
        events.sort_by_key(|e| e.end_ns);
        events
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

impl std::fmt::Debug for StageTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageTrace")
            .field("rings", &self.rings.lock().map(|r| r.len()).unwrap_or(0))
            .finish()
    }
}

/// A per-thread handle for recording stage events (deliberately `!Sync`:
/// each serving thread gets its own, so its ring has a single writer).
pub struct StageRecorder {
    trace: Arc<StageTrace>,
    ring: Arc<StageRing>,
    sample_mask: u32,
    tick: Cell<u32>,
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
        let tick = self.tick.get().wrapping_add(1);
        self.tick.set(tick);
        if tick & self.sample_mask == 0 {
            Stamp::now()
        } else {
            Stamp::NONE
        }
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
        let dur_ns = now.since(started);
        self.trace.hists[stage as usize].record(dur_ns);
        self.ring.push(stage, now.ns_since_epoch(), dur_ns);
        now
    }
}

impl std::fmt::Debug for StageRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageRecorder")
            .field("sample_mask", &self.sample_mask)
            .finish()
    }
}

#[cfg(all(test, not(feature = "compile-out")))]
mod tests {
    use super::*;
    use crate::expo;

    #[test]
    fn recorded_stages_land_in_histograms_and_rings() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder();
        let start = rec.sample_start();
        assert!(start.is_traced(), "unsampled recorder traces everything");
        let t1 = rec.record(Stage::Enqueue, start);
        let t2 = rec.record(Stage::Apply, t1);
        rec.record(Stage::Ack, t2);
        assert_eq!(trace.histogram(Stage::Enqueue).count(), 1);
        assert_eq!(trace.histogram(Stage::Apply).count(), 1);
        assert_eq!(trace.histogram(Stage::Ack).count(), 1);
        assert_eq!(trace.histogram(Stage::Fence).count(), 0);

        let events = trace.recent_events();
        assert_eq!(events.len(), 3);
        // Sorted by completion time, so pipeline order is recovered.
        assert_eq!(events[0].stage, Stage::Enqueue);
        assert_eq!(events[1].stage, Stage::Apply);
        assert_eq!(events[2].stage, Stage::Ack);
        assert!(events[0].end_ns <= events[1].end_ns);
    }

    #[test]
    fn untraced_stamps_record_nothing() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder();
        let next = rec.record(Stage::Apply, Stamp::NONE);
        assert!(!next.is_traced(), "NONE propagates through the pipeline");
        rec.record(Stage::Ack, next);
        assert_eq!(trace.histogram(Stage::Apply).count(), 0);
        assert_eq!(trace.histogram(Stage::Ack).count(), 0);
        assert!(trace.recent_events().is_empty());
    }

    #[test]
    fn a_dropped_recorders_ring_is_reused() {
        let trace = Arc::new(StageTrace::new());
        for _ in 0..1_000 {
            drop(trace.recorder());
        }
        assert_eq!(
            trace.rings.lock().unwrap().len(),
            1,
            "one ring, reused each time"
        );
        // Live recorders each keep their own ring; the events of a dropped
        // one stay readable until its ring is handed on.
        let first = trace.recorder();
        let second = trace.recorder();
        first.record(Stage::Apply, first.sample_start());
        drop(first);
        assert_eq!(trace.recent_events().len(), 1);
        second.record(Stage::Write, second.sample_start());
        assert_eq!(trace.rings.lock().unwrap().len(), 2);
        assert_eq!(trace.recent_events().len(), 2);
    }

    #[test]
    fn sampled_recorder_traces_one_in_n() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.sampled_recorder(3); // 1 in 8
        let traced = (0..64).filter(|_| rec.sample_start().is_traced()).count();
        assert_eq!(traced, 8);
    }

    #[test]
    fn ring_overwrites_oldest_and_reads_stay_consistent() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder();
        for i in 0..(RING_CAPACITY + 10) {
            rec.ring.push(Stage::Apply, i as u64, i as u64);
        }
        let events = rec.ring.read();
        assert_eq!(events.len(), RING_CAPACITY, "ring is full, never larger");
        // The oldest RING_CAPACITY+10 events were overwritten; everything
        // left is from the most recent RING_CAPACITY pushes.
        assert!(events.iter().all(|e| e.end_ns >= 10));
        assert!(events.iter().all(|e| e.stage == Stage::Apply));
    }

    #[test]
    fn durations_clamp_into_the_packed_meta_word() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder();
        rec.ring.push(Stage::Write, 42, u64::MAX);
        let events = rec.ring.read();
        assert_eq!(events[0].dur_ns, MAX_PACKED_DUR);
        assert_eq!(events[0].stage, Stage::Write);
        assert_eq!(events[0].end_ns, 42);
    }

    #[test]
    fn concurrent_readers_never_see_torn_cells() {
        // One writer hammers the ring with self-consistent events
        // (end_ns == dur_ns); readers must only ever observe pairs that
        // match.  A torn read would pair one write's end_ns with
        // another's meta.
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder();
        let ring = Arc::clone(&rec.ring);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        for e in ring.read() {
                            assert_eq!(
                                e.end_ns, e.dur_ns,
                                "torn seqlock read: end and meta from different writes"
                            );
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        for i in 1..200_000u64 {
            let v = i % MAX_PACKED_DUR;
            rec.ring.push(Stage::ALL[(i % 8) as usize], v, v);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers observed events");
        }
    }

    #[test]
    fn collect_emits_one_labeled_histogram_per_stage() {
        let trace = Arc::new(StageTrace::new());
        let rec = trace.recorder();
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
