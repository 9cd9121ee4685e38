//! `obs`: the unified telemetry spine of the reproduction's service stack.
//!
//! Every layer of the stack (tree → EBR collector → routers → TCP
//! reactors → durable shards) records telemetry; before this crate each
//! layer invented its own counters with no way to scrape them from a
//! running server.  `obs` is the one std-only home for all of it:
//!
//! * **[`Histogram`]** — the fixed-bucket power-of-two histogram
//!   (previously `kvserve::stats::Histogram`, moved here): wait-free
//!   relaxed-atomic recording, `None`-aware quantiles, detached
//!   snapshots and a quiescent reset.
//! * **[`Registry`]** — a pull-based metric registry.  Subsystems register
//!   *sources* (closures that append [`Sample`]s); a scrape walks the
//!   sources and renders a Prometheus-style text exposition
//!   ([`expo::render`]).  Recording stays lock-free in each subsystem's
//!   own relaxed atomics — the registry only pulls at snapshot time, so
//!   it adds nothing to any hot path.
//! * **[`StageTrace`]** — sampled per-request stage tracing: each serving
//!   thread's recorder adds a traced request's stage durations to one
//!   shared latency histogram per stage, so decode vs apply vs fence time
//!   is separable
//!   (`recv → decode → enqueue → dequeue → apply → fence → ack → write`).
//! * **[`Stamp`]** — the hot-path timestamp.  On x86-64 it is a calibrated
//!   `rdtsc` reading (~an order of magnitude cheaper than
//!   `Instant::now`), elsewhere a monotonic-clock read; either way it is
//!   a plain `u64` of nanoseconds since a process-local epoch.
//!
//! # The `compile-out` feature
//!
//! Telemetry claims about overhead are only honest if the "no telemetry"
//! baseline actually contains none.  With the `compile-out` feature
//! enabled, [`ENABLED`] is `false`, [`Stamp`] is a ZST whose `now()` does
//! not read any clock, [`Histogram::record`] returns immediately, and
//! stage recording is a no-op — dependent crates gate their counter
//! updates on [`ENABLED`] (a `const`, so the branch folds away).
//! The ledger (`bench/`) runs the same workload under both builds
//! (`--features obs/compile-out`); the overhead is the difference in its
//! `kvserve.cache_hit_ns` and `obs.scrape_us` rows.

#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod registry;
pub mod time;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{MetricValue, Registry, Sample, SourceId};
pub use time::Stamp;
pub use trace::{Stage, StageRecorder, StageTrace, STAGE_COUNT};

/// Whether telemetry recording is compiled in.  `false` only when the
/// `compile-out` feature is enabled (the measured-overhead baseline).
/// This is a `const`, so `if obs::ENABLED { ... }` costs nothing either
/// way.
pub const ENABLED: bool = cfg!(not(feature = "compile-out"));
