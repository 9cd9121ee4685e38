//! `conctest`: linearizability checking and differential stress testing for
//! every structure in the registry, and for the services built on them
//! (kvserve, crashkv's durable shards, netserve's socket front end).
//!
//! The paper's claims are about *correct concurrent behavior under
//! contention* — elimination linearizes same-key operations against leaf
//! records, rebalancing marks before unlinking, scans validate leaf
//! versions.  The rest of the test suite spot-checks invariants (key sums,
//! structural validity); this crate checks the actual contract: **recorded
//! concurrent histories must be linearizable**.
//!
//! Three layers, each usable on its own:
//!
//! 1. **Recording** ([`history`]): every system under test is driven
//!    through one [`Session`] trait — one [`OpKind`] in, one [`OpResult`]
//!    out — implemented once each by a tree session
//!    (`Box<dyn abtree::MapHandle>`), a kvserve `ShardRouter`, a crashkv
//!    `DurableRouter` ([`durable`]), a netserve `Client` ([`socket`]) and
//!    the `BTreeMap` reference oracle.  One [`Recorder`] over any session
//!    turns its traffic into a timestamped invoke/response event log.
//! 2. **Checking** ([`checker`]): a Wing–Gong-style linearizability search
//!    over the recorded history — per-key partitioned, with a sequential
//!    fast path, a provenance pre-pass for crisp common-case messages, an
//!    atomic-snapshot scan model for the structures that promise one
//!    (`snapshot_scans` in the registry), and a search budget so
//!    pathological histories return [`Outcome::Bounded`] instead of
//!    hanging.
//! 3. **Fuzzing + shrinking** ([`fuzz`], [`shrink`]): seeded
//!    [`workload::OperationMix`] schedules of `(thread, OpKind)` (Zipf
//!    skew, YCSB-E style scans, batches), replayed deterministically
//!    against any [`Target`] — a registry structure, a kvserve service, the
//!    durable service or a socket server — and the oracle session, and
//!    recorded concurrently under the checker; failures shrink ddmin-style
//!    to a minimal reproducer — a seed plus a schedule, or a minimal event
//!    history.
//!
//! A fourth layer rides on the first two: **durable-linearizability
//! checking** ([`durable`]) for crashkv's crash-injected persistent
//! service.  A durable router's crash-aborted operations record
//! [`OpResult::Aborted`]; the checker treats an unacked crash-window write
//! as *optional* (it linearized at the crash or vanished) while acked
//! writes stay mandatory, so losing an acknowledged write is flagged as a
//! violation.
//!
//! The `conctest` binary sweeps all of this over every registry structure,
//! kvserve services, the durable service and a socket server (`--smoke` for
//! the CI-sized run).  The harness proves it can catch real bugs by
//! mutation: with `--features torn-scan`, an intentionally broken
//! wrapper whose scans read the window in two halves must be flagged by the
//! checker (`tests/mutation.rs`); with `--features lost-ack`, a crashkv
//! router that answers a crashed window with its own results (acks for
//! writes the crash rolled back) must be flagged by the durable checker
//! (`tests/lost_ack.rs`); with `--features
//! stale-stamp`, a kvserve whose writes skip the start-of-write quiescence
//! check of the hot-key cache's stamp protocol must be flagged for a stale
//! cached read (`tests/mutation.rs`, over [`record_hot_key_paths`]).
//!
//! Environment knob: `CONCTEST_ARTIFACT_DIR` redirects where failing
//! reproducers are written (default `target/conctest/`).

#![warn(missing_docs)]

pub mod checker;
pub mod durable;
pub mod fuzz;
pub mod history;
#[cfg(feature = "torn-scan")]
pub mod mutant;
pub mod shrink;
pub mod socket;
mod stall;

pub use checker::{check, CheckConfig, Outcome, ViolationReport};
pub use durable::check_durable;
pub use fuzz::{
    differential_fuzz, fuzz_concurrent, kv_service, record_hot_key_paths, ConcFailure, ConcReport,
    DiffFailure, FuzzConfig, ScheduledOp, Target,
};
pub use history::{Clock, History, OpKind, OpRecord, OpResult, Recorder, Session};
#[cfg(feature = "torn-scan")]
pub use mutant::TornScan;
pub use shrink::{shrink_history, shrink_history_from, shrink_schedule};
pub use socket::loopback_server;

use std::io::Write as _;
use std::path::PathBuf;

/// Directory failing reproducers are written to: `$CONCTEST_ARTIFACT_DIR`,
/// or `target/conctest/` relative to the working directory.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("CONCTEST_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/conctest"))
}

/// Writes a reproducer to `<artifact_dir>/<name>` (best effort: IO errors
/// are reported to stderr, not panicked on, so artifact writing can never
/// mask the real failure) and returns the path it tried.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let dir = artifact_dir();
    let path = dir.join(name);
    let result = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut file| file.write_all(contents.as_bytes()));
    if let Err(error) = result {
        eprintln!(
            "conctest: could not write artifact {}: {error}",
            path.display()
        );
    }
    path
}
