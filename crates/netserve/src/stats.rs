//! Server-wide counters, updated lock-free by the reactor threads.

use std::sync::atomic::{AtomicU64, Ordering};

use obs::Sample;

/// Monotonic counters describing what the front end has done so far.
///
/// All counters use relaxed atomics: they are observability, not
/// synchronization, and individual reads may be mutually slightly stale.
///
/// Like crashkv's `durable_*` counters (and unlike the per-request
/// telemetry in `kvserve`), these are *functional* lifecycle accounting —
/// tests and shutdown checks reason about accepted/closed/reaped
/// connections through them — so they are **not** gated on
/// [`obs::ENABLED`] and stay exact with telemetry compiled out.  The
/// costliest ones are two relaxed fetch-adds per served frame, next to a
/// socket syscall.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    frames: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    hwm_pauses: AtomicU64,
    hwm_resumes: AtomicU64,
    idle_evictions: AtomicU64,
    accept_pauses: AtomicU64,
    drained_frames: AtomicU64,
}

macro_rules! counter {
    ($(#[$doc:meta])* $get:ident, $bump:ident, $field:ident) => {
        $(#[$doc])*
        pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        }
        pub(crate) fn $bump(&self, n: u64) {
            self.$field.fetch_add(n, Ordering::Relaxed);
        }
    };
}

impl NetStats {
    counter!(
        /// Connections accepted from the listener.
        accepted, add_accepted, accepted
    );
    counter!(
        /// Connections closed, for any reason (peer hangup, protocol
        /// error, idle eviction, shutdown).
        closed, add_closed, closed
    );
    counter!(
        /// Complete request frames served.
        frames, add_frames, frames
    );
    counter!(
        /// Individual requests decoded out of served frames.
        requests, add_requests, requests
    );
    counter!(
        /// Connections torn down for speaking the protocol wrong
        /// (malformed frame header, oversized frame, corrupt batch).
        protocol_errors, add_protocol_errors, protocol_errors
    );
    counter!(
        /// Times a connection's write backlog crossed its high-water mark
        /// and reading from it was paused.
        hwm_pauses, add_hwm_pauses, hwm_pauses
    );
    counter!(
        /// Times a paused connection drained below the low-water mark and
        /// resumed reading.
        hwm_resumes, add_hwm_resumes, hwm_resumes
    );
    counter!(
        /// Connections evicted for exceeding the idle timeout.
        idle_evictions, add_idle_evictions, idle_evictions
    );
    counter!(
        /// Times the listener was unregistered under fd pressure
        /// (`EMFILE`/`ENFILE`) and re-armed on a timer.
        accept_pauses, add_accept_pauses, accept_pauses
    );
    counter!(
        /// Frames that completed during graceful shutdown's final read
        /// pass — work accepted before the shutdown and still honoured.
        drained_frames, add_drained_frames, drained_frames
    );

    /// Connections currently open (accepted minus closed).
    pub fn open_connections(&self) -> u64 {
        self.accepted().saturating_sub(self.closed())
    }

    /// Appends every counter as a `net_*` metric sample — the front end's
    /// contribution to the service's [`obs::Registry`] scrape.
    pub fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample::counter("net_accepted_total", self.accepted()));
        out.push(Sample::counter("net_closed_total", self.closed()));
        out.push(Sample::gauge(
            "net_open_connections",
            self.open_connections(),
        ));
        out.push(Sample::counter("net_frames_total", self.frames()));
        out.push(Sample::counter("net_requests_total", self.requests()));
        out.push(Sample::counter(
            "net_protocol_errors_total",
            self.protocol_errors(),
        ));
        out.push(Sample::counter("net_hwm_pauses_total", self.hwm_pauses()));
        out.push(Sample::counter("net_hwm_resumes_total", self.hwm_resumes()));
        out.push(Sample::counter(
            "net_idle_evictions_total",
            self.idle_evictions(),
        ));
        out.push(Sample::counter(
            "net_accept_pauses_total",
            self.accept_pauses(),
        ));
        out.push(Sample::counter(
            "net_drained_frames_total",
            self.drained_frames(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_emits_every_counter_family() {
        let stats = NetStats::default();
        stats.add_accepted(3);
        stats.add_frames(7);
        let mut out = Vec::new();
        stats.collect(&mut out);
        assert_eq!(out.len(), 11, "one sample per counter family");
        let text = obs::expo::render(&out);
        // Functional counters: exact in both telemetry configurations.
        assert!(text.contains("net_accepted_total 3"));
        assert!(text.contains("net_frames_total 7"));
        assert!(text.contains("net_open_connections"));
    }
}
