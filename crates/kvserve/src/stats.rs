//! Service observability: operation counters and their registry source.
//!
//! Everything here is lock-free (plain relaxed atomics) and allocation-free
//! on the record path, so routers can update stats inline without perturbing
//! the workload they measure.  The histogram type itself lives in the
//! telemetry crate ([`obs::Histogram`]); this module owns the
//! *service-shaped* aggregates — the operation counters, the
//! latency/batch-size histograms — and knows how to emit them as registry
//! [`Sample`]s for a scrape.  The service has one store, so each counter
//! is one series, labeled only by what it counts.
//!
//! With `obs`'s `compile-out` feature enabled every `record_*` method
//! returns immediately (the [`obs::ENABLED`] branch is a `const`, so it
//! folds away), which is what makes the measured-overhead baseline honest.

use std::sync::atomic::{AtomicU64, Ordering};

use obs::{Histogram, Sample};

/// Bumps `counter` unless telemetry is compiled out.
#[inline]
fn bump(counter: &AtomicU64) {
    if obs::ENABLED {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// All service-level statistics: operation counters and the
/// latency/batch-size histograms.
///
/// Batched requests bump `mgets`/`mputs` once per batch; `hits`/`misses`
/// count per key, so a hit rate read from them is per-key.
#[derive(Debug, Default)]
pub struct ServiceStats {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    mgets: AtomicU64,
    mputs: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Reads answered by a router's hot-key cache (no tree descent).
    cache_hits: AtomicU64,
    /// Pipelined submissions refused with `Overloaded` (router budget full).
    shed: AtomicU64,
    /// Latency of whole batched requests (`MGet`/`MPut`), in nanoseconds.
    pub batch_latency_ns: Histogram,
    /// Latency of scans, in nanoseconds.
    pub scan_latency_ns: Histogram,
    /// Sizes (key counts) of batched requests.
    pub batch_size: Histogram,
}

impl ServiceStats {
    #[inline]
    pub(crate) fn record_get(&self, hit: bool) {
        bump(&self.gets);
        self.record_lookup(hit);
    }

    #[inline]
    pub(crate) fn record_lookup(&self, hit: bool) {
        bump(if hit { &self.hits } else { &self.misses });
    }

    #[inline]
    pub(crate) fn record_put(&self) {
        bump(&self.puts);
    }

    #[inline]
    pub(crate) fn record_delete(&self) {
        bump(&self.deletes);
    }

    #[inline]
    pub(crate) fn record_scan(&self) {
        bump(&self.scans);
    }

    #[inline]
    pub(crate) fn record_mget(&self) {
        bump(&self.mgets);
    }

    #[inline]
    pub(crate) fn record_mput(&self) {
        bump(&self.mputs);
    }

    #[inline]
    pub(crate) fn record_cache_hit(&self) {
        bump(&self.cache_hits);
    }

    #[inline]
    pub(crate) fn record_shed(&self) {
        bump(&self.shed);
    }

    /// Point lookups served.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Point insert-if-absent operations served.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Point deletes served.
    pub fn deletes(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }

    /// Scans served.
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Multi-get batches served.
    pub fn mgets(&self) -> u64 {
        self.mgets.load(Ordering::Relaxed)
    }

    /// Multi-put batches served.
    pub fn mputs(&self) -> u64 {
        self.mputs.load(Ordering::Relaxed)
    }

    /// Lookups (point gets plus multi-get keys) that found a value.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// All operations served (a batch counts once).
    pub fn total_ops(&self) -> u64 {
        self.gets() + self.puts() + self.deletes() + self.scans() + self.mgets() + self.mputs()
    }

    /// Reads (point gets and multi-get keys) answered by a router's hot-key
    /// cache without a tree descent.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Pipelined submissions refused with
    /// [`Overloaded`](crate::router::Overloaded) because the router already
    /// held [`LANE_CAPACITY`](crate::LANE_CAPACITY) uncollected responses.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Zeroes every counter and histogram, so a measured phase can start
    /// from a clean slate after prefill.  Quiescent only: call it while no
    /// router is serving traffic.
    pub fn reset(&self) {
        for counter in [
            &self.gets,
            &self.puts,
            &self.deletes,
            &self.scans,
            &self.mgets,
            &self.mputs,
            &self.hits,
            &self.misses,
            &self.cache_hits,
            &self.shed,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        self.batch_latency_ns.reset();
        self.scan_latency_ns.reset();
        self.batch_size.reset();
    }

    /// Registry source: emits every service-level metric (the `kv_*` rows
    /// of the metric table in the repository README): one
    /// `kv_ops_total{op=*}` counter per op family and
    /// `kv_lookups_total{outcome=hit|miss}`, all emitted even when zero so
    /// scrape consumers see a stable shape, then the cache, shed and
    /// histogram rows.
    pub fn collect(&self, out: &mut Vec<Sample>) {
        for (op, value) in [
            ("get", self.gets()),
            ("put", self.puts()),
            ("delete", self.deletes()),
            ("scan", self.scans()),
            ("mget", self.mgets()),
            ("mput", self.mputs()),
        ] {
            out.push(Sample::counter("kv_ops_total", value).with("op", op));
        }
        for (outcome, value) in [("hit", self.hits()), ("miss", self.misses())] {
            out.push(Sample::counter("kv_lookups_total", value).with("outcome", outcome));
        }
        out.push(Sample::counter("kv_cache_hits_total", self.cache_hits()));
        out.push(Sample::counter("kv_shed_total", self.shed()));
        out.push(Sample::histogram(
            "kv_batch_latency_ns",
            &self.batch_latency_ns,
        ));
        out.push(Sample::histogram(
            "kv_scan_latency_ns",
            &self.scan_latency_ns,
        ));
        out.push(Sample::histogram("kv_batch_size", &self.batch_size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hit_rate() {
        if !obs::ENABLED {
            return; // recording is compiled out
        }
        let c = ServiceStats::default();
        c.record_get(true);
        c.record_get(true);
        c.record_get(false);
        c.record_put();
        c.record_delete();
        c.record_scan();
        c.record_mget();
        c.record_lookup(false);
        c.record_mput();
        assert_eq!(c.gets(), 3);
        assert_eq!(c.puts(), 1);
        assert_eq!(c.deletes(), 1);
        assert_eq!(c.scans(), 1);
        assert_eq!(c.mgets(), 1);
        assert_eq!(c.mputs(), 1);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.total_ops(), 8);
    }

    #[test]
    fn reset_clears_everything() {
        let stats = ServiceStats::default();
        stats.record_get(true);
        stats.record_mput();
        stats.batch_latency_ns.record(100);
        stats.batch_size.record(16);
        stats.record_cache_hit();
        stats.record_shed();
        if obs::ENABLED {
            assert_eq!(stats.cache_hits(), 1);
            assert_eq!(stats.shed(), 1);
        }
        stats.reset();
        assert_eq!(stats.total_ops(), 0);
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.mputs(), 0);
        assert_eq!(stats.batch_latency_ns.count(), 0);
        assert_eq!(stats.batch_size.count(), 0);
        assert_eq!(stats.cache_hits(), 0);
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn collect_emits_the_documented_metric_names() {
        if !obs::ENABLED {
            return;
        }
        let stats = ServiceStats::default();
        stats.record_get(true);
        stats.record_put();
        stats.record_lookup(false);
        stats.record_shed();
        stats.scan_latency_ns.record(500);
        let mut out = Vec::new();
        stats.collect(&mut out);
        let text = obs::expo::render(&out);
        let parsed = obs::expo::parse(&text).unwrap();
        assert_eq!(
            obs::expo::value(&parsed, "kv_ops_total", &[("op", "get")]),
            Some(1)
        );
        assert_eq!(
            obs::expo::value(&parsed, "kv_ops_total", &[("op", "put")]),
            Some(1)
        );
        assert_eq!(
            obs::expo::value(&parsed, "kv_ops_total", &[("op", "delete")]),
            Some(0),
            "zero-valued rows are emitted, not skipped"
        );
        assert_eq!(
            obs::expo::value(&parsed, "kv_lookups_total", &[("outcome", "miss")]),
            Some(1)
        );
        assert_eq!(obs::expo::value(&parsed, "kv_shed_total", &[]), Some(1));
        assert_eq!(
            obs::expo::value(&parsed, "kv_scan_latency_ns_count", &[]),
            Some(1)
        );
        assert_eq!(
            parsed.iter().filter(|s| s.name == "kv_ops_total").count(),
            6,
            "one row per op family"
        );
    }
}
