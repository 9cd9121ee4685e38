//! Service observability: operation counters and their registry sources.
//!
//! Everything here is lock-free (plain relaxed atomics) and allocation-free
//! on the record path, so routers can update stats inline without perturbing
//! the workload they measure.  The histogram type itself lives in the
//! telemetry crate ([`obs::Histogram`], re-exported here for compatibility);
//! this module owns the *service-shaped* aggregates — per-shard and
//! per-namespace counters, the latency/batch-size histograms — and knows how
//! to emit them as registry [`Sample`]s for a scrape.
//!
//! With `obs`'s `compile-out` feature enabled every `record_*` method
//! returns immediately (the [`obs::ENABLED`] branch is a `const`, so it
//! folds away), which is what makes the measured-overhead baseline honest.

use std::sync::atomic::{AtomicU64, Ordering};

pub use obs::{Histogram, HISTOGRAM_BUCKETS};

use obs::Sample;

/// Operation counters for one shard or one namespace.
///
/// Batched requests bump shard-level `mgets`/`mputs` once per *sub-batch*
/// (a multi-get spanning three shards bumps three shard-level `mgets` — the
/// dispatch unit) and namespace-level `mgets`/`mputs` once per *key* (the
/// tenant-billing unit).  `hits`/`misses` always count per key, so hit rate
/// is per-key everywhere.
#[derive(Debug, Default)]
pub struct OpCounters {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    mgets: AtomicU64,
    mputs: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OpCounters {
    #[inline]
    pub(crate) fn record_get(&self, hit: bool) {
        if !obs::ENABLED {
            return;
        }
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.record_lookup(hit);
    }

    #[inline]
    pub(crate) fn record_lookup(&self, hit: bool) {
        if !obs::ENABLED {
            return;
        }
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_put(&self) {
        if !obs::ENABLED {
            return;
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_delete(&self) {
        if !obs::ENABLED {
            return;
        }
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_scan(&self) {
        if !obs::ENABLED {
            return;
        }
        self.scans.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_mget(&self) {
        if !obs::ENABLED {
            return;
        }
        self.mgets.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_mput(&self) {
        if !obs::ENABLED {
            return;
        }
        self.mputs.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes every counter (quiescent only, like [`Histogram::reset`]).
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
        ] {
            counter.store(0, Ordering::Relaxed);
        }
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

    /// Scans served (scatter-gather scans count once per shard touched).
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Multi-get sub-batches served.
    pub fn mgets(&self) -> u64 {
        self.mgets.load(Ordering::Relaxed)
    }

    /// Multi-put sub-batches served.
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

    /// All operations served (batches counted per sub-batch).
    pub fn total_ops(&self) -> u64 {
        self.gets() + self.puts() + self.deletes() + self.scans() + self.mgets() + self.mputs()
    }

    /// Per-key hit rate of lookups in `[0, 1]`; 0 when no lookups ran.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = (self.hits(), self.misses());
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Emits this counter set as labeled samples: one `ops_name{label,op=*}`
    /// counter per op family and `lookups_name{label,outcome=hit|miss}`.
    /// All eight are emitted even when zero, so scrape consumers see a
    /// stable shape.
    fn collect(
        &self,
        out: &mut Vec<Sample>,
        ops_name: &'static str,
        lookups_name: &'static str,
        label: &'static str,
        index: usize,
    ) {
        for (op, value) in [
            ("get", self.gets()),
            ("put", self.puts()),
            ("delete", self.deletes()),
            ("scan", self.scans()),
            ("mget", self.mgets()),
            ("mput", self.mputs()),
        ] {
            out.push(Sample::counter(ops_name, value).with(label, index).with("op", op));
        }
        out.push(
            Sample::counter(lookups_name, self.hits())
                .with(label, index)
                .with("outcome", "hit"),
        );
        out.push(
            Sample::counter(lookups_name, self.misses())
                .with(label, index)
                .with("outcome", "miss"),
        );
    }
}

/// All service-level statistics: per-shard counters, per-namespace counters,
/// and the latency/batch-size histograms.
#[derive(Debug)]
pub struct ServiceStats {
    shards: Vec<OpCounters>,
    namespaces: Vec<OpCounters>,
    /// Latency of point requests (`Get`/`Put`/`Delete`), in nanoseconds.
    /// **Sampled**: recorded for the same deterministic 1-in-16 subset the
    /// stage trace follows, so the untraced majority of point ops reads no
    /// clock at all (quantiles stay unbiased; `count()` is ~ops/16).
    pub point_latency_ns: Histogram,
    /// Latency of whole batched requests (`MGet`/`MPut`), in nanoseconds.
    pub batch_latency_ns: Histogram,
    /// Latency of scans (scatter-gather across shards), in nanoseconds.
    pub scan_latency_ns: Histogram,
    /// Sizes (key counts) of batched requests.
    pub batch_size: Histogram,
    /// Reads answered by a router's hot-key cache (no tree descent).
    cache_hits: AtomicU64,
    /// Pipelined submissions refused with `Overloaded` (router budget full).
    shed: AtomicU64,
}

impl ServiceStats {
    pub(crate) fn new(shards: usize, namespaces: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| OpCounters::default()).collect(),
            namespaces: (0..namespaces).map(|_| OpCounters::default()).collect(),
            point_latency_ns: Histogram::new(),
            batch_latency_ns: Histogram::new(),
            scan_latency_ns: Histogram::new(),
            batch_size: Histogram::new(),
            cache_hits: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record_cache_hit(&self) {
        if !obs::ENABLED {
            return;
        }
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_shed(&self) {
        if !obs::ENABLED {
            return;
        }
        self.shed.fetch_add(1, Ordering::Relaxed);
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

    /// Counters of shard `index` (panics if out of range).
    pub fn shard(&self, index: usize) -> &OpCounters {
        &self.shards[index]
    }

    /// Per-shard counters, in shard order.
    pub fn shards(&self) -> &[OpCounters] {
        &self.shards
    }

    /// Counters of the namespace-stat slot `index` (panics if out of range).
    ///
    /// Keys are attributed to slot `tenant % slots`, so with at least as
    /// many slots as active tenants each tenant gets its own row.
    pub fn namespace(&self, index: usize) -> &OpCounters {
        &self.namespaces[index]
    }

    /// Per-namespace counters, in slot order.
    pub fn namespaces(&self) -> &[OpCounters] {
        &self.namespaces
    }

    /// The namespace-stat slot a packed key is attributed to.
    #[inline]
    pub(crate) fn namespace_slot(&self, packed_key: u64) -> usize {
        (packed_key >> crate::namespace::LOCAL_KEY_BITS) as usize % self.namespaces.len()
    }

    /// Total operations across all shards (batches counted per sub-batch).
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.total_ops()).sum()
    }

    /// Zeroes every counter and histogram, so a measured phase can start
    /// from a clean slate after prefill.  Quiescent only: call it while no
    /// router is serving traffic.
    pub fn reset(&self) {
        for counters in self.shards.iter().chain(&self.namespaces) {
            counters.reset();
        }
        self.point_latency_ns.reset();
        self.batch_latency_ns.reset();
        self.scan_latency_ns.reset();
        self.batch_size.reset();
        self.cache_hits.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
    }

    /// Registry source: emits every service-level metric (the `kv_*` rows
    /// of the metric table in the repository README).
    pub fn collect(&self, out: &mut Vec<Sample>) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.collect(out, "kv_ops_total", "kv_lookups_total", "shard", i);
        }
        for (i, ns) in self.namespaces.iter().enumerate() {
            ns.collect(
                out,
                "kv_namespace_ops_total",
                "kv_namespace_lookups_total",
                "namespace",
                i,
            );
        }
        out.push(Sample::counter("kv_cache_hits_total", self.cache_hits()));
        out.push(Sample::counter("kv_shed_total", self.shed()));
        out.push(Sample::histogram("kv_point_latency_ns", &self.point_latency_ns));
        out.push(Sample::histogram("kv_batch_latency_ns", &self.batch_latency_ns));
        out.push(Sample::histogram("kv_scan_latency_ns", &self.scan_latency_ns));
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
        let c = OpCounters::default();
        assert_eq!(c.hit_rate(), 0.0, "no lookups yet");
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
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let stats = ServiceStats::new(2, 2);
        stats.shard(0).record_get(true);
        stats.namespace(1).record_mput();
        stats.point_latency_ns.record(100);
        stats.batch_size.record(16);
        stats.record_cache_hit();
        stats.record_shed();
        if obs::ENABLED {
            assert_eq!(stats.cache_hits(), 1);
            assert_eq!(stats.shed(), 1);
        }
        stats.reset();
        assert_eq!(stats.total_ops(), 0);
        assert_eq!(stats.shard(0).hits(), 0);
        assert_eq!(stats.namespace(1).mputs(), 0);
        assert_eq!(stats.point_latency_ns.count(), 0);
        assert_eq!(stats.batch_size.count(), 0);
        assert_eq!(stats.cache_hits(), 0);
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn namespace_slots_wrap() {
        let stats = ServiceStats::new(2, 4);
        let key_t0 = 5u64;
        let key_t6 = (6u64 << crate::namespace::LOCAL_KEY_BITS) | 5;
        assert_eq!(stats.namespace_slot(key_t0), 0);
        assert_eq!(stats.namespace_slot(key_t6), 2, "tenant 6 % 4 slots");
        assert_eq!(stats.shards().len(), 2);
        assert_eq!(stats.namespaces().len(), 4);
    }

    #[test]
    fn collect_emits_the_documented_metric_names() {
        if !obs::ENABLED {
            return;
        }
        let stats = ServiceStats::new(2, 1);
        stats.shard(0).record_get(true);
        stats.shard(1).record_put();
        stats.namespace(0).record_lookup(false);
        stats.record_shed();
        stats.point_latency_ns.record(500);
        let mut out = Vec::new();
        stats.collect(&mut out);
        let text = obs::expo::render(&out);
        let parsed = obs::expo::parse(&text).unwrap();
        assert_eq!(
            obs::expo::value(&parsed, "kv_ops_total", &[("shard", "0"), ("op", "get")]),
            Some(1)
        );
        assert_eq!(
            obs::expo::value(&parsed, "kv_ops_total", &[("shard", "1"), ("op", "put")]),
            Some(1)
        );
        assert_eq!(
            obs::expo::sum(&parsed, "kv_ops_total", &[("op", "delete")]),
            0,
            "zero-valued rows are emitted, not skipped"
        );
        assert_eq!(
            obs::expo::value(
                &parsed,
                "kv_namespace_lookups_total",
                &[("namespace", "0"), ("outcome", "miss")]
            ),
            Some(1)
        );
        assert_eq!(obs::expo::value(&parsed, "kv_shed_total", &[]), Some(1));
        assert_eq!(
            obs::expo::value(&parsed, "kv_point_latency_ns_count", &[]),
            Some(1)
        );
    }
}
