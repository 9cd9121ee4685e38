//! Service observability: operation counters and their registry sources.
//!
//! Everything here is lock-free (plain relaxed atomics) and allocation-free
//! on the record path, so routers can update stats inline without perturbing
//! the workload they measure.  The histogram type itself lives in the
//! telemetry crate ([`obs::Histogram`]); this module owns the
//! *service-shaped* aggregates — per-shard counters, the latency/batch-size
//! histograms — and knows how to emit them as registry
//! [`Sample`]s for a scrape.
//!
//! With `obs`'s `compile-out` feature enabled every `record_*` method
//! returns immediately (the [`obs::ENABLED`] branch is a `const`, so it
//! folds away), which is what makes the measured-overhead baseline honest.

use std::sync::atomic::{AtomicU64, Ordering};

use obs::{Histogram, Sample};

/// Operation counters for one shard.
///
/// Batched requests bump `mgets`/`mputs` once per *sub-batch* (a multi-get
/// spanning three shards bumps three shards' `mgets` — the dispatch unit).
/// `hits`/`misses` count per key, so a hit rate read from them is per-key.
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

    /// Emits this shard's counters as labeled samples: one
    /// `kv_ops_total{shard,op=*}` counter per op family and
    /// `kv_lookups_total{shard,outcome=hit|miss}`.  All eight are emitted
    /// even when zero, so scrape consumers see a stable shape.
    fn collect(&self, out: &mut Vec<Sample>, shard: usize) {
        for (op, value) in [
            ("get", self.gets()),
            ("put", self.puts()),
            ("delete", self.deletes()),
            ("scan", self.scans()),
            ("mget", self.mgets()),
            ("mput", self.mputs()),
        ] {
            out.push(
                Sample::counter("kv_ops_total", value)
                    .with("shard", shard)
                    .with("op", op),
            );
        }
        out.push(
            Sample::counter("kv_lookups_total", self.hits())
                .with("shard", shard)
                .with("outcome", "hit"),
        );
        out.push(
            Sample::counter("kv_lookups_total", self.misses())
                .with("shard", shard)
                .with("outcome", "miss"),
        );
    }
}

/// All service-level statistics: per-shard counters and the
/// latency/batch-size histograms.
#[derive(Debug)]
pub struct ServiceStats {
    shards: Vec<OpCounters>,
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
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| OpCounters::default()).collect(),
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

    /// Total operations across all shards (batches counted per sub-batch).
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.total_ops()).sum()
    }

    /// Zeroes every counter and histogram, so a measured phase can start
    /// from a clean slate after prefill.  Quiescent only: call it while no
    /// router is serving traffic.
    pub fn reset(&self) {
        for counters in &self.shards {
            counters.reset();
        }
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
            shard.collect(out, i);
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
        let c = OpCounters::default();
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
        let stats = ServiceStats::new(2);
        stats.shard(0).record_get(true);
        stats.shard(1).record_mput();
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
        assert_eq!(stats.shard(0).hits(), 0);
        assert_eq!(stats.shard(1).mputs(), 0);
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
        let stats = ServiceStats::new(2);
        stats.shard(0).record_get(true);
        stats.shard(1).record_put();
        stats.shard(0).record_lookup(false);
        stats.record_shed();
        stats.scan_latency_ns.record(500);
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
                "kv_lookups_total",
                &[("shard", "0"), ("outcome", "miss")]
            ),
            Some(1)
        );
        assert_eq!(obs::expo::value(&parsed, "kv_shed_total", &[]), Some(1));
        assert_eq!(
            obs::expo::value(&parsed, "kv_scan_latency_ns_count", &[]),
            Some(1)
        );
    }
}
