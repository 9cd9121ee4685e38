//! The pull-based metric registry.
//!
//! Subsystems keep recording into their own relaxed atomics exactly as
//! before; what they additionally do is *register a source* — a closure
//! that, when a scrape happens, reads those atomics and appends
//! [`Sample`]s.  The registry owns nothing hot: it is a mutex-protected
//! list of sources that is only walked at snapshot time, so a scrape
//! costs the scraper, never the serving threads.
//!
//! Sources are identified by the [`SourceId`] returned at registration,
//! so a subsystem with a shorter lifetime than the registry (e.g. a
//! network front end over a long-lived service) can
//! [`unregister`](Registry::unregister) on shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::{Histogram, HistogramSnapshot};

/// The value of one metric sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically non-decreasing count (ops served, bytes, errors).
    Counter(u64),
    /// A point-in-time level that can move both ways (open connections,
    /// unreclaimed garbage, epoch age).
    Gauge(u64),
    /// A full distribution snapshot (latencies, batch sizes).  Boxed so
    /// the common counter/gauge samples stay one word wide; the
    /// allocation happens on the scrape path only, never while recording.
    Histogram(Box<HistogramSnapshot>),
}

/// One named, labeled metric reading produced by a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric family name (static by design: the metric namespace is a
    /// fixed, documented table, not a dynamic string space).
    pub name: &'static str,
    /// Label key/value pairs (`[("shard", "3"), ("op", "get")]`).
    pub labels: Vec<(&'static str, String)>,
    /// The reading.
    pub value: MetricValue,
}

impl Sample {
    /// A counter sample with no labels (add some with [`with`](Self::with)).
    pub fn counter(name: &'static str, value: u64) -> Self {
        Self {
            name,
            labels: Vec::new(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge sample with no labels.
    pub fn gauge(name: &'static str, value: u64) -> Self {
        Self {
            name,
            labels: Vec::new(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A histogram sample with no labels, snapshotting `hist` now.
    pub fn histogram(name: &'static str, hist: &Histogram) -> Self {
        Self {
            name,
            labels: Vec::new(),
            value: MetricValue::Histogram(Box::new(hist.snapshot())),
        }
    }

    /// Appends one label (builder-style).
    pub fn with(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        self.labels.push((key, value.to_string()));
        self
    }
}

/// Handle to a registered source, for [`Registry::unregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceId(u64);

type Source = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

/// The pull-based registry (see the module docs).
#[derive(Default)]
pub struct Registry {
    sources: Mutex<Vec<(u64, Source)>>,
    next_id: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `source`, which will be called on every
    /// [`snapshot`](Self::snapshot) to append its current samples.
    /// Sources run in registration order, so exposition output is stable.
    pub fn register(&self, source: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) -> SourceId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sources
            .lock()
            .expect("metric source list poisoned")
            .push((id, Box::new(source)));
        SourceId(id)
    }

    /// Removes a previously registered source (a no-op if already gone).
    pub fn unregister(&self, id: SourceId) {
        self.sources
            .lock()
            .expect("metric source list poisoned")
            .retain(|(sid, _)| *sid != id.0);
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.sources
            .lock()
            .expect("metric source list poisoned")
            .len()
    }

    /// Pulls every source once, returning all current samples.
    pub fn snapshot(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        let sources = self.sources.lock().expect("metric source list poisoned");
        for (_, source) in sources.iter() {
            source(&mut out);
        }
        out
    }

    /// Pulls every source and renders the Prometheus-style text
    /// exposition ([`crate::expo::render`]) — the payload of a wire
    /// stats scrape.
    pub fn render(&self) -> String {
        crate::expo::render(&self.snapshot())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("sources", &self.source_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn sources_pull_live_values() {
        let registry = Registry::new();
        let counter = Arc::new(AtomicU64::new(0));
        let source_counter = Arc::clone(&counter);
        registry.register(move |out| {
            out.push(Sample::counter(
                "test_ops_total",
                source_counter.load(Ordering::Relaxed),
            ));
        });
        counter.store(7, Ordering::Relaxed);
        let samples = registry.snapshot();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].value, MetricValue::Counter(7));
        counter.store(9, Ordering::Relaxed);
        assert_eq!(
            registry.snapshot()[0].value,
            MetricValue::Counter(9),
            "snapshots pull, they do not cache"
        );
    }

    #[test]
    fn unregister_removes_exactly_one_source() {
        let registry = Registry::new();
        let a = registry.register(|out| out.push(Sample::gauge("a", 1)));
        let _b = registry.register(|out| out.push(Sample::gauge("b", 2)));
        assert_eq!(registry.source_count(), 2);
        registry.unregister(a);
        assert_eq!(registry.source_count(), 1);
        let samples = registry.snapshot();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "b");
        registry.unregister(a); // idempotent
        assert_eq!(registry.source_count(), 1);
    }

    #[test]
    fn labels_build_in_order() {
        let s = Sample::counter("x", 1).with("shard", 3).with("op", "get");
        assert_eq!(
            s.labels,
            vec![("shard", "3".to_string()), ("op", "get".to_string())]
        );
        assert!(format!("{:?}", Registry::new()).contains("sources"));
    }
}
