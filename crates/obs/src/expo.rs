//! Prometheus-style text exposition: the human- and tool-readable form of
//! a registry snapshot, and a strict parser for it (used by the scrape
//! tests, the CI selftest, and any operator piping `--stats-dump` into
//! standard tooling).
//!
//! The dialect is the text exposition format's core subset:
//!
//! ```text
//! # TYPE kv_ops_total counter
//! kv_ops_total{shard="0",op="get"} 128
//! # TYPE kv_scan_latency_ns histogram
//! kv_scan_latency_ns_bucket{le="127"} 90
//! kv_scan_latency_ns_bucket{le="+Inf"} 100
//! kv_scan_latency_ns_count 100
//! ```
//!
//! Histograms render cumulatively with `le` bounds at the power-of-two
//! bucket upper bounds (only non-empty buckets are emitted, so a 64-bucket
//! histogram with 3 occupied buckets costs 5 lines, not 65).  The top
//! bucket (values ≥ 2^63) folds into `+Inf`.  All values are unsigned
//! integers — every metric in this stack is a count, a level, or a bucket.

use crate::hist::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::registry::{MetricValue, Sample};

/// Renders samples as text exposition (see the module docs).  Type
/// comments are emitted once per metric family, at its first appearance;
/// sample order is preserved.
pub fn render(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for sample in samples {
        if !seen.contains(&sample.name) {
            seen.push(sample.name);
            let kind = match sample.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str("# TYPE ");
            out.push_str(sample.name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
        }
        match &sample.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                write_line(&mut out, sample.name, &sample.labels, None, *v);
            }
            MetricValue::Histogram(snapshot) => {
                render_histogram(&mut out, sample.name, &sample.labels, snapshot);
            }
        }
    }
    out
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    snapshot: &HistogramSnapshot,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (i, &count) in snapshot.buckets.iter().enumerate() {
        // The top bucket has no finite upper bound; it only appears in
        // the +Inf line below.
        if count > 0 && i < HISTOGRAM_BUCKETS - 1 {
            cumulative += count;
            let le = Histogram::bucket_upper_bound(i).to_string();
            write_line(out, &bucket_name, labels, Some(("le", &le)), cumulative);
        }
    }
    let total = snapshot.count();
    write_line(out, &bucket_name, labels, Some(("le", "+Inf")), total);
    write_line(out, &format!("{name}_count"), labels, None, total);
}

fn write_line(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    extra: Option<(&str, &str)>,
    value: u64,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (key, val) in labels.iter().map(|(k, v)| (*k, v.as_str())).chain(extra) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            out.push_str("=\"");
            for c in val.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// One parsed exposition line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSample {
    /// Metric name as it appears on the line (histogram lines keep their
    /// `_bucket`/`_count` suffixes).
    pub name: String,
    /// Label pairs in line order (including `le` on bucket lines).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: u64,
}

impl ParsedSample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every `(key, value)` pair in `want` appears in this
    /// sample's labels.
    pub fn has_labels(&self, want: &[(&str, &str)]) -> bool {
        want.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

/// Parses text exposition produced by [`render`] (comments and blank
/// lines are skipped; any malformed line is an error naming it).
pub fn parse(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_line(line).map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?);
    }
    Ok(samples)
}

fn parse_line(line: &str) -> Result<ParsedSample, String> {
    let (name_and_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing value".to_string())?;
    let value: u64 = value.parse().map_err(|_| format!("bad value {value:?}"))?;
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if name.is_empty() || name.contains(char::is_whitespace) {
        return Err(format!("bad metric name {name:?}"));
    }
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label key".to_string());
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key} missing opening quote"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".to_string()),
            }
        }
        labels.push((key, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(c) => return Err(format!("expected ',' between labels, got {c:?}")),
        }
    }
}

/// The value of the unique sample named `name` whose labels include all
/// of `labels`, or `None` if no sample matches.
pub fn value(samples: &[ParsedSample], name: &str, labels: &[(&str, &str)]) -> Option<u64> {
    samples
        .iter()
        .find(|s| s.name == name && s.has_labels(labels))
        .map(|s| s.value)
}

/// The sum of every sample named `name` whose labels include all of
/// `labels` (0 if none match) — e.g. total gets across shards.
pub fn sum(samples: &[ParsedSample], name: &str, labels: &[(&str, &str)]) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name && s.has_labels(labels))
        .map(|s| s.value)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Sample;

    #[test]
    fn render_parse_round_trip() {
        let hist = Histogram::new();
        for _ in 0..90 {
            hist.record(100); // bucket 6
        }
        for _ in 0..10 {
            hist.record(1 << 20); // bucket 20
        }
        let samples = vec![
            Sample::counter("kv_ops_total", 42)
                .with("shard", 0)
                .with("op", "get"),
            Sample::counter("kv_ops_total", 7)
                .with("shard", 1)
                .with("op", "put"),
            Sample::gauge("net_open_connections", 3),
            Sample::histogram("kv_scan_latency_ns", &hist).with("shard", 0),
        ];
        let text = render(&samples);
        assert!(text.contains("# TYPE kv_ops_total counter"));
        assert_eq!(
            text.matches("# TYPE kv_ops_total").count(),
            1,
            "one TYPE line per family"
        );
        assert!(text.contains("kv_ops_total{shard=\"0\",op=\"get\"} 42"));
        assert!(text.contains("net_open_connections 3"));

        let parsed = parse(&text).unwrap();
        assert_eq!(
            value(&parsed, "kv_ops_total", &[("shard", "0"), ("op", "get")]),
            Some(42)
        );
        assert_eq!(sum(&parsed, "kv_ops_total", &[]), 49, "sums across shards");
        assert_eq!(value(&parsed, "net_open_connections", &[]), Some(3));
        // Histogram lines: cumulative buckets, +Inf == _count == total.
        if crate::ENABLED {
            assert_eq!(
                value(
                    &parsed,
                    "kv_scan_latency_ns_bucket",
                    &[("shard", "0"), ("le", "127")]
                ),
                Some(90)
            );
            assert_eq!(
                value(
                    &parsed,
                    "kv_scan_latency_ns_bucket",
                    &[("shard", "0"), ("le", "+Inf")]
                ),
                Some(100)
            );
            assert_eq!(
                value(&parsed, "kv_scan_latency_ns_count", &[("shard", "0")]),
                Some(100)
            );
        }
    }

    #[test]
    fn empty_histograms_render_compactly() {
        let hist = Histogram::new();
        let text = render(&[Sample::histogram("quiet_ns", &hist)]);
        let parsed = parse(&text).unwrap();
        assert_eq!(value(&parsed, "quiet_ns_count", &[]), Some(0));
        assert_eq!(
            value(&parsed, "quiet_ns_bucket", &[("le", "+Inf")]),
            Some(0)
        );
        // No finite-bound bucket lines for an empty histogram.
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let s = Sample::counter("weird_total", 1).with("name", "a\"b\\c\nd");
        let text = render(&[s]);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed[0].label("name"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("no_value_here").is_err());
        assert!(parse("name{unterminated=\"x\" 3").is_err());
        assert!(parse("name{=\"x\"} 3").is_err());
        assert!(parse("name{a=\"x\"b=\"y\"} 3").is_err(), "missing comma");
        assert!(parse("name notanumber").is_err());
        // Comments and blanks are fine.
        assert_eq!(parse("# HELP x y\n\n# TYPE x counter\n").unwrap(), vec![]);
    }

    #[test]
    fn top_bucket_folds_into_inf() {
        let hist = Histogram::new();
        hist.record(u64::MAX);
        hist.record(1);
        let text = render(&[Sample::histogram("sat_ns", &hist)]);
        let parsed = parse(&text).unwrap();
        if crate::ENABLED {
            assert_eq!(value(&parsed, "sat_ns_bucket", &[("le", "1")]), Some(1));
            assert_eq!(value(&parsed, "sat_ns_bucket", &[("le", "+Inf")]), Some(2));
            // No line claims a finite bound covers the 2^63.. bucket.
            assert!(!text.contains(&u64::MAX.to_string()));
        }
    }
}
