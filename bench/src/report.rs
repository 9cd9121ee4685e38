//! What a run prints and writes: `metric` lines a person (and the parent
//! process) can read, the provenance block, the result file, and the
//! contract's one-line JSON object.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::ledger::Traced;
use crate::procfs;
use crate::spec::{Spec, FAIL_SHARE_CEILING, PERSIST_MODE};
use crate::stats::{quartiles, Quartiles};
use crate::timed::Timed;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    fn new(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Where a result came from.
pub struct Provenance {
    pub commit: String,
    pub nproc: usize,
    pub rustc: String,
    pub features: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub persist_mode: String,
    started: Instant,
    steal_at_start_s: f64,
    /// Share of this box's CPU time the hypervisor gave to other guests
    /// during the run; set by [`finish`](Self::finish).
    pub steal_share: f64,
}

/// Above this steal share a run is marked disturbed (a quiet run reads
/// under 0.002).
const DISTURBED_STEAL_SHARE: f64 = 0.01;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn gather(seed: u64, seconds: f64, quick: bool) -> Self {
        Self {
            // The driver's checkouts are not git repositories.
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            features: format!(
                "default features, release profile (lto=thin, debug=true), obs telemetry {}",
                if obs::ENABLED { "on" } else { "compiled out" }
            ),
            seed,
            seconds,
            quick,
            persist_mode: format!("{PERSIST_MODE:?}"),
            started: Instant::now(),
            steal_at_start_s: procfs::steal_s(),
            steal_share: 0.0,
        }
    }

    /// Call when the run ends: books the steal time since [`gather`](Self::gather).
    pub fn finish(&mut self) {
        let cpu_s = self.started.elapsed().as_secs_f64() * self.nproc as f64;
        self.steal_share = (procfs::steal_s() - self.steal_at_start_s) / cpu_s;
    }

    fn lines(&self) -> Vec<String> {
        vec![
            format!("provenance commit={}", self.commit),
            format!("provenance nproc={} rustc={:?}", self.nproc, self.rustc),
            format!("provenance features={:?}", self.features),
            format!(
                "provenance seed={} seconds={}{}",
                self.seed,
                self.seconds,
                if self.quick {
                    " QUICK: smoke only, not a measurement"
                } else {
                    ""
                }
            ),
            format!("provenance durable persist mode={}", self.persist_mode),
            format!(
                "provenance host steal={:.2}% of cpu time during the run{}",
                self.steal_share * 100.0,
                if self.steal_share > DISTURBED_STEAL_SHARE {
                    " DISTURBED: the hypervisor ran other guests on these cpus; timings read slow"
                } else {
                    ""
                }
            ),
        ]
    }

    fn json(&self) -> String {
        format!(
            "{{\"commit\":{},\"nproc\":{},\"rustc\":{},\"features\":{},\"seed\":{},\"seconds\":{},\"quick\":{},\"persist_mode\":{},\"steal_share\":{}}}",
            json_str(&self.commit),
            self.nproc,
            json_str(&self.rustc),
            json_str(&self.features),
            self.seed,
            json_num(self.seconds),
            self.quick,
            json_str(&self.persist_mode),
            json_num(self.steal_share),
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits (Rust prints the shortest text that reads
/// back to the same `f64`).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v}")
}

fn json_nums(values: &[f64]) -> String {
    let items: Vec<_> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

/// `{"<name>": {"value": <v>, "unit": "<u>"}, ...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<_> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finished run, ready to print.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines, printed before the contract line.
    pub lines: Vec<String>,
    /// The result file's JSON text.
    pub file_json: String,
}

fn metric_line(m: &Metric, detail: &str) -> String {
    format!(
        "metric {:<34} {:>16} {:<6} {detail}",
        m.name,
        json_num(m.value),
        m.unit
    )
}

fn summary(q: &Quartiles, values: &[f64]) -> String {
    format!(
        "median of {} trials, q1={} q3={} spread={:.2}% trials={}",
        values.len(),
        json_num(q.q1),
        json_num(q.q3),
        q.spread() * 100.0,
        json_nums(values)
    )
}

pub fn timed_report(spec: &Spec, timed: &Timed, provenance: &Provenance) -> Report {
    let column = |f: fn(&crate::timed::TrialValues) -> f64| -> Vec<f64> {
        timed.trials.iter().map(f).collect()
    };
    let attempted: u64 = timed.trials.iter().map(|t| t.ops).sum();
    let failed: u64 = timed.trials.iter().map(|t| t.failed).sum();
    let fail_share = failed as f64 / attempted.max(1) as f64;
    let samples: usize = timed.trials.iter().map(|t| t.latency_samples).sum();

    let trial_metrics = [
        ("ops_per_s", "ops/s", column(|t| t.ops_per_s)),
        ("op_p50_us", "us", column(|t| t.op_p50_us)),
        ("cpu_us_per_op", "us", column(|t| t.cpu_us_per_op)),
    ];
    let mut lines = vec![format!(
        "workload {} (timed run, tracing off): {}",
        spec.name, spec.why
    )];
    lines.extend(provenance.lines());
    let mut metrics = Vec::new();
    let mut file = format!(
        "{{\"workload\":{},\"run\":\"timed\",\"provenance\":{},\"metrics\":{{",
        json_str(spec.name),
        provenance.json()
    );
    for (name, unit, values) in &trial_metrics {
        let q = quartiles(values);
        let m = Metric::new(name, unit, q.median);
        lines.push(metric_line(&m, &summary(&q, values)));
        write!(
            file,
            "{}:{{\"value\":{},\"unit\":{},\"q1\":{},\"q3\":{},\"trials\":{}}},",
            json_str(name),
            json_num(q.median),
            json_str(unit),
            json_num(q.q1),
            json_num(q.q3),
            json_nums(values)
        )
        .expect("string write");
        metrics.push(m);
    }
    let rss = Metric::new("peak_rss_mb", "MB", timed.peak_rss_mb);
    lines.push(metric_line(&rss, "VmHWM of this process"));
    let q = quartiles(&timed.setups_s);
    let setup = Metric::new("setup_s", "s", q.median);
    lines.push(metric_line(
        &setup,
        &summary(&q, &timed.setups_s).replace("trials", "set-ups"),
    ));
    write!(
        file,
        "\"peak_rss_mb\":{{\"value\":{},\"unit\":\"MB\"}},\"setup_s\":{{\"value\":{},\"unit\":\"s\",\"setups\":{}}},\
         \"fail_share\":{{\"value\":{},\"unit\":\"ratio\"}}}},",
        json_num(rss.value), json_num(setup.value), json_nums(&timed.setups_s), json_num(fail_share)
    )
    .expect("string write");
    metrics.extend([rss, setup]);
    lines.push(metric_line(
        &Metric::new("fail_share", "ratio", fail_share),
        &format!(
            "{failed} failed or refused of {attempted} attempted (ceiling {FAIL_SHARE_CEILING})"
        ),
    ));
    // The tail is read per trial at the percentile every trial supports.
    let tails: Vec<(f64, f64)> = timed.trials.iter().filter_map(|t| t.tail_us).collect();
    if tails.len() == timed.trials.len() {
        let p = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        let at_p: Vec<f64> = tails.iter().filter(|t| t.0 == p).map(|t| t.1).collect();
        let max_us = column(|t| t.max_us).into_iter().fold(0.0, f64::max);
        lines.push(format!(
            "tail (not gated): p{} = {:.3} us (median of {} trials), max = {max_us:.3} us, {samples} latency samples",
            p * 100.0,
            quartiles(&at_p).median,
            at_p.len()
        ));
    }
    lines.extend(timed.notes.iter().map(|n| format!("check {n}")));
    lines.extend(timed.failures.iter().map(|f| format!("FAILED {f}")));

    let correct = timed.failures.is_empty() && fail_share <= FAIL_SHARE_CEILING;
    write!(
        file,
        "\"attempted\":{attempted},\"failed\":{failed},\"latency_samples\":{samples},\"correct\":{correct},\"failures\":[{}]}}",
        timed.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",")
    )
    .expect("string write");
    Report {
        correct,
        attempted,
        failed,
        metrics,
        lines,
        file_json: file,
    }
}

pub fn traced_report(spec: &Spec, traced: &Traced, provenance: &Provenance) -> Report {
    let mut lines = vec![format!("workload {} (traced run): {}", spec.name, spec.why)];
    lines.extend(provenance.lines());
    let metrics: Vec<Metric> = traced
        .metrics
        .iter()
        .map(|&(name, unit, value)| Metric::new(name, unit, value))
        .collect();
    lines.extend(metrics.iter().map(|m| metric_line(m, "")));
    lines.extend(traced.notes.iter().map(|n| format!("ledger {n}")));
    lines.push(format!("spans written to {}", traced.span_file.display()));
    lines.extend(traced.failures.iter().map(|f| format!("FAILED {f}")));
    let file_json = format!(
        "{{\"workload\":{},\"run\":\"traced\",\"provenance\":{},\"metrics\":{},\"attempted\":{},\"failed\":{},\"correct\":{},\"failures\":[{}]}}",
        json_str(spec.name),
        provenance.json(),
        metrics_json(&metrics),
        traced.attempted,
        traced.failed,
        traced.failures.is_empty(),
        traced.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",")
    );
    Report {
        correct: traced.failures.is_empty(),
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
        lines,
        file_json,
    }
}

impl Report {
    /// Prints the report, contract line last, and writes the result file.
    pub fn emit(&self, file: &Path) {
        for line in &self.lines {
            println!("{line}");
        }
        if let Some(dir) = file.parent() {
            let written =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(file, &self.file_json));
            match written {
                Ok(()) => println!("result written to {}", file.display()),
                Err(e) => println!("result file {} not written: {e}", file.display()),
            }
        }
        println!(
            "{}",
            contract_line(self.correct, self.attempted, self.failed, &self.metrics)
        );
    }
}

/// Reads the `metric <name> <value> <unit>` lines back out of a child's
/// output.
pub fn parse_metric_lines(stdout: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split_whitespace();
            let (name, value, unit) = (words.next()?, words.next()?, words.next()?);
            Some(Metric::new(name, unit, value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_all_digits() {
        let metrics = [
            Metric::new("ops_per_s", "ops/s", 6123456.789012345),
            Metric::new("setup_s", "s", 0.8127),
        ];
        assert_eq!(
            contract_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 6123456.789012345, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(
            contract_line(false, 0, 0, &[]).contains("\"attempted\": 1,"),
            "attempted is at least 1"
        );
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("kvserve.lane_rtt_ns", "ns", 3612.25);
        let text = format!("noise\n{}\nmetric broken\n", metric_line(&m, "q1=1 q3=2"));
        assert_eq!(parse_metric_lines(&text), vec![m]);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
