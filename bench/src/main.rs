//! The layer ledger: the repo's benchmark driver.
//!
//! ```text
//! ledger [--seed N] [--seconds S | --quick] [--trace] [--out DIR]
//!     every workload, each in a fresh child process; --trace adds the traced run
//! ledger --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process (what BENCHMARK.json's command runs)
//! ledger repeat [--seed N] [--seconds S | --quick]
//!     the full benchmark twice; fails if two medians differ beyond a bound
//! ```
//!
//! See `bench/README.md` for the workloads, the metrics and how to read the
//! depth ledger.

mod affinity;
mod drive;
mod ledger;
mod procfs;
mod report;
mod span;
mod spec;
mod stats;
mod stream;
mod timed;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Metric, Provenance};
use spec::{Better, Spec, Target, END_TO_END, FAIL_SHARE_CEILING, WORKLOADS};

/// Ten trials of one second.
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;
/// `--quick`: ten trials of a quarter second.  Smoke only.
const QUICK_SECONDS: f64 = 2.5;
const DEFAULT_SEED: u64 = 11;

struct Options {
    repeat: bool,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        repeat: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace: false,
        out: PathBuf::from("bench/out"),
    };
    let mut explicit_seconds = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "repeat" => options.repeat = true,
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                options.workload = Some(spec::workload(&name).ok_or(format!(
                    "unknown workload {name:?}; the workloads are {names:?}"
                ))?);
            }
            "--seed" => {
                options.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
                explicit_seconds = true;
            }
            "--quick" => options.quick = true,
            "--trace" => {
                // `--trace` alone turns tracing on; the driver passes 0 or 1.
                options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => options.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.quick && !explicit_seconds {
        options.seconds = QUICK_SECONDS;
    }
    Ok(options)
}

fn run_dir(options: &Options) -> PathBuf {
    options.out.join(format!("seed-{}", options.seed))
}

/// One workload, in this process.
fn run_one(spec: &'static Spec, options: &Options) -> bool {
    // Gathered first: it counts the cpus this process was given.
    let mut provenance = Provenance::gather(options.seed, options.seconds, options.quick);
    // Before anything is spawned: service threads inherit this placement,
    // tree workers re-pin themselves.
    affinity::pin_to_core(0);
    let dir = run_dir(options);
    let (report, kind) = if options.trace {
        let traced = ledger::run_traced(spec, options.seed, options.seconds, &dir);
        provenance.finish();
        (report::traced_report(spec, &traced, &provenance), "traced")
    } else {
        let timed = timed::run_timed(spec, options.seed, options.seconds);
        provenance.finish();
        (report::timed_report(spec, &timed, &provenance), "timed")
    };
    report.emit(&dir.join(format!("{}-{kind}.json", spec.name)));
    report.correct
}

/// Runs `spec` in a fresh child process and returns its metrics, or `None`
/// if it exited non-zero.
fn run_child(spec: &Spec, options: &Options, trace: bool) -> Option<Vec<Metric>> {
    let exe = std::env::current_exe().expect("own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out);
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn a child ledger");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("  {line}");
    }
    output
        .status
        .success()
        .then(|| report::parse_metric_lines(&stdout))
}

/// Per workload: the timed metrics, and the traced ones when asked for.
type RunSet = Vec<(&'static Spec, Vec<Metric>, Vec<Metric>)>;

fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Every workload, each in a fresh child.  `None` if any check failed.
fn run_all(options: &Options) -> Option<RunSet> {
    let mut set = RunSet::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        println!("== {} ==", spec.name);
        let timed = run_child(spec, options, false);
        let traced = if options.trace {
            run_child(spec, options, true)
        } else {
            Some(Vec::new())
        };
        ok &= timed.is_some() && traced.is_some();
        set.push((spec, timed.unwrap_or_default(), traced.unwrap_or_default()));
    }

    println!(
        "== end-to-end metrics{} ==",
        if options.quick {
            " (QUICK: smoke only)"
        } else {
            ""
        }
    );
    print!("{:<16} {:<6}", "metric", "unit");
    WORKLOADS.iter().for_each(|w| print!(" {:>21}", w.name));
    println!();
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain([("fail_share", "ratio")]);
    for (name, unit) in names {
        print!("{name:<16} {unit:<6}");
        for (_, timed, _) in &set {
            match find(timed, name) {
                Some(v) => print!(" {v:>21.4}"),
                None => print!(" {:>21}", "-"),
            }
        }
        println!();
    }
    if options.trace {
        println!("== depth ledger against the timed run (ns per op; must agree within 10%) ==");
        for (spec, timed, traced) in &set {
            let (threads, native) = match spec.target {
                Target::Tree { threads } => (threads as f64, "abtree.d0_ns_per_op"),
                Target::Net { .. } => (1.0, "netserve.tcp_ns_per_req"),
                Target::Durable { .. } => (1.0, "crashkv.ns_per_ack"),
            };
            let (Some(ops_per_s), Some(ledger_ns)) =
                (find(timed, "ops_per_s"), find(traced, native))
            else {
                continue;
            };
            let timed_ns = threads * 1e9 / ops_per_s;
            let off = (ledger_ns / timed_ns - 1.0) * 100.0;
            let verdict = if off.abs() <= 10.0 { "ok" } else { "APART" };
            println!(
                "{:<22} ledger {ledger_ns:>10.1}  timed {timed_ns:>10.1}  {off:>+6.1}%  {verdict}",
                spec.name
            );
        }
    }
    ok.then_some(set)
}

/// By how much of `first` the metric got worse in `second` (negative:
/// better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// Two full sets of runs of the same code must agree within the
/// benchmark's own bounds.
fn repeat(options: &Options) -> bool {
    println!("==== repeat: first set ====");
    let first = run_all(options);
    println!("==== repeat: second set ====");
    let second = run_all(options);
    let (Some(first), Some(second)) = (first, second) else {
        println!("repeat: a correctness check failed");
        return false;
    };
    println!("==== repeat: second set against the first ====");
    let mut ok = true;
    for ((spec, a, _), (_, b, _)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (find(a, m.name), find(b, m.name)) else {
                println!("{:<22} {:<14} missing", spec.name, m.name);
                ok = false;
                continue;
            };
            let diff = worsening(m.better, x, y);
            let within = diff.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<22} {:<14} first {x:>16.4} second {y:>16.4} {:>+7.2}% of bound {:.0}%  {}",
                spec.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "DIFFERS" }
            );
        }
        for run in [a, b] {
            if find(run, "fail_share").is_some_and(|share| share > FAIL_SHARE_CEILING) {
                println!("{:<22} fail_share above {FAIL_SHARE_CEILING}", spec.name);
                ok = false;
            }
        }
    }
    if !ok {
        println!("repeat: lengthen the trials (--seconds) rather than widening a bound");
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ledger: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = if options.repeat {
        repeat(&options)
    } else if let Some(spec) = options.workload {
        run_one(spec, &options)
    } else {
        run_all(&options).is_some()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_args(&args(&[
            "--workload",
            "net-rtt-update",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "net-rtt-update");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick, o.repeat),
            (7, 15.0, true, false, false)
        );
        let o = parse_args(&args(&["--trace", "0", "--seed", "3"])).unwrap();
        assert_eq!((o.trace, o.seed, o.seconds), (false, 3, DEFAULT_SECONDS));
    }

    #[test]
    fn bare_trace_quick_and_repeat() {
        let o = parse_args(&args(&["repeat", "--quick", "--trace"])).unwrap();
        assert_eq!(
            (o.repeat, o.quick, o.trace, o.seconds, o.seed),
            (true, true, true, QUICK_SECONDS, 11)
        );
        let o = parse_args(&args(&["--quick", "--seconds", "5"])).unwrap();
        assert_eq!(o.seconds, 5.0, "an explicit length wins");
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }
}
