//! Result records and table-style reporting.
//!
//! `BenchResult` serializes to one flat JSON object per row.  The
//! serialization is hand-rolled (the build environment has no crates.io
//! access for `serde`); the format is plain JSON, so downstream tooling can
//! parse the stderr stream with any JSON library.

/// The result of one benchmark cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Experiment identifier (e.g. `"fig14"`, `"table1"`).
    pub experiment: String,
    /// Data structure name.
    pub structure: String,
    /// Worker thread count.
    pub threads: usize,
    /// Key range (or record count for YCSB).
    pub key_range: u64,
    /// Update percentage of the operation mix.
    pub update_percent: u32,
    /// Zipf parameter (0 = uniform).
    pub zipf: f64,
    /// Operations completed during the measured phase.
    pub total_ops: u64,
    /// Range scans among `total_ops` (0 for the paper's point-op mixes).
    pub scan_ops: u64,
    /// Measured-phase length in seconds.
    pub duration_secs: f64,
    /// Throughput in operations per microsecond (the paper's y-axis unit).
    pub throughput_mops: f64,
    /// Whether the key-sum validation passed.
    pub validated: bool,
    /// SMR backend the structure's collector ran (`"ebr"` or `"hp"`;
    /// `"none"` for structures without a reclamation collector).
    pub smr: String,
    /// Retired-but-not-yet-freed objects at the end of the measured phase —
    /// the memory-footprint cost of the reclamation scheme.
    pub unreclaimed: u64,
    /// End-of-run reclamation lag: epochs (EBR) or retirements (HP) by
    /// which the oldest unreclaimed garbage trails the collector's clock.
    pub reclaim_lag: u64,
}

/// Escapes a string for inclusion in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchResult {
    /// Renders the result as a single-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"experiment\":\"{}\",\"structure\":\"{}\",\"threads\":{},",
                "\"key_range\":{},\"update_percent\":{},\"zipf\":{},",
                "\"total_ops\":{},\"scan_ops\":{},\"duration_secs\":{},",
                "\"throughput_mops\":{},\"validated\":{},",
                "\"smr\":\"{}\",\"unreclaimed\":{},\"reclaim_lag\":{}}}"
            ),
            escape(&self.experiment),
            escape(&self.structure),
            self.threads,
            self.key_range,
            self.update_percent,
            self.zipf,
            self.total_ops,
            self.scan_ops,
            self.duration_secs,
            self.throughput_mops,
            self.validated,
            escape(&self.smr),
            self.unreclaimed,
            self.reclaim_lag
        )
    }
}

/// Prints the header of a figure-style table.
pub fn print_figure_header(experiment: &str, description: &str) {
    println!();
    println!("=== {experiment}: {description} ===");
    println!(
        "{:<16} {:>5} {:>8} {:>10} {:>8} {:>8} {:>14} {:>10} {:>11} {:>11} {:>10}",
        "structure",
        "smr",
        "threads",
        "keys",
        "upd%",
        "zipf",
        "ops/us",
        "scans",
        "unreclaimed",
        "rec-lag",
        "valid"
    );
}

/// Prints one result row in the figure-style table and returns the row as a
/// JSON string (one line, suitable for machine parsing).
pub fn print_result_row(r: &BenchResult) -> String {
    println!(
        "{:<16} {:>5} {:>8} {:>10} {:>8} {:>8} {:>14.3} {:>10} {:>11} {:>11} {:>10}",
        r.structure,
        r.smr,
        r.threads,
        r.key_range,
        r.update_percent,
        r.zipf,
        r.throughput_mops,
        r.scan_ops,
        r.unreclaimed,
        r.reclaim_lag,
        if r.validated { "ok" } else { "FAIL" }
    );
    r.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The escaping `to_json` applies to its string fields, pinned as exact
    /// output: quote, backslash, the named whitespace escapes, and a control
    /// character without a short form.
    #[test]
    fn to_json_escapes_strings_and_keeps_field_order() {
        let r = BenchResult {
            experiment: "quote\"backslash\\tab\tnewline\nbell\u{7}".into(),
            structure: "x".into(),
            threads: 1,
            key_range: 1,
            update_percent: 0,
            zipf: 0.5,
            total_ops: 2,
            scan_ops: 1,
            duration_secs: 0.25,
            throughput_mops: 4.0,
            validated: false,
            smr: "hp".into(),
            unreclaimed: 7,
            reclaim_lag: 3,
        };
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"experiment":"quote\"backslash\\tab\tnewline\nbell\u0007","structure":"x","threads":1,"#,
                r#""key_range":1,"update_percent":0,"zipf":0.5,"total_ops":2,"scan_ops":1,"#,
                r#""duration_secs":0.25,"throughput_mops":4,"validated":false,"#,
                r#""smr":"hp","unreclaimed":7,"reclaim_lag":3}"#
            )
        );
    }

    #[test]
    fn printing_does_not_panic() {
        print_figure_header("fig0", "smoke");
        let r = BenchResult {
            experiment: "fig0".into(),
            structure: "x".into(),
            threads: 1,
            key_range: 1,
            update_percent: 0,
            zipf: 0.0,
            total_ops: 0,
            scan_ops: 0,
            duration_secs: 0.1,
            throughput_mops: 0.0,
            validated: true,
            smr: "none".into(),
            unreclaimed: 0,
            reclaim_lag: 0,
        };
        let json = print_result_row(&r);
        assert!(json.contains("\"structure\":\"x\""));
    }
}
