//! The fixed tables: the five workloads and the metric names later issues
//! refer to.  `BENCHMARK.json` at the repo root repeats the names, units,
//! directions and bounds; `tests::benchmark_json_agrees` keeps the two in
//! step.

use workload::{KeyDistribution, OperationMix};

/// Which layer stack a workload drives in the timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Raw `ElimABTree` through `threads` `TreeHandle`s.
    Tree { threads: usize },
    /// TCP loopback, one connection keeping `depth` frames of
    /// `frame_requests` point requests in flight.
    Net { depth: usize, frame_requests: usize },
    /// In-process `DurableKvService` at a `window`-deep submit/collect
    /// pipeline.
    Durable { window: usize },
}

/// Key popularity of a workload's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    Uniform,
    /// Rank k maps to key k-1: the hottest keys share leaves (the paper's
    /// SetBench setting, the regime publishing elimination targets).
    Zipf(f64),
    /// YCSB-style: ranks scattered over the key space.
    ScrambledZipf(f64),
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub target: Target,
    pub key_range: u64,
    pub skew: Skew,
    /// Percentages: find, scan, insert, delete (`OperationMix` takes whole
    /// percentages only).
    pub mix: [u32; 4],
}

impl Spec {
    pub fn distribution(&self) -> KeyDistribution {
        match self.skew {
            Skew::Uniform => KeyDistribution::uniform(self.key_range),
            Skew::Zipf(s) => KeyDistribution::zipfian(self.key_range, s),
            Skew::ScrambledZipf(s) => KeyDistribution::zipfian_with(self.key_range, s, true),
        }
    }

    pub fn operation_mix(&self) -> OperationMix {
        let [find, scan, insert, delete] = self.mix;
        OperationMix::try_new(insert, delete, find, scan, 0, 0).expect("spec mixes sum to 100")
    }

    /// Generator threads (= op-stream rings) of the timed run.
    pub fn threads(&self) -> usize {
        match self.target {
            Target::Tree { threads } => threads,
            Target::Net { .. } | Target::Durable { .. } => 1,
        }
    }

    /// Every workload is prefilled to half its key range (inserts and
    /// deletes are equally likely, so that is the steady state).
    pub fn prefill_target(&self) -> u64 {
        self.key_range / 2
    }

    /// Framing used at the TCP depth of the traced run: the workload's own
    /// for net workloads, the pipelined default otherwise.
    pub fn net_shape(&self) -> (usize, usize) {
        match self.target {
            Target::Net {
                depth,
                frame_requests,
            } => (depth, frame_requests),
            _ => (8, 8),
        }
    }
}

/// Timed seconds per run: `run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// Shards behind every service workload, and acks per group fence of the
/// durable one.
pub const SHARDS: usize = 2;
pub const ACKS_PER_FENCE: u32 = 16;
/// The bench_durable.rs policy: cheap line flush, expensive fence.
pub const PERSIST_MODE: abpmem::PersistMode = abpmem::PersistMode::Simulated {
    flush_ns: 5,
    fence_ns: 2_000,
};
/// Keys per `Scan` op (`scan_len(k, 64)`).
pub const SCAN_LEN: u64 = 64;

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "tree-uniform-mixed",
        why: "paper Fig. 12 regime on a tree far larger than cache: node search, SMR pin/retire and rebalancing do all the work; reads, scans and writes share the tree",
        target: Target::Tree { threads: 2 },
        key_range: 2_000_000,
        skew: Skew::Uniform,
        mix: [48, 2, 25, 25],
    },
    Spec {
        name: "tree-zipf-update",
        why: "paper section 4 publishing-elimination regime: leaf contention, MCS locks and the elimination record dominate on a tree that fits in cache",
        target: Target::Tree { threads: 2 },
        key_range: 100_000,
        skew: Skew::Zipf(1.0),
        mix: [0, 0, 50, 50],
    },
    Spec {
        name: "net-pipelined-read",
        why: "codec, frame reassembly, reactor and lanes do most of the work; the tree does a few percent of it, so a tree-only change predicts no change here",
        target: Target::Net { depth: 8, frame_requests: 8 },
        key_range: 1_000_000,
        skew: Skew::ScrambledZipf(0.99),
        mix: [94, 0, 3, 3],
    },
    Spec {
        name: "net-rtt-update",
        why: "every request crosses socket, reactor, lane and owner and back with nothing to batch: the wakeup chain is the cost, so batching gains that hurt window-1 latency show",
        target: Target::Net { depth: 1, frame_requests: 1 },
        key_range: 1_000_000,
        skew: Skew::Uniform,
        mix: [0, 0, 50, 50],
    },
    Spec {
        name: "durable-group-commit",
        why: "pabtree flushes, group fences and ack buffering dominate: the paper's section 5 claim and the baseline for the shard-runtime and WAL work",
        target: Target::Durable { window: 32 },
        key_range: 200_000,
        skew: Skew::Uniform,
        mix: [0, 0, 50, 50],
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Absolute ceiling on `fail_share`.  It is printed with the end-to-end
/// metrics but lives outside `BENCHMARK.json`'s list: its baseline is
/// exactly 0, which a relative bound cannot gate; the contract's
/// `attempted`/`failed` pair carries it instead.
pub const FAIL_SHARE_CEILING: f64 = 0.001;

/// A per-layer metric: `(name, unit, better)`.  Emitted by every traced
/// run, in this order.
pub const PER_LAYER: [(&str, &str, Better); 68] = [
    ("workload.gen_ns_per_op", "ns", Better::Lower),
    ("absync.mcs_uncontended_ns", "ns", Better::Lower),
    ("abebr.pin_ns", "ns", Better::Lower),
    ("abebr.retired_per_kop", "count", Better::Lower),
    ("abebr.unreclaimed_end", "count", Better::Lower),
    ("abebr.oldest_epoch_age_end", "count", Better::Lower),
    ("abtree.find_ns", "ns", Better::Lower),
    ("abtree.insert_ns", "ns", Better::Lower),
    ("abtree.delete_ns", "ns", Better::Lower),
    ("abtree.scan_ns_per_key", "ns", Better::Lower),
    ("abtree.height", "count", Better::Lower),
    ("abtree.leaves", "count", Better::Lower),
    ("abtree.keys_per_leaf", "count", Better::Higher),
    ("abtree.bytes_per_key", "B", Better::Lower),
    ("abtree.elim_per_kop", "count", Better::Higher),
    ("abtree.elim_vs_occ_ratio", "ratio", Better::Higher),
    ("abtree.d0_ns_per_op", "ns", Better::Lower),
    ("abpmem.flushes_per_update", "count", Better::Lower),
    ("abpmem.fences_per_update", "count", Better::Lower),
    ("pabtree.update_ns", "ns", Better::Lower),
    ("pabtree.overhead_vs_volatile", "ratio", Better::Lower),
    ("kvserve.queue_push_pop_ns", "ns", Better::Lower),
    ("kvserve.lane_rtt_ns", "ns", Better::Lower),
    ("kvserve.owner_self_ns", "ns", Better::Lower),
    ("kvserve.blocking_ns_per_req", "ns", Better::Lower),
    ("kvserve.pipelined_ns_per_req", "ns", Better::Lower),
    ("kvserve.cache_hit_share", "ratio", Better::Higher),
    ("kvserve.cache_hit_ns", "ns", Better::Lower),
    ("kvserve.shed_share", "ratio", Better::Lower),
    ("kvserve.codec_req_encode_ns", "ns", Better::Lower),
    ("kvserve.codec_req_decode_ns", "ns", Better::Lower),
    ("kvserve.codec_resp_encode_ns", "ns", Better::Lower),
    ("kvserve.codec_resp_decode_ns", "ns", Better::Lower),
    ("kvserve.codec_bytes_per_req", "B", Better::Lower),
    ("kvserve.codec_ns_per_req", "ns", Better::Lower),
    ("netserve.frame_reassembly_ns", "ns", Better::Lower),
    ("netserve.client_send_ns", "ns", Better::Lower),
    ("netserve.client_recv_wait_ns", "ns", Better::Lower),
    ("netserve.hwm_pauses", "count", Better::Lower),
    ("netserve.connect_us", "us", Better::Lower),
    ("netserve.tcp_ns_per_req", "ns", Better::Lower),
    ("netserve.wire_self_ns_per_req", "ns", Better::Lower),
    ("netserve.rtt1_us", "us", Better::Lower),
    ("netserve.rtt1_self_us", "us", Better::Lower),
    ("crashkv.ns_per_ack", "ns", Better::Lower),
    ("crashkv.fences_per_ack", "ratio", Better::Lower),
    ("crashkv.boundaries_per_ack", "ratio", Better::Lower),
    ("crashkv.owner_self_ns", "ns", Better::Lower),
    ("crashkv.recover_us", "us", Better::Lower),
    ("crashkv.lost_unacked", "count", Better::Lower),
    ("crashkv.lost_acked", "count", Better::Lower),
    ("obs.scrape_us", "us", Better::Lower),
    ("obs.scrape_bytes", "B", Better::Lower),
    ("obs.stage_p50_ns.recv", "ns", Better::Lower),
    ("obs.stage_p50_ns.decode", "ns", Better::Lower),
    ("obs.stage_p50_ns.enqueue", "ns", Better::Lower),
    ("obs.stage_p50_ns.dequeue", "ns", Better::Lower),
    ("obs.stage_p50_ns.apply", "ns", Better::Lower),
    ("obs.stage_p50_ns.fence", "ns", Better::Lower),
    ("obs.stage_p50_ns.ack", "ns", Better::Lower),
    ("obs.stage_p50_ns.write", "ns", Better::Lower),
    ("proc.vol_ctx_switches_per_op", "ratio", Better::Lower),
    ("proc.invol_ctx_switches_per_op", "ratio", Better::Lower),
    ("proc.sys_cpu_share", "ratio", Better::Lower),
    ("client.op_p99_us", "us", Better::Lower),
    ("client.op_max_us", "us", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.spans", "count", Better::Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        let ok = |name: &str| {
            name.len() <= 64
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for spec in &WORKLOADS {
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
            assert_eq!(spec.mix.iter().sum::<u32>(), 100);
            assert_eq!(spec.mix[2], spec.mix[3], "half-full is the steady state");
        }
    }

    /// `BENCHMARK.json` is hand-written; every name, unit, direction and
    /// bound in it must be the one this crate measures.
    #[test]
    fn benchmark_json_agrees() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for spec in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(text.contains(&entry), "workload entry missing: {entry}");
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            );
            assert!(text.contains(&entry), "end-to-end entry missing: {entry}");
        }
        for (name, unit, better) in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.name()
            );
            assert!(text.contains(&entry), "per-layer entry missing: {entry}");
        }
        assert_eq!(text.matches("\"name\":").count(), 5 + 5 + PER_LAYER.len());
        assert!(text.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(text.contains("\"paths\": [\"bench\"]") && text.contains("\"bench/Cargo.toml\""));
    }
}
