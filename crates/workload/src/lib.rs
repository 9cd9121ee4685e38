//! Workload generation for the SetBench-style benchmarks.
//!
//! The paper's evaluation (§6) drives every data structure with:
//!
//! * a **key distribution** — either uniform over the key range or Zipfian
//!   ("the k-th most frequent key is requested with probability proportional
//!   to 1/k^s"), with s = 1 for the skewed experiments and s = 0.5 for YCSB
//!   Workload A;
//! * an **operation mix** — x% updates (split evenly between inserts and
//!   deletes) and (100 − x)% finds, for x ∈ {100, 50, 20, 10, 5};
//! * a **prefill phase** that inserts a random subset of keys until the
//!   structure reaches its steady-state size (half the key range);
//! * the **YCSB load order** (every record once, in a seeded hashed order)
//!   for Figures 16 and 18, whose YCSB Workloads A and E are themselves
//!   operation mixes over a scrambled Zipfian request distribution.
//!
//! This crate implements those generators, every one over a single flat key
//! range `[0, n)`: service traffic (conctest's fuzzer, the ledger's service
//! workloads) draws its keys the same way.  The SetBench figures draw
//! point-only mixes and YCSB-E adds scans; the batch shares serve
//! conctest's fuzzer and the layer ledger's mixed tree workload.  The
//! Zipfian sampler uses Hörmann's rejection-inversion method, which samples
//! in O(1) expected time without precomputing the harmonic normalization
//! constant, so it scales to the paper's 100M-key configurations.

#![warn(missing_docs)]

pub mod mix;
pub mod prefill;
pub mod ycsb;
pub mod zipf;

pub use mix::{MixError, Operation, OperationMix};
pub use prefill::{prefill, PrefillReport};
pub use zipf::{scatter, KeyDistribution};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_workload_generation() {
        let mut rng = StdRng::seed_from_u64(1);
        let dist = KeyDistribution::zipfian(1_000, 1.0);
        let mix = OperationMix::from_update_percent(50);
        let mut updates = 0usize;
        for _ in 0..10_000 {
            let key = dist.sample(&mut rng);
            assert!(key < 1_000);
            match mix.sample(&mut rng) {
                Operation::Insert | Operation::Delete => updates += 1,
                Operation::Find | Operation::Scan | Operation::MGet | Operation::MPut => {}
            }
        }
        // 50% +- a few percent.
        assert!((4_000..6_000).contains(&updates), "updates = {updates}");
    }
}
