//! Seeded inputs: per-thread op rings, the prefill key list, and the
//! single-client model that predicts every service reply.
//!
//! Everything here is a pure function of `(spec, seed)`, generated with the
//! `workload` crate's samplers before any clock starts; the program under
//! test sees only these inputs.

use std::collections::BTreeSet;

use rand::prelude::*;
use workload::Operation;

use crate::spec::Spec;

/// Ops per generator thread; streams wrap around.
pub const RING_OPS: usize = 1 << 20;
pub const RING_MASK: usize = RING_OPS - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Find,
    Scan,
    Insert,
    Delete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

impl Op {
    pub fn is_update(self) -> bool {
        matches!(self.kind, OpKind::Insert | OpKind::Delete)
    }
}

fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The op ring of generator thread `thread`.
pub fn ring(spec: &Spec, seed: u64, thread: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(thread_seed(seed, thread));
    let keys = spec.distribution();
    let mix = spec.operation_mix();
    (0..RING_OPS)
        .map(|_| {
            let kind = match mix.sample(&mut rng) {
                Operation::Insert => OpKind::Insert,
                Operation::Delete => OpKind::Delete,
                Operation::Find => OpKind::Find,
                Operation::Scan => OpKind::Scan,
                Operation::MGet | Operation::MPut => unreachable!("spec mixes have no batches"),
            };
            Op {
                kind,
                key: keys.sample(&mut rng),
            }
        })
        .collect()
}

pub fn rings(spec: &Spec, seed: u64) -> Vec<Vec<Op>> {
    (0..spec.threads()).map(|t| ring(spec, seed, t)).collect()
}

/// The keys present before the first op, in insertion order: the random
/// subset `workload::prefill` picks, independent of the structure that
/// will hold them.
pub fn prefill_keys(spec: &Spec, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(thread_seed(seed, usize::MAX - 1));
    let mut taken = vec![false; spec.key_range as usize];
    let mut keys = Vec::with_capacity(spec.prefill_target() as usize);
    workload::prefill(&mut rng, spec.key_range, spec.prefill_target(), |key, _| {
        let fresh = !std::mem::replace(&mut taken[key as usize], true);
        if fresh {
            keys.push(key);
        }
        fresh
    });
    keys
}

pub fn key_sum(keys: &[u64]) -> u128 {
    keys.iter().map(|&k| k as u128).sum()
}

/// Exact state of a service driven by one client.  One connection (or one
/// router) is FIFO per key, so every reply is predictable: a reply that
/// differs from the prediction is an incorrect output.
pub struct Model {
    present: Vec<bool>,
    /// Keys whose last write was answered `Crashed`: it linearized at the
    /// crash or vanished, so their state is unknown until the next ack.
    uncertain: BTreeSet<u64>,
    pub mismatches: u64,
}

impl Model {
    pub fn new(spec: &Spec, prefill: &[u64]) -> Self {
        let mut present = vec![false; spec.key_range as usize];
        for &key in prefill {
            present[key as usize] = true;
        }
        Self {
            present,
            uncertain: BTreeSet::new(),
            mismatches: 0,
        }
    }

    /// Books the acknowledged `reply` to `op` (values equal keys throughout
    /// the benchmark).  Scans reach services as point reads.
    pub fn ack(&mut self, op: Op, reply: Option<u64>) {
        let slot = &mut self.present[op.key as usize];
        let known = self.uncertain.is_empty() || !self.uncertain.remove(&op.key);
        if known && reply != slot.then_some(op.key) {
            self.mismatches += 1;
        }
        match op.kind {
            OpKind::Find | OpKind::Scan => *slot = reply.is_some(),
            OpKind::Insert => *slot = true,
            OpKind::Delete => *slot = false,
        }
    }

    /// Books an update answered `Crashed`.
    pub fn unacked(&mut self, op: Op) {
        if op.is_update() {
            self.uncertain.insert(op.key);
        }
    }

    pub fn uncertain(&self) -> usize {
        self.uncertain.len()
    }

    /// Whether a post-recovery read of `key` is consistent with every
    /// acknowledged write.
    pub fn consistent(&self, key: u64, read: Option<u64>) -> bool {
        self.uncertain.contains(&key) || read == self.present[key as usize].then_some(key)
    }

    pub fn key_sum(&self) -> u128 {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(k, _)| k as u128)
            .sum()
    }

    pub fn keys(&self) -> u64 {
        self.present.iter().filter(|&&p| p).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn bytes(ring: &[Op]) -> Vec<u8> {
        ring.iter()
            .flat_map(|op| {
                let mut b = op.key.to_le_bytes().to_vec();
                b.push(op.kind as u8);
                b
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for spec in &WORKLOADS {
            let a = ring(spec, 11, 0);
            assert_eq!(bytes(&a), bytes(&ring(spec, 11, 0)), "{}", spec.name);
            assert_ne!(bytes(&a), bytes(&ring(spec, 12, 0)), "{}", spec.name);
            assert_ne!(bytes(&a), bytes(&ring(spec, 11, 1)), "{}", spec.name);
            assert_eq!(prefill_keys(spec, 11), prefill_keys(spec, 11));
        }
    }

    #[test]
    fn prefill_is_half_the_range_without_repeats() {
        let spec = &WORKLOADS[4];
        let keys = prefill_keys(spec, 3);
        assert_eq!(keys.len() as u64, spec.key_range / 2);
        let distinct: BTreeSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
        assert!(keys.iter().all(|&k| k < spec.key_range));
    }

    #[test]
    fn model_predicts_insert_if_absent_semantics() {
        let spec = &WORKLOADS[4];
        let mut model = Model::new(spec, &[5]);
        let op = |kind, key| Op { kind, key };
        model.ack(op(OpKind::Insert, 5), Some(5)); // already there
        model.ack(op(OpKind::Insert, 6), None);
        model.ack(op(OpKind::Find, 6), Some(6));
        model.ack(op(OpKind::Delete, 5), Some(5));
        model.ack(op(OpKind::Delete, 5), None);
        assert_eq!(model.mismatches, 0);
        assert_eq!((model.keys(), model.key_sum()), (1, 6));
        model.ack(op(OpKind::Find, 6), None); // wrong output
        assert_eq!(model.mismatches, 1);
    }

    #[test]
    fn crashed_write_is_uncertain_until_the_next_ack() {
        let spec = &WORKLOADS[4];
        let mut model = Model::new(spec, &[]);
        let put = Op {
            kind: OpKind::Insert,
            key: 9,
        };
        model.unacked(put);
        assert!(model.consistent(9, None) && model.consistent(9, Some(9)));
        model.ack(put, Some(9)); // the crashed put had survived: no mismatch
        assert_eq!((model.mismatches, model.uncertain()), (0, 0));
        assert!(model.consistent(9, Some(9)) && !model.consistent(9, None));
    }
}
