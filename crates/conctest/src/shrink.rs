//! Reproducer shrinking: ddmin-style minimization of failing schedules and
//! histories.
//!
//! # Schedules
//!
//! Deterministic-mode schedules shrink with plain delta debugging
//! ([`shrink_schedule`]): try deleting chunks, keep a deletion when the
//! replay — re-executed for real against a fresh structure — still
//! diverges from the oracle, halve the chunk size when a sweep removes
//! nothing.  Sound by construction, because every candidate is re-run.
//!
//! # Histories
//!
//! Recorded histories cannot be re-run, and deleting arbitrary events from
//! a history is **unsound**: removing a successful `insert(k, v)` whose
//! value some read observed leaves that read impossible, so a perfectly
//! linearizable history can "shrink" into a violating one — a fake
//! reproducer.  [`shrink_history`] therefore only applies reduction moves
//! that provably preserve genuineness (if the shrunk history is violating,
//! so was the original):
//!
//! * **key projection** — restrict to the violating component's keys
//!   (filtering those keys out of scan results too); components are
//!   checked independently, so the component's violation survives intact;
//! * **pure-read removal** — dropping an operation that changed no state
//!   (get, scan, refused insert, missed delete, all-refused multi-put)
//!   only removes constraints: a witness for the original restricts to a
//!   witness for the candidate, so a violating candidate implies a
//!   violating original;
//! * **write-episode removal** — a successful `insert(k, v)` together with
//!   the delete that removed exactly `v`, removable only when no surviving
//!   operation observes `v`: in any witness the pair brackets a span where
//!   nothing else touched `k`, so cutting both leaves the witness valid.
//!
//! The moves iterate to a fixpoint.  The result is not guaranteed
//! 1-minimal in the ddmin sense, but it is small, and every event it keeps
//! is genuine evidence.

use std::collections::BTreeSet;

use crate::checker::{check, CheckConfig, Outcome};
use crate::fuzz::{Mismatch, ScheduledOp};
use crate::history::{History, OpKind, OpRecord, OpResult};

/// Generic ddmin over a vector: keeps deleting chunks while `fails` holds.
fn ddmin<T: Clone>(items: &[T], fails: &dyn Fn(&[T]) -> bool) -> Vec<T> {
    debug_assert!(fails(items), "ddmin needs a failing input");
    let mut current = items.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                removed_any = true;
                // Re-test from the same offset: the chunk now holds new
                // elements.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            return current;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Minimizes a failing schedule.  `run` replays a candidate schedule from a
/// fresh structure/service and reports the first divergence.
pub fn shrink_schedule(
    schedule: &[ScheduledOp],
    run: &dyn Fn(&[ScheduledOp]) -> Result<(), Mismatch>,
) -> Vec<ScheduledOp> {
    ddmin(schedule, &|candidate| run(candidate).is_err())
}

/// Whether an operation changed no state (see the module docs: pure reads
/// are removable without risking a fake violation).
fn is_pure_read(op: &OpRecord) -> bool {
    match (&op.kind, &op.result) {
        (OpKind::Get { .. }, _) | (OpKind::Range { .. }, _) | (OpKind::MGet { .. }, _) => true,
        (OpKind::Insert { .. }, OpResult::Value(prior)) => prior.is_some(),
        (OpKind::Delete { .. }, OpResult::Value(removed)) => removed.is_none(),
        (OpKind::MPut { .. }, OpResult::Values(results)) => {
            results.iter().all(|prior| prior.is_some())
        }
        _ => false,
    }
}

/// Projects a history onto `keys`: ops on other keys are dropped, batch
/// slots and scan entries on other keys are filtered out.
fn project(history: &History, keys: &BTreeSet<u64>) -> History {
    let ops = history
        .ops
        .iter()
        .filter_map(|op| {
            let mut op = op.clone();
            match (&mut op.kind, &mut op.result) {
                (OpKind::Insert { key, .. } | OpKind::Delete { key } | OpKind::Get { key }, _)
                    if !keys.contains(key) =>
                {
                    return None
                }
                (OpKind::Range { .. }, OpResult::Entries(entries)) => {
                    entries.retain(|(k, _)| keys.contains(k));
                }
                (OpKind::MGet { keys: batch }, OpResult::Values(values)) => {
                    let kept: Vec<(u64, Option<u64>)> = batch
                        .iter()
                        .zip(values.iter())
                        .filter(|(k, _)| keys.contains(k))
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    if kept.is_empty() {
                        return None;
                    }
                    *batch = kept.iter().map(|&(k, _)| k).collect();
                    *values = kept.iter().map(|&(_, v)| v).collect();
                }
                (OpKind::MPut { pairs }, OpResult::Values(values)) => {
                    let kept: Vec<((u64, u64), Option<u64>)> = pairs
                        .iter()
                        .zip(values.iter())
                        .filter(|((k, _), _)| keys.contains(k))
                        .map(|(&pair, &prior)| (pair, prior))
                        .collect();
                    if kept.is_empty() {
                        return None;
                    }
                    *pairs = kept.iter().map(|&(pair, _)| pair).collect();
                    *values = kept.iter().map(|&(_, prior)| prior).collect();
                }
                _ => {}
            }
            Some(op)
        })
        .collect();
    History { ops }
}

/// Whether any op in `ops` (other than the indices in `except`) observes
/// value `value` at `key`.
fn value_observed(ops: &[OpRecord], key: u64, value: u64, except: &[usize]) -> bool {
    ops.iter().enumerate().any(|(i, op)| {
        if except.contains(&i) {
            return false;
        }
        match (&op.kind, &op.result) {
            (&OpKind::Get { key: k }, &OpResult::Value(v)) => k == key && v == Some(value),
            (&OpKind::Insert { key: k, .. }, &OpResult::Value(prior)) => {
                k == key && prior == Some(value)
            }
            (&OpKind::Delete { key: k }, &OpResult::Value(removed)) => {
                k == key && removed == Some(value)
            }
            (OpKind::Range { .. }, OpResult::Entries(entries)) => entries.contains(&(key, value)),
            (OpKind::MGet { keys }, OpResult::Values(values)) => keys
                .iter()
                .zip(values)
                .any(|(&k, &v)| k == key && v == Some(value)),
            (OpKind::MPut { pairs }, OpResult::Values(results)) => pairs
                .iter()
                .zip(results)
                .any(|(&(k, _), &prior)| k == key && prior == Some(value)),
            _ => false,
        }
    })
}

/// Finds one removable write episode: a successful single-key insert of
/// `(k, v)` plus the delete that removed exactly `v` (if any), such that no
/// other op observes `v`.  Returns the op indices to drop.
fn find_removable_episode(ops: &[OpRecord], skip: &BTreeSet<usize>) -> Option<Vec<usize>> {
    for (i, op) in ops.iter().enumerate() {
        if skip.contains(&i) {
            continue;
        }
        let (&OpKind::Insert { key, value }, &OpResult::Value(None)) = (&op.kind, &op.result)
        else {
            continue;
        };
        let deletes: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, other)| {
                matches!(
                    (&other.kind, &other.result),
                    (&OpKind::Delete { key: k }, &OpResult::Value(Some(v)))
                        if k == key && v == value
                )
            })
            .map(|(j, _)| j)
            .collect();
        if deletes.len() > 1 {
            continue; // ambiguous pairing (duplicate values); be conservative
        }
        let mut episode = vec![i];
        episode.extend(&deletes);
        if !value_observed(ops, key, value, &episode) {
            return Some(episode);
        }
    }
    None
}

/// Minimizes a violating history using only genuineness-preserving moves
/// (see the module docs).  The returned history still fails `check`.
///
/// Re-checks `history` to find the violating component; callers that just
/// ran the checker (whose failure path is the worst case — a violating
/// component exhausts its search) should pass their report to
/// [`shrink_history_from`] instead of paying for that check twice.
pub fn shrink_history(history: &History, config: &CheckConfig) -> History {
    let Outcome::Violation(report) = check(history, config) else {
        panic!("shrink_history needs a violating input");
    };
    shrink_history_from(history, &report, config)
}

/// [`shrink_history`] with the original history's already-computed
/// violation report.
pub fn shrink_history_from(
    history: &History,
    report: &crate::checker::ViolationReport,
    config: &CheckConfig,
) -> History {
    let violating = |h: &History| matches!(check(h, config), Outcome::Violation(_));

    // Move 1: project onto the violating component's keys.
    let mut current = if report.component_keys.is_empty() {
        history.clone()
    } else {
        let keys: BTreeSet<u64> = report.component_keys.iter().copied().collect();
        let projected = project(history, &keys);
        if violating(&projected) {
            projected
        } else {
            history.clone()
        }
    };

    loop {
        let before = current.ops.len();

        // Move 2: ddmin over the pure reads (writes stay put).
        let reads: Vec<usize> = (0..current.ops.len())
            .filter(|&i| is_pure_read(&current.ops[i]))
            .collect();
        if !reads.is_empty() {
            let with_reads = |kept: &[usize]| -> History {
                let kept: BTreeSet<usize> = kept.iter().copied().collect();
                History {
                    ops: current
                        .ops
                        .iter()
                        .enumerate()
                        .filter(|(i, op)| !is_pure_read(op) || kept.contains(i))
                        .map(|(_, op)| op.clone())
                        .collect(),
                }
            };
            if violating(&with_reads(&[])) {
                current = with_reads(&[]);
            } else {
                let minimal_reads = ddmin(&reads, &|kept| violating(&with_reads(kept)));
                current = with_reads(&minimal_reads);
            }
        }

        // Move 3: remove write episodes while the violation survives.
        let mut skip: BTreeSet<usize> = BTreeSet::new();
        while let Some(episode) = find_removable_episode(&current.ops, &skip) {
            let candidate = History {
                ops: current
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !episode.contains(i))
                    .map(|(_, op)| op.clone())
                    .collect(),
            };
            if violating(&candidate) {
                current = candidate;
                skip.clear();
            } else {
                // Keep this episode; remember it so the search advances.
                skip.insert(episode[0]);
            }
        }

        if current.ops.len() == before {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_reaches_a_1_minimal_subset() {
        // Failure predicate: contains both 3 and 7.
        let items: Vec<u32> = (0..50).collect();
        let fails = |s: &[u32]| s.contains(&3) && s.contains(&7);
        let minimal = ddmin(&items, &fails);
        assert_eq!(minimal, vec![3, 7]);
    }

    #[test]
    fn shrink_schedule_drops_irrelevant_ops() {
        // A synthetic replay that fails iff the schedule inserts key 5 and
        // later deletes key 5.
        let mut schedule: Vec<ScheduledOp> = (0..20)
            .map(|i| ScheduledOp {
                thread: 0,
                op: OpKind::Get { key: i },
            })
            .collect();
        schedule.insert(
            4,
            ScheduledOp {
                thread: 0,
                op: OpKind::Insert { key: 5, value: 1 },
            },
        );
        schedule.push(ScheduledOp {
            thread: 1,
            op: OpKind::Delete { key: 5 },
        });
        let run = |s: &[ScheduledOp]| -> Result<(), Mismatch> {
            let inserted = s
                .iter()
                .position(|e| matches!(e.op, OpKind::Insert { key: 5, .. }));
            let deleted = s.iter().position(|e| e.op == OpKind::Delete { key: 5 });
            match (inserted, deleted) {
                (Some(i), Some(d)) if i < d => Err(Mismatch {
                    step: d,
                    op: s[d].clone(),
                    got: OpResult::Value(Some(1)),
                    want: OpResult::Value(None),
                }),
                _ => Ok(()),
            }
        };
        let minimal = shrink_schedule(&schedule, &run);
        assert_eq!(minimal.len(), 2, "{minimal:?}");
        assert!(matches!(minimal[0].op, OpKind::Insert { key: 5, .. }));
        assert_eq!(minimal[1].op, OpKind::Delete { key: 5 });
    }

    fn record(thread: u32, kind: OpKind, result: OpResult, invoke: u64, response: u64) -> OpRecord {
        OpRecord {
            thread,
            kind,
            result,
            invoke,
            response,
        }
    }

    #[test]
    fn shrink_history_keeps_the_contradiction_and_its_justification() {
        // Noise writes on other keys around a genuine violation: a get that
        // observes value 42 strictly before the insert of 42 was invoked.
        let mut ops = Vec::new();
        for i in 0..10u64 {
            ops.push(record(
                0,
                OpKind::Insert {
                    key: 100 + i,
                    value: i,
                },
                OpResult::Value(None),
                i * 4,
                i * 4 + 1,
            ));
        }
        ops.push(record(
            1,
            OpKind::Get { key: 5 },
            OpResult::Value(Some(42)),
            50,
            51,
        ));
        ops.push(record(
            0,
            OpKind::Insert { key: 5, value: 42 },
            OpResult::Value(None),
            52,
            53,
        ));
        let history = History::merge(vec![ops]);
        let config = CheckConfig::default();
        assert!(check(&history, &config).is_violation());
        let minimal = shrink_history(&history, &config);
        // The insert of 42 must survive: without it the early get would be
        // a *different* (fake) violation — a phantom value.  Sound moves
        // keep both sides of the contradiction.
        assert_eq!(minimal.ops.len(), 2, "{}", minimal.render());
        assert!(matches!(minimal.ops[0].kind, OpKind::Get { key: 5 }));
        assert!(matches!(
            minimal.ops[1].kind,
            OpKind::Insert { key: 5, value: 42 }
        ));
        assert!(check(&minimal, &config).is_violation());
    }

    #[test]
    fn shrink_history_never_strips_an_observed_write() {
        // A violating history where a read observes a value whose write and
        // delete bracket it; the episode must not be removed even though a
        // naive ddmin would try.
        let ops = vec![
            record(
                0,
                OpKind::Insert { key: 1, value: 7 },
                OpResult::Value(None),
                0,
                1,
            ),
            record(0, OpKind::Delete { key: 1 }, OpResult::Value(Some(7)), 2, 3),
            // Violation: observes 7 *after* the delete completed.
            record(1, OpKind::Get { key: 1 }, OpResult::Value(Some(7)), 4, 5),
        ];
        let history = History::merge(vec![ops]);
        let config = CheckConfig::default();
        assert!(check(&history, &config).is_violation());
        let minimal = shrink_history(&history, &config);
        assert_eq!(minimal.ops.len(), 3, "{}", minimal.render());
        assert!(check(&minimal, &config).is_violation());
    }

    #[test]
    fn projection_filters_batches_and_scans() {
        let keys: BTreeSet<u64> = [1, 2].into_iter().collect();
        let history = History {
            ops: vec![
                record(
                    0,
                    OpKind::MGet {
                        keys: vec![1, 9, 2],
                    },
                    OpResult::Values(vec![Some(10), None, None]),
                    0,
                    1,
                ),
                record(
                    0,
                    OpKind::Range { lo: 0, hi: 20 },
                    OpResult::Entries(vec![(1, 10), (9, 90)]),
                    2,
                    3,
                ),
                record(0, OpKind::Get { key: 9 }, OpResult::Value(Some(90)), 4, 5),
            ],
        };
        let projected = project(&history, &keys);
        assert_eq!(projected.ops.len(), 2, "the key-9 get is dropped");
        assert_eq!(projected.ops[0].kind, OpKind::MGet { keys: vec![1, 2] });
        assert_eq!(
            projected.ops[0].result,
            OpResult::Values(vec![Some(10), None])
        );
        assert_eq!(
            projected.ops[1].result,
            OpResult::Entries(vec![(1, 10)]),
            "scan entries are filtered to the kept keys"
        );
    }
}
