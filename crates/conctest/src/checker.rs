//! The linearizability checker: a Wing–Gong-style search with per-key
//! partitioning, a fast sequential pre-pass, and bounded backtracking.
//!
//! # Model
//!
//! The specification is the engine's dictionary contract
//! ([`abtree::MapHandle`]): `insert` is insert-if-absent returning the
//! pre-existing value, `delete` returns the removed value, `get` returns the
//! current value, and a range scan returns the window's contents.  A history
//! is **linearizable** iff every operation can be assigned a linearization
//! point inside its `[invoke, response]` interval such that executing the
//! operations sequentially in point order yields exactly the recorded
//! results, starting from the empty map (recorded runs always start on a
//! fresh structure).
//!
//! # Decomposition and partitioning
//!
//! Checking linearizability is NP-hard in general, but dictionary histories
//! decompose: point operations on *different keys* never constrain each
//! other, so the history splits into independent per-key sub-histories
//! (Wing & Gong's "P-compositionality"), each checked against a tiny
//! one-key state machine.  Three operation kinds span keys and are handled
//! by contract:
//!
//! * **batches** (`MGet`/`MPut`) promise no cross-key atomicity — each key's
//!   sub-operation is individually linearizable within the batch's interval
//!   — so they decompose into per-key reads/writes carrying the batch's
//!   interval (a superset of the sub-operation's true interval, hence sound:
//!   it can only admit more schedules, never reject a correct one);
//! * **non-snapshot scans** (the baselines' walks of their own key order,
//!   kvserve's cross-shard scatter-gather) promise the same per-key
//!   guarantee and decompose identically: one *observation* per universe key
//!   in the window — present with the scanned value, or absent;
//! * **snapshot scans** (the (a,b)-trees' validated scans, see
//!   [`setbench::registry::StructureDescriptor::snapshot_scans`]) promise joint atomicity
//!   and stay whole: a single multi-key read that must match the entire
//!   window state at one instant.  Such a scan welds every universe key in
//!   its window into one search component (union-find), at the cost of a
//!   bigger state space — which is why the fuzzer keeps key universes and
//!   scan windows small.
//!
//! # Search
//!
//! Each component is checked in three escalating stages:
//!
//! 1. **Sequential fast path** — if no two operations overlap, the real-time
//!    order is the only candidate linearization; replay it directly.
//! 2. **Provenance pre-pass** — every observed value must have a justifying
//!    successful insert that was invoked before the observation responded.
//!    Linear time, and catches the common failure shapes (stale and phantom
//!    reads) with a crisp message before any search runs.
//! 3. **Wing–Gong search** — depth-first over "linearize one minimal
//!    operation next" choices with undo, memoizing *failed* configurations
//!    (linearized-set + state) so equivalent interleavings are pruned, and
//!    giving up with [`Outcome::Bounded`] after a configurable number of
//!    apply attempts so an adversarial history cannot hang the harness.
//!
//! # Durable histories
//!
//! Histories recorded against crashkv's durable service contain
//! crash-aborted operations ([`OpResult::Aborted`]): the shard crashed
//! before the covering group fence, so the client never got a result.
//! Durable linearizability gives such a write exactly two legal fates —
//! linearize at the crash (inside its recorded interval) or vanish — and
//! forbids flicker (absent, then present).  The checker models this with
//! *optional* actions: an aborted write decomposes to a
//! `Action::MaybeWrite`/`Action::MaybeRemove` the search may either
//! apply or explicitly discard at its linearization slot, while an aborted
//! read decomposes to nothing.  Acked operations stay mandatory, so a
//! recovered image missing an acknowledged write is still a violation —
//! that is precisely the durability contract.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::history::{History, OpKind, OpResult};

/// Checker configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Treat `Range` records as atomic snapshots (joint multi-key reads).
    /// Set from the structure's registry descriptor
    /// (`StructureDescriptor::snapshot_scans`); every kvserve history gets
    /// `false`.
    pub snapshot_scans: bool,
    /// Upper bound on specification-apply attempts per component before the
    /// search gives up with [`Outcome::Bounded`].
    pub search_budget: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            snapshot_scans: false,
            search_budget: 5_000_000,
        }
    }
}

impl CheckConfig {
    /// Config for a structure with jointly-linearizable snapshot scans.
    pub fn with_snapshot_scans() -> Self {
        Self {
            snapshot_scans: true,
            ..Self::default()
        }
    }
}

/// Why (and where) a history failed the check.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// The keys of the component that could not be linearized.
    pub component_keys: Vec<u64>,
    /// Human-readable explanation of the deepest dead end.
    pub message: String,
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "not linearizable over keys {:?}: {}",
            self.component_keys, self.message
        )
    }
}

/// The checker's verdict on a history.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A valid linearization exists for every component.
    Linearizable,
    /// Some component admits no linearization — a real concurrency bug.
    Violation(ViolationReport),
    /// The search budget ran out before a verdict; inconclusive (treat as a
    /// pass with a warning, or re-run with a bigger
    /// [`CheckConfig::search_budget`] / smaller history).
    Bounded {
        /// Keys of the component whose search was cut off.
        component_keys: Vec<u64>,
    },
}

impl Outcome {
    /// `true` for [`Outcome::Violation`].
    pub fn is_violation(&self) -> bool {
        matches!(self, Outcome::Violation(_))
    }
}

/// A decomposed single- or multi-key specification action.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    /// A successful or refused insert of `key` (refused when `prior` is
    /// `Some`): requires the key's state to match `prior` and, when `prior`
    /// is `None`, installs `value`.
    Write {
        key: u64,
        value: u64,
        prior: Option<u64>,
    },
    /// A delete observing `removed`.
    Remove { key: u64, removed: Option<u64> },
    /// A read (get, batch slot, or non-snapshot scan slot) observing
    /// `value`.
    Read { key: u64, value: Option<u64> },
    /// An atomic snapshot of `[lo, hi]` observing exactly `entries`.
    Snap {
        lo: u64,
        hi: u64,
        entries: Vec<(u64, u64)>,
    },
    /// An **unacknowledged** insert (its shard crashed before the covering
    /// durability fence): it either linearizes at the crash — as an
    /// insert-if-absent whose return nobody saw — or vanishes.  Optional:
    /// the search may leave it unlinearized.
    MaybeWrite { key: u64, value: u64 },
    /// An unacknowledged delete: removes the key if present when (and if)
    /// it linearizes.  Optional, like [`Action::MaybeWrite`].
    MaybeRemove { key: u64 },
}

impl Action {
    fn render(&self) -> String {
        match self {
            Action::Write { key, value, prior } => format!("insert({key}, {value}) -> {prior:?}"),
            Action::Remove { key, removed } => format!("delete({key}) -> {removed:?}"),
            Action::Read { key, value } => format!("read({key}) -> {value:?}"),
            Action::Snap { lo, hi, entries } => format!("snapshot({lo}..={hi}) -> {entries:?}"),
            Action::MaybeWrite { key, value } => {
                format!("unacked insert({key}, {value})")
            }
            Action::MaybeRemove { key } => format!("unacked delete({key})"),
        }
    }

    /// Whether the action **must** linearize.  Unacked crash-window writes
    /// are optional: durable linearizability lets them vanish.
    fn mandatory(&self) -> bool {
        !matches!(self, Action::MaybeWrite { .. } | Action::MaybeRemove { .. })
    }
}

/// One decomposed operation in a component's sub-history.
#[derive(Debug, Clone)]
struct COp {
    action: Action,
    invoke: u64,
    response: u64,
    thread: u32,
}

impl COp {
    fn render(&self) -> String {
        format!(
            "t{} [{},{}] {}",
            self.thread,
            self.invoke,
            self.response,
            self.action.render()
        )
    }
}

/// Memoization key of a search configuration: the linearized-set bitmask
/// plus the flattened state it produced.
type ConfigKey = (Vec<u64>, Vec<(u64, u64)>);

/// Undo token for one applied action.
enum Undo {
    None,
    /// The action inserted `key`; undo removes it.
    Inserted(u64),
    /// The action removed `(key, value)`; undo restores it.
    Removed(u64, u64),
}

/// Applies `action` to `state`, returning an undo token if the action is
/// consistent with the specification, or `None` (leaving `state` unchanged)
/// if not.
fn try_apply(state: &mut BTreeMap<u64, u64>, action: &Action) -> Option<Undo> {
    match action {
        Action::Write { key, value, prior } => match (state.get(key).copied(), prior) {
            (None, None) => {
                state.insert(*key, *value);
                Some(Undo::Inserted(*key))
            }
            (Some(current), Some(expected)) if current == *expected => Some(Undo::None),
            _ => None,
        },
        Action::Remove { key, removed } => match (state.get(key).copied(), removed) {
            (Some(current), Some(expected)) if current == *expected => {
                state.remove(key);
                Some(Undo::Removed(*key, current))
            }
            (None, None) => Some(Undo::None),
            _ => None,
        },
        Action::Read { key, value } => (state.get(key).copied() == *value).then_some(Undo::None),
        // Unacked operations returned nothing to constrain against: when
        // chosen, they apply unconditionally (insert-if-absent / remove-if-
        // present semantics) and always succeed.
        Action::MaybeWrite { key, value } => {
            if state.contains_key(key) {
                Some(Undo::None)
            } else {
                state.insert(*key, *value);
                Some(Undo::Inserted(*key))
            }
        }
        Action::MaybeRemove { key } => match state.remove(key) {
            Some(value) => Some(Undo::Removed(*key, value)),
            None => Some(Undo::None),
        },
        Action::Snap { lo, hi, entries } => {
            let window: Vec<(u64, u64)> = state.range(*lo..=*hi).map(|(&k, &v)| (k, v)).collect();
            (window == *entries).then_some(Undo::None)
        }
    }
}

fn undo_apply(state: &mut BTreeMap<u64, u64>, undo: Undo) {
    match undo {
        Undo::None => {}
        Undo::Inserted(key) => {
            state.remove(&key);
        }
        Undo::Removed(key, value) => {
            state.insert(key, value);
        }
    }
}

/// Well-formedness of every scan result, checked up front: entries must be
/// strictly sorted by key, and every key inside the requested window.
///
/// This cannot wait for decomposition — the per-key scan treatment reads
/// entries *through* a map (deduplicating) and only compares universe keys
/// inside the window, so a scan returning out-of-window, duplicate or
/// unsorted garbage would otherwise slip past the concurrent checker
/// entirely (the snapshot treatment would reject it, but only with an
/// opaque exhausted-search message).
fn malformed_scan(history: &History) -> Option<ViolationReport> {
    for op in &history.ops {
        let (&OpKind::Range { lo, hi }, OpResult::Entries(entries)) = (&op.kind, &op.result) else {
            continue;
        };
        let out_of_window = entries.iter().find(|(k, _)| !(lo..=hi).contains(k));
        let disorder = entries.windows(2).find(|pair| pair[0].0 >= pair[1].0);
        let message = match (out_of_window, disorder) {
            (Some(&(k, _)), _) => format!("scan entry key {k} lies outside the window"),
            (None, Some(pair)) => format!(
                "scan entries out of order or duplicated at keys {} >= {}",
                pair[0].0, pair[1].0
            ),
            (None, None) => continue,
        };
        return Some(ViolationReport {
            component_keys: entries.iter().map(|&(k, _)| k).collect(),
            message: format!("malformed scan result `{}`: {message}", op.render()),
        });
    }
    None
}

/// Checks `history` against the dictionary specification (see the module
/// docs), starting from the empty map.
pub fn check(history: &History, config: &CheckConfig) -> Outcome {
    if let Some(report) = malformed_scan(history) {
        return Outcome::Violation(report);
    }
    let components = decompose(history, config);
    let mut bounded: Option<Vec<u64>> = None;
    for component in components {
        match check_component(&component, config) {
            ComponentOutcome::Ok => {}
            ComponentOutcome::Bounded => {
                bounded.get_or_insert_with(|| component.keys.clone());
            }
            ComponentOutcome::Violation(message) => {
                return Outcome::Violation(ViolationReport {
                    component_keys: component.keys,
                    message,
                });
            }
        }
    }
    match bounded {
        Some(component_keys) => Outcome::Bounded { component_keys },
        None => Outcome::Linearizable,
    }
}

/// One independent search unit: the keys it covers and its sub-history.
struct Component {
    keys: Vec<u64>,
    ops: Vec<COp>,
}

enum ComponentOutcome {
    Ok,
    Bounded,
    Violation(String),
}

/// Union-find over a dense key index.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        Self((0..n).collect())
    }
    fn find(&mut self, i: usize) -> usize {
        if self.0[i] != i {
            let root = self.find(self.0[i]);
            self.0[i] = root;
        }
        self.0[i]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.0[ra] = rb;
    }
}

/// Splits a history into independent per-component sub-histories of
/// decomposed actions (see the module docs for the decomposition rules).
fn decompose(history: &History, config: &CheckConfig) -> Vec<Component> {
    let universe: Vec<u64> = history.universe().into_iter().collect();
    let index: HashMap<u64, usize> = universe.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut uf = UnionFind::new(universe.len());

    // Pass 1: weld snapshot-scan windows into components.
    if config.snapshot_scans {
        for op in &history.ops {
            if let OpKind::Range { lo, hi } = op.kind {
                let in_window: Vec<usize> = universe
                    .iter()
                    .enumerate()
                    .filter(|&(_, &k)| (lo..=hi).contains(&k))
                    .map(|(i, _)| i)
                    .collect();
                for pair in in_window.windows(2) {
                    uf.union(pair[0], pair[1]);
                }
            }
        }
    }

    // Pass 2: decompose every record into actions and bucket them by
    // component root.
    let mut buckets: HashMap<usize, Vec<COp>> = HashMap::new();
    for op in &history.ops {
        let mut push = |uf: &mut UnionFind, key: u64, action: Action| {
            let root = uf.find(index[&key]);
            buckets.entry(root).or_default().push(COp {
                action,
                invoke: op.invoke,
                response: op.response,
                thread: op.thread,
            });
        };
        match (&op.kind, &op.result) {
            (&OpKind::Insert { key, value }, &OpResult::Value(prior)) => {
                push(&mut uf, key, Action::Write { key, value, prior });
            }
            (&OpKind::Delete { key }, &OpResult::Value(removed)) => {
                push(&mut uf, key, Action::Remove { key, removed });
            }
            (&OpKind::Get { key }, &OpResult::Value(value)) => {
                push(&mut uf, key, Action::Read { key, value });
            }
            (&OpKind::Range { lo, hi }, OpResult::Entries(entries)) => {
                if config.snapshot_scans {
                    // Restrict the window to the universe: keys never
                    // touched are absent throughout and carry no
                    // information (and are not in the component's state).
                    let in_window: Vec<u64> = universe
                        .iter()
                        .copied()
                        .filter(|k| (lo..=hi).contains(k))
                        .collect();
                    match in_window.first() {
                        Some(&k) => push(
                            &mut uf,
                            k,
                            Action::Snap {
                                lo,
                                hi,
                                entries: entries.clone(),
                            },
                        ),
                        // A window with no universe keys carries no
                        // information: its entries are provably empty here,
                        // since `malformed_scan` rejected out-of-window
                        // entries and the universe contains every entry key.
                        None => debug_assert!(
                            entries.is_empty(),
                            "scan entries outside the universe survived malformed_scan"
                        ),
                    }
                } else {
                    let scanned: BTreeMap<u64, u64> = entries.iter().copied().collect();
                    for &key in universe.iter().filter(|k| (lo..=hi).contains(k)) {
                        push(
                            &mut uf,
                            key,
                            Action::Read {
                                key,
                                value: scanned.get(&key).copied(),
                            },
                        );
                    }
                }
            }
            (OpKind::MGet { keys }, OpResult::Values(values)) => {
                for (&key, &value) in keys.iter().zip(values) {
                    push(&mut uf, key, Action::Read { key, value });
                }
            }
            (OpKind::MPut { pairs }, OpResult::Values(values)) => {
                for (&(key, value), &prior) in pairs.iter().zip(values) {
                    push(&mut uf, key, Action::Write { key, value, prior });
                }
            }
            // Crash-aborted operations (durable histories).  An unacked
            // write may have linearized at the crash or vanished — an
            // optional action; an unacked read observed nothing and
            // constrains nothing, so it decomposes to no action at all.
            (&OpKind::Insert { key, value }, &OpResult::Aborted) => {
                push(&mut uf, key, Action::MaybeWrite { key, value });
            }
            (&OpKind::Delete { key }, &OpResult::Aborted) => {
                push(&mut uf, key, Action::MaybeRemove { key });
            }
            (
                OpKind::Get { .. } | OpKind::Range { .. } | OpKind::MGet { .. },
                OpResult::Aborted,
            ) => {}
            // An aborted batch put never reports which slots executed; its
            // per-key slots are all individually optional.
            (OpKind::MPut { pairs }, OpResult::Aborted) => {
                for &(key, value) in pairs {
                    push(&mut uf, key, Action::MaybeWrite { key, value });
                }
            }
            (kind, result) => unreachable!("malformed record: {kind:?} -> {result:?}"),
        }
    }

    let mut components: Vec<Component> = buckets
        .into_values()
        .map(|mut ops| {
            ops.sort_by_key(|op| op.invoke);
            let mut keys: Vec<u64> = ops
                .iter()
                .flat_map(|op| match &op.action {
                    Action::Write { key, .. }
                    | Action::Remove { key, .. }
                    | Action::Read { key, .. }
                    | Action::MaybeWrite { key, .. }
                    | Action::MaybeRemove { key } => vec![*key],
                    Action::Snap { entries, .. } => entries.iter().map(|&(k, _)| k).collect(),
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            Component { keys, ops }
        })
        .collect();
    // Deterministic order for deterministic reports.
    components.sort_by_key(|c| c.keys.first().copied());
    components
}

fn check_component(component: &Component, config: &CheckConfig) -> ComponentOutcome {
    let ops = &component.ops;

    // Stage 1: sequential fast path.  With no overlap the real-time order
    // is the only linearization candidate — unless optional (unacked)
    // actions are present: those may also *vanish*, so a straight replay
    // would wrongly force them to take effect.
    let sequential = ops.windows(2).all(|pair| pair[0].response < pair[1].invoke)
        && ops.iter().all(|op| op.action.mandatory());
    if sequential {
        let mut state = BTreeMap::new();
        for op in ops {
            if try_apply(&mut state, &op.action).is_none() {
                return ComponentOutcome::Violation(format!(
                    "sequential replay fails at `{}` against state {:?}",
                    op.render(),
                    state
                ));
            }
        }
        return ComponentOutcome::Ok;
    }

    // Stage 2: provenance pre-pass.  Any observed value must have a
    // justifying successful insert invoked before the observation responded.
    for op in ops {
        let observed: Option<(u64, u64)> = match &op.action {
            Action::Read {
                key,
                value: Some(v),
            } => Some((*key, *v)),
            Action::Remove {
                key,
                removed: Some(v),
            } => Some((*key, *v)),
            Action::Write {
                key,
                prior: Some(v),
                ..
            } => Some((*key, *v)),
            _ => None,
        };
        let justify = |key: u64, v: u64, what: &str| -> Option<ComponentOutcome> {
            // An unacked insert is a legitimate provenance source: it may
            // have linearized at the crash even though nobody saw its ack.
            let justified = ops.iter().any(|other| {
                matches!(
                    other.action,
                    Action::Write { key: k, value, prior: None }
                    | Action::MaybeWrite { key: k, value } if k == key && value == v
                ) && other.invoke < op.response
            });
            (!justified).then(|| {
                ComponentOutcome::Violation(format!(
                    "{what} `{}` observes value {v} at key {key}, but no successful \
                     insert of that value was invoked before the observation returned",
                    op.render()
                ))
            })
        };
        if let Some((key, v)) = observed {
            if let Some(violation) = justify(key, v, "operation") {
                return violation;
            }
        }
        if let Action::Snap { entries, .. } = &op.action {
            for &(key, v) in entries {
                if let Some(violation) = justify(key, v, "snapshot slot of") {
                    return violation;
                }
            }
        }
    }

    // Stage 3: Wing-Gong search.
    wing_gong(ops, config.search_budget)
}

/// Exhaustive (budget-bounded) search for a valid linearization of `ops`
/// (sorted by invoke).
fn wing_gong(ops: &[COp], budget: u64) -> ComponentOutcome {
    let n = ops.len();
    let words = n.div_ceil(64);
    // Optional (unacked crash-window) actions may vanish: the search
    // succeeds once every *mandatory* action is linearized, with any
    // leftover optional actions implicitly discarded.
    let mandatory: Vec<bool> = ops.iter().map(|op| op.action.mandatory()).collect();
    let total_mandatory = mandatory.iter().filter(|&&m| m).count();
    if total_mandatory == 0 {
        // Every action may vanish; the empty linearization is valid.
        return ComponentOutcome::Ok;
    }
    let mut linearized = vec![false; n];
    let mut mask = vec![0u64; words];
    let mut state: BTreeMap<u64, u64> = BTreeMap::new();
    let mut done = 0usize;
    let mut spent = 0u64;
    // Configurations proven unlinearizable, keyed by (chosen-set, state).
    let mut failed: HashSet<ConfigKey> = HashSet::new();

    // A move is "handle operation `i` next": apply it (`skip == false`), or
    // — for optional operations only — discard it (`skip == true`, the
    // write vanished in the crash).  Discarding counts as handling, so an
    // optional operation still participates in the real-time candidate
    // window: a vanished write cannot reappear after later operations
    // observed its absence.
    let candidates = |linearized: &[bool]| -> Vec<(usize, bool)> {
        let min_resp = ops
            .iter()
            .enumerate()
            .filter(|&(i, _)| !linearized[i])
            .map(|(_, op)| op.response)
            .min()
            .unwrap_or(u64::MAX);
        let mut moves = Vec::new();
        for i in 0..n {
            if linearized[i] || ops[i].invoke >= min_resp {
                continue;
            }
            moves.push((i, false));
            if !mandatory[i] {
                moves.push((i, true));
            }
        }
        moves
    };

    struct Frame {
        chosen: usize,
        undo: Undo,
        cand: Vec<(usize, bool)>,
        pos: usize,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut cand = candidates(&linearized);
    let mut pos = 0usize;
    // The deepest dead end seen, for the violation message.
    let mut best_done = 0usize;
    let mut best_blocked: Vec<String> = Vec::new();
    let mut best_state: BTreeMap<u64, u64> = BTreeMap::new();

    loop {
        let mut advanced = false;
        while pos < cand.len() {
            let (i, skip) = cand[pos];
            pos += 1;
            spent += 1;
            if spent > budget {
                return ComponentOutcome::Bounded;
            }
            let applied = if skip {
                Some(Undo::None)
            } else {
                try_apply(&mut state, &ops[i].action)
            };
            if let Some(undo) = applied {
                mask[i / 64] |= 1 << (i % 64);
                let config_key = (
                    mask.clone(),
                    state.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
                );
                if failed.contains(&config_key) {
                    // Known dead configuration reached by another order.
                    mask[i / 64] &= !(1 << (i % 64));
                    undo_apply(&mut state, undo);
                    continue;
                }
                linearized[i] = true;
                if mandatory[i] {
                    done += 1;
                    if done == total_mandatory {
                        return ComponentOutcome::Ok;
                    }
                }
                stack.push(Frame {
                    chosen: i,
                    undo,
                    cand: std::mem::take(&mut cand),
                    pos,
                });
                cand = candidates(&linearized);
                pos = 0;
                advanced = true;
                break;
            }
        }
        if advanced {
            continue;
        }
        // Dead end: every candidate failed (or was a known-dead config).
        if done >= best_done {
            best_done = done;
            best_state = state.clone();
            best_blocked = cand
                .iter()
                .filter(|&&(_, skip)| !skip)
                .map(|&(i, _)| ops[i].render())
                .collect();
        }
        failed.insert((
            mask.clone(),
            state.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        ));
        let Some(frame) = stack.pop() else {
            return ComponentOutcome::Violation(format!(
                "search exhausted after linearizing {best_done}/{total_mandatory} \
                 mandatory operations; with state {best_state:?} none of the \
                 eligible operations can be linearized next: [{}]",
                best_blocked.join("; ")
            ));
        };
        let i = frame.chosen;
        mask[i / 64] &= !(1 << (i % 64));
        linearized[i] = false;
        if mandatory[i] {
            done -= 1;
        }
        undo_apply(&mut state, frame.undo);
        cand = frame.cand;
        pos = frame.pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;

    fn rec(thread: u32, kind: OpKind, result: OpResult, invoke: u64, response: u64) -> OpRecord {
        OpRecord {
            thread,
            kind,
            result,
            invoke,
            response,
        }
    }

    fn insert(t: u32, key: u64, value: u64, prior: Option<u64>, iv: u64, rs: u64) -> OpRecord {
        rec(
            t,
            OpKind::Insert { key, value },
            OpResult::Value(prior),
            iv,
            rs,
        )
    }

    fn get(t: u32, key: u64, value: Option<u64>, iv: u64, rs: u64) -> OpRecord {
        rec(t, OpKind::Get { key }, OpResult::Value(value), iv, rs)
    }

    #[test]
    fn sequential_history_passes() {
        let history = History {
            ops: vec![
                insert(0, 1, 10, None, 0, 1),
                get(0, 1, Some(10), 2, 3),
                rec(
                    0,
                    OpKind::Delete { key: 1 },
                    OpResult::Value(Some(10)),
                    4,
                    5,
                ),
                get(0, 1, None, 6, 7),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[test]
    fn sequential_stale_read_is_flagged() {
        let history = History {
            ops: vec![
                insert(0, 1, 10, None, 0, 1),
                get(0, 1, None, 2, 3), // stale: 1 is definitely present
            ],
        };
        let outcome = check(&history, &CheckConfig::default());
        assert!(outcome.is_violation(), "{outcome:?}");
    }

    #[test]
    fn overlapping_reads_may_see_either_state() {
        // insert(1) overlaps two gets; one sees the key, one does not —
        // both are fine because the insert may linearize between them.
        let history = History {
            ops: vec![
                get(1, 1, None, 0, 10),
                insert(0, 1, 10, None, 1, 9),
                get(1, 1, Some(10), 11, 12),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[test]
    fn phantom_value_is_flagged_by_provenance() {
        // A concurrent get observes value 99 that no insert ever wrote.
        let history = History {
            ops: vec![insert(0, 1, 10, None, 0, 5), get(1, 1, Some(99), 1, 4)],
        };
        let outcome = check(&history, &CheckConfig::default());
        match outcome {
            Outcome::Violation(report) => {
                assert!(report.message.contains("99"), "{}", report.message);
                assert_eq!(report.component_keys, vec![1]);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn torn_snapshot_is_flagged_only_under_snapshot_semantics() {
        // Writer (thread 0), strictly sequential: insert(1), delete(1),
        // insert(2).  Key 1 and key 2 are never present simultaneously.
        // A concurrent scan observes both — torn.
        let ops = vec![
            insert(0, 1, 100, None, 0, 1),
            rec(
                0,
                OpKind::Delete { key: 1 },
                OpResult::Value(Some(100)),
                4,
                5,
            ),
            insert(0, 2, 200, None, 6, 7),
            rec(
                1,
                OpKind::Range { lo: 0, hi: 9 },
                OpResult::Entries(vec![(1, 100), (2, 200)]),
                2,
                8,
            ),
        ];
        let history = History { ops };
        let strict = check(&history, &CheckConfig::with_snapshot_scans());
        assert!(strict.is_violation(), "snapshot semantics: {strict:?}");
        // Under per-key semantics the same history is fine: the scan's key-1
        // slot may linearize early and its key-2 slot late.
        let lax = check(&history, &CheckConfig::default());
        assert!(matches!(lax, Outcome::Linearizable), "{lax:?}");
    }

    #[test]
    fn snapshot_over_untouched_window_must_be_empty() {
        let history = History {
            ops: vec![rec(
                0,
                OpKind::Range { lo: 100, hi: 200 },
                OpResult::Entries(vec![(150, 1)]),
                0,
                1,
            )],
        };
        let outcome = check(&history, &CheckConfig::with_snapshot_scans());
        assert!(outcome.is_violation(), "{outcome:?}");
    }

    #[test]
    fn concurrent_same_key_inserts_linearize_either_way() {
        // Two overlapping inserts of the same key; the recorded results say
        // thread 1 won.  Also a racing failed delete before either insert
        // could have landed... which must therefore linearize first.
        let history = History {
            ops: vec![
                insert(0, 7, 70, Some(71), 0, 10),
                insert(1, 7, 71, None, 1, 9),
                rec(2, OpKind::Delete { key: 7 }, OpResult::Value(None), 2, 3),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[test]
    fn impossible_refusal_order_is_flagged() {
        // Thread 0's insert was refused with value 71, but the insert that
        // wrote 71 was invoked strictly after thread 0's insert returned.
        let history = History {
            ops: vec![
                insert(0, 7, 70, Some(71), 0, 1),
                insert(1, 7, 71, None, 2, 3),
            ],
        };
        assert!(check(&history, &CheckConfig::default()).is_violation());
    }

    #[test]
    fn batches_decompose_per_key() {
        let history = History {
            ops: vec![
                rec(
                    0,
                    OpKind::MPut {
                        pairs: vec![(1, 10), (2, 20)],
                    },
                    OpResult::Values(vec![None, None]),
                    0,
                    1,
                ),
                rec(
                    1,
                    OpKind::MGet {
                        keys: vec![1, 2, 3],
                    },
                    OpResult::Values(vec![Some(10), Some(20), None]),
                    2,
                    3,
                ),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
        // A batch slot observing a never-written value still fails.
        let bad = History {
            ops: vec![rec(
                1,
                OpKind::MGet { keys: vec![1] },
                OpResult::Values(vec![Some(10)]),
                0,
                1,
            )],
        };
        assert!(check(&bad, &CheckConfig::default()).is_violation());
    }

    #[test]
    fn tiny_budget_reports_bounded() {
        // Heavily overlapped ops with a 1-attempt budget cannot conclude.
        let history = History {
            ops: vec![
                insert(0, 1, 10, None, 0, 10),
                get(1, 1, Some(10), 1, 9),
                get(2, 1, None, 2, 8),
            ],
        };
        let outcome = check(
            &history,
            &CheckConfig {
                snapshot_scans: false,
                search_budget: 1,
            },
        );
        assert!(matches!(outcome, Outcome::Bounded { .. }), "{outcome:?}");
    }

    #[test]
    fn malformed_scan_results_are_flagged_under_both_semantics() {
        let cases = [
            // Out-of-window entry.
            (10u64, 20u64, vec![(9u64, 1u64)]),
            // Duplicate key.
            (0, 20, vec![(5, 1), (5, 2)]),
            // Unsorted entries.
            (0, 20, vec![(7, 1), (5, 2)]),
        ];
        for (lo, hi, entries) in cases {
            let history = History {
                ops: vec![
                    insert(0, 5, 1, None, 0, 1),
                    insert(0, 7, 1, None, 2, 3),
                    insert(0, 9, 1, None, 4, 5),
                    rec(
                        1,
                        OpKind::Range { lo, hi },
                        OpResult::Entries(entries.clone()),
                        6,
                        7,
                    ),
                ],
            };
            for config in [CheckConfig::default(), CheckConfig::with_snapshot_scans()] {
                let outcome = check(&history, &config);
                match outcome {
                    Outcome::Violation(report) => {
                        assert!(report.message.contains("malformed scan"), "{report}")
                    }
                    other => panic!(
                        "malformed entries {entries:?} not flagged (snapshot={}): {other:?}",
                        config.snapshot_scans
                    ),
                }
            }
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let outcome = check(&History::default(), &CheckConfig::with_snapshot_scans());
        assert!(matches!(outcome, Outcome::Linearizable));
    }

    fn aborted_insert(t: u32, key: u64, value: u64, iv: u64, rs: u64) -> OpRecord {
        rec(t, OpKind::Insert { key, value }, OpResult::Aborted, iv, rs)
    }

    #[test]
    fn unacked_write_may_vanish() {
        // The write crashed before its fence and a later read sees nothing:
        // legal, the write vanished.  (Strictly sequential on purpose — the
        // fast path must not force the aborted write to take effect.)
        let history = History {
            ops: vec![aborted_insert(0, 1, 10, 0, 1), get(1, 1, None, 2, 3)],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[test]
    fn unacked_write_may_survive_the_crash() {
        // The same crashed write observed by a later read: also legal — it
        // linearized at the crash.  Provenance must accept the unacked
        // insert as the value's source.
        let history = History {
            ops: vec![
                aborted_insert(0, 1, 10, 0, 1),
                get(1, 1, Some(10), 2, 3),
                get(1, 1, Some(10), 4, 5),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[test]
    fn unacked_write_cannot_flicker() {
        // Vanish-then-reappear is NOT legal: the crashed write either
        // linearized once or never.
        let history = History {
            ops: vec![
                aborted_insert(0, 1, 10, 0, 1),
                get(1, 1, None, 2, 3),
                get(1, 1, Some(10), 4, 5),
            ],
        };
        assert!(check(&history, &CheckConfig::default()).is_violation());
    }

    #[test]
    fn acked_write_lost_after_crash_is_flagged() {
        // The durability contract crashkv's lost-ack mutant violates: an
        // ACKED write (fenced, by contract) must survive recovery; a
        // strictly-later read seeing nothing is a durability violation.
        let history = History {
            ops: vec![
                insert(0, 1, 10, None, 0, 1),
                rec(
                    0,
                    OpKind::Insert { key: 2, value: 20 },
                    OpResult::Aborted,
                    2,
                    3,
                ),
                get(1, 1, None, 4, 5),
            ],
        };
        assert!(check(&history, &CheckConfig::default()).is_violation());
    }

    #[test]
    fn unacked_delete_admits_both_outcomes() {
        for observed in [Some(10), None] {
            let history = History {
                ops: vec![
                    insert(0, 1, 10, None, 0, 1),
                    rec(0, OpKind::Delete { key: 1 }, OpResult::Aborted, 2, 3),
                    get(1, 1, observed, 4, 5),
                ],
            };
            let outcome = check(&history, &CheckConfig::default());
            assert!(
                matches!(outcome, Outcome::Linearizable),
                "observed={observed:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn aborted_reads_constrain_nothing() {
        let history = History {
            ops: vec![
                rec(0, OpKind::Get { key: 1 }, OpResult::Aborted, 0, 1),
                rec(0, OpKind::Range { lo: 0, hi: 9 }, OpResult::Aborted, 2, 3),
                rec(
                    0,
                    OpKind::MGet { keys: vec![1, 2] },
                    OpResult::Aborted,
                    4,
                    5,
                ),
                get(1, 1, None, 6, 7),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[test]
    fn all_optional_component_is_trivially_linearizable() {
        let history = History {
            ops: vec![
                aborted_insert(0, 1, 10, 0, 5),
                aborted_insert(1, 1, 11, 1, 6),
                rec(2, OpKind::Delete { key: 1 }, OpResult::Aborted, 2, 7),
            ],
        };
        assert!(matches!(
            check(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }
}
