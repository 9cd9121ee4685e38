//! Sequential AVL tree, used as the per-base-node dictionary inside the
//! contention-adapting search tree (the CATree authors — and the paper's
//! evaluation — use AVL trees for the sequential component).

/// A node of the sequential AVL tree.
#[derive(Debug)]
struct AvlNode {
    key: u64,
    value: u64,
    height: i32,
    left: Option<Box<AvlNode>>,
    right: Option<Box<AvlNode>>,
}

impl AvlNode {
    fn new(key: u64, value: u64) -> Box<Self> {
        Box::new(Self {
            key,
            value,
            height: 1,
            left: None,
            right: None,
        })
    }
}

/// A sequential AVL-balanced ordered map from `u64` to `u64`.
#[derive(Debug, Default)]
pub struct Avl {
    root: Option<Box<AvlNode>>,
    len: usize,
}

fn height(n: &Option<Box<AvlNode>>) -> i32 {
    n.as_ref().map_or(0, |n| n.height)
}

fn update_height(n: &mut Box<AvlNode>) {
    n.height = 1 + height(&n.left).max(height(&n.right));
}

fn balance_factor(n: &AvlNode) -> i32 {
    height(&n.left) - height(&n.right)
}

fn rotate_right(mut n: Box<AvlNode>) -> Box<AvlNode> {
    let mut l = n.left.take().expect("rotate_right requires a left child");
    n.left = l.right.take();
    update_height(&mut n);
    l.right = Some(n);
    update_height(&mut l);
    l
}

fn rotate_left(mut n: Box<AvlNode>) -> Box<AvlNode> {
    let mut r = n.right.take().expect("rotate_left requires a right child");
    n.right = r.left.take();
    update_height(&mut n);
    r.left = Some(n);
    update_height(&mut r);
    r
}

fn rebalance(mut n: Box<AvlNode>) -> Box<AvlNode> {
    update_height(&mut n);
    let bf = balance_factor(&n);
    if bf > 1 {
        if balance_factor(n.left.as_ref().unwrap()) < 0 {
            n.left = Some(rotate_left(n.left.take().unwrap()));
        }
        rotate_right(n)
    } else if bf < -1 {
        if balance_factor(n.right.as_ref().unwrap()) > 0 {
            n.right = Some(rotate_right(n.right.take().unwrap()));
        }
        rotate_left(n)
    } else {
        n
    }
}

fn insert_node(node: Option<Box<AvlNode>>, key: u64, value: u64) -> (Box<AvlNode>, Option<u64>) {
    match node {
        None => (AvlNode::new(key, value), None),
        Some(mut n) => {
            if key < n.key {
                let (child, existing) = insert_node(n.left.take(), key, value);
                n.left = Some(child);
                if existing.is_some() {
                    return (n, existing);
                }
                (rebalance(n), None)
            } else if key > n.key {
                let (child, existing) = insert_node(n.right.take(), key, value);
                n.right = Some(child);
                if existing.is_some() {
                    return (n, existing);
                }
                (rebalance(n), None)
            } else {
                let existing = n.value;
                (n, Some(existing))
            }
        }
    }
}

fn pop_min(mut n: Box<AvlNode>) -> (Option<Box<AvlNode>>, Box<AvlNode>) {
    match n.left.take() {
        None => {
            let right = n.right.take();
            (right, n)
        }
        Some(left) => {
            let (new_left, min) = pop_min(left);
            n.left = new_left;
            (Some(rebalance(n)), min)
        }
    }
}

fn delete_node(node: Option<Box<AvlNode>>, key: u64) -> (Option<Box<AvlNode>>, Option<u64>) {
    match node {
        None => (None, None),
        Some(mut n) => {
            if key < n.key {
                let (child, removed) = delete_node(n.left.take(), key);
                n.left = child;
                if removed.is_none() {
                    return (Some(n), None);
                }
                (Some(rebalance(n)), removed)
            } else if key > n.key {
                let (child, removed) = delete_node(n.right.take(), key);
                n.right = child;
                if removed.is_none() {
                    return (Some(n), None);
                }
                (Some(rebalance(n)), removed)
            } else {
                let removed = Some(n.value);
                let replacement = match (n.left.take(), n.right.take()) {
                    (None, None) => None,
                    (Some(l), None) => Some(l),
                    (None, Some(r)) => Some(r),
                    (Some(l), Some(r)) => {
                        let (new_right, mut succ) = pop_min(r);
                        succ.left = Some(l);
                        succ.right = new_right;
                        Some(rebalance(succ))
                    }
                };
                (replacement, removed)
            }
        }
    }
}

impl Avl {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `key -> value` if absent; returns the existing value otherwise.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let (root, existing) = insert_node(self.root.take(), key, value);
        self.root = Some(root);
        if existing.is_none() {
            self.len += 1;
        }
        existing
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (root, removed) = delete_node(self.root.take(), key);
        self.root = root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Returns the value associated with `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            if key < n.key {
                cur = n.left.as_deref();
            } else if key > n.key {
                cur = n.right.as_deref();
            } else {
                return Some(n.value);
            }
        }
        None
    }

    /// Appends the pairs with `lo <= key <= hi` to `out` in ascending key
    /// order, visiting only the subtrees that overlap the window.
    pub fn range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        fn walk(n: &Option<Box<AvlNode>>, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
            if let Some(n) = n {
                if lo < n.key {
                    walk(&n.left, lo, hi, out);
                }
                if (lo..=hi).contains(&n.key) {
                    out.push((n.key, n.value));
                }
                if hi > n.key {
                    walk(&n.right, lo, hi, out);
                }
            }
        }
        walk(&self.root, lo, hi, out);
    }

    /// Builds an AVL tree from entries sorted by key (perfectly balanced).
    pub fn from_sorted(entries: &[(u64, u64)]) -> Self {
        fn build(entries: &[(u64, u64)]) -> Option<Box<AvlNode>> {
            if entries.is_empty() {
                return None;
            }
            let mid = entries.len() / 2;
            let (k, v) = entries[mid];
            let mut n = AvlNode::new(k, v);
            n.left = build(&entries[..mid]);
            n.right = build(&entries[mid + 1..]);
            update_height(&mut n);
            Some(n)
        }
        Self {
            root: build(entries),
            len: entries.len(),
        }
    }

    /// Splits the tree into two halves around its median key; returns
    /// `(low_half, split_key, high_half)` where every key in the high half is
    /// `>= split_key`.  Used by the CATree when a base node becomes
    /// contended.  Returns `None` if the tree has fewer than 2 keys.
    pub fn split_in_half(&self) -> Option<(Avl, u64, Avl)> {
        if self.len < 2 {
            return None;
        }
        let mut entries = Vec::with_capacity(self.len);
        self.range(0, u64::MAX, &mut entries);
        let mid = entries.len() / 2;
        let split_key = entries[mid].0;
        Some((
            Avl::from_sorted(&entries[..mid]),
            split_key,
            Avl::from_sorted(&entries[mid..]),
        ))
    }

    #[cfg(test)]
    fn check_node(n: &Option<Box<AvlNode>>, lo: Option<u64>, hi: Option<u64>) -> Result<i32, String> {
        match n {
            None => Ok(0),
            Some(n) => {
                if let Some(lo) = lo {
                    if n.key <= lo {
                        return Err(format!("key {} violates lower bound {lo}", n.key));
                    }
                }
                if let Some(hi) = hi {
                    if n.key >= hi {
                        return Err(format!("key {} violates upper bound {hi}", n.key));
                    }
                }
                let lh = Self::check_node(&n.left, lo, Some(n.key))?;
                let rh = Self::check_node(&n.right, Some(n.key), hi)?;
                if (lh - rh).abs() > 1 {
                    return Err(format!("imbalance at key {}: {lh} vs {rh}", n.key));
                }
                let h = 1 + lh.max(rh);
                if h != n.height {
                    return Err(format!("stale height at key {}", n.key));
                }
                Ok(h)
            }
        }
    }

    /// Verifies the BST ordering, AVL balance and height bookkeeping.
    #[cfg(test)]
    fn check_invariants(&self) -> Result<(), String> {
        Self::check_node(&self.root, None, None).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn entries(t: &Avl) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        t.range(0, u64::MAX, &mut out);
        out
    }

    #[test]
    fn insert_get_remove() {
        let mut t = Avl::new();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.remove(5), Some(50));
        assert_eq!(t.remove(5), None);
        assert_eq!(t.len, 0);
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let mut t = Avl::new();
        for k in 0..10_000u64 {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len, 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn random_workload_matches_btreemap() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Avl::new();
        let mut oracle = std::collections::BTreeMap::new();
        for _ in 0..30_000 {
            let k = rng.gen_range(0..2_000u64);
            if rng.gen_bool(0.55) {
                let expected = oracle.entry(k).or_insert(k);
                let got = t.insert(k, k);
                assert_eq!(got.is_none(), *expected == k && t.get(k) == Some(k) && got.is_none());
            } else {
                assert_eq!(t.remove(k), oracle.remove(&k));
            }
        }
        t.check_invariants().unwrap();
        let keys: Vec<u64> = entries(&t).iter().map(|&(k, _)| k).collect();
        let expected: Vec<u64> = oracle.keys().copied().collect();
        assert_eq!(keys, expected);
        let mut out = Vec::new();
        for (lo, hi) in [
            (0, 0),
            (10, 20),
            (500, 1_499),
            (1_999, 5_000),
            (7, 7),
            (0, u64::MAX),
        ] {
            out.clear();
            t.range(lo, hi, &mut out);
            let expected: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(out, expected, "range({lo}, {hi})");
        }
    }

    #[test]
    fn split_and_join_round_trip() {
        let mut t = Avl::new();
        for k in 0..101u64 {
            t.insert(k, k * 3);
        }
        let (low, split, high) = t.split_in_half().unwrap();
        assert!(low.len >= 2 && high.len >= 2);
        assert!(entries(&low).iter().all(|&(k, _)| k < split));
        assert!(entries(&high).iter().all(|&(k, _)| k >= split));
        low.check_invariants().unwrap();
        high.check_invariants().unwrap();
        let mut joined = entries(&low);
        joined.extend(entries(&high));
        assert_eq!(joined, entries(&t));
    }

    #[test]
    fn split_of_tiny_tree_is_none() {
        let mut t = Avl::new();
        assert!(t.split_in_half().is_none());
        t.insert(1, 1);
        assert!(t.split_in_half().is_none());
    }
}
