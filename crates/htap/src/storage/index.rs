//! B-tree secondary indexes for the row store.
//!
//! Indexes map a column value to the row ids holding it. The TP optimizer
//! uses them for equality/IN lookups and for ordered (range / top-N) access;
//! the AP engine deliberately has none — the asymmetry the paper's expert
//! explanations repeatedly hinge on ("TP has to use nested loop join with no
//! index available").

use crate::exec::JoinKey;
use qpe_sql::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A total-order wrapper so [`Value`] can key a `BTreeMap` (an index, or
/// the executors' group keys). Equality is the ordering's: `-0.0` and
/// `0.0` are two keys and `NaN` is one, where `Value`'s own `==` is SQL
/// equality.
#[derive(Debug, Clone)]
pub struct KeyVal(pub Value);

impl PartialEq for KeyVal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KeyVal {}

impl PartialOrd for KeyVal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyVal {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A B-tree index from column value to row ids (row ids ascending).
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<KeyVal, Vec<u32>>,
    entries: usize,
}

impl BTreeIndex {
    /// Builds an index over `values`, where position = row id.
    pub fn build(values: &[Value]) -> Self {
        let mut map: BTreeMap<KeyVal, Vec<u32>> = BTreeMap::new();
        for (rid, v) in values.iter().enumerate() {
            map.entry(KeyVal(v.clone())).or_default().push(rid as u32);
        }
        let entries = values.len();
        BTreeIndex { map, entries }
    }

    /// Adds one `(key, rid)` entry, keeping per-key rid lists ascending.
    /// This is the in-place write path: every row-store insert/update/delete
    /// maintains its indexes eagerly, so index reads never see stale rids.
    pub fn insert(&mut self, key: Value, rid: u32) {
        let rids = self.map.entry(KeyVal(key)).or_default();
        match rids.binary_search(&rid) {
            Ok(_) => return, // already present (idempotent)
            Err(pos) => rids.insert(pos, rid),
        }
        self.entries += 1;
    }

    /// Removes one `(key, rid)` entry; returns whether it was present.
    pub fn remove(&mut self, key: &Value, rid: u32) -> bool {
        let Some(rids) = self.map.get_mut(&KeyVal(key.clone())) else {
            return false;
        };
        let Ok(pos) = rids.binary_search(&rid) else {
            return false;
        };
        rids.remove(pos);
        if rids.is_empty() {
            self.map.remove(&KeyVal(key.clone()));
        }
        self.entries -= 1;
        true
    }

    /// Row ids with exactly this key.
    pub fn lookup(&self, key: &Value) -> &[u32] {
        self.map
            .get(&KeyVal(key.clone()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Row ids for any of `keys` (deduplicated, ascending).
    pub fn lookup_many(&self, keys: &[Value]) -> Vec<u32> {
        self.lookup_many_refs(keys.iter())
    }

    /// [`BTreeIndex::lookup_many`] over borrowed keys — the executor's index
    /// scans resolve plan terms to references, no per-execution key clones.
    pub fn lookup_many_refs<'a>(&self, keys: impl Iterator<Item = &'a Value>) -> Vec<u32> {
        let mut out: Vec<u32> = keys.flat_map(|k| self.lookup(k).iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Row ids whose key lies in `[low, high]` (either bound optional).
    pub fn range(&self, low: Option<&Value>, high: Option<&Value>) -> Vec<u32> {
        // An inverted range (e.g. BETWEEN 300 AND 1) matches nothing;
        // BTreeMap::range panics on start > end instead of returning empty.
        if let (Some(l), Some(h)) = (low, high) {
            if l.total_cmp(h) == std::cmp::Ordering::Greater {
                return Vec::new();
            }
        }
        let lo = match low {
            Some(v) => Bound::Included(KeyVal(v.clone())),
            None => Bound::Unbounded,
        };
        let hi = match high {
            Some(v) => Bound::Included(KeyVal(v.clone())),
            None => Bound::Unbounded,
        };
        self.map
            .range((lo, hi))
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Row ids whose key equals `key` as the joins compare keys
    /// ([`crate::exec::JoinKey`]): NULL and NaN match nothing, keys of two
    /// types never match, and `-0.0` matches `0.0`. The index probe of an
    /// `IndexNLJoin`, so that it answers like the nested loop and the hash
    /// joins.
    pub(crate) fn join_lookup(&self, key: &Value) -> &[u32] {
        let Some(want) = JoinKey::of(key) else {
            return &[];
        };
        // `total_cmp` keeps the two zeros apart; look the other one up too.
        // An index over one column holds one type, so at most one of the two
        // entries exists.
        let probe = match want {
            JoinKey::Float(0) => self
                .map
                .get_key_value(&KeyVal(Value::Float(0.0)))
                .or_else(|| self.map.get_key_value(&KeyVal(Value::Float(-0.0)))),
            _ => self.map.get_key_value(&KeyVal(key.clone())),
        };
        match probe {
            // `total_cmp` also equates numbers across types; the join does not.
            Some((stored, rids)) if JoinKey::of(&stored.0).as_ref() == Some(&want) => rids,
            _ => &[],
        }
    }

    /// Row ids in key order (ascending or descending), rids ascending within
    /// a key — walked lazily, so an index-ordered top-N reads only the rows
    /// it keeps.
    pub fn iter_ordered(&self, descending: bool) -> impl Iterator<Item = u32> + '_ {
        let mut keys = self.map.values();
        std::iter::from_fn(move || if descending { keys.next_back() } else { keys.next() })
            .flat_map(|rids| rids.iter().copied())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeIndex {
        BTreeIndex::build(&[
            Value::Int(5),
            Value::Int(3),
            Value::Int(5),
            Value::Int(1),
            Value::Int(4),
        ])
    }

    /// `KeyVal`'s `==` is its ordering's, not `Value`'s SQL equality: the
    /// two zeros are two keys and NaN equals itself, as in a `BTreeMap`.
    #[test]
    fn key_equality_agrees_with_key_order() {
        let k = |x: f64| KeyVal(Value::Float(x));
        for (a, b) in [(0.0, -0.0), (-0.0, 0.0), (f64::NAN, f64::NAN), (0.0, 0.0), (1.0, f64::NAN)] {
            assert_eq!(k(a) == k(b), k(a).cmp(&k(b)) == Ordering::Equal, "{a} vs {b}");
        }
        assert_ne!(k(0.0), k(-0.0));
        assert_eq!(k(f64::NAN), k(f64::NAN));
        assert!(Value::Float(0.0) == Value::Float(-0.0), "SQL equality stays on `Value`");
    }

    #[test]
    fn lookup_finds_all_duplicates() {
        let idx = sample();
        assert_eq!(idx.lookup(&Value::Int(5)), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Int(99)), &[] as &[u32]);
    }

    #[test]
    fn lookup_many_dedups_and_sorts() {
        let idx = sample();
        let rids = idx.lookup_many(&[Value::Int(5), Value::Int(1), Value::Int(5)]);
        assert_eq!(rids, vec![0, 2, 3]);
    }

    #[test]
    fn range_is_inclusive() {
        let idx = sample();
        let rids = idx.range(Some(&Value::Int(3)), Some(&Value::Int(5)));
        // keys 3,4,5 → rows 1,4,0,2 in key order
        assert_eq!(rids, vec![1, 4, 0, 2]);
    }

    #[test]
    fn inverted_range_is_empty_not_a_panic() {
        // e.g. `WHERE k BETWEEN 5 AND 3` planned as an index range: matches
        // nothing (BTreeMap::range would panic on start > end).
        let idx = sample();
        assert!(idx.range(Some(&Value::Int(5)), Some(&Value::Int(3))).is_empty());
        assert_eq!(idx.range(Some(&Value::Int(3)), Some(&Value::Int(3))), vec![1]);
    }

    #[test]
    fn open_ranges() {
        let idx = sample();
        assert_eq!(idx.range(None, Some(&Value::Int(1))), vec![3]);
        assert_eq!(idx.range(Some(&Value::Int(5)), None), vec![0, 2]);
        assert_eq!(idx.range(None, None).len(), 5);
    }

    /// The eager reference for [`BTreeIndex::iter_ordered`]: every key's
    /// rids collected into one vector, keys in order or reversed.
    fn ordered_vector(idx: &BTreeIndex, descending: bool) -> Vec<u32> {
        let mut out = Vec::new();
        let keys: Vec<&Vec<u32>> = idx.map.values().collect();
        let keys: Vec<&Vec<u32>> =
            if descending { keys.into_iter().rev().collect() } else { keys };
        for rids in keys {
            out.extend_from_slice(rids);
        }
        out
    }

    #[test]
    fn ordered_iterator_equals_the_materialized_vector() {
        let mut idx = sample();
        assert_eq!(idx.iter_ordered(false).collect::<Vec<_>>(), vec![3, 1, 4, 0, 2]);
        assert_eq!(idx.iter_ordered(true).collect::<Vec<_>>(), vec![0, 2, 4, 1, 3]);
        // Duplicate keys, an emptied key and a NULL key after writes.
        idx.insert(Value::Int(3), 9);
        idx.insert(Value::Null, 7);
        idx.insert(Value::Int(5), 6);
        assert!(idx.remove(&Value::Int(4), 4));
        for descending in [false, true] {
            let lazy: Vec<u32> = idx.iter_ordered(descending).collect();
            assert_eq!(lazy, ordered_vector(&idx, descending), "descending: {descending}");
            assert_eq!(lazy.len(), idx.len());
            // A prefix is the vector's prefix: early stops see the same rows.
            let head: Vec<u32> = idx.iter_ordered(descending).take(3).collect();
            assert_eq!(head, lazy[..3]);
        }
        assert_eq!(BTreeIndex::build(&[]).iter_ordered(true).count(), 0);
    }

    #[test]
    fn join_lookup_matches_like_the_joins() {
        let (f, i) = (Value::Float, Value::Int);
        let ints = BTreeIndex::build(&[i(1), Value::Null, i(2), Value::Null, i(1)]);
        assert_eq!(ints.join_lookup(&i(1)), &[0, 4]);
        // NULL matches nothing, though the index holds NULL keys.
        assert_eq!(ints.lookup(&Value::Null), &[1, 3]);
        assert!(ints.join_lookup(&Value::Null).is_empty());
        // No widening across types.
        assert_eq!(ints.lookup(&f(1.0)), &[0, 4]);
        assert!(ints.join_lookup(&f(1.0)).is_empty());
        assert!(ints.join_lookup(&Value::Date(1)).is_empty());
        // The two zeros are one key; NaN is none.
        let floats = BTreeIndex::build(&[f(0.0), f(f64::NAN), f(1.5)]);
        assert_eq!(floats.join_lookup(&f(-0.0)), &[0]);
        assert_eq!(floats.join_lookup(&f(0.0)), &[0]);
        assert!(floats.join_lookup(&f(f64::NAN)).is_empty());
        let neg = BTreeIndex::build(&[f(-0.0)]);
        assert_eq!(neg.join_lookup(&f(0.0)), &[0]);
        assert!(floats.join_lookup(&i(0)).is_empty());
    }

    #[test]
    fn counts() {
        let idx = sample();
        assert_eq!(idx.distinct_keys(), 4);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
        assert!(BTreeIndex::build(&[]).is_empty());
    }

    #[test]
    fn insert_and_remove_maintain_entries() {
        let mut idx = sample();
        idx.insert(Value::Int(5), 7);
        assert_eq!(idx.lookup(&Value::Int(5)), &[0, 2, 7]);
        assert_eq!(idx.len(), 6);
        // duplicate insert is idempotent
        idx.insert(Value::Int(5), 7);
        assert_eq!(idx.len(), 6);
        assert!(idx.remove(&Value::Int(5), 2));
        assert_eq!(idx.lookup(&Value::Int(5)), &[0, 7]);
        assert!(!idx.remove(&Value::Int(5), 2));
        assert!(!idx.remove(&Value::Int(99), 0));
        assert_eq!(idx.len(), 5);
        // removing the last rid of a key drops the key entirely
        assert!(idx.remove(&Value::Int(3), 1));
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn string_keys_order_lexicographically() {
        let idx = BTreeIndex::build(&[
            Value::Str("b".into()),
            Value::Str("a".into()),
            Value::Str("c".into()),
        ]);
        assert_eq!(idx.iter_ordered(false).collect::<Vec<_>>(), vec![1, 0, 2]);
    }
}
