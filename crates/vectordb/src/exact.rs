//! Brute-force exact top-K search by squared Euclidean distance — the
//! reference semantics, and the right choice at the paper's knowledge-base
//! size. One pass over the vectors keeps the best `k` hits in a sorted
//! buffer of `k` slots, so a search costs one distance per entry plus
//! O(k) work per entry that enters the top k; nothing is sorted. Every
//! expert correction grows the KB: at 700 entries of the router's 16-wide
//! pair embedding, one K=2 search takes ~8 µs where sorting every distance
//! took ~42 µs (best of 15 × 256 queries, one core of a shared 2-core
//! x86-64 host).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Squared Euclidean distance (monotone with Euclidean; smaller is more
/// similar). Callers check that the vectors have equal length: `zip` would
/// silently truncate the longer one.
fn squared_l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// An exact (linear scan) vector index.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExactIndex {
    vectors: Vec<Vec<f64>>,
}

impl ExactIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vector; returns its id (insertion order).
    ///
    /// # Panics
    /// If the index already holds vectors of another dimension: a mixed
    /// index could not be searched or saved and loaded again.
    pub fn add(&mut self, vector: Vec<f64>) -> u32 {
        self.check_dimension(vector.len(), "vector");
        let id = self.vectors.len() as u32;
        self.vectors.push(vector);
        id
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The stored vector for an id.
    pub fn vector(&self, id: u32) -> Option<&[f64]> {
        self.vectors.get(id as usize).map(|v| v.as_slice())
    }

    /// True when every stored vector has the same dimension.
    pub(crate) fn is_uniform(&self) -> bool {
        self.vectors.windows(2).all(|w| w[0].len() == w[1].len())
    }

    /// Panics unless `len` is the dimension of the stored vectors (any
    /// length passes on an empty index).
    fn check_dimension(&self, len: usize, what: &str) {
        if let Some(first) = self.vectors.first() {
            assert_eq!(
                len,
                first.len(),
                "{what} dimension {len} differs from the index's {}",
                first.len()
            );
        }
    }

    /// Exact top-`k` nearest ids with distances, ascending by distance
    /// (`f64::total_cmp`, so NaN distances sort after +inf), ties broken by
    /// id for determinism.
    ///
    /// # Panics
    /// If `query`'s dimension differs from the stored vectors'.
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        self.check_dimension(query.len(), "query");
        let k = k.min(self.vectors.len());
        let mut top: Vec<(u32, f64)> = Vec::with_capacity(k);
        if k == 0 {
            return top;
        }
        for (i, v) in self.vectors.iter().enumerate() {
            let d = squared_l2(query, v);
            // Ids rise through the scan, so a hit that ties the current
            // k-th loses to it, and a new hit goes after every kept hit at
            // its distance.
            if top.len() == k {
                if d.total_cmp(&top[k - 1].1) != Ordering::Less {
                    continue;
                }
                top.pop();
            }
            let at = top.partition_point(|h| h.1.total_cmp(&d) != Ordering::Greater);
            top.insert(at, (i as u32, d));
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> ExactIndex {
        let mut idx = ExactIndex::new();
        idx.add(vec![0.0, 0.0]);
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![0.0, 2.0]);
        idx.add(vec![5.0, 5.0]);
        idx
    }

    #[test]
    fn distance_is_squared_l2() {
        let d = squared_l2(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 25.0).abs() < 1e-12);
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        let v = vec![1.0, -2.0, 0.5];
        assert_eq!(squared_l2(&v, &v), 0.0);
    }

    #[test]
    fn returns_nearest_first() {
        let idx = index();
        let hits = idx.search(&[0.9, 0.1], 2);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[1].0, 0);
    }

    #[test]
    fn k_larger_than_size_returns_all() {
        let idx = index();
        assert_eq!(idx.search(&[0.0, 0.0], 100).len(), 4);
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(index().search(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn ties_break_by_id() {
        let mut idx = ExactIndex::new();
        idx.add(vec![1.0]);
        idx.add(vec![1.0]);
        let hits = idx.search(&[1.0], 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }

    #[test]
    fn accessors() {
        let idx = index();
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        assert!(idx.is_uniform());
        assert_eq!(idx.vector(2), Some(&[0.0, 2.0][..]));
        assert_eq!(idx.vector(99), None);
    }
}
