//! Brute-force exact top-K search by squared Euclidean distance — the
//! reference semantics and the right choice at the paper's knowledge-base
//! size (20 entries, <0.1 ms).

use serde::{Deserialize, Serialize};

/// Squared Euclidean distance (monotone with Euclidean; smaller is more
/// similar). Vectors must be equal length.
fn squared_l2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "vector dimensions differ");
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
    pub fn add(&mut self, vector: Vec<f64>) -> u32 {
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

    /// Exact top-`k` nearest ids with distances, ascending by distance
    /// (ties broken by id for determinism).
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f64)> = self
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, squared_l2(query, v)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
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
