//! The typed knowledge store: vectors + payloads + persistence.
//!
//! This is the paper's knowledge base container: entries are appended (new
//! expert explanations arrive over time, including corrections of wrong LLM
//! outputs), searched by embedding, and persisted as JSON.

use crate::exact::ExactIndex;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit<'a, V> {
    /// Entry id.
    pub id: u32,
    /// Distance to the query (smaller = more similar).
    pub distance: f64,
    /// The stored payload.
    pub value: &'a V,
}

/// A vector-keyed store of payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnowledgeStore<V> {
    exact: ExactIndex,
    values: Vec<V>,
}

impl<V> Default for KnowledgeStore<V> {
    fn default() -> Self {
        KnowledgeStore {
            exact: ExactIndex::new(),
            values: Vec::new(),
        }
    }
}

impl<V: Clone + Serialize + DeserializeOwned> KnowledgeStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entry; returns its id (insertion order).
    ///
    /// # Panics
    /// If `vector`'s dimension differs from the stored vectors': every
    /// store built by `insert` can be searched, saved and loaded again.
    pub fn insert(&mut self, vector: Vec<f64>, value: V) -> u32 {
        let id = self.exact.add(vector);
        self.values.push(value);
        id
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The payload for an id.
    pub fn get(&self, id: u32) -> Option<&V> {
        self.values.get(id as usize)
    }

    /// Mutable payload access (expert corrections overwrite in place).
    pub fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        self.values.get_mut(id as usize)
    }

    /// The stored key vector for an id.
    pub fn vector(&self, id: u32) -> Option<&[f64]> {
        self.exact.vector(id)
    }

    /// Top-`k` most similar entries (exact, by squared Euclidean distance).
    ///
    /// # Panics
    /// If `query`'s dimension differs from the stored vectors'.
    pub fn search(&self, query: &[f64], k: usize) -> Vec<SearchHit<'_, V>> {
        self.exact
            .search(query, k)
            .into_iter()
            .map(|(id, distance)| SearchHit {
                id,
                distance,
                value: &self.values[id as usize],
            })
            .collect()
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes from a JSON string. A store whose vector count differs
    /// from its payload count, or whose vectors differ in dimension, is
    /// rejected here rather than panicking (or truncating) in `search`.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        let store: Self = serde_json::from_str(s)?;
        if store.exact.len() != store.values.len() {
            return Err(serde_json::Error(format!(
                "knowledge store has {} vectors but {} payloads",
                store.exact.len(),
                store.values.len()
            )));
        }
        if !store.exact.is_uniform() {
            return Err(serde_json::Error(
                "knowledge store vectors differ in dimension".into(),
            ));
        }
        Ok(store)
    }

    /// Saves to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Loads from a file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        name: String,
    }

    fn store() -> KnowledgeStore<Payload> {
        let mut s = KnowledgeStore::new();
        s.insert(vec![0.0, 0.0], Payload { name: "origin".into() });
        s.insert(vec![1.0, 0.0], Payload { name: "east".into() });
        s.insert(vec![0.0, 1.0], Payload { name: "north".into() });
        s
    }

    #[test]
    fn insert_and_search() {
        let s = store();
        assert_eq!(s.len(), 3);
        let hits = s.search(&[0.9, 0.0], 2);
        assert_eq!(hits[0].value.name, "east");
        assert_eq!(hits[1].value.name, "origin");
        assert!(hits[0].distance < hits[1].distance);
    }

    #[test]
    fn get_and_correct_in_place() {
        let mut s = store();
        assert_eq!(s.get(1).unwrap().name, "east");
        s.get_mut(1).unwrap().name = "corrected".into();
        assert_eq!(s.get(1).unwrap().name, "corrected");
        assert!(s.get(99).is_none());
    }

    #[test]
    fn json_roundtrip() {
        let s = store();
        let json = s.to_json().unwrap();
        let s2: KnowledgeStore<Payload> = KnowledgeStore::from_json(&json).unwrap();
        assert_eq!(s2.len(), 3);
        assert_eq!(s2.get(0).unwrap().name, "origin");
        let h1: Vec<u32> = s.search(&[1.0, 1.0], 2).iter().map(|h| h.id).collect();
        let h2: Vec<u32> = s2.search(&[1.0, 1.0], 2).iter().map(|h| h.id).collect();
        assert_eq!(h1, h2);
    }

    #[test]
    fn corrupt_json_is_rejected_before_search() {
        let load = |json: &str| KnowledgeStore::<Payload>::from_json(json);
        // The hand-written shape parses when it is consistent ...
        let ok = load(r#"{"exact":{"vectors":[[0.0,0.0],[1.0,0.0]]},"values":[{"name":"a"},{"name":"b"}]}"#)
            .unwrap();
        assert_eq!(ok.search(&[1.0, 0.0], 2)[0].value.name, "b");
        // ... but a dropped payload would index past `values` in `search`,
        let dropped = load(r#"{"exact":{"vectors":[[0.0,0.0],[1.0,0.0]]},"values":[{"name":"a"}]}"#);
        assert!(dropped.unwrap_err().to_string().contains("2 vectors but 1 payloads"));
        // ... and a 3-dim vector among 2-dim ones would be truncated by `zip`.
        let ragged = load(r#"{"exact":{"vectors":[[0.0,0.0],[1.0,0.0,5.0]]},"values":[{"name":"a"},{"name":"b"}]}"#);
        assert!(ragged.unwrap_err().to_string().contains("dimension"));
    }

    #[test]
    fn corrupt_file_loads_as_invalid_data() {
        let dir = std::env::temp_dir().join("qpe_vectordb_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        std::fs::write(&path, r#"{"exact":{"vectors":[[0.0,0.0]]},"values":[]}"#).unwrap();
        let err = KnowledgeStore::<Payload>::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_persistence() {
        let s = store();
        let dir = std::env::temp_dir().join("qpe_vectordb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        s.save(&path).unwrap();
        let s2: KnowledgeStore<Payload> = KnowledgeStore::load(&path).unwrap();
        assert_eq!(s2.len(), s.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_behaviour() {
        let s: KnowledgeStore<Payload> = KnowledgeStore::new();
        assert!(s.is_empty());
        assert!(s.search(&[1.0, 2.0], 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "vector dimension 3 differs from the index's 2")]
    fn insert_rejects_a_vector_of_another_dimension() {
        store().insert(vec![0.0, 0.0, 1.0], Payload { name: "up".into() });
    }

    #[test]
    #[should_panic(expected = "query dimension 3 differs from the index's 2")]
    fn search_rejects_a_query_of_another_dimension() {
        store().search(&[1.0, 0.0, 7.0], 2);
    }

    #[test]
    fn vector_accessor() {
        let s = store();
        assert_eq!(s.vector(1), Some(&[1.0, 0.0][..]));
    }
}
