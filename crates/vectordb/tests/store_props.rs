//! Property-based tests for the vector knowledge base: the store must
//! preserve its key invariants under arbitrary insert/search sequences,
//! and exact search must find a stored vector first.

use proptest::prelude::*;
use qpe_vectordb::{ExactIndex, KnowledgeStore};

fn vectors(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(-10.0f64..10.0, dim..=dim),
        n..=n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The store returns exactly the payload inserted under each id, and
    /// search never returns duplicate ids.
    #[test]
    fn store_integrity(vs in vectors(25, 6)) {
        let mut store: KnowledgeStore<usize> = KnowledgeStore::new();
        for (i, v) in vs.iter().enumerate() {
            let id = store.insert(v.clone(), i);
            prop_assert_eq!(id as usize, i);
        }
        for (i, v) in vs.iter().enumerate() {
            prop_assert_eq!(store.get(i as u32), Some(&i));
            prop_assert_eq!(store.vector(i as u32), Some(v.as_slice()));
        }
        let hits = store.search(&vs[0], 10);
        let mut ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len(), "duplicate ids in results");
    }

    /// Exact search self-query always returns the queried vector first
    /// (distance zero).
    #[test]
    fn exact_self_query_is_first(vs in vectors(20, 5), pick in 0usize..20) {
        let mut exact = ExactIndex::new();
        for v in &vs {
            exact.add(v.clone());
        }
        let hits = exact.search(&vs[pick], 3);
        prop_assert_eq!(hits[0].1, 0.0);
    }
}
