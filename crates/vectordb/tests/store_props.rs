//! Property-based tests for the vector knowledge base: the store must
//! preserve its key invariants under arbitrary insert/search sequences,
//! exact search must find a stored vector first and return exactly what a
//! full sort would, and every store built by `insert` must load again.

use proptest::prelude::*;
use qpe_vectordb::{ExactIndex, KnowledgeStore};
use std::cmp::Ordering;

fn vectors(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(-10.0f64..10.0, dim..=dim),
        n..=n,
    )
}

/// Coordinates that collide often (small integers, so duplicate vectors and
/// tied distances are common) beside arbitrary floats, ±inf and NaN.
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1i64..2).prop_map(|x| x as f64),
        (-1i64..2).prop_map(|x| x as f64),
        (-1i64..2).prop_map(|x| x as f64),
        -10.0f64..10.0,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

/// A dimension of 1..=3, a store size `n` of 0..=12 and a `k` from
/// {0, 1, 2, n, n + 3}.
fn search_case() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..4, 0usize..=12, 0usize..5).prop_map(|(dim, n, pick)| (dim, n, [0, 1, 2, n, n + 3][pick]))
}

/// The search's contract spelled out as a full sort of every distance:
/// ascending by `total_cmp`, ties by id, truncated to `k`.
fn full_sort_reference(vs: &[Vec<f64>], query: &[f64], k: usize) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = vs
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u32, v.iter().zip(query).map(|(x, y)| (x - y) * (x - y)).sum()))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn same_hits(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.total_cmp(&y.1) == Ordering::Equal)
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// One-pass selection returns exactly the full sort's first `k`: same
    /// ids in the same order, distances equal bit for bit (NaN included).
    #[test]
    fn search_equals_full_sort(
        (dim, n, k) in search_case(),
        coords in prop::collection::vec(coordinate(), 52..=52),
    ) {
        // 52 coordinates: up to 12 vectors of dimension 3 plus the query.
        let mut chunks = coords.chunks(dim);
        let query = chunks.next().unwrap().to_vec();
        let vs: Vec<Vec<f64>> = chunks.take(n).map(<[f64]>::to_vec).collect();
        let mut exact = ExactIndex::new();
        for v in &vs {
            exact.add(v.clone());
        }
        let hits = exact.search(&query, k);
        let expected = full_sort_reference(&vs, &query, k);
        prop_assert!(same_hits(&hits, &expected), "{:?} != {:?} (k = {})", hits, expected, k);
    }

    /// Any store built through `insert` saves and loads back to the same
    /// vectors, payloads and search results.
    #[test]
    fn insert_built_store_round_trips_through_a_file(
        (dim, n, _k) in search_case(),
        coords in prop::collection::vec(-10.0f64..10.0, 52..=52),
    ) {
        let mut store: KnowledgeStore<String> = KnowledgeStore::new();
        for (i, v) in coords.chunks(dim).skip(1).take(n).enumerate() {
            store.insert(v.to_vec(), format!("entry {i}"));
        }
        let dir = std::env::temp_dir().join(format!("qpe_vectordb_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        store.save(&path).unwrap();
        let loaded: KnowledgeStore<String> = KnowledgeStore::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(loaded.len(), store.len());
        for id in 0..store.len() as u32 {
            prop_assert_eq!(loaded.get(id), store.get(id));
            prop_assert_eq!(loaded.vector(id), store.vector(id));
        }
        let query = &coords[..dim];
        let ids = |s: &KnowledgeStore<String>| -> Vec<u32> {
            s.search(query, 3).iter().map(|h| h.id).collect()
        };
        prop_assert_eq!(ids(&loaded), ids(&store));
    }
}
