//! The RAG knowledge base: a small vector database.
//!
//! The paper stores `<plan-pair embedding, plan details, execution result,
//! expert explanation>` tuples keyed by 16-dim embeddings and retrieves the
//! top-K most similar pairs for each new query (§IV, K=2 by default over 20
//! entries). Search is an exact linear scan by squared Euclidean distance:
//! at 20 entries it is instant, and even after expert corrections have
//! grown the KB to 695 entries one search costs ~17 µs (repo benchmark,
//! `explain_retrieval`, 2-core Xeon), so an approximate index (the paper
//! cites HNSW) would buy nothing and would make retrieval depend on graph
//! construction.
//!
//! * [`exact`] — brute-force exact top-K,
//! * [`store`] — the typed entry store gluing vectors to payloads with
//!   JSON persistence.

pub mod exact;
pub mod store;

pub use exact::ExactIndex;
pub use store::{KnowledgeStore, SearchHit};
