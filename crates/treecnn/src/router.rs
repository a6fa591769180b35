//! The smart-router facade: predict the faster engine, emit pair embeddings.

use crate::features::featurize;
use crate::network::RouterNetwork;
use crate::train::{PlanPairExample, TrainReport, Trainer, TrainerConfig};
use qpe_htap::engine::EngineKind;
use qpe_htap::plan::PlanNode;
use serde::{Deserialize, Serialize};

/// Width of the plan-pair embedding — the paper's 16-dim retrieval key.
pub const PAIR_EMBEDDING_DIM: usize = 16;

/// A plan-pair embedding.
pub type PairEmbedding = Vec<f64>;

/// Router construction options.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct RouterConfig {
    /// Trainer hyperparameters.
    pub trainer: TrainerConfig,
}

/// The trained smart router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmartRouter {
    network: RouterNetwork,
}

impl SmartRouter {
    /// Trains a router on labelled plan pairs.
    pub fn train(examples: &[PlanPairExample], config: TrainerConfig) -> (Self, TrainReport) {
        let (network, report) = Trainer::new(config).train(examples);
        (SmartRouter { network }, report)
    }

    /// Predicts the faster engine with its confidence.
    pub fn route(&self, tp_plan: &PlanNode, ap_plan: &PlanNode) -> (EngineKind, f64) {
        let probs = self
            .network
            .predict(&featurize(tp_plan), &featurize(ap_plan));
        if probs[1] > probs[0] {
            (EngineKind::Ap, probs[1])
        } else {
            (EngineKind::Tp, probs[0])
        }
    }

    /// The 16-dim plan-pair embedding used as the knowledge-base key.
    pub fn embed_pair(&self, tp_plan: &PlanNode, ap_plan: &PlanNode) -> PairEmbedding {
        self.network
            .pair_embedding(&featurize(tp_plan), &featurize(ap_plan))
    }

    /// The underlying network (for size checks and persistence).
    pub fn network(&self) -> &RouterNetwork {
        &self.network
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("router serializes")
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_htap::plan::{NodeType, PlanOp};

    fn plan(cost: f64, t: NodeType) -> PlanNode {
        PlanNode::new(t, PlanOp::Hash)
            .with_estimates(cost, 100.0)
            .with_child(
                PlanNode::new(
                    NodeType::TableScan,
                    PlanOp::TableScan { table_slot: 0, columns: vec![0], pushed: None },
                )
                .with_relation("orders")
                .with_estimates(cost / 2.0, 1000.0),
            )
    }

    fn quick_router() -> SmartRouter {
        let examples: Vec<PlanPairExample> = (0..8)
            .map(|i| {
                PlanPairExample::from_plans(
                    &plan(10.0 * (i + 1) as f64, NodeType::NestedLoopJoin),
                    &plan(5.0, NodeType::HashJoin),
                    i % 2 == 0,
                )
            })
            .collect();
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: 4,
            learning_rate: 1e-3,
            seed: 1,
        };
        SmartRouter::train(&examples, cfg).0
    }

    #[test]
    fn route_returns_confidence() {
        let r = quick_router();
        let (engine, conf) = r.route(
            &plan(10.0, NodeType::NestedLoopJoin),
            &plan(5.0, NodeType::HashJoin),
        );
        assert!((0.5..=1.0).contains(&conf));
        assert!(matches!(engine, EngineKind::Tp | EngineKind::Ap));
    }

    #[test]
    fn pair_embedding_has_paper_dimensions() {
        let r = quick_router();
        let e = r.embed_pair(
            &plan(10.0, NodeType::NestedLoopJoin),
            &plan(5.0, NodeType::HashJoin),
        );
        assert_eq!(e.len(), PAIR_EMBEDDING_DIM);
    }

    #[test]
    fn json_roundtrip_preserves_behavior() {
        let r = quick_router();
        let r2 = SmartRouter::from_json(&r.to_json()).unwrap();
        let tp = plan(10.0, NodeType::NestedLoopJoin);
        let ap = plan(5.0, NodeType::HashJoin);
        // JSON float formatting is shortest-roundtrip; embeddings must agree
        // to well below any retrieval-relevant tolerance.
        let e1 = r.embed_pair(&tp, &ap);
        let e2 = r2.embed_pair(&tp, &ap);
        for (a, b) in e1.iter().zip(e2.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
