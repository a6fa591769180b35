//! Shared helpers for the experiment binaries.
//!
//! Every table and figure of the paper has a dedicated binary under
//! `src/bin/` (see DESIGN.md's experiment index); this library holds the
//! common setup so all experiments run against identical configurations.

use qpe_core::explainer::{Explainer, PipelineConfig};
use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
use qpe_htap::tpch::TpchConfig;
use qpe_llm::grader::GradeStats;
use qpe_treecnn::train::TrainerConfig;

/// Scale factor used by the headline experiments. Laptop-sized but big
/// enough for engine asymmetries (join explosions, sort volumes) to bite.
pub const EXPERIMENT_SCALE: f64 = 0.01;
/// Router-training workload size.
pub const TRAIN_QUERIES: usize = 120;
/// Knowledge-base size (paper: 20 representative queries).
pub const KB_SIZE: usize = 20;
/// Test-set size (paper: 200 synthetic queries).
pub const TEST_QUERIES: usize = 200;
/// Seed for the held-out test workload (distinct from training).
pub const TEST_SEED: u64 = 31415;

/// The standard experiment pipeline configuration.
pub fn experiment_config() -> PipelineConfig {
    PipelineConfig {
        tpch: TpchConfig::with_scale(EXPERIMENT_SCALE),
        workload: WorkloadConfig::default(),
        n_train: TRAIN_QUERIES,
        kb_size: KB_SIZE,
        top_k: 2,
        trainer: TrainerConfig::default(),
        prompt: Default::default(),
    }
}

/// Builds the standard experiment explainer (one-time cost: data generation,
/// 120 dual-engine runs, router training, KB annotation).
pub fn experiment_explainer() -> Explainer {
    Explainer::build(experiment_config()).expect("experiment pipeline builds")
}

/// The held-out test workload.
pub fn test_set(n: usize) -> Vec<String> {
    WorkloadGenerator::new(WorkloadConfig {
        seed: TEST_SEED,
        ..Default::default()
    })
    .generate(n)
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Renders one grade-distribution row for the experiment tables.
pub fn stats_row(label: &str, stats: &GradeStats) -> String {
    format!(
        "{label:<14} accurate={:>6}  imprecise={:>6}  wrong={:>6}  none={:>6}  (n={})",
        pct(stats.accuracy()),
        pct(stats.imprecise as f64 / stats.total().max(1) as f64),
        pct(stats.wrong_rate()),
        pct(stats.none_rate()),
        stats.total()
    )
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.915), "91.5%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn test_set_is_deterministic_and_distinct_from_training() {
        let a = test_set(10);
        let b = test_set(10);
        assert_eq!(a, b);
        let train = WorkloadGenerator::new(WorkloadConfig::default()).generate(10);
        assert_ne!(a, train);
    }

    #[test]
    fn stats_row_renders() {
        let s = GradeStats { accurate: 9, none: 1, ..GradeStats::default() };
        let row = stats_row("K=2", &s);
        assert!(row.contains("K=2"));
        assert!(row.contains("90.0%"));
    }
}
