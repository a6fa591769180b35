//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//! `BENCHMARK.json` at the repository root lists exactly these (a unit test
//! holds the two together).

use std::collections::BTreeMap;

/// Workload name and why it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "explain",
        "The paper's product end to end: explain_sql over distinct join/top-N queries; both engine runs (htap) own ~99% of the time.",
    ),
    (
        "explain_retrieval",
        "explain_outcome+grade over pre-executed outcomes with a KB write every 64th op: htap idle, treecnn/vectordb/llm/core do all the work.",
    ),
    (
        "serve_point",
        "Two wire connections of TP-pinned prepared point lookups on an in-memory system: server framing and the session path dominate; WAL/MVCC idle.",
    ),
    (
        "serve_mixed",
        "The same point reads plus AP scan/group-by/join over the wire beside a durable INSERT/DELETE stream: WAL, write lock, snapshots, compaction are hot.",
    ),
    (
        "analytic",
        "One AP-pinned in-process session of prepared range/equality/group-by/top-N/join statements at scale 0.1: AP executor and encoded kernels only.",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, regression bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (README has the per-workload
/// meaning of each cell). A bound is at least three times the widest
/// seed-to-seed spread (quartile distance ÷ median of ten runs) the metric
/// showed on the reference host, capped at the contract's 0.25.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy",
        unit: "share",
        better: Better::Higher,
        bound: 0.1,
    },
    EndToEnd {
        name: "write_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "scan_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "agg_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "join_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics, keyed by crate name: (name, unit, better). A layer a
/// workload does not touch reports 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("sql.parse_bind_us", "us", Better::Lower),
    ("htap.plan_tp_us", "us", Better::Lower),
    ("htap.plan_ap_us", "us", Better::Lower),
    ("htap.run_tp_us", "us", Better::Lower),
    ("htap.run_ap_us", "us", Better::Lower),
    ("htap.ap_range_us", "us", Better::Lower),
    ("htap.ap_eq_us", "us", Better::Lower),
    ("htap.ap_groupby_us", "us", Better::Lower),
    ("htap.ap_topn_us", "us", Better::Lower),
    ("htap.ap_join_co_us", "us", Better::Lower),
    ("htap.ap_join_ol_us", "us", Better::Lower),
    ("htap.cells_scanned_per_op", "count", Better::Lower),
    ("htap.blocks_pruned_share", "share", Better::Higher),
    ("htap.session_execute_us", "us", Better::Lower),
    ("htap.plan_cache_hit_rate", "share", Better::Higher),
    ("htap.session_dml_us", "us", Better::Lower),
    ("htap.wal_records_per_fsync", "count", Better::Higher),
    ("htap.wal_fsyncs", "count", Better::Lower),
    ("htap.snapshot_pin_us", "us", Better::Lower),
    ("htap.delta_rows_end", "count", Better::Lower),
    ("htap.reopen_ms", "ms", Better::Lower),
    ("treecnn.embed_us", "us", Better::Lower),
    ("vectordb.search_us", "us", Better::Lower),
    ("vectordb.insert_us", "us", Better::Lower),
    ("vectordb.kb_entries_end", "count", Better::Lower),
    ("llm.prompt_us", "us", Better::Lower),
    ("llm.generate_us", "us", Better::Lower),
    ("llm.grade_us", "us", Better::Lower),
    ("llm.oracle_entry_us", "us", Better::Lower),
    ("llm.modeled_response_s", "s", Better::Lower),
    ("core.explain_outcome_us", "us", Better::Lower),
    ("core.unattributed_us", "us", Better::Lower),
    ("core.retrieval_share", "share", Better::Lower),
    ("server.roundtrip_us", "us", Better::Lower),
    ("server.wire_overhead_us", "us", Better::Lower),
    ("server.frame_codec_us", "us", Better::Lower),
    ("server.bytes_per_stmt", "count", Better::Lower),
    ("server.read_p99_us", "us", Better::Lower),
    ("server.write_p99_us", "us", Better::Lower),
    ("server.scan_p95_us", "us", Better::Lower),
    ("server.protocol_errors", "count", Better::Lower),
    ("server.statements_rejected", "count", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
];

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// What one pass over one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the measured window (and the correctness gates).
    pub attempted: u64,
    /// Ops that errored, were refused, returned rows the in-process oracle
    /// does not, or acknowledged writes that did not survive the reopen.
    pub failed: u64,
    /// Digest over the generated tape: same seed, same digest.
    pub tape_digest: String,
    /// Digest over a fixed prefix of the outputs: same seed, same digest.
    pub output_digest: String,
    /// Metric name → value. An untraced pass fills every end-to-end name, a
    /// traced pass the per-layer names of the layers it touched.
    pub values: BTreeMap<&'static str, Measured>,
    /// Spans of the traced pass (empty on an untraced pass).
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, Measured { value, samples });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(v: &Value, key: &str) -> Vec<String> {
        v[key]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| m["name"].as_str().expect("name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");

        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names(&v, "workloads"), want);
        for (w, (_, why)) in v["workloads"].as_array().unwrap().iter().zip(WORKLOADS) {
            assert_eq!(w["why"].as_str().unwrap(), *why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&v, "end_to_end"), want);
        for (j, m) in v["end_to_end"].as_array().unwrap().iter().zip(END_TO_END) {
            assert_eq!(j["unit"].as_str().unwrap(), m.unit);
            assert_eq!(j["better"].as_str().unwrap(), m.better.as_str());
            assert_eq!(j["bound"].as_f64().unwrap(), m.bound);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));

        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&v, "per_layer"), want);
        for (j, m) in v["per_layer"].as_array().unwrap().iter().zip(PER_LAYER) {
            assert_eq!(j["unit"].as_str().unwrap(), m.1);
            assert_eq!(j["better"].as_str().unwrap(), m.2.as_str());
        }
        assert_eq!(v["paths"].as_array().unwrap().len(), 1);
        assert_eq!(v["paths"][0].as_str().unwrap(), "benchmark");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
