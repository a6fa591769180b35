//! What the two explain workloads share: the paper's pipeline configuration
//! and the stage-by-stage re-enactment of `Explainer::explain_outcome`.

use crate::metrics::Outcome;
use crate::tape::Digest;
use crate::trace::{self, Span, Tracer};
use qpe_core::{ExplainReport, Explainer, PipelineConfig};
use qpe_htap::engine::{EngineKind, QueryOutcome};
use qpe_htap::TpchConfig;
use qpe_llm::factors::FactorKind;
use qpe_llm::generator::{ExplanationOutput, SimulatedLlm};
use qpe_llm::knowledge::KnowledgeEntry;
use qpe_llm::prompt::{Prompt, Question};
use qpe_llm::timing::LlmTiming;
use qpe_vectordb::KnowledgeStore;

/// The paper's configuration: TPC-H scale 0.01, 120 training queries, a
/// knowledge base of 20, retrieval depth 2. Data and training seeds are the
/// library defaults; only the query tape follows `--seed`.
pub fn build_explainer() -> Explainer {
    Explainer::build(PipelineConfig {
        tpch: TpchConfig::with_scale(0.01),
        n_train: 120,
        kb_size: 20,
        top_k: 2,
        ..PipelineConfig::default()
    })
    .expect("the training workload binds and runs on both engines")
}

/// What an explanation decided — the part that must repeat for a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    pub winner: EngineKind,
    pub retrieved_ids: Vec<u32>,
    pub cited: Vec<FactorKind>,
}

impl Signature {
    pub fn of(report: &ExplainReport) -> Self {
        Signature {
            winner: report.winner,
            retrieved_ids: report.retrieved_ids.clone(),
            cited: report.output.cited.clone(),
        }
    }

    pub fn feed(&self, d: &mut Digest) {
        d.update(self.winner.as_str().as_bytes());
        for id in &self.retrieved_ids {
            d.update_u64(u64::from(*id));
        }
        for f in &self.cited {
            d.update(f.key().as_bytes());
        }
    }
}

/// Result of a re-enacted `explain_outcome`.
pub struct Reenacted {
    pub signature: Signature,
    pub output: ExplanationOutput,
    /// Modeled LLM think + generation time, the paper's §VI-B number.
    pub modeled_response_s: f64,
}

/// `Explainer::explain_outcome` stage by stage, in its order, through the
/// public functions it calls, with a span around each. `kb` is the store
/// searched: the explainer's own, or the traced pass's copy that also takes
/// the inserts.
pub fn explain_outcome_traced(
    tr: &mut Tracer,
    ex: &Explainer,
    kb: &KnowledgeStore<KnowledgeEntry>,
    llm: &SimulatedLlm,
    outcome: &QueryOutcome,
) -> Reenacted {
    tr.enter("core.explain_outcome");
    let key = tr.span("treecnn.embed", || {
        ex.router().embed_pair(&outcome.tp.plan, &outcome.ap.plan)
    });
    let hits = tr.span("vectordb.search", || kb.search(&key, ex.config().top_k));
    let retrieved_ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
    let knowledge: Vec<(KnowledgeEntry, f64)> =
        hits.iter().map(|h| (h.value.clone(), h.distance)).collect();
    let (prompt, prompt_tokens) = tr.span("llm.prompt", || {
        let prompt = Prompt {
            config: ex.config().prompt.clone(),
            knowledge,
            question: Question {
                sql: outcome.sql.clone(),
                tp_plan: outcome.tp.plan.clone(),
                ap_plan: outcome.ap.plan.clone(),
                winner: outcome.winner(),
                freshness: outcome
                    .bound
                    .tables
                    .iter()
                    .filter_map(|t| ex.system().database().freshness(&t.name))
                    .collect(),
            },
            user_context: Vec::new(),
        };
        let tokens = prompt.token_count();
        (prompt, tokens)
    });
    let output = tr.span("llm.generate", || llm.explain(&prompt));
    let timing = LlmTiming::estimate(prompt_tokens, output.token_count());
    tr.exit();
    Reenacted {
        signature: Signature {
            winner: outcome.winner(),
            retrieved_ids,
            cited: output.cited.clone(),
        },
        output,
        modeled_response_s: timing.total_ns() as f64 / 1e9,
    }
}

/// Per-layer metrics both explain workloads read off their trace: the median
/// of every stage span under its metric name, the op time no named span
/// covers, and the share of op time spent in retrieval (embed + search).
pub fn report_pipeline_layers(out: &mut Outcome, spans: &[Span]) {
    const STAGES: &[(&str, &str)] = &[
        ("sql.parse_bind", "sql.parse_bind_us"),
        ("htap.plan_tp", "htap.plan_tp_us"),
        ("htap.plan_ap", "htap.plan_ap_us"),
        ("htap.run_tp", "htap.run_tp_us"),
        ("htap.run_ap", "htap.run_ap_us"),
        ("treecnn.embed", "treecnn.embed_us"),
        ("vectordb.search", "vectordb.search_us"),
        ("vectordb.insert", "vectordb.insert_us"),
        ("llm.prompt", "llm.prompt_us"),
        ("llm.generate", "llm.generate_us"),
        ("llm.grade", "llm.grade_us"),
        ("llm.oracle_entry", "llm.oracle_entry_us"),
        ("core.explain_outcome", "core.explain_outcome_us"),
    ];
    let layers = trace::layer_stats(spans);
    for (span, metric) in STAGES {
        if let Some(s) = layers.get(span) {
            out.set(metric, s.median_us, s.count);
        }
    }
    if let Some(op) = layers.get("op") {
        out.set("core.unattributed_us", op.self_median_us, op.count);
        let op_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "op")
            .map(Span::duration_ns)
            .sum();
        // Only the retrieval inside an explanation: a KB write embeds too.
        let retrieval_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "treecnn.embed" || s.name == "vectordb.search")
            .filter(|s| {
                s.parent != trace::NO_PARENT
                    && spans[s.parent as usize].name == "core.explain_outcome"
            })
            .map(Span::duration_ns)
            .sum();
        if op_ns > 0 {
            out.set(
                "core.retrieval_share",
                retrieval_ns as f64 / op_ns as f64,
                op.count,
            );
        }
    }
}
