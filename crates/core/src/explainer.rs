//! The end-to-end explainer pipeline (paper Figure 1).

use crate::timing::EndToEndTiming;
use crate::workload::{WorkloadConfig, WorkloadGenerator};
use qpe_htap::engine::{EngineKind, HtapError, HtapSystem, QueryOutcome, StatementOutcome};
use qpe_htap::session::Session;
use qpe_htap::tpch::TpchConfig;
use qpe_llm::expert::ExpertOracle;
use qpe_llm::factors::GroundTruth;
use qpe_llm::generator::{ExplanationOutput, SimulatedLlm};
use qpe_llm::grader::{Grade, Grader};
use qpe_llm::knowledge::KnowledgeEntry;
use qpe_llm::prompt::{Prompt, PromptConfig, Question};
use qpe_llm::timing::LlmTiming;
use qpe_treecnn::router::SmartRouter;
use qpe_treecnn::train::{PlanPairExample, TrainReport, TrainerConfig};
use qpe_vectordb::KnowledgeStore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline construction options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// TPC-H generation options.
    pub tpch: TpchConfig,
    /// Workload generator options.
    pub workload: WorkloadConfig,
    /// Number of historical queries run for router training (the KB is a
    /// subset of these, as in the paper: "these generated queries are also
    /// in the training set of the smart router").
    pub n_train: usize,
    /// Knowledge-base size (paper: 20 representative queries).
    pub kb_size: usize,
    /// Retrieval depth K (paper default: 2).
    pub top_k: usize,
    /// Router training hyperparameters.
    pub trainer: TrainerConfig,
    /// Prompt construction options.
    pub prompt: PromptConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            tpch: TpchConfig::with_scale(0.005),
            workload: WorkloadConfig::default(),
            n_train: 80,
            kb_size: 20,
            top_k: 2,
            trainer: TrainerConfig::default(),
            prompt: PromptConfig::default(),
        }
    }
}

/// The result of one explanation request.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The query.
    pub sql: String,
    /// Measured winner.
    pub winner: EngineKind,
    /// Loser/winner latency ratio.
    pub speedup: f64,
    /// TP simulated latency (ns).
    pub tp_latency_ns: u64,
    /// AP simulated latency (ns).
    pub ap_latency_ns: u64,
    /// The generated explanation.
    pub output: ExplanationOutput,
    /// The prompt that produced it (renderable for display).
    pub prompt: Prompt,
    /// KB ids of retrieved entries.
    pub retrieved_ids: Vec<u32>,
    /// Response-time breakdown.
    pub timing: EndToEndTiming,
}

/// The assembled framework: HTAP system + router + KB + LLM + grader.
///
/// The HTAP system is `Arc`-shared: the explainer talks to it through
/// [`Session`]s (the prepare/execute client API), and callers can open their
/// own concurrent sessions over [`Explainer::system_arc`].
pub struct Explainer {
    system: Arc<HtapSystem>,
    router: SmartRouter,
    router_report: TrainReport,
    kb: KnowledgeStore<KnowledgeEntry>,
    /// Plans of the KB entries, kept for the embedding-source ablation.
    kb_outcomes: Vec<QueryOutcome>,
    llm: SimulatedLlm,
    grader: Grader,
    config: PipelineConfig,
}

impl Explainer {
    /// Builds the full pipeline: generate data, run the training workload on
    /// both engines, train the router, select and annotate KB entries.
    pub fn build(config: PipelineConfig) -> Result<Self, HtapError> {
        let system = Arc::new(HtapSystem::new(&config.tpch));
        let mut gen = WorkloadGenerator::new(config.workload.clone());
        let sqls = gen.generate(config.n_train);
        // The training workload runs through a session: repeated statements
        // (the generator reuses shapes) hit the shared plan cache.
        let session = Session::new(Arc::clone(&system));
        let mut outcomes = Vec::with_capacity(sqls.len());
        for sql in &sqls {
            match session.execute_sql(sql)? {
                StatementOutcome::Query(q) => outcomes.push(*q),
                StatementOutcome::PinnedQuery(_) | StatementOutcome::Dml(_) => {
                    unreachable!("training workload is read-only and never pins an engine")
                }
            }
        }

        // Train the smart router on every historical query.
        let examples: Vec<PlanPairExample> = outcomes
            .iter()
            .map(|o| {
                PlanPairExample::from_plans(&o.tp.plan, &o.ap.plan, o.winner() == EngineKind::Ap)
            })
            .collect();
        let (router, router_report) = SmartRouter::train(&examples, config.trainer.clone());

        // Select KB entries: stratified round-robin over (winner, primary
        // factor) signatures so the 20 entries cover the distinction space.
        let oracle = ExpertOracle::new(system.latency_model());
        let truths: Vec<GroundTruth> = outcomes.iter().map(|o| oracle.ground_truth(o)).collect();
        let chosen = stratified_selection(&truths, config.kb_size);

        let mut kb = KnowledgeStore::new();
        let mut kb_outcomes = Vec::with_capacity(chosen.len());
        for &i in &chosen {
            let o = &outcomes[i];
            let key = router.embed_pair(&o.tp.plan, &o.ap.plan);
            kb.insert(key, oracle.knowledge_entry(o));
            kb_outcomes.push(o.clone());
        }

        Ok(Explainer {
            system,
            router,
            router_report,
            kb,
            kb_outcomes,
            llm: SimulatedLlm::new(),
            grader: Grader::new(),
            config,
        })
    }

    /// Explains a SQL query end to end (runs it on both engines first, as
    /// the paper's post-execution setting requires).
    pub fn explain_sql(
        &self,
        sql: &str,
        user_context: &[String],
    ) -> Result<ExplainReport, HtapError> {
        let outcome = match self.session().execute_sql(sql)? {
            StatementOutcome::Query(q) => *q,
            StatementOutcome::PinnedQuery(_) => {
                unreachable!("explainer sessions never pin an engine: both runs are its input")
            }
            StatementOutcome::Dml(d) => {
                return Err(HtapError::Sql(qpe_sql::SqlError::Unsupported(format!(
                    "cannot explain a write statement: {}",
                    d.sql
                ))))
            }
        };
        Ok(self.explain_outcome(&outcome, user_context))
    }

    /// Explains an already-executed query.
    pub fn explain_outcome(&self, outcome: &QueryOutcome, user_context: &[String]) -> ExplainReport {
        let t0 = Instant::now();
        let key = self.router.embed_pair(&outcome.tp.plan, &outcome.ap.plan);
        let encode_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let hits = self.kb.search(&key, self.config.top_k);
        let search_ns = t1.elapsed().as_nanos() as u64;

        let knowledge: Vec<(KnowledgeEntry, f64)> = hits
            .iter()
            .map(|h| (h.value.clone(), h.distance))
            .collect();
        let retrieved_ids: Vec<u32> = hits.iter().map(|h| h.id).collect();

        let prompt = Prompt {
            config: self.config.prompt.clone(),
            knowledge,
            question: Question {
                sql: outcome.sql.clone(),
                tp_plan: outcome.tp.plan.clone(),
                ap_plan: outcome.ap.plan.clone(),
                winner: outcome.winner(),
                // Delta-store freshness of the scanned tables: how much
                // recent write traffic the AP engine read through its delta
                // region for this query.
                freshness: outcome
                    .bound
                    .tables
                    .iter()
                    .filter_map(|t| self.system.database().freshness(&t.name))
                    .collect(),
            },
            user_context: user_context.to_vec(),
        };
        let output = self.llm.explain(&prompt);
        let llm_time = LlmTiming::estimate(prompt.token_count(), output.token_count());

        ExplainReport {
            sql: outcome.sql.clone(),
            winner: outcome.winner(),
            speedup: outcome.speedup(),
            tp_latency_ns: outcome.tp.latency_ns,
            ap_latency_ns: outcome.ap.latency_ns,
            output,
            prompt,
            retrieved_ids,
            timing: EndToEndTiming::new(encode_ns, search_ns, llm_time),
        }
    }

    /// Expert grade for a generated explanation of `outcome`.
    pub fn grade(&self, outcome: &QueryOutcome, output: &ExplanationOutput) -> Grade {
        let oracle = ExpertOracle::new(self.system.latency_model());
        let truth = oracle.ground_truth(outcome);
        self.grader.grade(output, &truth)
    }

    /// The paper's feedback loop: when experts judge an output wrong, they
    /// write the correct explanation and it enters the KB for future
    /// retrieval.
    pub fn add_expert_correction(&mut self, outcome: &QueryOutcome) -> u32 {
        let oracle = ExpertOracle::new(self.system.latency_model());
        let key = self.router.embed_pair(&outcome.tp.plan, &outcome.ap.plan);
        let id = self.kb.insert(key, oracle.knowledge_entry(outcome));
        self.kb_outcomes.push(outcome.clone());
        id
    }

    /// Routes a query without executing it (the smart router's primary job).
    pub fn route_sql(&self, sql: &str) -> Result<(EngineKind, f64), HtapError> {
        let bound = self.system.bind(sql)?;
        let tp = self.system.explain(&bound, EngineKind::Tp)?;
        let ap = self.system.explain(&bound, EngineKind::Ap)?;
        Ok(self.router.route(&tp, &ap))
    }

    /// Changes the retrieval depth K (the §VI-B sweep).
    pub fn set_top_k(&mut self, k: usize) {
        self.config.top_k = k;
    }

    /// Swaps the prompt configuration (ablations).
    pub fn set_prompt_config(&mut self, prompt: PromptConfig) {
        self.config.prompt = prompt;
    }

    /// The underlying HTAP system.
    pub fn system(&self) -> &HtapSystem {
        &self.system
    }

    /// The shared system handle — clone it to open independent concurrent
    /// [`Session`]s.
    pub fn system_arc(&self) -> &Arc<HtapSystem> {
        &self.system
    }

    /// Opens a fresh session over the shared system (cheap: one `Arc`
    /// clone). Prepared statements from any session share the system-wide
    /// plan cache.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.system))
    }

    /// Mutable HTAP system access (index creation from user context).
    /// Requires that no other `Arc` handle (session or clone of
    /// [`Explainer::system_arc`]) is outstanding.
    ///
    /// Note: plans embedded in existing KB entries are not re-derived when
    /// the physical design changes; the paper leaves stale-knowledge
    /// management as future work, and so do we (see DESIGN.md).
    pub fn system_mut(&mut self) -> &mut HtapSystem {
        Arc::get_mut(&mut self.system)
            .expect("exclusive system access requires dropping outstanding sessions")
    }

    /// The trained router.
    pub fn router(&self) -> &SmartRouter {
        &self.router
    }

    /// Router training report.
    pub fn router_report(&self) -> &TrainReport {
        &self.router_report
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeStore<KnowledgeEntry> {
        &self.kb
    }

    /// The outcomes behind the KB entries (ablation input).
    pub fn kb_outcomes(&self) -> &[QueryOutcome] {
        &self.kb_outcomes
    }

    /// Active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

/// Round-robin stratified selection of `k` indices over (winner, primary)
/// signatures, preserving per-signature insertion order.
pub fn stratified_selection(truths: &[GroundTruth], k: usize) -> Vec<usize> {
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    let mut group_order: Vec<String> = Vec::new();
    for (i, t) in truths.iter().enumerate() {
        let sig = format!("{}:{}", t.winner, t.primary.key());
        if !groups.contains_key(&sig) {
            group_order.push(sig.clone());
        }
        groups.entry(sig).or_default().push(i);
    }
    let mut out = Vec::with_capacity(k);
    let mut round = 0usize;
    while out.len() < k {
        let mut advanced = false;
        for sig in &group_order {
            if out.len() >= k {
                break;
            }
            if let Some(&idx) = groups[sig].get(round) {
                out.push(idx);
                advanced = true;
            }
        }
        if !advanced {
            break; // fewer distinct examples than k
        }
        round += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_llm::factors::FactorKind;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            tpch: TpchConfig::with_scale(0.002),
            n_train: 24,
            kb_size: 8,
            trainer: TrainerConfig {
                epochs: 8,
                ..TrainerConfig::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn build_and_explain_end_to_end() {
        let ex = Explainer::build(small_config()).unwrap();
        assert_eq!(ex.kb().len(), 8);
        assert_eq!(ex.kb_outcomes().len(), 8);
        let report = ex
            .explain_sql(
                "SELECT COUNT(*) FROM customer, orders \
                 WHERE o_custkey = c_custkey AND c_mktsegment = 'machinery'",
                &[],
            )
            .unwrap();
        assert_eq!(report.retrieved_ids.len(), 2);
        assert!(report.timing.encode_ns > 0);
        assert!(report.timing.retrieval_fraction() < 0.05);
        assert!(report.speedup >= 1.0);
    }

    #[test]
    fn grading_works_through_pipeline() {
        let ex = Explainer::build(small_config()).unwrap();
        let outcome = ex
            .system()
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        let report = ex.explain_outcome(&outcome, &[]);
        let grade = ex.grade(&outcome, &report.output);
        // Any grade is legal; the call must be total.
        let _ = grade;
    }

    #[test]
    fn expert_correction_grows_kb() {
        let mut ex = Explainer::build(small_config()).unwrap();
        let before = ex.kb().len();
        let outcome = ex
            .system()
            .run_sql("SELECT COUNT(*) FROM nation")
            .unwrap();
        let id = ex.add_expert_correction(&outcome);
        assert_eq!(ex.kb().len(), before + 1);
        assert_eq!(id as usize, before);
    }

    #[test]
    fn top_k_is_respected() {
        let mut ex = Explainer::build(small_config()).unwrap();
        ex.set_top_k(5);
        let report = ex
            .explain_sql("SELECT COUNT(*) FROM customer", &[])
            .unwrap();
        assert_eq!(report.retrieved_ids.len(), 5);
    }

    #[test]
    fn route_sql_does_not_execute() {
        let ex = Explainer::build(small_config()).unwrap();
        let (engine, conf) = ex
            .route_sql("SELECT c_name FROM customer WHERE c_custkey = 3")
            .unwrap();
        assert!(conf >= 0.5);
        let _ = engine;
    }

    #[test]
    fn stratified_selection_covers_groups() {
        use qpe_htap::engine::EngineKind;
        let mk = |winner, primary| GroundTruth {
            winner,
            speedup: 2.0,
            primary,
            valid: vec![primary],
            contradicted: vec![],
        };
        let truths = vec![
            mk(EngineKind::Ap, FactorKind::HashJoinVsNestedLoop),
            mk(EngineKind::Ap, FactorKind::HashJoinVsNestedLoop),
            mk(EngineKind::Ap, FactorKind::HashJoinVsNestedLoop),
            mk(EngineKind::Tp, FactorKind::IndexLookupAdvantage),
            mk(EngineKind::Ap, FactorKind::TopNHeapAdvantage),
        ];
        let sel = stratified_selection(&truths, 3);
        assert_eq!(sel.len(), 3);
        // one from each signature before repeats
        assert!(sel.contains(&0));
        assert!(sel.contains(&3));
        assert!(sel.contains(&4));
    }

    #[test]
    fn stratified_selection_handles_small_pools() {
        let truths: Vec<GroundTruth> = vec![];
        assert!(stratified_selection(&truths, 5).is_empty());
    }

    #[test]
    fn router_report_is_informative() {
        let ex = Explainer::build(small_config()).unwrap();
        let r = ex.router_report();
        assert_eq!(r.examples, 24);
        assert!(!r.epoch_losses.is_empty());
        assert!(r.train_accuracy > 0.5, "router accuracy {}", r.train_accuracy);
    }
}
