//! `explain_retrieval` — one caller explains and grades pre-executed
//! outcomes, and every 64th op is the paper's feedback write
//! (`add_expert_correction`), so the knowledge base grows under the reads.
//! `htap` does nothing here: `treecnn`, `vectordb`, `llm` and `core` do all
//! the work, and a search speed-up that taxes inserts (or the reverse) shows.

use super::pipeline::{self, Signature};
use super::{timed_setup, trace_overhead_pct, Latencies, RunCfg};
use crate::metrics::Outcome;
use crate::stats;
use crate::tape::{self, Digest, SqlClass};
use crate::trace::Tracer;
use qpe_core::Explainer;
use qpe_htap::engine::QueryOutcome;
use qpe_llm::expert::ExpertOracle;
use qpe_llm::generator::SimulatedLlm;
use qpe_llm::grader::Grader;
use rand::Rng;
use std::time::Instant;

/// Blocks of queries (one of every template each) executed in set-up; ops
/// draw from their outcomes uniformly.
const POOL_BLOCKS: usize = 6;
/// One op in this many is a KB write.
const WRITE_EVERY: u64 = 64;
/// Ops whose decisions enter the output digest and whose grades make
/// `accuracy`; the window never ends before them.
const DIGESTED: u64 = 4096;
const LANE_POOL: u64 = 1;
const LANE_OPS: u64 = 2;

struct Setup {
    ex: Explainer,
    pool: Vec<QueryOutcome>,
    classes: Vec<SqlClass>,
    tape_digest: String,
}

fn setup(seed: u64) -> Setup {
    let ex = pipeline::build_explainer();
    let queries = tape::explain_tape(seed, LANE_POOL, POOL_BLOCKS).queries;
    let pool: Vec<QueryOutcome> = queries
        .iter()
        .map(|sql| {
            ex.system()
                .run_sql(sql)
                .expect("generated queries run on both engines")
        })
        .collect();
    for outcome in pool.iter().take(16) {
        ex.explain_outcome(outcome, &[]);
    }
    Setup {
        classes: queries.iter().map(|q| tape::classify(q)).collect(),
        tape_digest: tape::digest_of(&queries),
        ex,
        pool,
    }
}

fn is_write(op: u64) -> bool {
    op % WRITE_EVERY == WRITE_EVERY - 1
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (mut s, setup_s) = timed_setup(cfg.setup_repeats(), || setup(cfg.seed));
    let mut out = Outcome {
        tape_digest: s.tape_digest.clone(),
        ..Outcome::default()
    };
    // The traced pass replays the tape from its start against its own copy
    // of the knowledge base as it is now.
    let kb_at_start = cfg.trace.then(|| s.ex.kb().clone());

    let mut picks = tape::rng(cfg.seed, LANE_OPS);
    let mut lat = Latencies::default();
    let mut digest = Digest::default();
    let (mut graded, mut accurate, mut writes) = (0u64, 0u64, 0u64);
    let mut block_secs = Vec::new();
    let start = Instant::now();
    let window = cfg.untraced_window();
    let mut op = 0u64;
    // A block is WRITE_EVERY ops, the last of them the write.
    while start.elapsed() < window || op < DIGESTED {
        let block_start = Instant::now();
        for _ in 0..WRITE_EVERY {
            let at = picks.gen_range(0..s.pool.len());
            let outcome = &s.pool[at];
            out.attempted += 1;
            if is_write(op) {
                s.ex.add_expert_correction(outcome);
                writes += 1;
            } else {
                let t = Instant::now();
                let report = s.ex.explain_outcome(outcome, &[]);
                let grade = s.ex.grade(outcome, &report.output);
                lat.push(s.classes[at], t.elapsed().as_nanos() as u64);
                // Decisions and grades count over the same fixed prefix on
                // any host, so both repeat exactly for a seed.
                if op < DIGESTED {
                    Signature::of(&report).feed(&mut digest);
                    graded += 1;
                    accurate += u64::from(grade.is_accurate());
                }
            }
            op += 1;
        }
        block_secs.push(block_start.elapsed().as_secs_f64());
    }
    out.output_digest = digest.hex();
    // Every write must have landed: the KB holds the 20 it was built with
    // plus one entry per correction.
    if s.ex.kb().len() as u64 != 20 + writes {
        out.failed += 1;
    }

    if let Some(kb) = kb_at_start {
        traced_pass(cfg, &s, kb, &lat.all, &mut out);
        return out;
    }

    // The knowledge base grows all the way, so blocks slow down as the run
    // goes on; the median block is the rate at mid-run with the host's
    // stalls left out.
    let block_s = stats::median_f64(&block_secs);
    out.set("setup_s", setup_s, cfg.setup_repeats() as u64);
    out.set(
        "ops_per_s",
        WRITE_EVERY as f64 / block_s,
        block_secs.len() as u64,
    );
    out.set("accuracy", accurate as f64 / graded as f64, graded);
    out.set("write_ops_per_s", 1.0 / block_s, writes);
    lat.report(&mut out);
    out
}

fn traced_pass(
    cfg: &RunCfg,
    s: &Setup,
    mut kb: qpe_vectordb::KnowledgeStore<qpe_llm::knowledge::KnowledgeEntry>,
    untraced: &[u64],
    out: &mut Outcome,
) {
    let llm = SimulatedLlm::new();
    let grader = Grader::new();
    let oracle = ExpertOracle::new(s.ex.system().latency_model());
    let mut picks = tape::rng(cfg.seed, LANE_OPS);
    let mut tr = Tracer::new();
    let mut traced = Vec::new();
    let mut modeled = Vec::new();
    let start = Instant::now();
    let window = cfg.traced_window();
    let mut op = 0u64;
    while start.elapsed() < window && !tr.is_full() {
        for _ in 0..WRITE_EVERY {
            let outcome = &s.pool[picks.gen_range(0..s.pool.len())];
            out.attempted += 1;
            if is_write(op) {
                // `add_expert_correction`, stage by stage.
                tr.begin_op("op.write", op as u32);
                let key = tr.span("treecnn.embed", || {
                    s.ex.router().embed_pair(&outcome.tp.plan, &outcome.ap.plan)
                });
                let entry = tr.span("llm.oracle_entry", || oracle.knowledge_entry(outcome));
                tr.span("vectordb.insert", || kb.insert(key, entry));
                tr.exit();
            } else {
                tr.begin_op("op", op as u32);
                let re = pipeline::explain_outcome_traced(&mut tr, &s.ex, &kb, &llm, outcome);
                tr.span("llm.grade", || {
                    grader.grade(&re.output, &oracle.ground_truth(outcome))
                });
                traced.push(tr.exit());
                modeled.push(re.modeled_response_s);
            }
            op += 1;
        }
    }

    pipeline::report_pipeline_layers(out, tr.spans());
    out.set(
        "llm.modeled_response_s",
        stats::median_f64(&modeled),
        modeled.len() as u64,
    );
    out.set("vectordb.kb_entries_end", kb.len() as f64, 1);
    out.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(untraced, &traced),
        untraced.len().min(traced.len()) as u64,
    );
    out.spans = tr.into_spans();
}
