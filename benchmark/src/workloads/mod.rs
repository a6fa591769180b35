//! The five workloads. Each is a closed loop (every caller here waits for
//! its reply) driven by at most `nproc` client threads over a tape generated
//! from `--seed`.

use crate::metrics::Outcome;
use crate::stats;
use crate::tape::SqlClass;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod analytic;
pub mod explain;
pub mod explain_retrieval;
mod pipeline;
pub mod serve;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or untraced pass (end-to-end metrics).
    pub trace: bool,
    /// Where traces and the durable workload's data directory go.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// An untraced pass sets up this many times and reports the median, so
    /// one slow set-up does not read as a regression.
    fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// A traced run spends this share of the window on an untraced pass
    /// (the base the tracing overhead is measured against), the rest traced.
    fn untraced_share(&self) -> f64 {
        if self.trace {
            0.4
        } else {
            1.0
        }
    }

    fn untraced_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * self.untraced_share())
    }

    fn traced_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * (1.0 - self.untraced_share()))
    }
}

pub fn run(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "explain" => explain::run(cfg),
        "explain_retrieval" => explain_retrieval::run(cfg),
        "serve_point" => serve::run(cfg, serve::Mode::Point),
        "serve_mixed" => serve::run(cfg, serve::Mode::Mixed),
        "analytic" => analytic::run(cfg),
        _ => return None,
    })
}

/// Runs `setup` `repeats` times, dropping each instance before the next is
/// built; returns the last instance and the median set-up time in seconds.
fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median_f64(&secs))
}

/// Latencies of one pass, whole and by statement class.
#[derive(Default)]
struct Latencies {
    all: Vec<u64>,
    scan: Vec<u64>,
    agg: Vec<u64>,
    join: Vec<u64>,
}

impl Latencies {
    fn push(&mut self, class: SqlClass, ns: u64) {
        self.all.push(ns);
        match class {
            SqlClass::Scan => self.scan.push(ns),
            SqlClass::Agg => self.agg.push(ns),
            SqlClass::Join => self.join.push(ns),
        }
    }

    /// Sets `p50_us` and the three class medians.
    fn report(&mut self, out: &mut Outcome) {
        out.set(
            "p50_us",
            stats::p50_us(&mut self.all),
            self.all.len() as u64,
        );
        out.set(
            "scan_p50_us",
            stats::p50_us(&mut self.scan),
            self.scan.len() as u64,
        );
        out.set(
            "agg_p50_us",
            stats::p50_us(&mut self.agg),
            self.agg.len() as u64,
        );
        out.set(
            "join_p50_us",
            stats::p50_us(&mut self.join),
            self.join.len() as u64,
        );
    }
}

/// Tracing overhead in percent: traced against untraced median over the ops
/// both passes ran (they replay the same tape from its start).
fn trace_overhead_pct(untraced: &[u64], traced: &[u64]) -> f64 {
    let n = untraced.len().min(traced.len());
    if n == 0 {
        return 0.0;
    }
    let base = stats::p50_us(&mut untraced[..n].to_vec());
    let with = stats::p50_us(&mut traced[..n].to_vec());
    if base == 0.0 {
        0.0
    } else {
        (with - base) / base * 100.0
    }
}
