//! `--compare A.json B.json`: applies the bounds of `BENCHMARK.json` (held
//! in [`crate::metrics::END_TO_END`]; a unit test keeps the two equal) to two
//! result sets written by this binary (`results.json`; a set should hold at
//! least three runs per workload, e.g. `run.sh --runs 3 --trace 0`).
//!
//! One row per end-to-end metric and workload: both medians, B's ratio to A
//! (A is the base), and a verdict. `regression`: B's median is worse than
//! A's by more than the bound. `unresolved`: it is not, but the runs of a
//! set spread wider than the bound, so "unchanged" cannot be claimed —
//! unless every run of B reads better than every run of A.

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, metric) → the values of the set's untraced runs.
type Cells = BTreeMap<(String, String), Vec<f64>>;

struct ResultSet {
    cells: Cells,
    /// (workload, seed) → tape digest.
    tapes: BTreeMap<(String, i64), String>,
    failed: u64,
}

fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = v["runs"]
        .as_array()
        .ok_or_else(|| format!("{}: no runs", path.display()))?;
    let mut set = ResultSet {
        cells: Cells::new(),
        tapes: BTreeMap::new(),
        failed: 0,
    };
    for run in runs {
        let workload = run["workload"].as_str().unwrap_or_default().to_string();
        set.failed += run["failed"].as_f64().unwrap_or(0.0) as u64;
        set.tapes.insert(
            (workload.clone(), run["seed"].as_i64().unwrap_or(0)),
            run["tape_digest"].as_str().unwrap_or_default().to_string(),
        );
        if run["trace"].as_i64() != Some(0) {
            continue;
        }
        let Value::Object(metrics) = &run["metrics"] else {
            continue;
        };
        for (name, cell) in metrics.iter() {
            if let Some(value) = cell["value"].as_f64() {
                set.cells
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// Judges one metric on one workload. `a` is the base.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median_f64(a), stats::median_f64(b));
    let worse_by = if higher_is_better {
        med_a - med_b
    } else {
        med_b - med_a
    } / med_a.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if stats::spread(a).max(stats::spread(b)) > bound && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);

    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict (A = {} is the base)",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        "spread",
        "bound",
        a_path.display()
    );
    let mut regressions = 0;
    for (workload, _) in WORKLOADS {
        for metric in END_TO_END {
            let (name, bound) = (metric.name, metric.bound);
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.cells.get(&key), b.cells.get(&key)) else {
                println!("{workload:<18} {name:<16} missing from a set");
                continue;
            };
            let verdict = judge(va, vb, metric.better == Better::Higher, bound);
            regressions += usize::from(verdict == Verdict::Regression);
            let (med_a, med_b) = (stats::median_f64(va), stats::median_f64(vb));
            println!(
                "{workload:<18} {name:<16} {med_a:>14.4} {med_b:>14.4} {:>8.4} {:>6.1}% {:>6.1}%  {} (n={}/{})",
                med_b / med_a,
                stats::spread(va).max(stats::spread(vb)) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                },
                va.len(),
                vb.len()
            );
        }
    }
    // Two sets compare only when they ran the same inputs.
    let mut other_inputs = 0;
    for (key, tape) in &a.tapes {
        if b.tapes.get(key).is_some_and(|t| t != tape) {
            println!("{} seed {}: the sets ran different tapes", key.0, key.1);
            other_inputs += 1;
        }
    }
    println!(
        "{regressions} regression(s); failed ops: A {} B {}; {other_inputs} tape mismatch(es)",
        a.failed, b.failed
    );
    Ok(regressions == 0 && other_inputs == 0 && b.failed <= a.failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0];
        // Lower is better: 5% worse is inside a 10% bound, 20% worse is not.
        assert_eq!(
            judge(&steady, &[105.0, 106.0, 104.0], false, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], false, 0.1),
            Verdict::Regression
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], true, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0], true, 0.1),
            Verdict::Regression
        );
        // A set that spreads wider than the bound resolves nothing...
        let noisy = [80.0, 100.0, 130.0];
        assert_eq!(
            judge(&noisy, &[95.0, 100.0, 105.0], false, 0.1),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[50.0, 60.0, 70.0], false, 0.1), Verdict::Ok);
    }
}
