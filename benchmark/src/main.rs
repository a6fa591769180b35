//! The repo benchmark. `benchmark/run.sh` builds and runs this; see
//! `benchmark/README.md` for what the workloads and metrics mean.
//!
//! ```text
//! qpe_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N]
//!               [--out-dir DIR] [--commit ID] [--rustc VERSION]
//! qpe_benchmark --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each runs an
//! untraced pass (end-to-end metrics) and then a traced one (per-layer
//! metrics). The last line of standard output is one JSON object with the
//! metrics of the last pass run.

mod compare;
mod metrics;
mod stats;
mod tape;
mod trace;
mod workloads;

use metrics::{Measured, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunCfg;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: u64,
    out_dir: PathBuf,
    commit: String,
    rustc: String,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 31415,
        seconds: 10.0,
        trace: None,
        runs: 1,
        out_dir: PathBuf::from("benchmark/out"),
        commit: "unknown".into(),
        rustc: "unknown".into(),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--commit" => a.commit = value()?,
            "--rustc" => a.rustc = value()?,
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(a)
}

/// The metrics one pass must report, in `BENCHMARK.json` order: every
/// end-to-end metric of an untraced pass, every per-layer metric of a traced
/// one (0 for a layer the workload does not touch).
fn reported(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'static str, &'static str, Measured)>, String> {
    if traced {
        return Ok(PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let m = outcome.values.get(name).copied().unwrap_or(Measured {
                    value: 0.0,
                    samples: 0,
                });
                (*name, *unit, m)
            })
            .collect());
    }
    END_TO_END
        .iter()
        .map(|m| match outcome.values.get(m.name) {
            Some(v) if v.value.is_finite() && v.value != 0.0 => Ok((m.name, m.unit, *v)),
            Some(v) => Err(format!(
                "{} read {}, which the contract does not allow",
                m.name, v.value
            )),
            None => Err(format!("{} was not measured", m.name)),
        })
        .collect()
}

fn metrics_json(rows: &[(&'static str, &'static str, Measured)], with_samples: bool) -> Value {
    let mut map = Map::new();
    for (name, unit, m) in rows {
        let mut cell = Map::new();
        cell.insert("value".into(), Value::from(m.value));
        cell.insert("unit".into(), Value::from(*unit));
        if with_samples {
            cell.insert("samples".into(), Value::from(m.samples));
        }
        map.insert((*name).to_string(), Value::Object(cell));
    }
    Value::Object(map)
}

fn run_all(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ap_threads = qpe_htap::ExecConfig::global().threads;
    println!(
        "# qpe benchmark: commit {} | {} | nproc {nproc} | AP worker threads {ap_threads} | \
         closed loop, at most 2 client threads | seed {} | window {} s",
        a.commit, a.rustc, a.seed, a.seconds
    );

    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let passes: &[bool] = match a.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    let mut last_line = String::new();
    let mut all_correct = true;
    for run in 0..a.runs {
        let seed = a.seed + run;
        for name in &names {
            for &traced in passes {
                let cfg = RunCfg {
                    seed,
                    seconds: a.seconds,
                    trace: traced,
                    out_dir: a.out_dir.clone(),
                };
                let outcome = workloads::run(name, &cfg).expect("names were checked");
                let rows = reported(&outcome, traced).map_err(|e| format!("{name}: {e}"))?;
                println!(
                    "== {name} seed {seed} {}: attempted {} failed {} | tape {} | output {}",
                    if traced { "traced" } else { "untraced" },
                    outcome.attempted,
                    outcome.failed,
                    outcome.tape_digest,
                    outcome.output_digest
                );
                // A layer the workload does not touch reads 0 in the JSON
                // and is left out of the table.
                for (metric, unit, m) in rows.iter().filter(|r| !traced || r.2.samples > 0) {
                    println!(
                        "{metric:<28} {name:<18} {:>16.4} {unit:<6} n={}",
                        m.value, m.samples
                    );
                }
                if traced {
                    let path = a.out_dir.join(format!("trace-{name}.jsonl"));
                    trace::write_jsonl(&path, &outcome.spans)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    println!("trace: {} spans in {}", outcome.spans.len(), path.display());
                }
                all_correct &= outcome.correct();
                last_line = serde_json::to_string(&json!({
                    "correct": (outcome.correct()),
                    "attempted": (outcome.attempted),
                    "failed": (outcome.failed),
                    "metrics": (metrics_json(&rows, false)),
                }))
                .expect("serializes");
                runs.push(json!({
                    "workload": (*name),
                    "seed": seed,
                    "trace": (u64::from(traced)),
                    "attempted": (outcome.attempted),
                    "failed": (outcome.failed),
                    "tape_digest": (outcome.tape_digest.as_str()),
                    "output_digest": (outcome.output_digest.as_str()),
                    "metrics": (metrics_json(&rows, true)),
                }));
            }
        }
    }

    let results = json!({
        "commit": (a.commit.as_str()),
        "rustc": (a.rustc.as_str()),
        "nproc": nproc,
        "ap_threads": ap_threads,
        "seconds": (a.seconds),
        "runs": (Value::Array(runs)),
    });
    let path = a.out_dir.join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("serializes") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    println!("{last_line}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qpe_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.compare {
        Some((a, b)) => compare::run(a, b),
        None => run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qpe_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
