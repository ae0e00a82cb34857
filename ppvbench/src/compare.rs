//! `ppvbench compare <runs-A> <runs-B>`: two directories of result files
//! (A the parent, B the change), judged against `BENCHMARK.json`'s
//! bounds per (metric, workload) — never as one combined score.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::Json;
use crate::stats;

/// How a (metric, workload) pair moved from A to B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The run-to-run spread is wider than the bound: the pair cannot be
    /// called unchanged.
    Unresolved,
    Regressed,
}

/// Judges one pair. `bound` is the share of A's median B may be worse by.
///
/// * B's median worse than A's by more than the bound: **regressed**.
/// * Otherwise, either side's middle-half spread wider than the bound:
///   **unresolved** — unless every run of B reads better than every run
///   of A, which is **improved** however noisy.
/// * Otherwise **improved** when B wins at least nine tenths of the
///   index-aligned pairs and its median is better by more than A's own
///   spread; else **unchanged**.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (med_b - med_a) / med_a.abs().max(1e-300);
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let spread = |v: &[f64]| {
        if v.len() >= 4 {
            stats::middle_half_spread(v)
        } else {
            0.0
        }
    };
    let clean_sweep = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound {
        return if clean_sweep {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| better(a[i], b[i])).count();
    let decided = wins + losses;
    if decided > 0 && wins as f64 >= 0.9 * decided as f64 && -worse_by > spread(a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Gate {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn gates(benchmark: &Json) -> Result<Vec<Gate>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The untraced runs of one directory: per workload, per metric, the
/// values in file-name order; plus how many runs failed.
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed_runs: usize,
}

fn load(dir: &Path) -> Result<RunSet, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut set = RunSet {
        values: BTreeMap::new(),
        failed_runs: 0,
    };
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let Ok(result) = Json::parse(&text) else {
            continue;
        };
        let (Some(workload), Some(false)) = (
            result.get("workload").and_then(Json::as_str),
            result.get("trace").and_then(Json::as_bool),
        ) else {
            continue;
        };
        let clean = result.get("correct").and_then(Json::as_bool) == Some(true)
            && result.get("failed").and_then(Json::as_f64) == Some(0.0);
        if !clean {
            set.failed_runs += 1;
            eprintln!("failed run: {}", file.display());
        }
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

fn locate_benchmark(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(path) = explicit {
        return Ok(PathBuf::from(path));
    }
    ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.is_file())
        .ok_or_else(|| "BENCHMARK.json not found (pass --benchmark)".to_string())
}

fn run(argv: &[String]) -> Result<bool, String> {
    let (dirs, explicit) = match argv {
        [a, b] => ([a, b], None),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], Some(path.as_str())),
        _ => return Err("usage: ppvbench compare <runs-A> <runs-B> [--benchmark FILE]".into()),
    };
    let path = locate_benchmark(explicit)?;
    let benchmark = Json::parse(
        &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    )?;
    let gates = gates(&benchmark)?;
    let a = load(Path::new(dirs[0]))?;
    let b = load(Path::new(dirs[1]))?;

    let mut ok = a.failed_runs + b.failed_runs == 0;
    println!(
        "{:<13} {:<14} {:>11} {:>23} {:>7} {:>11} {:>23} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "mid A",
        "median B",
        "quartiles B",
        "mid B",
        "B vs A",
        "bound"
    );
    for (workload, metrics_a) in &a.values {
        for gate in &gates {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&gate.name),
                b.values.get(workload).and_then(|m| m.get(&gate.name)),
            ) else {
                continue;
            };
            let describe = |v: &[f64]| {
                let (q, mid) = if v.len() >= 4 {
                    (stats::python_quartiles(v), stats::middle_half_spread(v))
                } else {
                    ([f64::NAN; 3], f64::NAN)
                };
                (
                    stats::median(v),
                    format!("[{:.5}, {:.5}]", q[0], q[2]),
                    format!("{:.1}%", 100.0 * mid),
                )
            };
            let (med_a, quart_a, mid_a) = describe(va);
            let (med_b, quart_b, mid_b) = describe(vb);
            let v = verdict(va, vb, gate.higher_is_better, gate.bound);
            ok &= v != Verdict::Regressed;
            println!(
                "{:<13} {:<14} {:>11.5} {:>23} {:>7} {:>11.5} {:>23} {:>7} {:>+6.1}% {:>6.2}  {}",
                workload,
                gate.name,
                med_a,
                quart_a,
                mid_a,
                med_b,
                quart_b,
                mid_b,
                100.0 * (med_b - med_a) / med_a.abs().max(1e-300),
                gate.bound,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    if a.failed_runs + b.failed_runs > 0 {
        println!("{} failed run(s)", a.failed_runs + b.failed_runs);
    }
    Ok(ok)
}

/// Exit code 0 when nothing regressed and no run failed.
pub fn command(argv: &[String]) -> ExitCode {
    match run(argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ppvbench compare: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET_A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn verdicts() {
        let shifted = |by: f64| QUIET_A.map(|v| v * by);
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&QUIET_A, &shifted(1.2), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&QUIET_A, &shifted(1.003), false, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&QUIET_A, &shifted(0.9), false, 0.1),
            Verdict::Improved
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&QUIET_A, &shifted(0.8), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&QUIET_A, &shifted(1.1), true, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn noisy_pairs_are_unresolved_not_unchanged() {
        let noisy = [
            70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &noisy, false, 0.1), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let far_better = noisy.map(|v| v * 0.3);
        assert_eq!(verdict(&noisy, &far_better, false, 0.1), Verdict::Improved);
        // A regression is a regression however noisy.
        assert_eq!(
            verdict(&noisy, &noisy.map(|v| v * 1.5), false, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn gates_come_from_benchmark_json() {
        let benchmark = Json::parse(
            r#"{"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .expect("parse");
        let g = gates(&benchmark).expect("gates");
        assert_eq!(g.len(), 2);
        assert!(g[0].higher_is_better && !g[1].higher_is_better);
        assert_eq!(g[0].bound, 0.25);
    }
}
