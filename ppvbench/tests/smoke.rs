//! `--scale 0.02` smoke of all four workloads, traced and untraced, and
//! the three name lists that must agree: what the binary prints, what
//! `BENCHMARK.json` declares, and what the README's glossary explains.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ppvbench::json::Json;
use ppvbench::run::WORKLOADS;

const BIN: &str = env!("CARGO_BIN_EXE_ppvbench");

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark() -> Json {
    let path = package_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(benchmark: &Json, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the benchmark the way the driver does, at smoke scale, and
/// returns the parsed result line.
fn run(workload: &str, seed: u64, trace: u8, out: &Path) -> Json {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "16", "--trace", &trace.to_string()])
        .args(["--scale", "0.02", "--out"])
        .arg(out)
        .output()
        .expect("spawn ppvbench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace {trace}: {stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let benchmark = benchmark();
    let declared_workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let built_in: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared_workloads, built_in);

    let out = out_dir("names");
    for workload in built_in {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, 7, trace, &out);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    if trace == 0 {
                        assert!(value > 0.0, "{workload} {name} must never be 0");
                    }
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                printed,
                declared(&benchmark, list),
                "{workload} trace {trace}"
            );
        }
        assert!(out.join(format!("trace-{workload}.json")).is_file());
        assert!(out
            .join(format!("result-{workload}-seed7-trace0.json"))
            .is_file());
    }
}

#[test]
fn readme_glossary_explains_exactly_the_declared_metrics() {
    let benchmark = benchmark();
    let declared: BTreeSet<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| declared(&benchmark, list))
        .map(|(name, _)| name)
        .collect();
    let readme = std::fs::read_to_string(package_dir().join("README.md")).expect("read README");
    let glossary: BTreeSet<String> = readme
        .split("\n## ")
        .find(|section| section.starts_with("Glossary"))
        .expect("a Glossary section")
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(str::to_string)
        .collect();
    assert_eq!(glossary, declared);
}

#[test]
fn counts_repeat_exactly_for_one_seed() {
    let out = out_dir("counts");
    let (a, b) = (run("single", 3, 1, &out), run("single", 3, 1, &out));
    for name in [
        "cache.hit_ratio",
        "query.rounds",
        "query.hubs_expanded",
        "dynamic.dirty_hubs",
        "dynamic.noop_ratio",
        "index.cloned_kb_per_event",
        "offline.entries",
    ] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    let (a, b) = (run("single", 3, 0, &out), run("single", 3, 0, &out));
    assert_eq!(metric(&a, "phi_mean"), metric(&b, "phi_mean"));
}

#[test]
fn compare_passes_same_code_and_fails_a_regression() {
    let (a, b) = (out_dir("cmp-a"), out_dir("cmp-b"));
    for seed in 0..4 {
        run("accuracy", seed, 0, &a);
        run("accuracy", 10 + seed, 0, &b);
    }
    let benchmark = package_dir().join("../BENCHMARK.json");
    let compare = |x: &Path, y: &Path| {
        Command::new(BIN)
            .arg("compare")
            .args([x, y])
            .arg("--benchmark")
            .arg(&benchmark)
            .output()
            .expect("spawn compare")
    };
    let same = compare(&a, &b);
    let table = String::from_utf8_lossy(&same.stdout).to_string();
    // Smoke-scale timings are too short to be steady, so the only claim
    // is about the metric that is a pure function of the requests.
    let phi = table
        .lines()
        .find(|l| l.contains("phi_mean"))
        .expect("phi_mean row");
    assert!(phi.ends_with("unchanged"), "{phi}");

    // Make every run of B three times slower to set up: a regression.
    let slow = out_dir("cmp-slow");
    std::fs::create_dir_all(&slow).expect("mkdir");
    for entry in std::fs::read_dir(&b).expect("read b") {
        let path = entry.expect("entry").path();
        let mut result =
            Json::parse(&std::fs::read_to_string(&path).expect("read")).expect("parse");
        if let Json::Obj(pairs) = &mut result {
            for (key, value) in pairs.iter_mut() {
                if key == "metrics" {
                    if let Json::Obj(metrics) = value {
                        for (name, m) in metrics.iter_mut() {
                            if name == "setup_s" {
                                let v = m.get("value").and_then(Json::as_f64).expect("value");
                                *m = Json::obj(vec![
                                    ("value", Json::Num(v * 3.0)),
                                    ("unit", Json::str("s")),
                                ]);
                            }
                        }
                    }
                }
            }
        }
        std::fs::write(slow.join(path.file_name().expect("name")), result.render()).expect("write");
    }
    let regressed = compare(&a, &slow);
    assert!(!regressed.status.success());
    let table = String::from_utf8_lossy(&regressed.stdout).to_string();
    let setup = table
        .lines()
        .find(|l| l.contains("setup_s"))
        .expect("setup_s row");
    assert!(setup.ends_with("regressed"), "{setup}");
}
