//! `ppvbench`: the repo's one benchmark. See `README.md`.
//!
//! ```text
//! ppvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale F] [--out DIR]
//! ppvbench compare <runs-A> <runs-B> [--benchmark BENCHMARK.json]
//! ppvbench digests
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ppvbench::json::Json;
use ppvbench::run::{self, Args, Metric, Outcome};
use ppvbench::{compare, host, inputs};

const USAGE: &str = "usage: ppvbench --workload <single|routed|update_serve|accuracy> --seed <n> \
--seconds <s> --trace <0|1> [--scale F] [--out DIR]\n       \
ppvbench compare <runs-A> <runs-B> [--benchmark BENCHMARK.json]\n       ppvbench digests";

fn flag<'a>(argv: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match argv.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => argv
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("missing value for {name}")),
    }
}

fn required<T: std::str::FromStr>(argv: &[String], name: &str) -> Result<T, String> {
    flag(argv, name)?
        .ok_or_else(|| format!("missing {name}"))?
        .parse()
        .map_err(|_| format!("bad value for {name}"))
}

/// Results and traces land in `ppvbench/out` when run from the repo root
/// (the driver's invocation), in `out` when run from the package.
fn default_out_dir() -> PathBuf {
    if Path::new("ppvbench").is_dir() {
        PathBuf::from("ppvbench/out")
    } else {
        PathBuf::from("out")
    }
}

fn parse_run(argv: &[String]) -> Result<Args, String> {
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--scale",
        "--out",
    ];
    for pair in argv.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {}", pair[0]));
        }
    }
    let name: String = required(argv, "--workload")?;
    let workload = run::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds: f64 = required(argv, "--seconds")?;
    let scale: f64 = flag(argv, "--scale")?.map_or(Ok(1.0), |v| {
        v.parse().map_err(|_| "bad value for --scale".to_string())
    })?;
    if !(seconds > 0.0 && seconds <= 600.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be in (0, 600] and --scale in (0, 1]".into());
    }
    let trace = match required::<u8>(argv, "--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: required(argv, "--seed")?,
        seconds,
        trace,
        scale,
        out_dir: flag(argv, "--out")?.map_or_else(default_out_dir, PathBuf::from),
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics` — end-to-end metrics untraced, per-layer traced.
fn result_line(args: &Args, outcome: &Outcome) -> Json {
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// The result file: the result line's content plus everything needed to
/// read it later — machine context, seed, counts, the host probes.
fn result_file(args: &Args, outcome: &Outcome, line: &Json) -> Json {
    let context = host::Context::capture();
    let c = outcome.counts;
    let (cpu, mem, gap) = outcome.host;
    let mut pairs = vec![
        ("workload", Json::str(args.workload.name)),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::Num(args.scale)),
        ("nproc", Json::Num(context.nproc as f64)),
        ("rustc", Json::str(context.rustc)),
        ("profile", Json::str(context.profile)),
        ("commit", Json::str(context.commit)),
        (
            "counts",
            Json::obj(vec![
                ("rounds", Json::Num(run::ROUNDS as f64)),
                ("warm_blocks", Json::Num(c.warm_blocks as f64)),
                ("rewarm_blocks", Json::Num(c.rewarm_blocks as f64)),
                ("mix_blocks", Json::Num(c.mix_blocks as f64)),
                ("hub_requests", Json::Num(c.hub_requests as f64)),
                ("nonhub_requests", Json::Num(c.nonhub_requests as f64)),
                ("events", Json::Num(c.events as f64)),
                (
                    "events_committed",
                    Json::Num(outcome.events_committed as f64),
                ),
            ]),
        ),
        (
            "host",
            Json::obj(vec![
                ("host.cpu_probe_us", Json::Num(cpu)),
                ("host.mem_probe_us", Json::Num(mem)),
                ("host.core_gap", Json::Num(gap)),
            ]),
        ),
        (
            "first_failure",
            outcome.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
        ("end_to_end", metrics_json(&outcome.end_to_end)),
    ];
    if let Json::Obj(line) = line {
        pairs.extend(line.iter().map(|(k, v)| (k.as_str(), v.clone())));
    }
    Json::obj(pairs)
}

fn run_command(argv: &[String]) -> Result<(), String> {
    let args = parse_run(argv)?;
    let outcome = run::run(&args)?;
    let line = result_line(&args, &outcome);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let file = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name, args.seed, args.trace as u8
    ));
    std::fs::write(&file, result_file(&args, &outcome, &line).render())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    if let Some(why) = &outcome.first_failure {
        eprintln!(
            "ppvbench: {} of {} operations failed; first: {why}",
            outcome.failed, outcome.attempted
        );
    }
    // Every metric by name with its unit, for people; then the result
    // line, last, for the driver.
    let shown = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in shown {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", line.render());
    Ok(())
}

fn digests_command() {
    for spec in [inputs::d20(), inputs::d5acc()] {
        let d = inputs::Dataset::generate(spec, 1.0).digests();
        println!(
            "{}: edges {:#018x} hubs {:#018x} nonhubs {:#018x} events {:#018x}",
            spec.name, d.edges, d.hubs, d.nonhubs, d.events
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        None | Some("-h") | Some("--help") => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("compare") => return compare::command(&argv[1..]),
        Some("digests") => {
            digests_command();
            Ok(())
        }
        Some(_) => run_command(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ppvbench: {why}");
            ExitCode::FAILURE
        }
    }
}
