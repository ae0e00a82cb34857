//! End-to-end tests of the `fastppv` binary (spawned as a subprocess via
//! the Cargo-provided `CARGO_BIN_EXE_fastppv` path).

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastppv"))
}

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastppv-cli-test-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    p
}

#[test]
fn no_args_prints_usage() {
    let out = bin().output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("commands:"), "{text}");
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn full_pipeline_generate_build_query() {
    let graph = temp("pipeline.txt");
    let index = temp("pipeline.fppv");

    let out = bin()
        .args([
            "generate", "--kind", "lj", "--nodes", "800", "--seed", "3", "--out",
        ])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--hubs", "80", "--epsilon", "1e-6", "--out"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("80 hubs"), "{text}");

    let out = bin()
        .args(["stats", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hubs:          80"), "{text}");

    let out = bin()
        .args(["query", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--node", "17", "--eta", "2", "--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("query 17"), "{text}");
    assert!(text.contains("node 17"), "query node ranks itself: {text}");

    let out = bin()
        .args(["topk", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--node", "17", "--k", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn query_rejects_out_of_range_node() {
    let graph = temp("range.txt");
    let index = temp("range.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "200", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--hubs", "20", "--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["query", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--node", "99999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn cluster_command_writes_store() {
    let graph = temp("cluster.txt");
    let clg = temp("cluster.clg");
    assert!(bin()
        .args(["generate", "--kind", "er", "--nodes", "300", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["cluster", "--graph"])
        .arg(&graph)
        .args(["--clusters", "6", "--out"])
        .arg(&clg)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 clusters"));
    assert!(clg.exists());
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&clg).ok();
}

#[test]
fn build_with_autotune() {
    let graph = temp("auto.txt");
    let index = temp("auto.fppv");
    assert!(bin()
        .args(["generate", "--kind", "lj", "--nodes", "600", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--auto-target", "100", "--epsilon", "1e-6", "--out"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("autotune: |H| ="));
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn unknown_flag_exits_2_and_names_the_flag() {
    // The ROADMAP regression: `query --l1-error 0.05` used to run with
    // defaults and exit 0. It must now be a usage error, exit code 2.
    let out = bin()
        .args(["query", "--graph", "nonexistent.txt", "--l1-error", "0.05"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--l1-error"), "must name the flag: {text}");

    // Every subcommand rejects, not just query.
    for cmd in [
        "generate", "pagerank", "build", "topk", "serve", "stats", "cluster",
    ] {
        let out = bin().args([cmd, "--frobnicate", "1"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--frobnicate"),
            "{cmd} must name the flag"
        );
    }
}

#[test]
fn serve_rejects_zero_workers_as_usage_error() {
    let out = bin()
        .args([
            "serve",
            "--graph",
            "g.txt",
            "--index",
            "i.fppv",
            "--workers",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));
}

#[test]
fn runtime_errors_still_exit_1() {
    let out = bin()
        .args(["stats", "--index", "/definitely/not/there.fppv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn serve_answers_queries_from_stdin() {
    use std::io::Write;
    use std::process::Stdio;

    let graph = temp("serve.txt");
    let index = temp("serve.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "400", "--seed", "5", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--hubs", "40", "--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());

    let mut child = bin()
        .args(["serve", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--index"])
        .arg(&index)
        .args(["--workers", "4", "--batch", "3", "--top", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The repeat of node 17 sits in the SECOND batch (batch size 3): two
    // concurrent misses in one batch may legitimately both run the engine,
    // but a later batch is guaranteed to hit the warm cache.
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"17\n42 eta=3\n9 l1=0.2\n17\n# comment\n\nbogus line\n99999\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "4 valid queries served: {text}");
    assert!(lines[0].starts_with("node 17 "), "{text}");
    // The repeated query is served from the hot-PPV cache...
    assert!(lines[3].contains(" cached "), "{text}");
    // ...with scores identical to the miss.
    assert_eq!(
        lines[0].split("top:").nth(1),
        lines[3].split("top:").nth(1),
        "cache hit must return identical scores: {text}"
    );
    // eta=3 is an upper bound: the frontier may exhaust earlier under the
    // default δ truncation, but never exceed the budget.
    assert!(lines[1].starts_with("node 42 "), "{text}");
    let iters: usize = lines[1]
        .split("iterations=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(iters <= 3, "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("skipping `bogus line`"), "{err}");
    assert!(err.contains("skipping `99999`"), "{err}");
    assert!(err.contains("served 4 queries"), "{err}");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn serve_patches_replayed_updates_by_delta_at_the_default_budget() {
    use fastppv_core::wal::Wal;
    use fastppv_core::FlatIndex;
    use fastppv_graph::gen::EdgeEvent;

    let graph = temp("budget.txt");
    let index = temp("budget.fppv");
    let wal_dir = temp("budget.wal.d");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "300", "--seed", "4", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--hubs", "30", "--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());

    // Three logged-but-uncheckpointed inserts, each at a hub's own row:
    // the hub stores mass at its tail (itself), so the delta path must
    // patch it. `serve --wal` replays them through the service's update
    // path — the one a shard's OP_UPDATE takes — before serving.
    let hub_ids = FlatIndex::open(&index).unwrap().hub_ids().to_vec();
    let events: Vec<EdgeEvent> = hub_ids[..3]
        .iter()
        .map(|&h| EdgeEvent {
            tail: h,
            head: (h + 150) % 300,
            insert: true,
        })
        .collect();
    std::fs::create_dir_all(&wal_dir).unwrap();
    let (mut wal, pending) = Wal::open(wal_dir.join("wal.log")).unwrap();
    assert!(pending.is_empty());
    wal.append(0, &events).unwrap();
    drop(wal);

    let replay = |budget: Option<&str>| -> (usize, usize) {
        let mut cmd = bin();
        cmd.args(["serve", "--graph"])
            .arg(&graph)
            .args(["--undirected", "--index"])
            .arg(&index)
            .arg("--wal")
            .arg(&wal_dir);
        if let Some(b) = budget {
            cmd.args(["--budget", b]);
        }
        let out = cmd.output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{err}");
        let count = |before: &str| -> usize {
            let head = err.split(before).next().expect("replay line");
            head.rsplit(|c: char| !c.is_ascii_digit())
                .find(|s| !s.is_empty())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("no count before `{before}`: {err}"))
        };
        assert!(err.contains("replayed 3 wal events"), "{err}");
        (count(" hubs delta-patched"), count(" recomputed exactly"))
    };
    let (patched, recomputed) = replay(None);
    assert!(patched > 0, "default budget patched nothing");
    assert_eq!(recomputed, 0, "default budget recomputed {recomputed} hubs");
    // `--budget 0` is the exact control: nothing patched, all recomputed.
    let (patched, recomputed) = replay(Some("0"));
    assert_eq!(patched, 0);
    assert!(
        recomputed >= 3,
        "exact path recomputed only {recomputed} hubs"
    );

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn serve_listen_answers_over_tcp_identical_to_direct_engine() {
    use std::io::BufRead;
    use std::process::Stdio;

    use fastppv_core::query::StoppingCondition;
    use fastppv_core::{build_flat_index, Config, FlatIndex, HubSet, QueryEngine};
    use fastppv_graph::io::read_edge_list_file;
    use fastppv_graph::DanglingPolicy;
    use fastppv_server::net::{Client, WireRequest};

    let graph_path = temp("listen.txt");
    let index_path = temp("listen.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "300", "--seed", "9", "--out"])
        .arg(&graph_path)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph_path)
        .args(["--undirected", "--hubs", "30", "--out"])
        .arg(&index_path)
        .status()
        .unwrap()
        .success());

    // The server runs until killed; kill it on drop so a failing assertion
    // below cannot orphan a live process holding the port.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    // Port 0: the kernel picks a free port, the server announces it.
    let mut child = KillOnDrop(
        bin()
            .args(["serve", "--graph"])
            .arg(&graph_path)
            .args(["--undirected", "--index"])
            .arg(&index_path)
            .args(["--workers", "2", "--listen", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut stderr = std::io::BufReader::new(child.0.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    assert!(line.starts_with("listening on "), "{line}");
    let addr = line["listening on ".len()..]
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    // The CLI deploys what the benchmark measures: an engine over an arena
    // built in this process — the file contributes only the hub ids it
    // declares — must agree with the served answers bit for bit, scores
    // and certificate alike, under an η stop and an accuracy stop.
    let graph = read_edge_list_file(&graph_path, true, DanglingPolicy::SelfLoop).unwrap();
    let declared = FlatIndex::open(&index_path).unwrap().hub_ids().to_vec();
    let hubs = HubSet::from_ids(graph.num_nodes(), declared);
    let config = Config::default();
    let (flat, _) = build_flat_index(&graph, &hubs, &config, 1);
    let engine = QueryEngine::new(&graph, &hubs, &flat, config);

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.num_nodes(), 300);
    let queries: Vec<u32> = vec![0, 17, 42, 123, 299];
    let requests: Vec<WireRequest> = queries
        .iter()
        .map(|&q| WireRequest::iterations(q, 2))
        .collect();
    let accuracy_requests: Vec<WireRequest> = queries
        .iter()
        .map(|&q| WireRequest::l1_error(q, 0.2))
        .collect();
    let bits = |entries: &[(u32, f64)]| -> Vec<(u32, u64)> {
        entries.iter().map(|&(v, s)| (v, s.to_bits())).collect()
    };
    let responses = client.request_batch(&requests).unwrap();
    let accuracy_responses = client.request_batch(&accuracy_requests).unwrap();
    for (i, &q) in queries.iter().enumerate() {
        for (response, stop) in [
            (&responses[i], StoppingCondition::iterations(2)),
            (&accuracy_responses[i], StoppingCondition::l1_error(0.2)),
        ] {
            let answer = response.answer().expect("in-range query is served");
            let direct = engine.query(q, &stop);
            assert_eq!(
                bits(&answer.entries),
                bits(direct.scores.entries()),
                "query {q} ({stop:?}): served scores are not the built arena's"
            );
            assert_eq!(
                answer.l1_error.to_bits(),
                direct.l1_error.to_bits(),
                "query {q} ({stop:?}): served φ is not the built arena's"
            );
            assert_eq!(answer.iterations as usize, direct.iterations);
        }
    }

    // The repeat batch is served from the hot-PPV cache, identically.
    let again = client.request_batch(&requests).unwrap();
    for (a, b) in responses.iter().zip(&again) {
        let (a, b) = (a.answer().unwrap(), b.answer().unwrap());
        assert!(b.cached, "repeat deterministic batch must hit the cache");
        assert_eq!(a.entries, b.entries);
    }

    // Out-of-range ids are rejected per request, connection intact.
    let mixed = client
        .request_batch(&[
            WireRequest::iterations(5, 2),
            WireRequest::iterations(300, 2),
        ])
        .unwrap();
    assert!(mixed[0].answer().is_some());
    assert!(
        mixed[1].error().unwrap().contains("out of range"),
        "{mixed:?}"
    );

    drop(client);
    drop(child);
    std::fs::remove_file(&graph_path).ok();
    std::fs::remove_file(&index_path).ok();
}

#[test]
fn update_streams_events_delta_and_exact() {
    let graph = temp("update.txt");
    let index = temp("update.fppv");
    let out = bin()
        .args([
            "generate", "--kind", "ba", "--nodes", "300", "--seed", "9", "--out",
        ])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--hubs", "20", "--epsilon", "1e-6", "--out"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Delta mode: events stream, a watermark is certified under the budget.
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args([
            "--events",
            "20",
            "--budget",
            "0.01",
            "--seed",
            "5",
            "--epsilon",
            "1e-6",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("streamed 20 events"), "{text}");
    assert!(text.contains("events/s"), "{text}");
    assert!(text.contains("delta-patched"), "{text}");
    assert!(text.contains("certified error watermark"), "{text}");
    // Durability is on by default: the run reports its wal dir.
    assert!(text.contains("durable: wal"), "{text}");

    // Rerunning the same stream with fewer events contradicts the wal
    // dir's checkpoint: fail closed, don't silently diverge.
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--events", "5", "--budget", "0", "--seed", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--no-wal"),
        "the conflict error must name the way out: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Budget 0 with --no-wal: the exact path, no watermark line, and the
    // stale checkpoint is ignored entirely.
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args([
            "--events",
            "5",
            "--budget",
            "0",
            "--seed",
            "5",
            "--epsilon",
            "1e-6",
            "--no-wal",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recomputed exactly"), "{text}");
    assert!(!text.contains("certified error watermark"), "{text}");
    assert!(!text.contains("durable: wal"), "{text}");

    // Bad delete fraction is a usage error (exit 2), caught before loads.
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--delete-fraction", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&graph).ok();
    std::fs::remove_dir_all(format!("{}.wal.d", index.display())).ok();
    std::fs::remove_file(&index).ok();
}

/// Crash rounds, scaled by `FASTPPV_FAULT_ROUNDS` in CI (the default
/// keeps `cargo test` quick).
fn fault_rounds(default: usize) -> usize {
    std::env::var("FASTPPV_FAULT_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn update_survives_sigkill_at_any_point_byte_identically() {
    const EVENTS: &str = "40";
    let graph = temp("crash.txt");
    let index = temp("crash.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "300", "--seed", "21", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--hubs", "20", "--epsilon", "1e-6", "--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());

    let update = |wal: &PathBuf| {
        let mut c = bin();
        c.args(["update", "--graph"])
            .arg(&graph)
            .args(["--index"])
            .arg(&index)
            .args(["--events", EVENTS, "--budget", "0.01", "--seed", "5"])
            .args(["--checkpoint-every", "7", "--wal"])
            .arg(wal);
        c
    };

    // Golden run: uninterrupted, the final published arena is the answer
    // every crashed-and-recovered run must reproduce byte for byte.
    let golden_wal = temp("crash-golden.wal.d");
    let out = update(&golden_wal).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read(golden_wal.join(format!("arena.gen-{EVENTS}"))).unwrap();

    for round in 0..fault_rounds(5) {
        let wal = temp(&format!("crash-r{round}.wal.d"));
        // Deterministic pseudo-random kill point across the run's whole
        // lifetime: index load, mid-stream, mid-checkpoint.
        let delay = Duration::from_millis((round as u64 * 7919 + 13) % 150);
        let mut child = update(&wal).spawn().unwrap();
        std::thread::sleep(delay);
        child.kill().unwrap(); // SIGKILL on unix: no destructors, no flush
        child.wait().unwrap();

        // The rerun must recover whatever the kill left behind — torn wal
        // tail, missing manifest, half-checkpointed gen files — and finish.
        let out = update(&wal).output().unwrap();
        assert!(
            out.status.success(),
            "round {round} (killed after {delay:?}): recovery run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panic"), "round {round}: {stderr}");
        let recovered = std::fs::read(wal.join(format!("arena.gen-{EVENTS}"))).unwrap();
        assert_eq!(
            recovered, golden,
            "round {round} (killed after {delay:?}): recovered arena is not \
             byte-identical to the uninterrupted run"
        );
        std::fs::remove_dir_all(&wal).ok();
    }

    std::fs::remove_dir_all(&golden_wal).ok();
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn serve_sigkill_mid_batch_surfaces_typed_error_not_hang() {
    use std::io::BufRead;
    use std::process::Stdio;

    use fastppv_server::net::{Client, ClientError, WireRequest};

    let graph = temp("kill9.txt");
    let index = temp("kill9.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "400", "--seed", "23", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--hubs", "40", "--epsilon", "1e-6", "--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());

    let mut child = bin()
        .args(["serve", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--workers", "2", "--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    assert!(line.starts_with("listening on "), "{line}");
    let addr = line["listening on ".len()..]
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let mut client = Client::connect(&addr).unwrap();
    let requests: Vec<WireRequest> = (0..64).map(|q| WireRequest::iterations(q, 6)).collect();
    // "In flight" is a fact here, not a bet that 64 queries outlast a
    // sleep: the waiter sends batch after batch until one fails, and says
    // so once the first has been answered. From then on the connection
    // always has a batch outstanding or about to be written, so wherever
    // the kill lands there is an error to surface.
    let (answered, first_answered) = std::sync::mpsc::sync_channel(1);
    let waiter = std::thread::spawn(move || loop {
        match client.request_batch(&requests) {
            Ok(_) => {
                let _ = answered.try_send(());
            }
            Err(e) => return e,
        }
    });
    first_answered
        .recv_timeout(Duration::from_secs(10))
        .expect("the server never answered a batch");
    child.kill().unwrap();
    child.wait().unwrap();

    let started = std::time::Instant::now();
    let error = ClientError::from(waiter.join().unwrap());
    assert!(
        matches!(error, ClientError::Disconnected(_)),
        "a SIGKILLed server must surface as a disconnect, got {error:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "client hung on a dead server instead of surfacing the error"
    );

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn update_unwritable_wal_dir_exits_1_and_names_the_opt_out() {
    let graph = temp("nowal.txt");
    let index = temp("nowal.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "200", "--seed", "25", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--hubs", "20", "--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());

    // A path *under a regular file* cannot become a directory, even for
    // root (the usual read-only-dir trick is a no-op under uid 0).
    let mut unwritable = graph.clone();
    unwritable.push("nested");
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--events", "4", "--wal"])
        .arg(&unwritable)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "runtime failure, not usage");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("wal dir"), "{text}");
    assert!(text.contains("--no-wal"), "must name the opt-out: {text}");

    // --wal and --no-wal together is a usage error (exit 2).
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--index"])
        .arg(&index)
        .args(["--no-wal", "--wal", "somewhere"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn arena_pipeline_build_query_stats() {
    let graph = temp("arena.txt");
    let arena = temp("arena.fppv");

    let out = bin()
        .args([
            "generate", "--kind", "ba", "--nodes", "400", "--seed", "7", "--out",
        ])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Build writes the single-file arena: the file starts with its magic.
    let out = bin()
        .args(["build", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--hubs", "40", "--epsilon", "1e-6", "--out"])
        .arg(&arena)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read(&arena).unwrap().starts_with(b"FPPVIDX3"));

    let out = bin()
        .args(["query", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--index"])
        .arg(&arena)
        .args(["--node", "11", "--eta", "3", "--top", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("query 11"), "{text}");
    assert_eq!(text.lines().filter(|l| l.contains("score")).count(), 5);

    // stats reports the arena's memory accounting.
    let out = bin()
        .args(["stats", "--index"])
        .arg(&arena)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("single-file arena"), "{text}");
    assert!(text.contains("hubs:          40"), "{text}");
    assert!(text.contains("resident:"), "{text}");
    assert!(text.contains("mapped:"), "{text}");

    // A file of a retired format is a runtime error that says what to do
    // (exit 1 — not a usage error, never a panic) from every opener.
    let retired = temp("retired.fppv");
    std::fs::write(&retired, b"FPPVIDX1 then whatever the old writer wrote").unwrap();
    let with_graph = |cmd: &str, extra: &[&str]| {
        let mut c = bin();
        c.args([cmd, "--graph"])
            .arg(&graph)
            .args(["--undirected", "--index"])
            .arg(&retired)
            .args(extra);
        c
    };
    let mut stats = bin();
    stats.args(["stats", "--index"]).arg(&retired);
    for mut cmd in [
        with_graph("query", &["--node", "11"]),
        with_graph("topk", &["--node", "11", "--k", "3"]),
        with_graph("serve", &[]),
        with_graph("update", &["--no-wal"]),
        stats,
    ] {
        let out = cmd.output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd:?}: {err}");
        assert!(
            err.contains("FPPVIDX1") && err.contains("fastppv build"),
            "{cmd:?}: {err}"
        );
    }
    std::fs::remove_file(&retired).ok();

    // update accepts the arena directly (zero-copy open, then COW patch).
    let out = bin()
        .args(["update", "--graph"])
        .arg(&graph)
        .args(["--undirected", "--index"])
        .arg(&arena)
        .args([
            "--events",
            "4",
            "--budget",
            "0.01",
            "--seed",
            "3",
            "--epsilon",
            "1e-6",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_file(&graph).ok();
    std::fs::remove_dir_all(format!("{}.wal.d", arena.display())).ok();
    std::fs::remove_file(&arena).ok();
}

/// The sharded-serving e2e: four shard processes plus the scatter/gather
/// router, SIGKILLing one shard mid-run. The contract under test —
/// *shards that fail are still a cluster*:
///
/// * before the kill, routed answers match a direct single-process
///   engine to ≤ 1e-12;
/// * after the kill, every response is still a typed `Answer` (zero
///   client-visible errors), some degraded with an honestly inflated φ;
/// * after the shard restarts, fresh queries go back to clean answers.
#[test]
fn route_survives_shard_sigkill_with_zero_client_errors() {
    use std::io::BufRead;
    use std::process::Stdio;

    use fastppv_core::query::StoppingCondition;
    use fastppv_core::{Config, FlatIndex, HubSet, QueryEngine};
    use fastppv_graph::io::read_edge_list_file;
    use fastppv_graph::DanglingPolicy;
    use fastppv_server::net::{Client, WireRequest, WireResponse};

    let graph_path = temp("route.txt");
    let index_path = temp("route.fppv");
    assert!(bin()
        .args(["generate", "--kind", "ba", "--nodes", "600", "--seed", "4", "--out"])
        .arg(&graph_path)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--graph"])
        .arg(&graph_path)
        .args(["--undirected", "--hubs", "50", "--out"])
        .arg(&index_path)
        .status()
        .unwrap()
        .success());

    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    /// Reads the child's stderr until the `listening on`/`routing on`
    /// announcement and returns the bound address.
    fn announced_addr(child: &mut std::process::Child, what: &str) -> String {
        let stderr = child.stderr.take().unwrap();
        let mut reader = std::io::BufReader::new(stderr);
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "{what} exited before announcing its address"
            );
            if let Some(rest) = line
                .strip_prefix("listening on ")
                .or_else(|| line.strip_prefix("routing on "))
            {
                // Drain the rest of stderr in the background so the child
                // never blocks on a full pipe.
                std::thread::spawn(move || for _ in reader.lines() {});
                return rest.split_whitespace().next().unwrap().to_string();
            }
        }
    }

    let spawn_shard = |shard_id: usize, listen: &str| -> KillOnDrop {
        KillOnDrop(
            bin()
                .args(["serve", "--graph"])
                .arg(&graph_path)
                .args(["--undirected", "--index"])
                .arg(&index_path)
                .args([
                    "--workers",
                    "2",
                    "--shard-id",
                    &shard_id.to_string(),
                    "--num-shards",
                    "4",
                    "--listen",
                    listen,
                ])
                .stderr(Stdio::piped())
                .spawn()
                .unwrap(),
        )
    };

    let mut shards: Vec<KillOnDrop> = (0..4).map(|i| spawn_shard(i, "127.0.0.1:0")).collect();
    let shard_addrs: Vec<String> = shards
        .iter_mut()
        .enumerate()
        .map(|(i, s)| announced_addr(&mut s.0, &format!("shard {i}")))
        .collect();

    let mut router = KillOnDrop(
        bin()
            .args(["route", "--shards", &shard_addrs.join(",")])
            .args(["--listen", "127.0.0.1:0", "--breaker-ms", "100"])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let router_addr = announced_addr(&mut router.0, "router");

    // Independent oracle over the same deployment.
    let graph = read_edge_list_file(&graph_path, true, DanglingPolicy::SelfLoop).unwrap();
    let flat = FlatIndex::open(&index_path).unwrap();
    let hubs = HubSet::from_ids(graph.num_nodes(), flat.hub_ids().to_vec());
    let engine = QueryEngine::new(&graph, &hubs, &flat, Config::default());

    let mut client = Client::connect(&router_addr).unwrap();
    assert_eq!(client.num_nodes(), 600);

    // Phase 1: clean cluster — scattered answers equal the direct engine.
    let queries: Vec<u32> = (0..600).step_by(67).collect();
    let requests: Vec<WireRequest> = queries
        .iter()
        .map(|&q| WireRequest::iterations(q, 2))
        .collect();
    for (r, &q) in client
        .request_batch(&requests)
        .unwrap()
        .iter()
        .zip(&queries)
    {
        let answer = r.answer().unwrap_or_else(|| panic!("q {q}: {r:?}"));
        assert!(!answer.degraded, "q {q}: degraded with all shards up");
        let direct = engine.query(q, &StoppingCondition::iterations(2));
        let mut diff: f64 = answer
            .entries
            .iter()
            .map(|&(v, s)| (s - direct.scores.get(v)).abs())
            .sum();
        for &(v, s) in direct.scores.entries() {
            if !answer.entries.iter().any(|&(e, _)| e == v) {
                diff += s.abs();
            }
        }
        assert!(diff <= 1e-12, "q {q}: routed answer off by {diff}");
    }

    // Phase 2: SIGKILL shard 2 mid-run. Zero client-visible errors — every
    // response stays an Answer; degraded ones carry an inflated-but-valid φ.
    shards[2].0.kill().unwrap();
    shards[2].0.wait().unwrap();
    let mut degraded = 0u32;
    for round in 0..3 {
        let reqs: Vec<WireRequest> = queries
            .iter()
            .map(|&q| WireRequest::iterations(q, 3 + round))
            .collect();
        for (r, &q) in client.request_batch(&reqs).unwrap().iter().zip(&queries) {
            match r {
                WireResponse::Answer(a) => {
                    assert!(
                        (0.0..=1.0).contains(&a.l1_error),
                        "q {q}: φ {} out of range",
                        a.l1_error
                    );
                    if a.degraded {
                        assert!(!a.exhausted);
                        degraded += 1;
                    }
                }
                other => panic!("q {q} after SIGKILL: client-visible failure {other:?}"),
            }
        }
    }
    assert!(
        degraded > 0,
        "killing a shard of 4 must degrade some answers"
    );

    // The stats one-shot sees the router's degradation counters.
    let stats_out = bin()
        .args(["serve", "--stats", &router_addr])
        .output()
        .unwrap();
    assert!(stats_out.status.success());
    let stats_text = String::from_utf8_lossy(&stats_out.stdout).to_string();
    assert!(stats_text.contains("degraded"), "{stats_text}");

    // Phase 3: restart the shard on its old address; goodput recovers to
    // clean answers once the breaker lets the revived shard back in.
    shards[2] = spawn_shard(2, &shard_addrs[2]);
    let _ = announced_addr(&mut shards[2].0, "restarted shard 2");
    let recovered = (0..100).any(|i| {
        std::thread::sleep(Duration::from_millis(100));
        let probe =
            WireRequest::iterations(queries[i % queries.len()], 6 + (i / queries.len()) as u32);
        match client.request_one(probe) {
            Ok(WireResponse::Answer(a)) => !a.degraded,
            _ => false,
        }
    });
    assert!(recovered, "cluster did not recover after the shard restart");

    drop(client);
    drop(router);
    drop(shards);
    std::fs::remove_file(&graph_path).ok();
    std::fs::remove_file(&index_path).ok();
}
