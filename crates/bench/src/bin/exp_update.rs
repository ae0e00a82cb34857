//! Streaming-update experiment: delta-patched index maintenance under a
//! live serving load.
//!
//! Streams seeded single-edge insert/delete events into a serving
//! [`QueryService`] whose refreshes run the delta-propagation path with a
//! per-hub error budget, and measures what the delta path is for: the
//! sustained edge-events/s against the full-recompute baseline (same
//! events, budget 0), the certified budget watermark of every published
//! answer, and the serve-path p99 interference while updates stream.
//! Writes `BENCH_update.json`.
//!
//! ```text
//! cargo run --release -p fastppv-bench --bin exp_update \
//!     [--scale F] [--queries N] [--seed S] [--threads T] [--out FILE] \
//!     [--events N] [--exact-events N] [--budget F]
//! ```
//!
//! `--scale 0.02` is the CI smoke mode (BA-1k, a few seconds). Only the
//! `apply_update` call is timed on both sides — the per-event CSR rebuild
//! is workload synthesis, excluded identically from delta and baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastppv_bench::cli::CommonArgs;
use fastppv_bench::table::Table;
use fastppv_bench::update::UpdateReport;
use fastppv_bench::workload::sample_queries_zipf;
use fastppv_core::hubs::{select_hubs_with_pagerank, HubPolicy};
use fastppv_core::index::FlatIndex;
use fastppv_core::offline::build_flat_index;
use fastppv_core::{Config, DeltaConfig, HubSet, PpvStore};
use fastppv_graph::gen::{apply_event, barabasi_albert, synth_events};
use fastppv_graph::NodeId;
use fastppv_server::{LatencySummary, QueryService, Request, ServiceOptions};

/// Zipf exponent of the query mix (≈ web/social traffic skew).
const ZIPF_EXPONENT: f64 = 1.0;
/// Iteration budget η per request (the paper's default online setting).
const ETA: usize = 2;
/// Fraction of events that delete a live edge.
const DELETE_FRACTION: f64 = 0.2;

struct ExtraArgs {
    out_path: String,
    events: usize,
    exact_events: usize,
    budget: f64,
}

/// Peels the experiment-specific flags off before [`CommonArgs`] sees the
/// rest (unknown flags are a hard error there).
fn peel_extra(raw: &mut Vec<String>) -> ExtraArgs {
    let mut extra = ExtraArgs {
        out_path: String::from("BENCH_update.json"),
        events: 300,
        exact_events: 10,
        budget: 0.01,
    };
    let mut take = |flag: &str| -> Option<String> {
        let i = raw.iter().position(|a| a == flag)?;
        raw.remove(i);
        if i < raw.len() {
            Some(raw.remove(i))
        } else {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        }
    };
    if let Some(v) = take("--out") {
        extra.out_path = v;
    }
    if let Some(v) = take("--events") {
        extra.events = v.parse().expect("--events takes a count");
    }
    if let Some(v) = take("--exact-events") {
        extra.exact_events = v.parse().expect("--exact-events takes a count");
    }
    if let Some(v) = take("--budget") {
        extra.budget = v.parse().expect("--budget takes a float");
    }
    assert!(extra.budget > 0.0, "the delta path needs a positive budget");
    extra
}

/// One closed serving loop over `queries`, recording service-side
/// latencies, until the list is exhausted (`stop` is None) or the updater
/// raises the flag (`stop` is Some — the list repeats).
fn serve_loop(
    service: &QueryService<FlatIndex>,
    queries: &[NodeId],
    stop: Option<&AtomicBool>,
) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(queries.len());
    loop {
        for &q in queries {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return latencies;
            }
            let resp = service.query(Request::iterations(q, ETA));
            latencies.push(resp.latency);
        }
        if stop.is_none() {
            return latencies;
        }
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let extra = peel_extra(&mut raw);
    let args = CommonArgs::parse_from(raw, 400);

    let n = ((50_000.0 * args.scale) as usize).max(200);
    let dataset = format!("BA-{}k", (n as f64 / 1000.0).round().max(1.0) as usize);
    println!(
        "# Streaming updates: delta-patched refresh vs full recompute ({dataset}, \
         {} events, budget {})",
        extra.events, extra.budget
    );
    let graph = Arc::new(barabasi_albert(n, 4, args.seed));
    let hub_count = n / 25;
    let pr = fastppv_graph::pagerank(&graph, fastppv_graph::PageRankOptions::default());
    let hubs: Arc<HubSet> = Arc::new(select_hubs_with_pagerank(
        &graph,
        HubPolicy::ExpectedUtility,
        hub_count,
        0,
        Some(&pr),
    ));
    let config = Config::default().with_epsilon(1e-6);

    let build_started = Instant::now();
    let (flat, stats) = build_flat_index(&graph, &hubs, &config, args.threads);
    println!(
        "built |H| = {} ({} entries) in {:.2?}",
        stats.hubs,
        stats.total_entries,
        build_started.elapsed()
    );

    // Open-path timing: the index file, mapped zero-copy.
    let arena_path =
        std::env::temp_dir().join(format!("fastppv-exp-update-{}.fppv", std::process::id()));
    flat.write_to_file(&arena_path).expect("write arena file");
    let started = Instant::now();
    let opened = FlatIndex::open(&arena_path).expect("open arena");
    let open = started.elapsed();
    // The mmap-opened arena must answer bit-identically to the built one.
    for &h in hubs.ids().iter().step_by((hubs.len() / 64).max(1)) {
        assert_eq!(opened.load(h), flat.load(h), "hub {h} differs after open");
    }
    drop(opened);
    std::fs::remove_file(&arena_path).ok();
    println!("open: arena {open:.2?}");

    let options = ServiceOptions {
        workers: args.threads.max(1),
        queue_capacity: 1024,
        cache_capacity: 0, // measure engine latency, not cache hits
    };
    let arena_bytes_initial = flat.arena_bytes();
    let delta_service = Arc::new(
        QueryService::new(
            graph.clone(),
            hubs.clone(),
            Arc::new(flat.clone()),
            config,
            options,
        )
        .with_delta_config(DeltaConfig::default().with_budget(extra.budget)),
    );
    let exact_service =
        QueryService::new(graph.clone(), hubs.clone(), Arc::new(flat), config, options);

    // Quiet serving baseline: the same closed loop the interference phase
    // runs, with no updates competing.
    let queries = sample_queries_zipf(&graph, args.queries, ZIPF_EXPONENT, args.seed);
    let mut quiet = serve_loop(&delta_service, &queries, None);
    let serve_quiet = LatencySummary::of_mut(&mut quiet);

    // Delta phase: stream every event through the serving delta service
    // while a background thread keeps querying it.
    let events = synth_events(&graph, extra.events, DELETE_FRACTION, args.seed + 1);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let service = delta_service.clone();
        let queries = queries.clone();
        let stop = stop.clone();
        std::thread::spawn(move || serve_loop(&service, &queries, Some(&stop)))
    };
    let mut delta_wall = Duration::ZERO;
    let mut clone_wall = Duration::ZERO;
    let (mut dirty_hubs, mut delta_patched, mut delta_noop) = (0usize, 0usize, 0usize);
    let (mut recomputed, mut reused) = (0usize, 0usize);
    let (mut cloned_bytes, mut cloned_bytes_max_event) = (0u64, 0u64);
    let mut budget_watermark = 0.0f64;
    let mut cur = delta_service.graph();
    for ev in &events {
        let next = apply_event(&cur, ev);
        let started = Instant::now();
        let stats = delta_service.apply_update(next, &[ev.tail]);
        delta_wall += started.elapsed();
        clone_wall += stats.clone_elapsed;
        dirty_hubs += stats.dirty();
        delta_patched += stats.delta_patched;
        delta_noop += stats.delta_noop;
        recomputed += stats.recomputed;
        reused += stats.reused;
        cloned_bytes += stats.cloned_bytes;
        cloned_bytes_max_event = cloned_bytes_max_event.max(stats.cloned_bytes);
        budget_watermark = budget_watermark.max(stats.budget_watermark);
        cur = delta_service.graph();
    }
    stop.store(true, Ordering::Relaxed);
    let mut updating = server.join().expect("serving thread");
    let serve_updating = LatencySummary::of_mut(&mut updating);
    assert!(
        budget_watermark <= extra.budget,
        "watermark {budget_watermark} exceeds the configured budget"
    );

    // Exact baseline: replay a prefix of the same events through an
    // identical service whose refreshes recompute every dirty hub.
    let exact_events = extra.exact_events.min(events.len());
    let mut exact_wall = Duration::ZERO;
    let mut exact_cur = exact_service.graph();
    for ev in &events[..exact_events] {
        let next = apply_event(&exact_cur, ev);
        let started = Instant::now();
        exact_service.apply_update(next, &[ev.tail]);
        exact_wall += started.elapsed();
        exact_cur = exact_service.graph();
    }

    // Accuracy: max per-hub L1 between the streamed store and a fresh
    // exact build of the final graph. The certified bound is the budget
    // watermark; this adds the ε-frontier difference between patching on
    // the full graph and a fresh ε-pruned extraction.
    let final_graph = delta_service.graph();
    let (rebuilt, _) = build_flat_index(&final_graph, &hubs, &config, args.threads);
    let streamed = delta_service.store();
    let mut max_rebuild_l1 = 0.0f64;
    for &h in hubs.ids() {
        let a = streamed.load(h).expect("streamed hub ppv");
        let b = rebuilt.load(h).expect("rebuilt hub ppv");
        let mut diff = 0.0;
        let (mut i, mut j) = (0, 0);
        let (ae, be) = (a.entries.entries(), b.entries.entries());
        while i < ae.len() || j < be.len() {
            match (ae.get(i), be.get(j)) {
                (Some(&(v, s)), Some(&(w, t))) if v == w => {
                    diff += (s - t).abs();
                    i += 1;
                    j += 1;
                }
                (Some(&(v, s)), Some(&(w, _))) if v < w => {
                    diff += s.abs();
                    i += 1;
                }
                (Some(_), Some(&(_, t))) => {
                    diff += t.abs();
                    j += 1;
                }
                (Some(&(_, s)), None) => {
                    diff += s.abs();
                    i += 1;
                }
                (None, Some(&(_, t))) => {
                    diff += t.abs();
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        max_rebuild_l1 = max_rebuild_l1.max(diff);
    }

    let report = UpdateReport {
        dataset,
        nodes: graph.num_nodes(),
        edges_initial: graph.num_edges(),
        edges_final: final_graph.num_edges(),
        hubs: hubs.len(),
        seed: args.seed,
        budget: extra.budget,
        delete_fraction: DELETE_FRACTION,
        events_delta: events.len(),
        delta_wall,
        events_exact: exact_events,
        exact_wall,
        dirty_hubs,
        delta_patched,
        delta_noop,
        recomputed,
        reused,
        budget_watermark,
        clone_wall,
        cloned_bytes,
        cloned_bytes_max_event,
        arena_bytes_initial,
        arena_bytes: streamed.arena_bytes(),
        resident_bytes: streamed.resident_bytes(),
        mapped_bytes: streamed.mapped_bytes(),
        open,
        noop_update_skips: delta_service.cache_stats().noop_update_skips,
        serve_quiet,
        serve_updating,
        max_rebuild_l1,
    };

    let mut table = Table::new(vec!["path", "events", "wall", "events/s"]);
    table.row(vec![
        "delta".into(),
        report.events_delta.to_string(),
        format!("{:.2?}", report.delta_wall),
        format!("{:.1}", report.events_per_s_delta()),
    ]);
    table.row(vec![
        "exact".into(),
        report.events_exact.to_string(),
        format!("{:.2?}", report.exact_wall),
        format!("{:.1}", report.events_per_s_exact()),
    ]);
    table.print("Streaming updates while serving (apply_update wall-clock only)");
    println!(
        "speedup {:.1}x | dirty {} = patched {} (noop {}) + recomputed {} | \
         watermark {:.2e} of budget {} | rebuild L1 {:.2e}",
        report.speedup(),
        report.dirty_hubs,
        report.delta_patched,
        report.delta_noop,
        report.recomputed,
        report.budget_watermark,
        report.budget,
        report.max_rebuild_l1,
    );
    println!(
        "serve p99: quiet {:.2?} ({} queries) vs updating {:.2?} ({} queries)",
        report.serve_quiet.p99,
        report.serve_quiet.queries,
        report.serve_updating.p99,
        report.serve_updating.queries,
    );
    println!(
        "publish: clone wall {:.2?}, {} bytes copied total (max {} per event) \
         of a {} byte arena; final store {} bytes resident, {} mapped",
        report.clone_wall,
        report.cloned_bytes,
        report.cloned_bytes_max_event,
        report.arena_bytes,
        report.resident_bytes,
        report.mapped_bytes,
    );

    std::fs::write(&extra.out_path, report.to_json()).expect("write BENCH json");
    println!("\nwrote {}", extra.out_path);
}
