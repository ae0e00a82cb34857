//! Criterion micro-bench: prime-subgraph extraction and prime-PPV solve —
//! the dominant cost of both the offline phase and non-hub queries.
//!
//! The kernel's one sweep loop has two row sources, and every group below
//! says which one it times:
//!
//! * **graph rows** — the in-memory one-shots `prime_ppv` and
//!   `prime_ppv_into` sweep the graph's own CSR in graph-indexed scratch
//!   (what the offline build and every served non-hub miss run);
//! * **local rows** — `extract` (+ `solve`) and `prime_ppv_from` copy the
//!   subgraph into a renumbered local CSR first, then sweep that (the
//!   materialized API and disk-resident graphs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastppv_bench::datasets;
use fastppv_core::hubs::{select_hubs, HubPolicy};
use fastppv_core::prime::PrimeComputer;
use fastppv_core::Config;

fn bench_extract_and_solve(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let mut group = c.benchmark_group("prime_ppv");
    group.sample_size(30);
    for (label, divisor) in [("hubs_1pct", 100usize), ("hubs_4pct", 25)] {
        let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / divisor, 0);
        let config = Config::default().with_epsilon(1e-6);
        // A non-hub source with an average-sized neighborhood.
        let source = (0..n as u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
        // Local rows: the search plus the local-CSR copy, no solve.
        group.bench_with_input(BenchmarkId::new("extract", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| std::hint::black_box(pc.extract(graph, &hubs, source, &config)));
        });
        // Graph rows: search, solve and emit in one call.
        group.bench_with_input(BenchmarkId::new("extract_and_solve", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| std::hint::black_box(pc.prime_ppv(graph, &hubs, source, &config, 1e-4)));
        });
    }
    group.finish();
}

/// Solve in isolation (extraction hoisted out), on local rows: the sweep
/// over a materialized subgraph's local CSR, in the computer's reused
/// scratch, plus the sorted emit.
fn bench_solve_reuse(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let config = Config::default().with_epsilon(1e-6);
    let source = (0..n as u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
    let mut group = c.benchmark_group("prime_ppv_solve");
    group.sample_size(30);
    group.bench_with_input(
        BenchmarkId::from_parameter("reused_scratch"),
        &(),
        |b, _| {
            let mut pc = PrimeComputer::new(n);
            let sub = pc.extract(graph, &hubs, source, &config);
            b.iter(|| std::hint::black_box(pc.solve(&sub, &config, 1e-4)));
        },
    );
    group.finish();
}

/// The kernel's two families side by side on the same sources, each on
/// both row sources: the *stored* one (`stored_fused` = `prime_ppv` on
/// graph rows, `stored_extract_then_solve` = `extract` + `solve` on local
/// rows — both solved to `solve_tolerance`) and the *query-time* one
/// (`query_time_into` = `prime_ppv_into` on graph rows,
/// `query_time_dyn_adjacency` = `prime_ppv_from` on local rows copied
/// through dynamic-dispatch adjacency — both stop at a residual of
/// `config.delta`). The gap between the families is what a cold non-hub
/// query saves by not buying precision its increment loop discards; the
/// gaps inside them are what sweeping the graph's own CSR saves over
/// copying the subgraph first.
fn bench_kernel_paths(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let config = Config::default().with_epsilon(1e-6);
    // Two non-hub sources: the first by id and the first past the middle
    // of the id range (ids are in creation order, so one sits among the
    // network's oldest papers and authors, the other among mid-period ones).
    let non_hub_from = |start: usize| {
        (start as u32..n as u32)
            .find(|&v| !hubs.is_hub(v))
            .expect("non-hub")
    };
    let mut group = c.benchmark_group("prime_ppv_kernel");
    group.sample_size(30);
    for (label, source) in [("first", non_hub_from(0)), ("mid", non_hub_from(n / 2))] {
        group.bench_with_input(BenchmarkId::new("stored_fused", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| std::hint::black_box(pc.prime_ppv(graph, &hubs, source, &config, 0.0)));
        });
        group.bench_with_input(
            BenchmarkId::new("stored_extract_then_solve", label),
            &(),
            |b, _| {
                let mut pc = PrimeComputer::new(n);
                b.iter(|| {
                    let sub = pc.extract(graph, &hubs, source, &config);
                    std::hint::black_box(pc.solve(&sub, &config, 0.0));
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("query_time_into", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| {
                let (entries, size) = pc.prime_ppv_into(graph, &hubs, source, &config);
                std::hint::black_box((entries.len(), size));
            });
        });
        group.bench_with_input(
            BenchmarkId::new("query_time_dyn_adjacency", label),
            &(),
            |b, _| {
                let mut pc = PrimeComputer::new(n);
                b.iter(|| std::hint::black_box(pc.prime_ppv_from(graph, &hubs, source, &config)));
            },
        );
    }
    group.finish();
}

/// `prime_ppv` (graph rows) across ε: the subgraph's size is the cost.
fn bench_epsilon(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let source = (0..n as u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
    let mut group = c.benchmark_group("prime_ppv_epsilon");
    group.sample_size(30);
    for eps in [1e-5f64, 1e-6, 1e-7, 1e-8] {
        let config = Config::default().with_epsilon(eps);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{eps:.0e}")),
            &(),
            |b, _| {
                let mut pc = PrimeComputer::new(n);
                b.iter(|| std::hint::black_box(pc.prime_ppv(graph, &hubs, source, &config, 1e-4)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extract_and_solve,
    bench_solve_reuse,
    bench_kernel_paths,
    bench_epsilon
);
criterion_main!(benches);
