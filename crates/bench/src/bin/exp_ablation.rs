//! Ablations beyond the paper: the ε / δ / clip truncation knobs.
//!
//! DESIGN.md §3 calls out three design choices whose effect the paper
//! leaves implicit; this experiment quantifies each on the DBLP-like graph:
//!
//! * `ε` — prime-subgraph prune threshold: drives subgraph size (and hence
//!   both offline and online time); top-10 accuracy is insensitive across
//!   orders of magnitude.
//! * `δ` — border-hub expansion threshold: trades hub expansions per
//!   iteration against covered mass.
//! * `clip` — index storage threshold: trades index size against the mass
//!   recovered by each expansion.
//!
//! ```text
//! cargo run --release -p fastppv-bench --bin exp_ablation [--scale F]
//! ```

use fastppv_bench::cli::CommonArgs;
use fastppv_bench::datasets;
use fastppv_bench::runner::{build_fastppv, eval_fastppv};
use fastppv_bench::table::{fmt_mb, fmt_ms, fmt_s, Table};
use fastppv_bench::workload::{ground_truth, sample_queries};
use fastppv_core::hubs::HubPolicy;
use fastppv_core::query::StoppingCondition;
use fastppv_core::Config;
use fastppv_graph::{pagerank, PageRankOptions};

fn main() {
    let args = CommonArgs::parse(30);
    println!("# Ablations: ε / δ / clip (DBLP-like)");
    let dataset = datasets::dblp(args.scale, args.seed);
    let graph = &dataset.graph;
    println!("{} nodes, {} edges", graph.num_nodes(), graph.num_edges());
    let pr = pagerank(graph, PageRankOptions::default());
    let queries = sample_queries(graph, args.queries, args.seed);
    let truth = ground_truth(graph, &queries);
    let hub_count = datasets::default_hub_count(&dataset);
    let stop = StoppingCondition::iterations(2);
    let base = Config::default().with_epsilon(1e-6);

    let run = |table: &mut Table, label: String, config: Config| {
        let setup = build_fastppv(
            graph,
            hub_count,
            config,
            HubPolicy::ExpectedUtility,
            args.threads,
            Some(&pr),
        );
        let row = eval_fastppv(graph, &setup, &queries, &truth, &stop);
        table.row(vec![
            label,
            format!("{:.4}", row.accuracy.kendall),
            format!("{:.4}", row.accuracy.precision),
            format!("{:.4}", row.accuracy.l1_similarity),
            fmt_ms(row.online_per_query),
            fmt_s(row.offline_time),
            fmt_mb(row.offline_bytes),
            format!("{:.0}", setup.stats.avg_subgraph_nodes),
        ]);
    };
    let headers = vec![
        "value",
        "Kendall",
        "Precision",
        "L1 sim",
        "online/query",
        "offline time",
        "offline space",
        "avg subgraph",
    ];

    let mut eps_table = Table::new(headers.clone());
    for eps in [1e-4, 1e-5, 1e-6, 1e-7, 1e-8] {
        run(
            &mut eps_table,
            format!("eps={eps:.0e}"),
            base.with_epsilon(eps),
        );
    }
    eps_table.print("Ablation: prime-subgraph prune threshold ε");

    let mut delta_table = Table::new(headers.clone());
    for delta in [0.05, 0.01, 0.005, 0.001, 0.0] {
        run(
            &mut delta_table,
            format!("delta={delta}"),
            base.with_delta(delta),
        );
    }
    delta_table.print("Ablation: border-hub expansion threshold δ");

    let mut clip_table = Table::new(headers);
    for clip in [1e-3, 1e-4, 1e-5, 0.0] {
        run(
            &mut clip_table,
            format!("clip={clip:.0e}"),
            base.with_clip(clip),
        );
    }
    clip_table.print("Ablation: index storage clip threshold");
}
