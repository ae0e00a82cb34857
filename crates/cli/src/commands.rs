//! The `fastppv` subcommands.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fastppv_cluster::partition::{cluster_graph, ClusteringOptions};
use fastppv_cluster::store::write_clustered_graph;
use fastppv_cluster::ShardMap;
use fastppv_core::atomic_io;
use fastppv_core::autotune::{suggest_hub_count, AutotuneOptions};
use fastppv_core::hubs::{select_hubs_with_pagerank, HubPolicy, HubSet};
use fastppv_core::index::{FlatIndex, PpvStore};
use fastppv_core::offline::build_flat_index;
use fastppv_core::query::{QueryEngine, StoppingCondition};
use fastppv_core::{Config, DeltaConfig, Manifest, Wal, WalBatch};
use fastppv_graph::gen::{
    apply_event, barabasi_albert, erdos_renyi, synth_events, BibNetwork, DblpParams, EdgeEvent,
    SocialNetwork, SocialParams,
};
use fastppv_graph::io::{read_edge_list_file, write_edge_list, write_edge_list_file};
use fastppv_graph::{pagerank, DanglingPolicy, Graph, PageRankOptions};
use fastppv_server::{QueryService, Request, ServiceOptions};

use crate::args::{Args, CliError};

type CmdResult = Result<(), CliError>;

/// Config flags every index-touching command accepts (see
/// [`config_from_args`]).
const CONFIG_FLAGS: [&str; 4] = ["alpha", "epsilon", "delta", "clip"];

fn with_config_flags(base: &[&'static str]) -> Vec<&'static str> {
    let mut v = CONFIG_FLAGS.to_vec();
    v.extend_from_slice(base);
    v
}

fn load_graph(args: &Args) -> Result<Graph, String> {
    let path: String = args.require("graph")?;
    let undirected = args.has("undirected");
    read_edge_list_file(&path, undirected, DanglingPolicy::SelfLoop)
        .map_err(|e| format!("reading {path}: {e}"))
}

fn parse_policy(name: &str) -> Result<HubPolicy, String> {
    Ok(match name {
        "eu" | "expected-utility" => HubPolicy::ExpectedUtility,
        "pagerank" | "pr" => HubPolicy::PageRank,
        "outdeg" | "out-degree" => HubPolicy::OutDegree,
        "indeg" | "in-degree" => HubPolicy::InDegree,
        "random" => HubPolicy::Random,
        other => return Err(format!("unknown hub policy `{other}`")),
    })
}

/// Resolves the `--eta K | --l1 ERR` stopping condition (default η = 2).
fn stop_from_args(args: &Args) -> Result<StoppingCondition, CliError> {
    Ok(match (args.get::<usize>("eta")?, args.get::<f64>("l1")?) {
        (Some(_), Some(_)) => return Err(CliError::Usage("give --eta or --l1, not both".into())),
        (Some(eta), None) => StoppingCondition::iterations(eta),
        (None, Some(l1)) => StoppingCondition::l1_error(l1),
        (None, None) => StoppingCondition::iterations(2),
    })
}

fn config_from_args(args: &Args) -> Result<Config, String> {
    let mut config = Config::default();
    if let Some(eps) = args.get::<f64>("epsilon")? {
        config = config.with_epsilon(eps);
    }
    if let Some(delta) = args.get::<f64>("delta")? {
        config = config.with_delta(delta);
    }
    if let Some(clip) = args.get::<f64>("clip")? {
        config = config.with_clip(clip);
    }
    if let Some(alpha) = args.get::<f64>("alpha")? {
        config = config.with_alpha(alpha);
    }
    Ok(config)
}

/// `fastppv generate`
pub fn generate(argv: &[String]) -> CmdResult {
    let usage = "fastppv generate --kind dblp|lj|ba|er --out edges.txt \
                 [--nodes N] [--seed S]\n\
                 dblp: tripartite author-paper-venue (undirected)\n\
                 lj:   directed social network\n\
                 ba:   Barabasi-Albert (undirected)\n\
                 er:   Erdos-Renyi G(n, 5n) (directed)";
    let args = Args::parse(argv, &["kind", "out", "nodes", "seed"], &[], usage)?;
    let kind: String = args.require("kind")?;
    let out: String = args.require("out")?;
    let nodes: usize = args.get_or("nodes", 50_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let graph = match kind.as_str() {
        "dblp" => {
            BibNetwork::generate(
                DblpParams {
                    papers: nodes / 2,
                    ..Default::default()
                },
                seed,
            )
            .graph
        }
        "lj" => {
            SocialNetwork::generate(
                SocialParams {
                    nodes,
                    ..Default::default()
                },
                seed,
            )
            .graph
        }
        "ba" => barabasi_albert(nodes, 4, seed),
        "er" => erdos_renyi(nodes, nodes * 5, seed),
        other => return Err(format!("unknown kind `{other}`").into()),
    };
    write_edge_list_file(&graph, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} nodes, {} edges",
        out,
        graph.num_nodes(),
        graph.num_edges()
    );
    Ok(())
}

/// `fastppv pagerank`
pub fn pagerank_cmd(argv: &[String]) -> CmdResult {
    let usage = "fastppv pagerank --graph edges.txt [--undirected] [--top K]";
    let args = Args::parse(argv, &["graph", "top"], &["undirected"], usage)?;
    let graph = load_graph(&args)?;
    let top: usize = args.get_or("top", 10)?;
    let pr = pagerank(&graph, PageRankOptions::default());
    let mut order: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    order.sort_by(|&a, &b| pr[b as usize].total_cmp(&pr[a as usize]));
    println!("top {top} nodes by global PageRank:");
    for (rank, &v) in order.iter().take(top).enumerate() {
        println!(
            "{:>4}. node {v:<10} pagerank {:.6}  (out-degree {})",
            rank + 1,
            pr[v as usize],
            graph.out_degree(v)
        );
    }
    Ok(())
}

/// `fastppv build`
pub fn build(argv: &[String]) -> CmdResult {
    let usage = "fastppv build --graph edges.txt [--undirected] --out index.fppv\n\
                 (--hubs N | --auto-target SUBGRAPH_NODES)\n\
                 [--policy eu|pagerank|outdeg|indeg|random] [--alpha A]\n\
                 [--epsilon E] [--delta D] [--clip C] [--threads T] [--seed S]\n\
                 \n\
                 Writes the single-file arena, which `query`/`topk`/`serve`/\n\
                 `update` open zero-copy (mmap), scores bit-exact.";
    let args = Args::parse(
        argv,
        &with_config_flags(&[
            "graph",
            "out",
            "hubs",
            "auto-target",
            "policy",
            "threads",
            "seed",
        ]),
        &["undirected"],
        usage,
    )?;
    let graph = load_graph(&args)?;
    let out: String = args.require("out")?;
    let config = config_from_args(&args)?;
    let policy = parse_policy(&args.get_or("policy", "eu".to_string())?)?;
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    )?;
    let seed: u64 = args.get_or("seed", 0)?;
    let hub_count = match args.get::<usize>("hubs")? {
        Some(h) => h,
        None => {
            let target: f64 = args
                .require("auto-target")
                .map_err(|_| "give either --hubs N or --auto-target NODES".to_string())?;
            let started = Instant::now();
            let tuned = suggest_hub_count(
                &graph,
                &config,
                AutotuneOptions {
                    target_subgraph_nodes: target,
                    policy,
                    seed,
                    ..Default::default()
                },
            );
            println!(
                "autotune: |H| = {} (mean prime subgraph {:.0} nodes, \
                 {} probes, {:.2?})",
                tuned.hub_count,
                tuned.mean_subgraph_nodes,
                tuned.probes.len(),
                started.elapsed()
            );
            tuned.hub_count
        }
    };
    let hubs = select_hubs_with_pagerank(&graph, policy, hub_count, seed, None);
    let (flat, stats) = build_flat_index(&graph, &hubs, &config, threads);
    flat.write_to_file(&out).map_err(|e| e.to_string())?;
    println!(
        "built {}: {} hubs, {} entries, {:.2} MB in {:.2?} \
         (avg subgraph {:.0} nodes, avg border hubs {:.1})",
        out,
        stats.hubs,
        stats.total_entries,
        flat.file_bytes() as f64 / (1024.0 * 1024.0),
        stats.build_time,
        stats.avg_subgraph_nodes,
        stats.avg_border_hubs
    );
    Ok(())
}

/// Opens `--index` — the arena file `fastppv build` wrote — zero-copy
/// (mmap), and reconstructs the hub set it declares.
fn open_index(args: &Args, graph: &Graph) -> Result<(FlatIndex, HubSet), CliError> {
    let path: String = args.require("index")?;
    let flat = FlatIndex::open(&path).map_err(|e| format!("{path}: {e}"))?;
    if flat.capacity() != graph.num_nodes() {
        return Err(format!(
            "{path}: index built for {} nodes but the graph has {}; \
             rebuild the index against this graph",
            flat.capacity(),
            graph.num_nodes()
        )
        .into());
    }
    let hubs = HubSet::from_ids(graph.num_nodes(), flat.hub_ids().to_vec());
    Ok((flat, hubs))
}

/// `fastppv query`
pub fn query(argv: &[String]) -> CmdResult {
    let usage = "fastppv query --graph edges.txt [--undirected] \
                 --index index.fppv --node Q\n\
                 [--eta K | --l1 ERR] [--top K] \
                 [--alpha A] [--epsilon E] [--delta D]";
    let args = Args::parse(
        argv,
        &with_config_flags(&["graph", "index", "node", "eta", "l1", "top"]),
        &["undirected"],
        usage,
    )?;
    let graph = load_graph(&args)?;
    let q: u32 = args.require("node")?;
    if q as usize >= graph.num_nodes() {
        return Err(format!("node {q} out of range ({} nodes)", graph.num_nodes()).into());
    }
    let config = config_from_args(&args)?;
    let top: usize = args.get_or("top", 10)?;
    let (store, hubs) = open_index(&args, &graph)?;
    let stop = stop_from_args(&args)?;
    let engine = QueryEngine::new(&graph, &hubs, &store, config);
    let result = engine.query(q, &stop);
    println!(
        "query {q}: {} iterations, guaranteed L1 error <= {:.5}, {:.2?}{}",
        result.iterations,
        result.l1_error,
        result.elapsed,
        if result.exhausted {
            " (frontier exhausted)"
        } else {
            ""
        }
    );
    for (rank, (node, score)) in result.top_k(top).into_iter().enumerate() {
        println!("{:>4}. node {node:<10} score {score:.6}", rank + 1);
    }
    Ok(())
}

/// `fastppv topk`
pub fn topk(argv: &[String]) -> CmdResult {
    let usage = "fastppv topk --graph edges.txt [--undirected] \
                 --index index.fppv --node Q --k K [--max-eta K]";
    let args = Args::parse(
        argv,
        &with_config_flags(&["graph", "index", "node", "k", "max-eta"]),
        &["undirected"],
        usage,
    )?;
    let graph = load_graph(&args)?;
    let q: u32 = args.require("node")?;
    let k: usize = args.require("k")?;
    let max_eta: usize = args.get_or("max-eta", 10)?;
    let config = config_from_args(&args)?;
    let (store, hubs) = open_index(&args, &graph)?;
    let engine = QueryEngine::new(&graph, &hubs, &store, config);
    let res = engine.query_top_k(q, k, max_eta);
    println!(
        "top-{k} for query {q}: {} after {} iterations (phi = {:.5})",
        if res.certified {
            "CERTIFIED exact"
        } else {
            "not certified"
        },
        res.iterations,
        res.l1_error
    );
    for (rank, (node, score)) in res.nodes.into_iter().enumerate() {
        println!("{:>4}. node {node:<10} score >= {score:.6}", rank + 1);
    }
    Ok(())
}

/// `fastppv serve`
pub fn serve(argv: &[String]) -> CmdResult {
    let usage = "fastppv serve --graph edges.txt [--undirected] --index index.fppv\n\
                 [--listen ADDR] [--workers N] [--queue N] [--hot-cache N]\n\
                 [--eta K | --l1 ERR] [--top K] [--batch B] [--wal DIR]\n\
                 [--budget B] [--alpha A] [--epsilon E] [--delta D]\n\
                 \n\
                 Default mode reads one query per line from stdin:\n\
                 `NODE [eta=K | l1=ERR]` (the optional suffix overrides the\n\
                 default stopping condition per request), writes one line\n\
                 per answer to stdout, a summary to stderr on EOF.\n\
                 \n\
                 With --listen ADDR (e.g. 127.0.0.1:7878, port 0 for an\n\
                 ephemeral port) the service speaks the length-prefixed\n\
                 binary TCP protocol of fastppv_server::net instead: the\n\
                 bound address is announced on stderr, connections are\n\
                 served until the process is killed.\n\
                 \n\
                 With --wal DIR (a directory written by `fastppv update`)\n\
                 startup recovers the most recent durable state: the\n\
                 checkpointed graph + arena replace --graph/--index content\n\
                 and logged-but-uncheckpointed events are replayed before\n\
                 the first query is served. The log itself is left\n\
                 untouched.\n\
                 \n\
                 Updates (replayed WAL events, the router's OP_UPDATE\n\
                 batches) patch the hubs holding mass at a changed tail by\n\
                 delta propagation under a per-hub error budget B (default\n\
                 0.01, as for `fastppv update`); --budget 0 recomputes them\n\
                 exactly instead.\n\
                 \n\
                 With --shard-id N the opened index is sliced to the hubs\n\
                 this shard owns before serving (--num-shards K for the\n\
                 default round-robin map, or --shard-map FILE written by\n\
                 `fastppv cluster --shards`); `fastppv route` scatters\n\
                 queries across such processes. A shard answers only the\n\
                 router's sub-requests, each computed straight into its\n\
                 reply: it keeps no cache, whatever --hot-cache says.\n\
                 \n\
                 With --stats ADDR no service is started at all: the\n\
                 running service (shard or router) at ADDR is asked for\n\
                 its stats once, the answer is printed, and the command\n\
                 exits.";
    let args = Args::parse(
        argv,
        &with_config_flags(&[
            "graph",
            "index",
            "listen",
            "workers",
            "queue",
            "hot-cache",
            "eta",
            "l1",
            "top",
            "batch",
            "wal",
            "budget",
            "shard-id",
            "num-shards",
            "shard-map",
            "stats",
        ]),
        &["undirected"],
        usage,
    )?;
    if let Some(addr) = args.get::<String>("stats")? {
        return print_remote_stats(&addr);
    }
    // Validate the invocation before the expensive graph/index loads: the
    // service asserts on zero sizes, so reject them as usage errors
    // (exit 2) instead of surfacing a panic.
    let default_stop = stop_from_args(&args)?;
    let options = ServiceOptions {
        workers: args.get_or(
            "workers",
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        )?,
        queue_capacity: args.get_or("queue", 1024)?,
        cache_capacity: args.get_or("hot-cache", 4096)?,
    };
    if options.workers == 0 {
        return Err(CliError::Usage("--workers must be positive".into()));
    }
    if options.queue_capacity == 0 {
        return Err(CliError::Usage("--queue must be positive".into()));
    }
    let top: usize = args.get_or("top", 5)?;
    let batch: usize = args.get_or("batch", 256)?;
    if batch == 0 {
        return Err(CliError::Usage("--batch must be positive".into()));
    }
    let listen: Option<String> = args.get("listen")?;
    let wal: Option<String> = args.get("wal")?;
    let delta = delta_config_from_args(&args)?;
    let graph = load_graph(&args)?;
    let config = config_from_args(&args)?;
    let (store, hubs) = open_index(&args, &graph)?;
    if let Some(shard_id) = args.get::<u32>("shard-id")? {
        if wal.is_some() {
            return Err(CliError::Usage(
                "--shard-id cannot be combined with --wal: sharded indexes are \
                 updated through the router's two-phase barrier, not a local WAL"
                    .into(),
            ));
        }
        let map = shard_map_from_args(&args, graph.num_nodes())?;
        if shard_id >= map.num_shards() {
            return Err(CliError::Usage(format!(
                "--shard-id {shard_id} out of range ({} shards)",
                map.num_shards()
            )));
        }
        // Slice the full index down to the hubs this shard owns; the
        // service still gets the full hub set (prime-PPV decomposition
        // needs to block at *every* hub, not just owned ones).
        let slice = fastppv_cluster::slice_store(&store, &hubs, &map, shard_id);
        eprintln!(
            "shard {shard_id}/{}: holding {} of {} hubs",
            map.num_shards(),
            slice.hub_ids().len(),
            hubs.ids().len()
        );
        return serve_store(
            graph,
            hubs,
            slice,
            config,
            delta,
            options,
            default_stop,
            top,
            batch,
            listen,
            None,
        );
    }
    if args.get::<String>("shard-map")?.is_some() || args.get::<u32>("num-shards")?.is_some() {
        return Err(CliError::Usage(
            "--shard-map/--num-shards only apply together with --shard-id".into(),
        ));
    }
    let (graph, hubs, store, wal_dir) = match wal {
        None => (graph, hubs, store, None),
        Some(dir) => {
            let mut w = open_wal_dir(PathBuf::from(dir))?;
            match w.recovered.take() {
                None => (graph, hubs, store, Some(w)),
                Some((g, flat)) => {
                    if g.num_nodes() != graph.num_nodes() || flat.capacity() != graph.num_nodes() {
                        return Err(format!(
                            "wal dir checkpoint has {} nodes but --graph has {}; \
                             wrong --wal directory for this graph?",
                            g.num_nodes(),
                            graph.num_nodes()
                        )
                        .into());
                    }
                    let hubs = HubSet::from_ids(g.num_nodes(), flat.hub_ids().to_vec());
                    (g, hubs, flat, Some(w))
                }
            }
        }
    };
    serve_store(
        graph,
        hubs,
        store,
        config,
        delta,
        options,
        default_stop,
        top,
        batch,
        listen,
        wal_dir,
    )
}

/// `--budget B` of the commands that refresh the index: the per-hub error
/// budget of delta-patched refreshes (default 0.01); `0` selects the exact
/// path.
fn delta_config_from_args(args: &Args) -> Result<DeltaConfig, CliError> {
    let budget: f64 = args.get_or("budget", 0.01)?;
    if budget < 0.0 {
        return Err(CliError::Usage("--budget must be non-negative".into()));
    }
    Ok(if budget > 0.0 {
        DeltaConfig::default().with_budget(budget)
    } else {
        DeltaConfig::exact()
    })
}

/// Resolves `--shard-id`'s hub→shard map: a `--shard-map` file (written
/// by `fastppv cluster --shards`) or the round-robin default over
/// `--num-shards`.
fn shard_map_from_args(args: &Args, num_nodes: usize) -> Result<ShardMap, CliError> {
    match (
        args.get::<String>("shard-map")?,
        args.get::<u32>("num-shards")?,
    ) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "give --shard-map or --num-shards, not both".into(),
        )),
        (Some(path), None) => {
            let map = ShardMap::read_from_file(&path).map_err(|e| format!("{path}: {e}"))?;
            if map.num_nodes() != num_nodes {
                return Err(format!(
                    "{path}: shard map covers {} nodes but the graph has {num_nodes}",
                    map.num_nodes()
                )
                .into());
            }
            Ok(map)
        }
        (None, Some(0)) => Err(CliError::Usage("--num-shards must be positive".into())),
        (None, Some(k)) => Ok(ShardMap::round_robin(num_nodes, k)),
        (None, None) => Err(CliError::Usage(
            "--shard-id needs --num-shards K or --shard-map FILE".into(),
        )),
    }
}

/// The `--stats ADDR` one-shot mode: ask a running service (shard or
/// router — both speak the same protocol) for its stats and print them.
fn print_remote_stats(addr: &str) -> CmdResult {
    let mut client = fastppv_server::net::Client::connect(addr)
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let hello = *client.hello();
    let stats = client
        .stats()
        .map_err(|e| format!("stats from {addr}: {e}"))?;
    println!(
        "{addr}: epoch {}, {} nodes, alpha {}, delta {}",
        stats.epoch, hello.num_nodes, hello.alpha, hello.delta
    );
    println!(
        "in-flight {}, recent p99 {:.3} ms, degraded {}, shed {}",
        stats.in_flight,
        stats.recent_p99.as_secs_f64() * 1e3,
        stats.degraded,
        stats.shed
    );
    Ok(())
}

/// Builds the service over the whole arena or a shard's slice of it, with
/// `delta` as its update path, runs WAL startup recovery — events the last
/// `fastppv update` logged but had not yet checkpointed are replayed into
/// the service before the first query — and dispatches to the
/// stdin/stdout loop or the TCP front-end.
#[allow(clippy::too_many_arguments)]
fn serve_store(
    graph: Graph,
    hubs: HubSet,
    store: FlatIndex,
    config: Config,
    delta: DeltaConfig,
    options: ServiceOptions,
    default_stop: StoppingCondition,
    top: usize,
    batch: usize,
    listen: Option<String>,
    wal_dir: Option<WalDir>,
) -> CmdResult {
    let num_nodes = graph.num_nodes();
    let service = std::sync::Arc::new(
        QueryService::new(
            std::sync::Arc::new(graph),
            std::sync::Arc::new(hubs),
            std::sync::Arc::new(store),
            config,
            options,
        )
        .with_delta_config(delta),
    );
    if let Some(w) = wal_dir {
        let entries_before = service.store().total_entries();
        let (mut replayed, mut patched, mut recomputed) = (0u64, 0usize, 0usize);
        for batch in &w.pending {
            for ev in &batch.events {
                let next = apply_event(&service.graph(), ev);
                let stats = service.apply_update(next, &[ev.tail]);
                patched += stats.delta_patched;
                recomputed += stats.recomputed;
                replayed += 1;
            }
        }
        if w.checkpoint_seq > 0 || replayed > 0 {
            eprintln!(
                "recovered from {}: checkpoint at event {}, replayed {replayed} \
                 wal events ({patched} hubs delta-patched, {recomputed} recomputed \
                 exactly; serving epoch {}; index entries {entries_before} -> {})",
                w.dir.display(),
                w.checkpoint_seq,
                service.epoch(),
                service.store().total_entries()
            );
        }
    }
    match listen {
        Some(addr) => serve_net(service, &addr, num_nodes, options),
        None => serve_loop(service, num_nodes, options, default_stop, top, batch),
    }
}

/// The `--listen` mode: the length-prefixed binary TCP protocol of
/// [`fastppv_server::net`], served until the process is killed.
fn serve_net(
    service: std::sync::Arc<QueryService<FlatIndex>>,
    addr: &str,
    num_nodes: usize,
    options: ServiceOptions,
) -> CmdResult {
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    let store = service.store();
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let server = fastppv_server::net::serve(service, listener).map_err(|e| e.to_string())?;
    eprintln!(
        "listening on {} ({num_nodes} nodes, {} workers, queue {}, hot cache {}; \
         index {:.2} MB resident, {:.2} MB mapped)",
        server.local_addr(),
        options.workers,
        options.queue_capacity,
        options.cache_capacity,
        mb(store.resident_bytes()),
        mb(store.mapped_bytes())
    );
    server.wait();
    Ok(())
}

/// The stdin/stdout serving loop.
fn serve_loop(
    service: std::sync::Arc<QueryService<FlatIndex>>,
    num_nodes: usize,
    options: ServiceOptions,
    default_stop: StoppingCondition,
    top: usize,
    batch: usize,
) -> CmdResult {
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    eprintln!(
        "serving {num_nodes} nodes with {} workers (queue {}, hot cache {}; \
         index {:.2} MB resident, {:.2} MB mapped); reading queries from stdin",
        options.workers,
        options.queue_capacity,
        options.cache_capacity,
        mb(service.store().resident_bytes()),
        mb(service.store().mapped_bytes())
    );

    let entries_at_start = service.store().total_entries();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let started = Instant::now();
    let mut served = 0u64;
    // Bounded: past the cap the p50/p99 summary covers the first
    // LATENCY_SAMPLE_CAP requests instead of growing without limit.
    const LATENCY_SAMPLE_CAP: usize = 1 << 20;
    // Hub and non-hub sources are different latency regimes (index lookup
    // vs on-the-fly prime-PPV), so the summary keeps them apart.
    let mut hub_latencies: Vec<std::time::Duration> = Vec::new();
    let mut nonhub_latencies: Vec<std::time::Duration> = Vec::new();
    // Hoisted out of the per-response loop: `hubs()` pins a snapshot
    // (lock + Arc clones) per call, and the hub set is shared unchanged
    // across updates, so one handle serves the whole session.
    let hubs = service.hubs();
    let mut pending: Vec<Request> = Vec::with_capacity(batch);
    let mut flush = |pending: &mut Vec<Request>,
                     hub_latencies: &mut Vec<std::time::Duration>,
                     nonhub_latencies: &mut Vec<std::time::Duration>,
                     served: &mut u64|
     -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        let responses = service.process_batch(std::mem::take(pending));
        for r in &responses {
            use std::io::Write;
            write!(
                out,
                "node {} iterations={} phi={:.6}{} top:",
                r.query,
                r.iterations,
                r.l1_error,
                if r.cached { " cached" } else { "" }
            )
            .map_err(|e| e.to_string())?;
            for (v, s) in r.top_k(top) {
                write!(out, " {v}:{s:.6}").map_err(|e| e.to_string())?;
            }
            writeln!(out).map_err(|e| e.to_string())?;
            let sample = if hubs.is_hub(r.query) {
                &mut *hub_latencies
            } else {
                &mut *nonhub_latencies
            };
            if sample.len() < LATENCY_SAMPLE_CAP {
                sample.push(r.latency);
            }
        }
        {
            use std::io::Write;
            out.flush().map_err(|e| e.to_string())?;
        }
        *served += responses.len() as u64;
        Ok(())
    };
    for line in std::io::BufRead::lines(stdin.lock()) {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_serve_line(line, default_stop, num_nodes) {
            Ok(request) => pending.push(request),
            Err(e) => eprintln!("skipping `{line}`: {e}"),
        }
        if pending.len() >= batch {
            flush(
                &mut pending,
                &mut hub_latencies,
                &mut nonhub_latencies,
                &mut served,
            )?;
        }
    }
    flush(
        &mut pending,
        &mut hub_latencies,
        &mut nonhub_latencies,
        &mut served,
    )?;

    let elapsed = started.elapsed();
    let stats = service.cache_stats();
    // One sort per class; the pooled p50/p99 come from the two sorted
    // samples via a merge walk — no clone, no third sort.
    let hub = fastppv_server::LatencySummary::of_mut(&mut hub_latencies);
    let nonhub = fastppv_server::LatencySummary::of_mut(&mut nonhub_latencies);
    let overall_p50 =
        fastppv_server::percentile_of_sorted_pair(&hub_latencies, &nonhub_latencies, 0.50);
    let overall_p99 =
        fastppv_server::percentile_of_sorted_pair(&hub_latencies, &nonhub_latencies, 0.99);
    eprintln!(
        "served {served} queries in {elapsed:.2?} ({:.0} QPS); \
         p50 {:.2?}, p99 {:.2?}; \
         hub sources {} (p50 {:.2?}, p99 {:.2?}), \
         non-hub sources {} (p50 {:.2?}, p99 {:.2?}); \
         cache hits {} / misses {}, {} entries in {:.2} MB; \
         index entries {entries_at_start} -> {}, {:.2} MB resident, {:.2} MB mapped",
        served as f64 / elapsed.as_secs_f64().max(1e-9),
        overall_p50,
        overall_p99,
        hub.queries,
        hub.p50,
        hub.p99,
        nonhub.queries,
        nonhub.p50,
        nonhub.p99,
        stats.hits,
        stats.misses,
        stats.entries,
        mb(stats.bytes),
        service.store().total_entries(),
        mb(service.store().resident_bytes()),
        mb(service.store().mapped_bytes())
    );
    Ok(())
}

/// Parses a serve input line: `NODE [eta=K | l1=ERR]`.
fn parse_serve_line(
    line: &str,
    default_stop: StoppingCondition,
    num_nodes: usize,
) -> Result<Request, String> {
    let mut parts = line.split_whitespace();
    let node: u32 = parts
        .next()
        .ok_or("empty line")?
        .parse()
        .map_err(|_| "not a node id".to_string())?;
    if node as usize >= num_nodes {
        return Err(format!("node {node} out of range ({num_nodes} nodes)"));
    }
    let stop = match parts.next() {
        None => default_stop,
        Some(spec) => match spec.split_once('=') {
            Some(("eta", v)) => {
                StoppingCondition::iterations(v.parse().map_err(|_| format!("bad eta `{v}`"))?)
            }
            Some(("l1", v)) => {
                StoppingCondition::l1_error(v.parse().map_err(|_| format!("bad l1 `{v}`"))?)
            }
            _ => return Err(format!("unknown per-query option `{spec}`")),
        },
    };
    if parts.next().is_some() {
        return Err("too many tokens".into());
    }
    Ok(Request {
        query: node,
        stop,
        deadline: None,
    })
}

// ---------------------------------------------------------------------------
// Durability: update WAL + generation-stamped checkpoints
// ---------------------------------------------------------------------------

/// File names inside a WAL directory. The directory as a whole is the
/// durable unit: `wal.log` (FPPVWAL1 edge events, appended *before* each
/// event is applied), `manifest` (FPPVMAN1, the atomic commit point naming
/// the current generation files), and `arena.gen-N` / `graph.gen-N`
/// checkpoints (each published via temp + fsync + rename).
const WAL_LOG: &str = "wal.log";
const WAL_MANIFEST: &str = "manifest";

/// A WAL directory opened for recovery + appends.
///
/// Crash-consistency argument, by interruption point:
/// * after `append`, before apply — the event is in `pending` on restart
///   and replayed;
/// * during a checkpoint — generation files and the manifest are each
///   written atomically, so restart sees either the old manifest (WAL
///   still covers the tail) or the new one (stale WAL records are
///   filtered by `seq`);
/// * after the manifest, before `truncate` — records below
///   `checkpoint_seq` are dropped as already-applied.
struct WalDir {
    dir: PathBuf,
    wal: Wal,
    /// Events `[0, checkpoint_seq)` are baked into the checkpoint files.
    checkpoint_seq: u64,
    /// WAL batches not yet reflected in a checkpoint (seq ≥ `checkpoint_seq`).
    pending: Vec<WalBatch>,
    /// The checkpointed (graph, arena) pair, when a manifest was present.
    recovered: Option<(Graph, FlatIndex)>,
}

fn wal_err(dir: &Path, e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(format!(
        "wal dir {}: {e} (pass --no-wal to run without crash durability)",
        dir.display()
    ))
}

/// Opens (creating if needed) a WAL directory and performs the read side
/// of recovery: load the manifest, open the checkpointed generation files
/// it names, and split the log into already-applied and pending records.
/// Fails closed — an unwritable directory, a corrupt manifest, or a log
/// that disagrees with the manifest is an error, never a silent reset.
fn open_wal_dir(dir: PathBuf) -> Result<WalDir, CliError> {
    std::fs::create_dir_all(&dir).map_err(|e| wal_err(&dir, e))?;
    let manifest = Manifest::read(dir.join(WAL_MANIFEST)).map_err(|e| wal_err(&dir, e))?;
    let (wal, batches) = Wal::open(dir.join(WAL_LOG)).map_err(|e| wal_err(&dir, e))?;
    let (checkpoint_seq, recovered) = match manifest {
        None => (0, None),
        Some(m) => {
            let graph = read_edge_list_file(dir.join(&m.graph_name), false, DanglingPolicy::Keep)
                .map_err(|e| wal_err(&dir, format!("{}: {e}", m.graph_name)))?;
            let flat = FlatIndex::open(dir.join(&m.arena_name))
                .map_err(|e| wal_err(&dir, format!("{}: {e}", m.arena_name)))?;
            (m.seq, Some((graph, flat)))
        }
    };
    // Records fully covered by the checkpoint are stale — the crash
    // happened between the manifest publish and the log truncate.
    let pending: Vec<WalBatch> = batches
        .into_iter()
        .filter(|b| b.end_seq() > checkpoint_seq)
        .collect();
    if let Some(first) = pending.first() {
        // Checkpoints land on batch boundaries, so the first live batch
        // must start exactly at the checkpoint; anything else means the
        // directory was tampered with or mixes runs. Fail closed rather
        // than double-apply or skip events.
        if first.seq != checkpoint_seq {
            return Err(wal_err(
                &dir,
                format!(
                    "log resumes at event {} but the checkpoint covers {}",
                    first.seq, checkpoint_seq
                ),
            ));
        }
    }
    Ok(WalDir {
        dir,
        wal,
        checkpoint_seq,
        pending,
        recovered,
    })
}

impl WalDir {
    /// Publishes a checkpoint of `(graph, flat)` as generation `seq`:
    /// generation files first (each temp + fsync + rename), then the
    /// manifest (the single atomic commit point), then the log truncate.
    /// Older generation files are garbage once the manifest moves on;
    /// their removal is best-effort — a crash there only leaves extras.
    fn publish_checkpoint(&mut self, seq: u64, graph: &Graph, flat: &FlatIndex) -> CmdResult {
        let arena_name = format!("arena.gen-{seq}");
        let graph_name = format!("graph.gen-{seq}");
        flat.write_to_file(self.dir.join(&arena_name))
            .map_err(|e| wal_err(&self.dir, format!("{arena_name}: {e}")))?;
        atomic_io::write_atomic(self.dir.join(&graph_name), |w| write_edge_list(graph, w))
            .map_err(|e| wal_err(&self.dir, format!("{graph_name}: {e}")))?;
        Manifest {
            seq,
            arena_name,
            graph_name,
        }
        .write(self.dir.join(WAL_MANIFEST))
        .map_err(|e| wal_err(&self.dir, e))?;
        self.wal.truncate().map_err(|e| wal_err(&self.dir, e))?;
        self.checkpoint_seq = seq;
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let stale = |prefix: &str| {
                    name.strip_prefix(prefix)
                        .and_then(|g| g.parse::<u64>().ok())
                        .is_some_and(|g| g != seq)
                };
                if stale("arena.gen-") || stale("graph.gen-") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }
}

/// `fastppv update`
pub fn update(argv: &[String]) -> CmdResult {
    let usage = "fastppv update --graph edges.txt [--undirected] --index index.fppv\n\
                 [--events N] [--delete-fraction F] [--budget B] [--seed S]\n\
                 [--wal DIR | --no-wal] [--checkpoint-every K]\n\
                 [--alpha A] [--epsilon E] [--delta D] [--clip C]\n\
                 \n\
                 Streaming-update exerciser: synthesizes N seeded single-edge\n\
                 insert/delete events and streams them through a serving\n\
                 QueryService, refreshing the index after each one. With a\n\
                 positive --budget B the hubs whose stored PPV holds mass at\n\
                 the changed tail are patched by delta propagation under a\n\
                 per-hub error budget and every other hub is left untouched;\n\
                 B = 0 recomputes exactly every hub an epsilon-search from\n\
                 the tail reaches. Reports sustained edge-events/s, the\n\
                 patched / recomputed / reused split (per event the three\n\
                 sum to the hub count; a no-op patch only grew the hub's\n\
                 spend), and the certified budget watermark of the final\n\
                 index. Pass the same --epsilon etc. the index was built\n\
                 with.\n\
                 \n\
                 Durability: each event is appended to a write-ahead log\n\
                 (--wal DIR, default <index>.wal.d) before it is applied,\n\
                 and every K events (--checkpoint-every, default 64) plus at\n\
                 exit the refreshed arena + graph are checkpointed atomically\n\
                 and the log truncated. Re-running the same invocation after\n\
                 a crash — SIGKILL included — recovers the exact pre-crash\n\
                 state from checkpoint + log and finishes the stream.\n\
                 --no-wal opts out (no persistence, no recovery).";
    let args = Args::parse(
        argv,
        &with_config_flags(&[
            "graph",
            "index",
            "events",
            "delete-fraction",
            "budget",
            "seed",
            "wal",
            "checkpoint-every",
        ]),
        &["undirected", "no-wal"],
        usage,
    )?;
    let events_count: usize = args.get_or("events", 100)?;
    let delete_fraction: f64 = args.get_or("delete-fraction", 0.2)?;
    let delta = delta_config_from_args(&args)?;
    let budget = delta.budget;
    let seed: u64 = args.get_or("seed", 42)?;
    let checkpoint_every: u64 = args.get_or("checkpoint-every", 64)?;
    if !(0.0..=1.0).contains(&delete_fraction) {
        return Err(CliError::Usage(
            "--delete-fraction must be in [0, 1]".into(),
        ));
    }
    if checkpoint_every == 0 {
        return Err(CliError::Usage(
            "--checkpoint-every must be positive".into(),
        ));
    }
    if args.has("no-wal") && args.get::<String>("wal")?.is_some() {
        return Err(CliError::Usage(
            "give --wal DIR or --no-wal, not both".into(),
        ));
    }
    let graph = load_graph(&args)?;
    if graph.num_nodes() < 2 {
        return Err("need at least two nodes to synthesize edge events"
            .to_string()
            .into());
    }
    let config = config_from_args(&args)?;
    let mut wal_dir = if args.has("no-wal") {
        None
    } else {
        let index_path: String = args.require("index")?;
        let dir: String = args.get_or("wal", format!("{index_path}.wal.d"))?;
        Some(open_wal_dir(PathBuf::from(dir))?)
    };

    // The synthesized stream depends only on the *initial* graph (and the
    // knobs), so a recovered run re-derives the identical event sequence
    // and resumes mid-stream.
    let events = synth_events(&graph, events_count, delete_fraction, seed);
    let num_nodes = graph.num_nodes();
    let recovered_from = wal_dir.as_ref().map_or(0, |w| w.checkpoint_seq);
    if recovered_from > events.len() as u64 {
        return Err(format!(
            "wal dir checkpoint covers {recovered_from} events but --events is {}; \
             rerun with the flags the wal was recorded under, or --no-wal",
            events.len()
        )
        .into());
    }
    // Serving starts from the checkpoint when one exists; otherwise from
    // the --index as before.
    let (start_graph, flat, hubs) = match wal_dir.as_mut().and_then(|w| w.recovered.take()) {
        Some((g, f)) => {
            if g.num_nodes() != num_nodes || f.capacity() != num_nodes {
                return Err(format!(
                    "wal dir checkpoint has {} nodes but --graph has {num_nodes}; \
                     wrong --wal directory for this graph?",
                    g.num_nodes()
                )
                .into());
            }
            let hubs = HubSet::from_ids(num_nodes, f.hub_ids().to_vec());
            (g, f, hubs)
        }
        None => {
            let (f, h) = open_index(&args, &graph)?;
            (graph, f, h)
        }
    };
    let service = QueryService::new(
        std::sync::Arc::new(start_graph),
        std::sync::Arc::new(hubs),
        std::sync::Arc::new(flat),
        config,
        ServiceOptions {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 0,
        },
    )
    .with_delta_config(delta);

    // A WAL event must agree with the re-synthesized stream at the same
    // position; divergence means the directory was recorded under
    // different knobs, and applying it would corrupt the resumed run.
    let check_stream = |i: u64, ev: &EdgeEvent| -> CmdResult {
        let ok = events
            .get(i as usize)
            .is_some_and(|e| e.tail == ev.tail && e.head == ev.head && e.insert == ev.insert);
        if ok {
            Ok(())
        } else {
            Err(format!(
                "wal event {i} does not match the synthesized stream; the wal dir \
                 was recorded under different --graph/--events/--seed/\
                 --delete-fraction flags (rerun with those, or remove the dir, \
                 or pass --no-wal)"
            )
            .into())
        }
    };

    // Recovery replay: events the crashed run logged but had not yet
    // checkpointed. Already durable in the log, so not re-appended.
    let mut applied = recovered_from;
    let mut replayed = 0u64;
    if let Some(w) = wal_dir.as_mut() {
        for batch in std::mem::take(&mut w.pending) {
            for (off, ev) in batch.events.iter().enumerate() {
                let i = batch.seq + off as u64;
                if i < applied {
                    continue;
                }
                check_stream(i, ev)?;
                let next = apply_event(&service.graph(), ev);
                service.apply_update(next, &[ev.tail]);
                applied = i + 1;
                replayed += 1;
            }
        }
    }

    let mut wall = std::time::Duration::ZERO;
    let (mut patched, mut noop, mut recomputed, mut reused) = (0usize, 0usize, 0usize, 0usize);
    let mut watermark = 0.0f64;
    let entries_before = service.store().total_entries();
    let mut clip_dropped = 0.0f64;
    let mut checkpoints = 0usize;
    let mut cur = service.graph();
    for (i, ev) in events.iter().enumerate().skip(applied as usize) {
        if let Some(w) = wal_dir.as_mut() {
            w.wal
                .append(i as u64, std::slice::from_ref(ev))
                .map_err(|e| wal_err(&w.dir, e))?;
        }
        let next = apply_event(&cur, ev);
        let started = Instant::now();
        let stats = service.apply_update(next, &[ev.tail]);
        wall += started.elapsed();
        patched += stats.delta_patched;
        noop += stats.delta_noop;
        recomputed += stats.recomputed;
        reused += stats.reused;
        watermark = watermark.max(stats.budget_watermark);
        clip_dropped += stats.clip_dropped;
        cur = service.graph();
        applied = i as u64 + 1;
        if let Some(w) = wal_dir.as_mut() {
            if applied % checkpoint_every == 0 {
                let store = service.store();
                w.publish_checkpoint(applied, &cur, &store)?;
                checkpoints += 1;
            }
        }
    }
    if let Some(w) = wal_dir.as_mut() {
        if w.checkpoint_seq != applied && applied > 0 {
            let store = service.store();
            w.publish_checkpoint(applied, &service.graph(), &store)?;
            checkpoints += 1;
        }
    }
    let final_graph = service.graph();
    if recovered_from > 0 || replayed > 0 {
        println!(
            "recovered: checkpoint at event {recovered_from} + {replayed} replayed \
             wal events; resumed the stream at event {}",
            recovered_from + replayed
        );
    }
    println!(
        "streamed {} events ({} inserts, {} deletes) in {:.2?} — {:.1} events/s \
         (refresh wall-clock only)",
        events.len(),
        events.iter().filter(|e| e.insert).count(),
        events.iter().filter(|e| !e.insert).count(),
        wall,
        (events.len() as u64 - recovered_from - replayed) as f64 / wall.as_secs_f64().max(1e-9)
    );
    if let Some(w) = &wal_dir {
        println!(
            "durable: wal {} (checkpoint every {checkpoint_every} events, \
             {checkpoints} published, log at event {applied})",
            w.dir.display()
        );
    }
    // What "dirty" means depends on the path: the delta path asks each
    // hub's stored vector, the exact path searches from the tail.
    let dirty_means = if budget > 0.0 {
        "hubs holding mass at a changed tail"
    } else {
        "hubs an epsilon-search from a changed tail reaches"
    };
    println!(
        "dirty hubs ({dirty_means}): {patched} delta-patched ({noop} no-op, \
         spend only) + {recomputed} recomputed exactly; {reused} reused untouched \
         (per event the three sum to the hub count); published epoch {}",
        service.epoch()
    );
    println!(
        "index entries: {entries_before} -> {} ({clip_dropped:.3e} score mass dropped \
         below the clip by patches)",
        service.store().total_entries()
    );
    if budget > 0.0 {
        println!(
            "certified error watermark {watermark:.3e} of per-hub budget {budget} \
             (every served answer is within the watermark of an exact recompute)"
        );
    }
    println!(
        "final graph: {} nodes, {} edges",
        final_graph.num_nodes(),
        final_graph.num_edges()
    );
    Ok(())
}

/// `fastppv stats`
pub fn stats(argv: &[String]) -> CmdResult {
    let usage = "fastppv stats --index index.fppv";
    let args = Args::parse(argv, &["index"], &[], usage)?;
    let path: String = args.require("index")?;
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    let flat = FlatIndex::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let ids = flat.hub_ids();
    println!("index {path} (single-file arena):");
    println!("  hubs:          {}", flat.hub_count());
    println!("  total entries: {}", flat.total_entries());
    println!("  file size:     {:.2} MB", mb(flat.file_bytes()));
    println!("  resident:      {:.2} MB", mb(flat.resident_bytes()));
    println!("  mapped:        {:.2} MB", mb(flat.mapped_bytes()));
    println!(
        "  entries/hub:   {:.1}",
        flat.total_entries() as f64 / flat.hub_count().max(1) as f64
    );
    if let (Some(first), Some(last)) = (ids.first(), ids.last()) {
        println!("  hub id range:  {first}..={last}");
    }
    Ok(())
}

/// `fastppv cluster`
pub fn cluster(argv: &[String]) -> CmdResult {
    let usage = "fastppv cluster --graph edges.txt [--undirected] \
                 --clusters K --out graph.clg [--seed S]\n\
                 [--shards N --shard-map map.fsm]\n\
                 \n\
                 With --shards N the clustering is additionally folded\n\
                 into an N-shard ownership map (clusters stay whole, so\n\
                 co-clustered hubs land on the same shard) and written to\n\
                 --shard-map, for `fastppv serve --shard-id` and\n\
                 `fastppv route`.";
    let args = Args::parse(
        argv,
        &["graph", "clusters", "out", "seed", "shards", "shard-map"],
        &["undirected"],
        usage,
    )?;
    let graph = load_graph(&args)?;
    let k: usize = args.require("clusters")?;
    let out: String = args.require("out")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let clustering = cluster_graph(
        &graph,
        k,
        ClusteringOptions {
            seed,
            ..Default::default()
        },
    );
    let sizes = write_clustered_graph(&graph, &clustering, &out).map_err(|e| e.to_string())?;
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let total: u64 = sizes.iter().sum();
    println!(
        "wrote {out}: {k} clusters, largest {:.1} KB ({:.1}% of graph)",
        largest as f64 / 1024.0,
        100.0 * largest as f64 / total.max(1) as f64
    );
    match (args.get::<u32>("shards")?, args.get::<String>("shard-map")?) {
        (None, None) => {}
        (Some(0), _) => return Err(CliError::Usage("--shards must be positive".into())),
        (Some(n), Some(path)) => {
            let map = ShardMap::from_clustering(&clustering, n);
            map.write_to_file(&path)
                .map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}: {n}-shard ownership map over {k} clusters");
        }
        (Some(_), None) | (None, Some(_)) => {
            return Err(CliError::Usage(
                "--shards and --shard-map go together (a shard count and where \
                 to write the map)"
                    .into(),
            ))
        }
    }
    Ok(())
}
