//! Standing the product up in-process the way `exp_cluster` does —
//! `serve`, `serve_router`, `TcpBackend`, `slice_store` — and taking it
//! down again. Everything the benchmark measures afterwards goes through
//! the loopback sockets opened here.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastppv_cluster::{slice_store, ShardMap};
use fastppv_core::offline::{build_flat_index, OfflineStats};
use fastppv_core::{DeltaConfig, FlatIndex, HubSet, MemoryIndex};
use fastppv_graph::Graph;
use fastppv_router::{
    serve_router, Router, RouterConfig, RouterOptions, RouterServer, TcpBackend, TcpBackendOptions,
};
use fastppv_server::net::{serve, NetServer};
use fastppv_server::{QueryService, ServiceOptions};

use crate::affinity;
use crate::inputs::{Dataset, DatasetSpec};

/// Threads `build_flat_index` runs on (the host has two vCPUs).
pub const BUILD_THREADS: usize = 2;
/// Per-hub error budget of the update path.
pub const UPDATE_BUDGET: f64 = 0.01;
/// Shards behind the router.
pub const SHARDS: u32 = 2;

/// Which processes-worth of product a workload runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `NetServer` over the whole index.
    Single,
    /// [`SHARDS`] sliced shard servers behind `serve_router`.
    Routed,
}

/// The offline half of a set-up: the dataset and its whole index.
pub struct Built {
    pub graph: Arc<Graph>,
    pub hubs: Arc<HubSet>,
    pub flat: Arc<FlatIndex>,
    pub offline: OfflineStats,
}

impl Built {
    pub fn new(data: &Dataset) -> Built {
        let (flat, offline) =
            build_flat_index(&data.graph, &data.hubs, &data.spec.config, BUILD_THREADS);
        Built {
            graph: Arc::clone(&data.graph),
            hubs: Arc::clone(&data.hubs),
            flat: Arc::new(flat),
            offline,
        }
    }
}

/// Answer-cache entries of a deployment: half the hub count, so the
/// every-hub cold pass always evicts before it wraps.
pub fn cache_entries(hubs: &HubSet) -> usize {
    (hubs.len() / 2).max(1)
}

fn listener() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))
}

/// A whole-index service the way the `single` workloads deploy it.
pub fn whole_service(
    spec: &DatasetSpec,
    built: &Built,
    cache: usize,
) -> Arc<QueryService<FlatIndex>> {
    Arc::new(
        QueryService::new(
            Arc::clone(&built.graph),
            Arc::clone(&built.hubs),
            Arc::clone(&built.flat),
            spec.config,
            ServiceOptions {
                workers: 1,
                queue_capacity: 1024,
                cache_capacity: cache,
            },
        )
        .with_delta_config(DeltaConfig::default().with_budget(UPDATE_BUDGET)),
    )
}

/// One listening `NetServer` over `service`. Threads it spawns inherit
/// the calling thread's affinity.
pub fn serve_on_loopback(service: &Arc<QueryService<FlatIndex>>) -> Result<NetServer, String> {
    serve(Arc::clone(service), listener()?).map_err(|e| format!("start front-end: {e}"))
}

/// The sliced shard services of the routed topology and how long the
/// slicing took.
pub struct Shards {
    pub map: ShardMap,
    pub services: Vec<Arc<QueryService<MemoryIndex>>>,
    pub slice_seconds: f64,
    /// Largest shard's hub count over the mean.
    pub hub_imbalance: f64,
}

/// Slices the whole index round-robin over [`SHARDS`] shard services (no
/// shard-side cache: the router's merged-answer cache is the cache).
pub fn slice_shards(spec: &DatasetSpec, built: &Built) -> Shards {
    let map = ShardMap::round_robin(built.graph.num_nodes(), SHARDS);
    let started = Instant::now();
    let slices: Vec<MemoryIndex> = (0..SHARDS)
        .map(|s| slice_store(built.flat.as_ref(), &built.hubs, &map, s))
        .collect();
    let slice_seconds = started.elapsed().as_secs_f64();
    let counts = map.hub_counts(&built.hubs);
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    let hub_imbalance = counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1e-12);
    let services = slices
        .into_iter()
        .map(|slice| {
            Arc::new(
                QueryService::new(
                    Arc::clone(&built.graph),
                    Arc::clone(&built.hubs),
                    Arc::new(slice),
                    spec.config,
                    ServiceOptions {
                        workers: 1,
                        queue_capacity: 1024,
                        cache_capacity: 0,
                    },
                )
                .with_delta_config(DeltaConfig::default().with_budget(UPDATE_BUDGET)),
            )
        })
        .collect();
    Shards {
        map,
        services,
        slice_seconds,
        hub_imbalance,
    }
}

/// The router's view of the cluster.
pub fn router_config(spec: &DatasetSpec, built: &Built) -> RouterConfig {
    RouterConfig {
        alpha: spec.config.alpha,
        delta: spec.config.delta,
        num_nodes: built.graph.num_nodes(),
    }
}

/// Router knobs of a deployment with `cache` merged answers cached.
pub fn router_options(cache: usize) -> RouterOptions {
    RouterOptions {
        cache_capacity: cache,
        ..RouterOptions::default()
    }
}

/// A routed cluster on loopback: shard servers, a `TcpBackend` over
/// them (no prober thread), and the router front-end.
pub struct Cluster {
    pub shards: Shards,
    pub shard_servers: Vec<NetServer>,
    pub backend: TcpBackend,
    pub router: RouterServer,
}

impl Cluster {
    pub fn start(spec: &DatasetSpec, built: &Built, cache: usize) -> Result<Cluster, String> {
        let shards = slice_shards(spec, built);
        let mut shard_servers = Vec::new();
        for service in &shards.services {
            shard_servers.push(
                serve(Arc::clone(service), listener()?).map_err(|e| format!("start shard: {e}"))?,
            );
        }
        let addrs: Vec<SocketAddr> = shard_servers.iter().map(NetServer::local_addr).collect();
        let backend = TcpBackend::new(addrs, TcpBackendOptions::default());
        let router = Arc::new(Router::new(
            backend.clone(),
            shards.map.clone(),
            router_config(spec, built),
            router_options(cache),
        ));
        let router = serve_router(router, listener()?).map_err(|e| format!("start router: {e}"))?;
        Ok(Cluster {
            shards,
            shard_servers,
            backend,
            router,
        })
    }

    /// Router first (its connection threads hold the pooled shard
    /// connections), then the shards.
    pub fn shut_down(self) {
        self.router.shutdown();
        drop(self.backend);
        for server in self.shard_servers {
            server.shutdown();
        }
    }
}

/// What a workload runs against.
pub enum Serving {
    Single {
        service: Arc<QueryService<FlatIndex>>,
        server: NetServer,
    },
    Routed(Box<Cluster>),
}

/// One stood-up deployment.
pub struct Deployment {
    pub built: Built,
    pub serving: Serving,
}

impl Deployment {
    /// The address clients (readers and writers) connect to.
    pub fn addr(&self) -> SocketAddr {
        match &self.serving {
            Serving::Single { server, .. } => server.local_addr(),
            Serving::Routed(cluster) => cluster.router.local_addr(),
        }
    }

    /// `(slice seconds, hub imbalance)` of the set-up, when routed.
    pub fn slicing(&self) -> Option<(f64, f64)> {
        match &self.serving {
            Serving::Single { .. } => None,
            Serving::Routed(cluster) => {
                Some((cluster.shards.slice_seconds, cluster.shards.hub_imbalance))
            }
        }
    }

    /// Stops every listener and waits for the connection threads the
    /// product detached to end (they exit when their peer closes, which
    /// the caller guarantees by dropping every client first). Hands back
    /// what was built, which outlives the listeners.
    pub fn shut_down(self, baseline_threads: usize) -> Result<Built, String> {
        match self.serving {
            Serving::Single { service, server } => {
                server.shutdown();
                drop(service);
            }
            Serving::Routed(cluster) => cluster.shut_down(),
        }
        wait_for_shutdown(baseline_threads)?;
        Ok(self.built)
    }
}

/// Waits for the connection threads the product detached to end: they
/// exit when their peer closes, so "joined" can only be observed as the
/// process's thread count coming back down to `baseline_threads`.
pub fn wait_for_shutdown(baseline_threads: usize) -> Result<(), String> {
    if affinity::wait_for_threads(baseline_threads, Duration::from_secs(15)) {
        Ok(())
    } else {
        Err(format!(
            "{} threads still alive after shutdown (baseline {baseline_threads})",
            affinity::thread_count()
        ))
    }
}

/// One full set-up: dataset generation, hub selection, index build,
/// slicing where routed, listeners up. Returns the wall-clock it took.
pub fn set_up(
    spec: DatasetSpec,
    topology: Topology,
    scale: f64,
) -> Result<(Dataset, Deployment, f64), String> {
    let started = Instant::now();
    let data = Dataset::generate(spec, scale);
    let built = Built::new(&data);
    let cache = cache_entries(&built.hubs);
    let serving = match topology {
        Topology::Single => {
            let service = whole_service(&spec, &built, cache);
            let server = serve_on_loopback(&service)?;
            Serving::Single { service, server }
        }
        Topology::Routed => Serving::Routed(Box::new(Cluster::start(&spec, &built, cache)?)),
    };
    let seconds = started.elapsed().as_secs_f64();
    Ok((data, Deployment { built, serving }, seconds))
}
