//! The traced run's layer profile, measured from outside.
//!
//! The product has no spans of its own yet, so the profile replays a
//! fixed prefix of the run's requests and events through each deeper
//! *public* entry point in turn — `Client` → `QueryService::query` →
//! `QueryEngine::query_with` → `prime0_parts` / `expand_frontier` /
//! `PrimeComputer`; `apply_event` + `mark_affected` +
//! `refresh_flat_index_snapshot_delta` → `apply_update`; `Router` over
//! `LocalBackend` and over `TcpBackend` — against fresh deployments of
//! *both* topologies over the run's dataset and index. Every metric
//! therefore exists on every workload, and nothing in it depends on how
//! far the run's own writer got.
//!
//! The replays go level by level, never request by request: one service
//! object serves every level, so asking the same source twice in a row
//! would measure its answer cache. Between two levels of the (few)
//! non-hub sources a cycle through every hub evicts what the first left.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use fastppv_core::dynamic::{refresh_flat_index_snapshot_delta, ReverseScratch};
use fastppv_core::query::{expand_frontier, QueryWorkspace, StoppingCondition};
use fastppv_core::{DeltaConfig, FlatIndex, MemoryIndex, PpvStore, PrimeComputer, QueryEngine};
use fastppv_graph::gen::{apply_event, EdgeEvent};
use fastppv_graph::NodeId;
use fastppv_router::{BackendError, LocalBackend, Router, SubBackend};
use fastppv_server::net::{
    decode_request_batch, encode_response_batch, Client, SubReply, WireAnswer, WireExpand,
    WirePrime0, WireRequest, WireResponse, WireStop,
};
use fastppv_server::{LruCache, QueryService, Request};

use crate::affinity::Pinner;
use crate::deploy::{self, Built, Cluster, UPDATE_BUDGET};
use crate::host::Probes;
use crate::inputs::{Dataset, Rng};
use crate::run::{self, metric, Args, Metric, MixOut, Phases, Reader, Sides, Tally, TOP_K};
use crate::stats;
use crate::trace::{self, Tracer};

/// Non-hub sources replayed at every level.
const NONHUB_PREFIX: usize = 48;
/// Events replayed through the update layers.
const EVENT_PREFIX: usize = 24;
/// Cached round trips of the hit probe.
const HIT_SAMPLES: usize = 2_000;
/// Times the (cheap) hub levels are replayed.
const HUB_REPS: usize = 3;
/// Mix blocks of each half of the busy/quiet comparison.
const BUSY_BLOCKS: usize = 4;
/// First request id of the query and router replays.
const REPLAY_REQUEST_BASE: u32 = 1 << 24;
/// First request id of the update replay.
const UPDATE_REQUEST_BASE: u32 = 1 << 28;

/// Median of a layer's durations (0 for a layer that recorded none).
fn p50(sample: &[f64]) -> f64 {
    stats::quantile(sample, 0.5).unwrap_or(0.0)
}

fn mean(sample: &[f64]) -> f64 {
    sample.iter().sum::<f64>() / sample.len().max(1) as f64
}

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// A backend that counts what the merge loop sends through it.
struct Counting<B> {
    inner: B,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl<B> Counting<B> {
    fn new(inner: B) -> Self {
        Counting {
            inner,
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Bytes of `(u32, f64)` pairs on the sub-request wire.
    fn note(&self, pairs: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(12 * pairs as u64, Ordering::Relaxed);
    }
}

impl<B: SubBackend> SubBackend for Counting<B> {
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn prime0(
        &self,
        shard: usize,
        query: NodeId,
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WirePrime0>, BackendError> {
        let reply = self.inner.prime0(shard, query, expect_epoch);
        if let Ok(SubReply::Ok(p)) = &reply {
            self.note(p.entries.len() + p.frontier.len());
        }
        reply
    }

    fn expand(
        &self,
        shard: usize,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WireExpand>, BackendError> {
        let reply = self.inner.expand(shard, sublist, expect_epoch);
        if let Ok(SubReply::Ok(x)) = &reply {
            self.note(sublist.len() + x.entries.len() + x.frontier.len());
        }
        reply
    }
}

/// The two source classes of the replay.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Hub,
    NonHub,
}

impl Class {
    fn root(self) -> &'static str {
        match self {
            Class::Hub => "net.hub",
            Class::NonHub => "net.nonhub",
        }
    }
}

/// Durations (µs) one level measured over one class's sources.
#[derive(Default)]
struct Level {
    hub: Vec<f64>,
    nonhub: Vec<f64>,
}

impl Level {
    fn of(&mut self, class: Class) -> &mut Vec<f64> {
        match class {
            Class::Hub => &mut self.hub,
            Class::NonHub => &mut self.nonhub,
        }
    }
}

/// Everything the replay needs in one place.
struct Replay<'a> {
    data: &'a Dataset,
    built: &'a Built,
    stop: WireStop,
    hubs: Vec<NodeId>,
    nonhubs: Vec<NodeId>,
    pinner: Pinner,
    tracer: &'a mut Tracer,
    tally: &'a mut Tally,
    next_request: u32,
}

impl Replay<'_> {
    fn sources(&self, class: Class) -> Vec<NodeId> {
        match class {
            Class::Hub => self.hubs.clone(),
            Class::NonHub => self.nonhubs.clone(),
        }
    }

    fn tick(&mut self) {
        run::swap_if_due(&mut self.pinner, Sides::Together);
    }

    /// Records a span of `us` µs from `started` under `parent`.
    fn child(&mut self, name: &'static str, parent: u32, started: Instant, us: f64) {
        let request = self.tracer.spans[parent as usize].request;
        let ended = started + std::time::Duration::from_nanos((us * 1e3) as u64);
        self.tracer
            .record(name, Some(parent), request, started, ended);
    }

    /// Runs `f` once per source of `class` inside a span named `name`
    /// parented on `parents[i]`, returning durations and span ids.
    fn level<T>(
        &mut self,
        class: Class,
        name: &'static str,
        parents: Option<&[u32]>,
        mut f: impl FnMut(NodeId) -> T,
        mut each: impl FnMut(usize, T),
    ) -> (Vec<f64>, Vec<u32>) {
        let sources = self.sources(class);
        let mut durations = Vec::with_capacity(sources.len());
        let mut ids = Vec::with_capacity(sources.len());
        for (i, &q) in sources.iter().enumerate() {
            self.tick();
            let request = match parents {
                Some(p) => self.tracer.spans[p[i] as usize].request,
                None => {
                    self.next_request += 1;
                    self.next_request
                }
            };
            let started = Instant::now();
            let value = f(q);
            let ended = Instant::now();
            durations.push(ended.duration_since(started).as_secs_f64() * 1e6);
            ids.push(
                self.tracer
                    .record(name, parents.map(|p| p[i]), request, started, ended),
            );
            each(i, value);
        }
        (durations, ids)
    }
}

/// Cycles through every hub over `client`, untimed: evicts whatever the
/// level before left in the answer cache.
fn flush(client: &mut Client, hubs: &[NodeId], stop: WireStop) -> Result<(), String> {
    for &q in hubs {
        client
            .request_one(wire_request(q, stop))
            .map_err(|e| format!("flush: {e}"))?;
    }
    Ok(())
}

/// A request the way the run's timed phases send it.
fn wire_request(q: NodeId, stop: WireStop) -> WireRequest {
    run::wire_request(q, stop, TOP_K)
}

/// The request batch frame body of one request, as the client writes it
/// (layout in `fastppv_server::net`'s module docs).
fn request_bytes(r: &WireRequest) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&r.query.to_le_bytes());
    buf.extend_from_slice(&r.top_k.to_le_bytes());
    buf.extend_from_slice(&r.deadline_ms.unwrap_or(u32::MAX).to_le_bytes());
    match r.stop {
        WireStop::Iterations(eta) => {
            buf.push(0);
            buf.extend_from_slice(&eta.to_le_bytes());
        }
        WireStop::L1Error(target) => {
            buf.push(1);
            buf.extend_from_slice(&target.to_le_bytes());
        }
    }
    buf
}

/// The increment rounds of one query, replayed through the public
/// `expand_frontier` the way the router's merge loop drives it. Returns
/// the rounds run and the µs spent inside `expand_frontier`.
fn replay_expand(
    ws: &mut QueryWorkspace,
    built: &Built,
    config: &fastppv_core::Config,
    entries: &[(NodeId, f64)],
    frontier: Vec<(NodeId, f64)>,
    stop: &StoppingCondition,
) -> (usize, f64) {
    let mut covered: f64 = entries.iter().map(|&(_, s)| s).sum::<f64>() + config.alpha;
    let (mut frontier, mut rounds, mut spent) = (frontier, 0usize, 0.0);
    loop {
        let l1 = (1.0 - covered).max(0.0);
        let done = stop.max_iterations.is_some_and(|k| rounds >= k)
            || stop.l1_target.is_some_and(|t| l1 <= t);
        frontier.retain(|&(_, m)| m > config.delta);
        if done || frontier.is_empty() {
            return (rounds, spent);
        }
        let started = Instant::now();
        let outcome = expand_frontier(
            &frontier,
            &built.hubs,
            built.flat.as_ref(),
            config,
            ws.increment_scratch(),
        );
        spent += micros(started);
        let Ok(outcome) = outcome else {
            return (rounds, spent);
        };
        if outcome.hubs_expanded == 0 {
            return (rounds, spent);
        }
        covered += outcome.increment_mass;
        frontier = outcome.frontier;
        rounds += 1;
    }
}

/// What the query-layer replay measured, per level.
#[derive(Default)]
struct QueryLayers {
    net: Level,
    service: Level,
    query: Level,
    prime0: Level,
    expand: Level,
    topk: Level,
    encode: Vec<f64>,
    decode: Vec<f64>,
    response_bytes: Vec<f64>,
    extract: Vec<f64>,
    solve: Vec<f64>,
    subgraph_nodes: Vec<f64>,
    prime_entries: Vec<f64>,
    rounds: Vec<f64>,
    hubs_expanded: Vec<f64>,
    answer_entries: Vec<f64>,
}

/// Replays both classes through every query-side level of the single
/// topology.
fn query_layers(
    rp: &mut Replay<'_>,
    client: &mut Client,
    service: &QueryService<FlatIndex>,
) -> Result<QueryLayers, String> {
    let config = rp.data.spec.config;
    let stop = rp.stop;
    let in_process = run::stopping(stop);
    let built = rp.built;
    let engine = QueryEngine::new(&built.graph, &built.hubs, built.flat.as_ref(), config);
    let mut ws = engine.workspace();
    let mut prime = PrimeComputer::new(built.graph.num_nodes());
    let mut out = QueryLayers::default();
    let all_hubs = rp.hubs.clone();

    // A hub pass is a few milliseconds long — short enough to fall wholly
    // into one disturbed moment — so the hub levels are replayed
    // `HUB_REPS` times, each level at `HUB_REPS` moments.
    for class in std::iter::once(Class::NonHub).chain([Class::Hub; HUB_REPS]) {
        // Level 1, `net`: the round trip itself. The root of each
        // request's span tree.
        flush(client, &all_hubs, stop)?;
        let mut answers: Vec<Option<WireAnswer>> = Vec::new();
        let mut broken = None;
        let (durations, roots) = rp.level(
            class,
            class.root(),
            None,
            |q| client.request_one(wire_request(q, stop)),
            |_, response| match response {
                Ok(WireResponse::Answer(a)) => answers.push(Some(a)),
                Ok(_) => answers.push(None),
                Err(e) => {
                    answers.push(None);
                    broken = Some(e.to_string());
                }
            },
        );
        if let Some(e) = broken {
            return Err(format!("profile client: {e}"));
        }
        for (a, &q) in answers.iter().zip(&rp.sources(class)) {
            match a {
                Some(a) if !a.cached && a.query == q => rp.tally.ok(),
                _ => rp
                    .tally
                    .fail(|| format!("profile: bad or cached answer for {q}")),
            }
        }
        out.net.of(class).extend(durations);

        // `net`'s own work around the service call: decode the request,
        // pick the top k, encode the answer.
        let (d, _) = rp.level(
            class,
            "net.decode",
            Some(&roots),
            |q| decode_request_batch(&request_bytes(&wire_request(q, stop))).map(|v| v.len()),
            |_, _| {},
        );
        out.decode.extend(d);
        let encoded: Vec<WireResponse> = answers
            .iter()
            .map(|a| match a {
                Some(a) => WireResponse::Answer(a.clone()),
                None => WireResponse::Error(String::new()),
            })
            .collect();
        for (i, response) in encoded.iter().enumerate() {
            rp.tick();
            let started = Instant::now();
            let bytes = encode_response_batch(std::slice::from_ref(response));
            let us = micros(started);
            rp.child("net.encode", roots[i], started, us);
            out.encode.push(us);
            out.response_bytes.push(bytes.len() as f64);
        }

        // Level 2, `service`: the same sources through
        // `QueryService::query` (same cache, so flush first).
        flush(client, &all_hubs, stop)?;
        let (durations, service_ids) = rp.level(
            class,
            "service",
            Some(&roots),
            |q| {
                service.query(Request {
                    query: q,
                    stop: in_process,
                    deadline: None,
                })
            },
            |_, response| {
                std::hint::black_box(response.l1_error);
            },
        );
        out.service.of(class).extend(durations);

        // Level 3, `query`: the engine alone, no cache in the way.
        let mut results = Vec::new();
        let (durations, query_ids) = rp.level(
            class,
            "query",
            Some(&service_ids),
            |q| engine.query_with(&mut ws, q, &in_process),
            |_, result| results.push(result),
        );
        out.query.of(class).extend(durations);
        for r in &results {
            out.rounds.push(r.iterations as f64);
            out.hubs_expanded.push(
                r.iteration_stats
                    .iter()
                    .map(|s| s.hubs_expanded)
                    .sum::<usize>() as f64,
            );
            out.answer_entries.push(r.scores.len() as f64);
        }

        // `query.topk`: what `net` does to the engine's vector before
        // encoding. Parented on the root: it runs in `net`, not in
        // `service`.
        let mut at = 0;
        let (durations, _) = rp.level(
            class,
            "query.topk",
            Some(&roots),
            |_| {
                at += 1;
                results[at - 1].scores.top_k(TOP_K as usize).len()
            },
            |_, _| {},
        );
        out.topk.of(class).extend(durations);

        // Level 4: iteration 0 and the increment rounds, separately.
        let mut parts = Vec::new();
        let (durations, _) = rp.level(
            class,
            "query.prime0",
            Some(&query_ids),
            |q| ws.prime0_parts(&built.graph, &built.hubs, built.flat.as_ref(), q, &config),
            |_, p| parts.push(p),
        );
        out.prime0.of(class).extend(durations);
        let mut spent = Vec::new();
        for (i, (entries, frontier)) in parts.iter().enumerate() {
            rp.tick();
            let started = Instant::now();
            let (_, us) = replay_expand(
                &mut ws,
                built,
                &config,
                entries,
                frontier.clone(),
                &in_process,
            );
            // The span is the time inside `expand_frontier`, not the
            // replay's own bookkeeping around it.
            rp.child("query.expand", query_ids[i], started, us);
            spent.push(us);
        }
        out.expand.of(class).extend(spent);

        // `prime`: extraction and solve of the source's own prime PPV —
        // only non-hub sources compute one online. The public entry points
        // are the unfused ones (they materialise a `PrimeSubgraph` the
        // online path skips), so together they read a little *slower* than
        // `query.prime0`: they are spans of their own, beside the
        // request's tree, not inside it.
        if class == Class::NonHub {
            let mut subs = Vec::new();
            let (d, extract_ids) = rp.level(
                class,
                "prime.extract",
                None,
                |q| prime.extract(&built.graph, &built.hubs, q, &config),
                |_, sub| subs.push(sub),
            );
            out.extract = d;
            let mut at = 0;
            let (d, _) = rp.level(
                class,
                "prime.solve",
                Some(&extract_ids),
                |_| {
                    at += 1;
                    prime.solve(&subs[at - 1], &config, 0.0).len()
                },
                |_, entries| out.prime_entries.push(entries as f64),
            );
            out.solve = d;
            out.subgraph_nodes = subs.iter().map(|s| s.num_nodes() as f64).collect();
        }
    }
    Ok(out)
}

/// Cached round trips: a few hot keys asked over and over with a
/// cacheable stop, over the wire and in process.
fn hit_probe(
    rp: &mut Replay<'_>,
    client: &mut Client,
    service: &QueryService<FlatIndex>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let stop = WireStop::Iterations(2);
    let keys: Vec<NodeId> = rp
        .hubs
        .iter()
        .copied()
        .take((deploy::cache_entries(&rp.built.hubs) / 2).clamp(1, 64))
        .collect();
    let (mut net, mut svc) = (Vec::new(), Vec::new());
    for round in 0..=HIT_SAMPLES.div_ceil(keys.len()) {
        for &q in &keys {
            rp.tick();
            let started = Instant::now();
            let response = client
                .request_one(wire_request(q, stop))
                .map_err(|e| format!("hit probe: {e}"))?;
            let us = micros(started);
            let cached = response.answer().is_some_and(|a| a.cached);
            // Round 0 fills the cache; every later answer must be a hit.
            if round > 0 {
                if cached {
                    rp.tally.ok();
                    net.push(us);
                } else {
                    rp.tally
                        .fail(|| format!("hit probe: node {q} was not served from the cache"));
                }
            }
        }
    }
    for _ in 0..HIT_SAMPLES.div_ceil(keys.len()) {
        for &q in &keys {
            rp.tick();
            let started = Instant::now();
            let response = service.query(Request::iterations(q, 2));
            let us = micros(started);
            if response.cached {
                svc.push(us);
            }
        }
    }
    Ok((net, svc))
}

/// `cache`: the LRU alone, under the deployment's capacity and an
/// evicting key stream. Returns `(get_ns, insert_ns)` per operation.
fn cache_layer(capacity: usize) -> (f64, f64) {
    const OPS: usize = 200_000;
    let mut cache: LruCache<(NodeId, u64), Arc<u64>> = LruCache::new(capacity);
    let value = Arc::new(0u64);
    let keys = 2 * capacity as u32;
    let started = Instant::now();
    for i in 0..OPS as u32 {
        cache.insert((i % keys, 2), Arc::clone(&value));
    }
    let insert_ns = started.elapsed().as_secs_f64() * 1e9 / OPS as f64;
    let mut found = 0usize;
    let started = Instant::now();
    for i in 0..OPS as u32 {
        found += cache.get(&(i % keys, 2)).is_some() as usize;
    }
    let get_ns = started.elapsed().as_secs_f64() * 1e9 / OPS as f64;
    std::hint::black_box(found);
    (get_ns, insert_ns)
}

/// `index`: one pass over every stored PPV. Returns ns per entry.
fn index_scan(built: &Built) -> f64 {
    let mut sum = 0.0;
    let mut entries = 0usize;
    let started = Instant::now();
    for &h in built.hubs.ids() {
        if let Some(view) = built.flat.view(h) {
            entries += view.len();
            view.for_each(|_, s| sum += s);
        }
    }
    let ns = started.elapsed().as_secs_f64() * 1e9;
    std::hint::black_box(sum);
    ns / entries.max(1) as f64
}

/// What the router-layer replay measured.
#[derive(Default)]
struct RouterLayers {
    local: Level,
    tcp: Level,
    client: Level,
    subrequests: f64,
    sub_kb: f64,
}

fn router_layers(
    rp: &mut Replay<'_>,
    cluster: &Cluster,
    router_client: &mut Client,
) -> Result<RouterLayers, String> {
    let spec = rp.data.spec;
    let stop = rp.stop;
    // Routers of the profile's own over the cluster's shards, merged-answer
    // cache off: every request really scatters.
    let (map, cfg) = (
        cluster.shards.map.clone(),
        deploy::router_config(&spec, rp.built),
    );
    let local = Router::new(
        LocalBackend::<MemoryIndex>::new(cluster.shards.services.clone()),
        map.clone(),
        cfg,
        deploy::router_options(0),
    );
    let tcp = Router::new(
        Counting::new(cluster.backend.clone()),
        map,
        cfg,
        deploy::router_options(0),
    );
    let mut out = RouterLayers::default();
    let mut queries = 0u64;
    for class in std::iter::once(Class::NonHub).chain([Class::Hub; HUB_REPS]) {
        let mut good: Vec<bool> = Vec::new();
        let fine = |r: &WireResponse| r.answer().is_some_and(|a| !a.degraded);
        let (d, _) = rp.level(
            class,
            "router.client",
            None,
            |q| router_client.request_one(wire_request(q, stop)),
            |_, r| good.push(r.as_ref().is_ok_and(fine)),
        );
        out.client.of(class).extend(d);
        let (d, _) = rp.level(
            class,
            "router.tcp",
            None,
            |q| tcp.serve_request(&wire_request(q, stop)),
            |_, r| good.push(fine(&r)),
        );
        queries += d.len() as u64;
        out.tcp.of(class).extend(d);
        let (d, _) = rp.level(
            class,
            "router.local",
            None,
            |q| local.serve_request(&wire_request(q, stop)),
            |_, r| good.push(fine(&r)),
        );
        out.local.of(class).extend(d);
        let bad = good.iter().filter(|&&g| !g).count();
        if bad == 0 {
            rp.tally.ok();
        } else {
            rp.tally
                .fail(|| format!("profile: {bad} routed requests errored or degraded"));
        }
    }
    let backend = tcp.backend();
    out.subrequests = backend.calls.load(Ordering::Relaxed) as f64 / queries.max(1) as f64;
    out.sub_kb = backend.bytes.load(Ordering::Relaxed) as f64 / 1024.0 / queries.max(1) as f64;
    Ok(out)
}

/// What the update-layer replay measured, per event.
#[derive(Default)]
struct UpdateLayers {
    apply_event_us: Vec<f64>,
    affected_us: Vec<f64>,
    refresh_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    dirty: f64,
    noop: f64,
    recomputed: f64,
    watermark: f64,
    cloned_kb: Vec<f64>,
}

/// Replays the event prefix in process from the initial graph and index:
/// the three steps of an update on their own, then `apply_update` whole
/// on a service of its own (publish = whole − refresh).
fn update_layers(rp: &mut Replay<'_>, events: &[EdgeEvent]) -> UpdateLayers {
    let spec = rp.data.spec;
    let config = spec.config;
    let delta = DeltaConfig::default().with_budget(UPDATE_BUDGET);
    let built = rp.built;
    let n = built.graph.num_nodes();
    let mut out = UpdateLayers::default();
    let mut scratch = ReverseScratch::new(n);
    let mut graph = Arc::clone(&built.graph);
    let mut flat: FlatIndex = built.flat.as_ref().clone();
    let mut graphs = Vec::new();
    for (i, event) in events.iter().enumerate() {
        rp.tick();
        let request = UPDATE_REQUEST_BASE + i as u32;
        let (next, applied) = rp.tracer.time("graph.apply_event", None, request, || {
            apply_event(&graph, event)
        });
        let mut dirty = vec![false; n];
        let ((), affected) = rp.tracer.time("dynamic.affected", None, request, || {
            for g in [&*graph, &next] {
                scratch.mark_affected(
                    g,
                    &built.hubs,
                    &[event.tail],
                    config.epsilon,
                    config.alpha,
                    &mut dirty,
                );
            }
        });
        let ((refreshed, stats), refresh) =
            rp.tracer.time("dynamic.refresh", None, request, || {
                refresh_flat_index_snapshot_delta(
                    &flat,
                    &graph,
                    &next,
                    &built.hubs,
                    &[event.tail],
                    &config,
                    &delta,
                )
            });
        let nanos = |id: u32| rp.tracer.spans[id as usize].duration_ns() as f64;
        out.apply_event_us.push(nanos(applied) / 1e3);
        out.affected_us.push(nanos(affected) / 1e3);
        out.refresh_ms.push(nanos(refresh) / 1e6);
        out.dirty += stats.dirty() as f64;
        out.noop += stats.delta_noop as f64;
        out.recomputed += stats.recomputed as f64;
        out.watermark = out.watermark.max(stats.budget_watermark);
        out.cloned_kb.push(stats.cloned_bytes as f64 / 1024.0);
        flat = refreshed;
        graph = Arc::new(next);
        graphs.push(Arc::clone(&graph));
    }

    let service = deploy::whole_service(&spec, built, deploy::cache_entries(&built.hubs));
    for (i, (event, graph)) in events.iter().zip(graphs).enumerate() {
        rp.tick();
        let next = graph.as_ref().clone();
        let started = Instant::now();
        let stats = service.apply_update(next, &[event.tail]);
        let ended = Instant::now();
        let whole = ended.duration_since(started);
        rp.tracer.record(
            "service.apply_update",
            None,
            UPDATE_REQUEST_BASE + i as u32,
            started,
            ended,
        );
        out.publish_ms
            .push(whole.saturating_sub(stats.elapsed).as_secs_f64() * 1e3);
    }
    out
}

/// `router.publish_ms`: the event prefix, one two-phase publish each,
/// through the router front-end.
fn router_publish(
    rp: &mut Replay<'_>,
    addr: std::net::SocketAddr,
    events: &[EdgeEvent],
) -> Result<Vec<f64>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect router writer: {e}"))?;
    let mut out = Vec::new();
    for (i, event) in events.iter().enumerate() {
        rp.tick();
        let epoch = i as u64 + 1;
        let started = Instant::now();
        let result = client
            .update_prepare(epoch, std::slice::from_ref(event))
            .map_err(|e| e.to_string())
            .and_then(|r| r)
            .and_then(|()| client.update_commit(epoch).map_err(|e| e.to_string()))
            .and_then(|r| r);
        match result {
            Ok(()) => {
                rp.tally.ok();
                out.push(started.elapsed().as_secs_f64() * 1e3);
            }
            Err(why) => {
                rp.tally
                    .fail(|| format!("profile: routed publish of event {i}: {why}"));
                let _ = client.update_abort();
                break;
            }
        }
    }
    Ok(out)
}

/// `service.busy_qps_ratio`: the mixed stream's rate with a writer
/// streaming on the other core, over its rate alone.
fn busy_ratio(
    rp: &mut Replay<'_>,
    addr: std::net::SocketAddr,
    service: &Arc<QueryService<FlatIndex>>,
    events: &[EdgeEvent],
    seed: u64,
    probes: &mut Probes,
) -> Result<f64, String> {
    let mut reader = Reader::connect(addr, rp.stop)?;
    let mut rng = Rng::new(seed ^ 0xB5B5);
    let (mut quiet, mut busy) = (MixOut::default(), MixOut::default());
    run::mix_phase(
        &mut reader,
        rp.data,
        &mut rng,
        BUSY_BLOCKS,
        &mut rp.pinner,
        Sides::Together,
        probes,
        None,
        &mut quiet,
    )?;
    let stop_writer = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    let cell = rp.pinner.cell();
    let writer_cpu = rp.pinner.cpu(1 - rp.pinner.core());
    let sides = if rp.pinner.two_cores() {
        Sides::Opposite
    } else {
        Sides::Together
    };
    let mut wrote = std::thread::scope(|scope| {
        let stop = &stop_writer;
        let writer = scope.spawn(move || {
            run::writer_beside(service, events, 0, writer_cpu, cell, stop, ready_tx)
        });
        let _ = ready_rx.recv();
        let mixed = run::mix_phase(
            &mut reader,
            rp.data,
            &mut rng,
            BUSY_BLOCKS,
            &mut rp.pinner,
            sides,
            probes,
            None,
            &mut busy,
        );
        stop_writer.store(true, Ordering::Release);
        let wrote = writer.join().expect("profile writer panicked");
        mixed.and(wrote)
    })?;
    rp.tally.absorb(std::mem::take(&mut wrote.tally));
    rp.tally.absorb(std::mem::take(&mut reader.tally));
    Ok(busy.qps_plain() / quiet.qps_plain().max(1e-12))
}

/// The whole profile: stands both topologies up, replays, tears down,
/// and returns every per-layer metric by name.
#[allow(clippy::too_many_arguments)]
pub fn layer_profile(
    args: &Args,
    data: &Dataset,
    built: &Built,
    phases: &Phases,
    routed_setup: Option<(f64, f64)>,
    probes: &mut Probes,
    tracer: &mut Tracer,
    tally: &mut Tally,
    baseline_threads: usize,
) -> Result<Vec<Metric>, String> {
    let spec = data.spec;
    let stop = args.workload.stop;
    let cache = deploy::cache_entries(&built.hubs);

    // The same first draws the run made: its hub order, its non-hub
    // order, its events.
    let mut rng = Rng::new(args.seed);
    let hubs = data.hub_order(&mut rng);
    let nonhubs: Vec<NodeId> = data
        .nonhub_order(&mut rng)
        .into_iter()
        .take(NONHUB_PREFIX)
        .collect();
    let events: Vec<EdgeEvent> = phases.events.iter().copied().take(EVENT_PREFIX).collect();

    let service = deploy::whole_service(&spec, built, cache);
    let server = deploy::serve_on_loopback(&service)?;
    let cluster = Cluster::start(&spec, built, 0)?;
    let (slice_seconds, hub_imbalance) =
        routed_setup.unwrap_or((cluster.shards.slice_seconds, cluster.shards.hub_imbalance));

    let mut pinner = Pinner::new();
    pinner.pin_all(0);
    let mut rp = Replay {
        data,
        built,
        stop,
        hubs,
        nonhubs,
        pinner,
        tracer,
        tally,
        // Clear of the ids the run's own traced mix requests took
        // (0..) and below the update replay's (`UPDATE_REQUEST_BASE`..).
        next_request: REPLAY_REQUEST_BASE,
    };

    let measured = (|| {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect profile: {e}"))?;
        let mut router_client = Client::connect(cluster.router.local_addr())
            .map_err(|e| format!("connect profile router: {e}"))?;
        // Warm both paths before anything is kept.
        for c in [&mut client, &mut router_client] {
            flush(c, &rp.hubs.clone(), stop)?;
            for &q in &rp.nonhubs.clone() {
                c.request_one(wire_request(q, stop))
                    .map_err(|e| format!("profile warm-up: {e}"))?;
            }
        }
        let q = query_layers(&mut rp, &mut client, &service)?;
        let hits = hit_probe(&mut rp, &mut client, &service)?;
        let r = router_layers(&mut rp, &cluster, &mut router_client)?;
        let u = update_layers(&mut rp, &events);
        let routed_publish = router_publish(
            &mut rp,
            cluster.router.local_addr(),
            &events[..events.len().div_ceil(2)],
        )?;
        drop(client);
        let busy = busy_ratio(
            &mut rp,
            server.local_addr(),
            &service,
            &events,
            args.seed,
            probes,
        )?;
        Ok::<_, String>((q, hits, r, u, routed_publish, busy))
    })();
    rp.pinner.restore();
    let (cache_get_ns, cache_insert_ns) = cache_layer(cache);
    let scan_ns = index_scan(built);
    let sum_err = |root: &str| trace::sum_error(&rp.tracer.spans, root);
    let (sum_err_hub, sum_err_nonhub) = (sum_err("net.hub"), sum_err("net.nonhub"));
    server.shutdown();
    drop(service);
    cluster.shut_down();
    deploy::wait_for_shutdown(baseline_threads)?;
    let (q, (hit_net, hit_svc), r, u, routed_publish, busy) = measured?;

    let event_ms = &phases.write.event_ms;
    let tail = |n: usize| stats::tail_percentile(n).min(0.95);
    let (cpu_probe_us, mem_probe_us, core_gap) = probes.summary();
    let events_n = events.len().max(1) as f64;
    let single_hub = p50(&q.net.hub);
    let single_nonhub = p50(&q.net.nonhub);
    let traced_qps = phases
        .mix_traced
        .as_ref()
        .and_then(|m| m.qps())
        .unwrap_or(0.0);
    let plain_qps = phases.mix.qps().unwrap_or(0.0);

    Ok(vec![
        metric("graph.apply_event_us", "us", p50(&u.apply_event_us)),
        metric("hubs.select_ms", "ms", data.select_seconds * 1e3),
        metric(
            "offline.build_s",
            "s",
            built.offline.build_time.as_secs_f64(),
        ),
        metric(
            "offline.hub_us",
            "us",
            built.offline.build_time.as_secs_f64() * 1e6 * deploy::BUILD_THREADS as f64
                / built.offline.hubs.max(1) as f64,
        ),
        metric(
            "offline.entries",
            "count",
            built.offline.total_entries as f64,
        ),
        metric(
            "index.arena_mb",
            "MB",
            built.flat.arena_bytes() as f64 / 1e6,
        ),
        metric("index.scan_ns_per_entry", "ns", scan_ns),
        metric("index.cloned_kb_per_event", "kB", mean(&u.cloned_kb)),
        metric("prime.extract_us", "us", p50(&q.extract)),
        metric("prime.solve_us", "us", p50(&q.solve)),
        metric("prime.subgraph_nodes", "count", mean(&q.subgraph_nodes)),
        metric("prime.entries", "count", mean(&q.prime_entries)),
        metric("query.hub_us", "us", p50(&q.query.hub)),
        metric("query.nonhub_us", "us", p50(&q.query.nonhub)),
        metric("query.prime0_us", "us", p50(&q.prime0.nonhub)),
        metric(
            "query.expand_us",
            "us",
            p50(&[q.expand.hub.as_slice(), q.expand.nonhub.as_slice()].concat()),
        ),
        metric(
            "query.topk_us",
            "us",
            p50(&[q.topk.hub.as_slice(), q.topk.nonhub.as_slice()].concat()),
        ),
        metric("query.rounds", "count", mean(&q.rounds)),
        metric("query.hubs_expanded", "count", mean(&q.hubs_expanded)),
        metric("query.answer_entries", "count", mean(&q.answer_entries)),
        metric("dynamic.affected_us", "us", p50(&u.affected_us)),
        metric("dynamic.refresh_ms", "ms", p50(&u.refresh_ms)),
        metric("dynamic.dirty_hubs", "count", u.dirty / events_n),
        metric("dynamic.noop_ratio", "ratio", u.noop / u.dirty.max(1.0)),
        metric("dynamic.recomputed", "count", u.recomputed / events_n),
        metric("dynamic.budget_watermark", "l1", u.watermark),
        metric(
            "cache.hit_ratio",
            "ratio",
            phases.mix.cached as f64 / phases.mix.answers.max(1) as f64,
        ),
        metric("cache.get_ns", "ns", cache_get_ns),
        metric("cache.insert_ns", "ns", cache_insert_ns),
        metric("service.hit_us", "us", p50(&hit_svc)),
        metric("service.hub_us", "us", p50(&q.service.hub)),
        metric("service.nonhub_us", "us", p50(&q.service.nonhub)),
        metric(
            "service.self_us",
            "us",
            (p50(&q.service.hub) - p50(&q.query.hub)).max(0.0),
        ),
        metric("service.publish_ms", "ms", p50(&u.publish_ms)),
        metric("service.busy_qps_ratio", "ratio", busy),
        metric(
            "net.rtt_self_hit_us",
            "us",
            (p50(&hit_net) - p50(&hit_svc)).max(0.0),
        ),
        metric(
            "net.rtt_self_hub_us",
            "us",
            (single_hub - p50(&q.service.hub)).max(0.0),
        ),
        metric(
            "net.rtt_self_nonhub_us",
            "us",
            (single_nonhub - p50(&q.service.nonhub)).max(0.0),
        ),
        metric("net.decode_us", "us", p50(&q.decode)),
        metric("net.encode_us", "us", p50(&q.encode)),
        metric("net.response_bytes", "bytes", mean(&q.response_bytes)),
        metric("router.local_hub_us", "us", p50(&r.local.hub)),
        metric("router.local_nonhub_us", "us", p50(&r.local.nonhub)),
        metric("router.tcp_hub_us", "us", p50(&r.tcp.hub)),
        metric("router.tcp_nonhub_us", "us", p50(&r.tcp.nonhub)),
        metric("router.subrequests", "count", r.subrequests),
        metric("router.sub_kb", "kB", r.sub_kb),
        metric(
            "router.over_single_hub",
            "ratio",
            p50(&r.client.hub) / single_hub.max(1e-12),
        ),
        metric(
            "router.over_single_nonhub",
            "ratio",
            p50(&r.client.nonhub) / single_nonhub.max(1e-12),
        ),
        metric("router.publish_ms", "ms", p50(&routed_publish)),
        metric("cluster.slice_ms", "ms", slice_seconds * 1e3),
        metric("cluster.hub_imbalance", "ratio", hub_imbalance),
        metric(
            "client.hit_p05_us",
            "us",
            stats::quantile(&hit_net, 0.05).unwrap_or(0.0),
        ),
        metric("client.hit_p50_us", "us", p50(&hit_net)),
        metric("client.hub_p50_us", "us", phases.hub.pooled_quantile(0.5)),
        metric(
            "client.hub_p95_us",
            "us",
            phases.hub.pooled_quantile(tail(phases.hub.count())),
        ),
        metric(
            "client.nonhub_p50_us",
            "us",
            phases.nonhub.pooled_quantile(0.5),
        ),
        metric(
            "client.nonhub_p95_us",
            "us",
            phases.nonhub.pooled_quantile(tail(phases.nonhub.count())),
        ),
        metric("client.event_p50_ms", "ms", p50(event_ms)),
        metric(
            "client.event_p95_ms",
            "ms",
            stats::quantile(event_ms, tail(event_ms.len())).unwrap_or(0.0),
        ),
        metric("client.qps_plain", "1/s", phases.mix.qps_plain()),
        metric("host.cpu_probe_us", "us", cpu_probe_us),
        metric("host.mem_probe_us", "us", mem_probe_us),
        metric("host.core_gap", "ratio", core_gap),
        metric(
            "trace.overhead",
            "ratio",
            1.0 - traced_qps / plain_qps.max(1e-12),
        ),
        metric("trace.sum_err_hub", "ratio", sum_err_hub),
        metric("trace.sum_err_nonhub", "ratio", sum_err_nonhub),
    ])
}
