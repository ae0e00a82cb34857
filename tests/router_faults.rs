//! Router fault matrix: shards dying mid-batch, slow-loris stragglers
//! hedged around, a scatter that must pipeline its sub-requests and
//! retry past stale pooled connections, epoch skew injected between
//! merge iterations,
//! malformed frames and bad start-up options met the same way by the
//! router's front-end and a shard's, and a property-based certification
//! check — with one dead shard, the inflated φ must still upper-bound the
//! true L1 gap to the full-cluster answer.
//!
//! Rounds scale with `FASTPPV_FAULT_ROUNDS` (CI turns it up; the local
//! default keeps the suite fast).

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fastppv::cluster::{cluster_graph, slice_store, ClusteringOptions, ShardMap};
use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_index, select_hubs, Config, FlatIndex, HubPolicy, HubSet};
use fastppv::graph::gen::{barabasi_albert, synth_events};
use fastppv::graph::vec::ScoreScratch;
use fastppv::graph::{Graph, NodeId};
use fastppv::router::serve_router;
use fastppv::router::{
    merge_query, two_phase_publish, BackendError, Health, LocalBackend, Router, RouterConfig,
    RouterOptions, SubBackend, TcpBackend, TcpBackendOptions, UpdateBackend,
};
use fastppv::server::net::{
    serve, serve_with_options, Client, ClientOptions, NetOptions, SubReply, WireExpand, WirePrime0,
    WireRequest, WireResponse, EPOCH_ANY, OP_EXPAND, OP_PRIME0, OP_STATS,
};
use fastppv::server::{QueryService, ServiceOptions};
use proptest::prelude::*;

/// Chaos rounds, scaled by `FASTPPV_FAULT_ROUNDS` in CI.
fn rounds(default: usize) -> usize {
    std::env::var("FASTPPV_FAULT_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Fixture {
    graph: Arc<Graph>,
    hubs: Arc<HubSet>,
    index: FlatIndex,
    config: Config,
}

fn fixture(nodes: usize, hub_count: usize, seed: u64) -> Fixture {
    let config = Config::default().with_epsilon(1e-5);
    let g = barabasi_albert(nodes, 3, seed);
    let hubs = Arc::new(select_hubs(&g, HubPolicy::ExpectedUtility, hub_count, 0));
    let graph = Arc::new(g);
    let (index, _) = build_index(&graph, &hubs, &config);
    Fixture {
        graph,
        hubs,
        index,
        config,
    }
}

fn shard_services(fx: &Fixture, map: &ShardMap) -> Vec<Arc<QueryService<FlatIndex>>> {
    (0..map.num_shards())
        .map(|s| {
            let slice = slice_store(&fx.index, &fx.hubs, map, s);
            Arc::new(QueryService::new(
                Arc::clone(&fx.graph),
                Arc::clone(&fx.hubs),
                Arc::new(slice),
                fx.config,
                ServiceOptions {
                    workers: 2,
                    ..ServiceOptions::default()
                },
            ))
        })
        .collect()
}

fn router_cfg(fx: &Fixture) -> RouterConfig {
    RouterConfig {
        alpha: fx.config.alpha,
        delta: fx.config.delta,
        num_nodes: fx.graph.num_nodes(),
    }
}

fn non_hub_queries(fx: &Fixture, count: usize) -> Vec<NodeId> {
    let n = fx.graph.num_nodes();
    (0..n as NodeId)
        .filter(|&v| !fx.hubs.is_hub(v))
        .step_by((n / count).max(1))
        .take(count)
        .collect()
}

// ---------------------------------------------------------------------------
// Shard death mid-batch
// ---------------------------------------------------------------------------

/// A shard dying halfway through a batch never produces a client-visible
/// error: every response stays a certified `Answer` (possibly degraded,
/// with φ inflated to cover the dead shard's mass), and the first fresh
/// query after the shard returns is clean again.
#[test]
fn shard_death_mid_batch_degrades_never_errors() {
    let fx = fixture(900, 60, 21);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 4);
    let backend = LocalBackend::new(shard_services(&fx, &map));
    let router = Router::new(
        backend,
        map.clone(),
        router_cfg(&fx),
        RouterOptions::default(),
    );
    let queries = non_hub_queries(&fx, 8);
    // The first scatter round of a query goes to the owners of its
    // prime-0 border hubs above δ; any shard computes that frontier.
    let first_round_owners: Vec<Vec<usize>> = queries
        .iter()
        .map(|&q| match router.backend().prime0(0, q, None) {
            Ok(SubReply::Ok(p0)) => p0
                .frontier
                .iter()
                .filter(|&&(_, m)| m > fx.config.delta)
                .map(|&(h, _)| map.owner(h) as usize)
                .collect(),
            other => panic!("q {q}: no prime-0 from a live shard: {other:?}"),
        })
        .collect();

    let kill_at = queries.len() / 2;
    let mut exposed_rounds = 0;
    for round in 0..rounds(3) {
        let dead = round % 4;
        let (mut answered, mut degraded) = (0usize, 0u32);
        for (i, &q) in queries.iter().enumerate() {
            if i == kill_at {
                router.backend().set_dead(dead, true);
            }
            // Distinct (query, η) per round so the answer cache cannot
            // mask the dead shard.
            let request = WireRequest::iterations(q, 2 + round as u32);
            match router.serve_request(&request) {
                WireResponse::Answer(a) => {
                    assert!(
                        (0.0..=1.0).contains(&a.l1_error),
                        "round {round} q {q}: φ {} out of range",
                        a.l1_error
                    );
                    if a.degraded {
                        assert!(!a.exhausted, "degraded answers never claim exhaustion");
                        degraded += 1;
                    }
                    answered += 1;
                }
                other => panic!("round {round} q {q}: client-visible failure {other:?}"),
            }
        }
        assert_eq!(answered, queries.len(), "round {round}");
        // The outage is visible: a query whose first scatter round needs
        // the dead shard comes back degraded, not silently short.
        if first_round_owners[kill_at..]
            .iter()
            .any(|owners| owners.contains(&dead))
        {
            exposed_rounds += 1;
            assert!(degraded > 0, "round {round}: shard {dead} died unnoticed");
        }
        router.backend().set_dead(dead, false);
        // Revived: a fresh (uncached) query must be clean again.
        let fresh = WireRequest::iterations(queries[round % queries.len()], 3);
        match router.serve_request(&fresh) {
            WireResponse::Answer(a) => {
                assert!(!a.degraded, "round {round}: still degraded after revival")
            }
            other => panic!("round {round}: failure after revival: {other:?}"),
        }
    }
    assert!(exposed_rounds > 0, "no round ever needed its dead shard");
    let stats = router.stats();
    assert_eq!(stats.shed, 0, "iteration-stop requests are never shed");
}

/// With *every* shard down the router sheds with a typed, retryable
/// `Overloaded` — not a hang, not a protocol error — and recovers as
/// soon as any shard returns.
#[test]
fn all_shards_down_sheds_with_retry_hint() {
    let fx = fixture(400, 24, 5);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let backend = LocalBackend::new(shard_services(&fx, &map));
    let router = Router::new(backend, map, router_cfg(&fx), RouterOptions::default());
    let q = non_hub_queries(&fx, 1)[0];

    router.backend().set_dead(0, true);
    router.backend().set_dead(1, true);
    match router.serve_request(&WireRequest::iterations(q, 1)) {
        WireResponse::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(router.stats().shed, 1);

    router.backend().set_dead(1, false);
    match router.serve_request(&WireRequest::iterations(q, 1)) {
        WireResponse::Answer(a) => assert!((0.0..=1.0).contains(&a.l1_error)),
        other => panic!("one live shard must be enough: {other:?}"),
    }
}

/// An unattainable accuracy contract is shed honestly: with a shard dead,
/// an L1-target request whose inflated φ misses the target comes back
/// `Overloaded`, while the same request with an achievable target (or an
/// iteration stop) is served degraded.
#[test]
fn unattainable_l1_target_is_shed_not_silently_missed() {
    let fx = fixture(900, 40, 9);
    // Cluster-derived map: whole clusters per shard makes it easy to find
    // queries whose border mass concentrates on one shard.
    let clustering = cluster_graph(&fx.graph, 8, ClusteringOptions::default());
    let map = ShardMap::from_clustering(&clustering, 3);
    let backend = LocalBackend::new(shard_services(&fx, &map));
    let router = Router::new(backend, map, router_cfg(&fx), RouterOptions::default());

    // Find a query that degrades under a dead shard (its φ inflates).
    let mut hit = None;
    'outer: for dead in 0..3 {
        for &q in &non_hub_queries(&fx, 12) {
            router.backend().set_dead(dead, true);
            let resp = router.serve_request(&WireRequest::iterations(q, 4));
            router.backend().set_dead(dead, false);
            let clean = router.serve_request(&WireRequest::iterations(q, 4));
            if let (WireResponse::Answer(d), WireResponse::Answer(c)) = (resp, clean) {
                if d.degraded && d.l1_error > c.l1_error + 1e-9 {
                    hit = Some((dead, q, d.l1_error, c.l1_error));
                    break 'outer;
                }
            }
        }
    }
    let (dead, q, phi_degraded, phi_clean) =
        hit.expect("some query must degrade when its border shard dies");

    router.backend().set_dead(dead, true);
    // Target between the clean φ and the inflated φ: achievable by the
    // full cluster, unattainable degraded → shed.
    let target = (phi_clean + phi_degraded) / 2.0;
    match router.serve_request(&WireRequest::l1_error(q, target)) {
        WireResponse::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("unattainable target must shed, got {other:?}"),
    }
    // A lax target is served, degraded flag raised, φ within contract.
    match router.serve_request(&WireRequest::l1_error(q, phi_degraded + 0.1)) {
        WireResponse::Answer(a) => {
            assert!(a.degraded);
            assert!(a.l1_error <= phi_degraded + 0.1 + 1e-12);
        }
        other => panic!("attainable target must serve, got {other:?}"),
    }
    router.backend().set_dead(dead, false);
}

// ---------------------------------------------------------------------------
// Epoch skew injected mid-merge
// ---------------------------------------------------------------------------

/// Forwards to a [`LocalBackend`] but runs a full two-phase publish right
/// before the first expand — the merge's pinned epoch is stale from that
/// point on, so every shard refuses with epoch skew and the merge must
/// retry once from scratch on the new epoch.
struct SkewInject<'a> {
    inner: &'a LocalBackend<FlatIndex>,
    events: Vec<fastppv::graph::gen::EdgeEvent>,
    armed: AtomicBool,
}

impl SubBackend for SkewInject<'_> {
    fn num_shards(&self) -> usize {
        SubBackend::num_shards(self.inner)
    }

    fn prime0(
        &self,
        shard: usize,
        query: NodeId,
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WirePrime0>, BackendError> {
        self.inner.prime0(shard, query, expect_epoch)
    }

    fn expand(
        &self,
        shard: usize,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WireExpand>, BackendError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            let target = UpdateBackend::epoch(self.inner, 0).unwrap() + 1;
            two_phase_publish(self.inner, target, &self.events).expect("publish");
        }
        self.inner.expand(shard, sublist, expect_epoch)
    }
}

#[test]
fn epoch_skew_mid_merge_is_retried_once_and_never_mixes_epochs() {
    let fx = fixture(700, 45, 33);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 3);
    let backend = LocalBackend::new(shard_services(&fx, &map));
    let cfg = router_cfg(&fx);
    let events = synth_events(&fx.graph, 12, 0.25, 99);
    let q = non_hub_queries(&fx, 1)[0];
    let stop = StoppingCondition::iterations(3);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());

    let inject = SkewInject {
        inner: &backend,
        events,
        armed: AtomicBool::new(true),
    };
    let merged = merge_query(&inject, &map, &cfg, q, &stop, 0, &mut scratch)
        .expect("one retry must absorb a single mid-merge publish");
    assert!(
        !inject.armed.load(Ordering::SeqCst),
        "publish must have fired"
    );
    assert_eq!(merged.epoch, 1, "retry must land on the committed epoch");
    assert!(!merged.degraded);

    // The retried answer is bit-identical to a clean merge at epoch 1:
    // no partial from epoch 0 leaked into it.
    let clean = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
    assert_eq!(clean.epoch, 1);
    assert_eq!(merged.scores, clean.scores);
    assert_eq!(merged.l1_error, clean.l1_error);
    assert_eq!(merged.iterations, clean.iterations);
}

// ---------------------------------------------------------------------------
// Slow loris over TCP: hedging + circuit breaker
// ---------------------------------------------------------------------------

/// A TCP proxy whose *first* accepted connection forwards the server
/// hello and then goes silent (the classic stalled-but-connected shard);
/// every later connection forwards both directions faithfully.
fn stalling_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut first = true;
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let stall = std::mem::take(&mut first);
            let Ok(server) = TcpStream::connect(upstream) else {
                continue;
            };
            let (mut c_in, mut s_out) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut c_in, &mut s_out);
            });
            let (mut s_in, mut c_out) = (server, client);
            std::thread::spawn(move || {
                if stall {
                    // Forward exactly one frame (the hello), then hang.
                    let mut len = [0u8; 4];
                    if s_in.read_exact(&mut len).is_err() {
                        return;
                    }
                    let n = u32::from_le_bytes(len) as usize;
                    let mut body = vec![0u8; n];
                    if s_in.read_exact(&mut body).is_err() {
                        return;
                    }
                    let _ = c_out.write_all(&len);
                    let _ = c_out.write_all(&body);
                    let _ = c_out.flush();
                    std::thread::sleep(Duration::from_secs(20));
                } else {
                    let _ = std::io::copy(&mut s_in, &mut c_out);
                }
            });
        }
    });
    addr
}

/// A shard that accepts, greets, and then stalls is hedged around: the
/// duplicate sub-request on a fresh connection answers fast, the merge
/// never waits out the stalled socket, and the shard stays healthy.
#[test]
fn slow_loris_shard_is_hedged_around() {
    let fx = fixture(500, 30, 17);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let services = shard_services(&fx, &map);
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let a1 = l1.local_addr().unwrap();
    let s0 = serve(Arc::clone(&services[0]), l0).unwrap();
    let s1 = serve(Arc::clone(&services[1]), l1).unwrap();
    // Shard 1 sits behind the stalling proxy.
    let proxied = stalling_proxy(a1);

    let backend = TcpBackend::new(
        vec![s0.local_addr(), proxied],
        TcpBackendOptions {
            client: ClientOptions {
                read_timeout: Some(Duration::from_secs(3)),
                ..ClientOptions::default()
            },
            hedge_delay_floor: Duration::from_millis(50),
            sub_request_timeout: Duration::from_secs(8),
            ..TcpBackendOptions::default()
        },
    );
    let q = non_hub_queries(&fx, 1)[0];
    let started = Instant::now();
    let reply = backend.prime0(1, q, None).expect("hedge must win");
    assert!(matches!(reply, SubReply::Ok(_)), "{reply:?}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "hedge took {:?} — the stalled socket was waited out",
        started.elapsed()
    );
    assert!(backend.hedges_sent() >= 1, "no hedge was issued");
    assert_eq!(backend.health().health(1), Health::Up);

    // The whole merge path across both shards stays fast, too.
    let cfg = router_cfg(&fx);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());
    let merged = merge_query(
        &backend,
        &map,
        &cfg,
        q,
        &StoppingCondition::iterations(2),
        0,
        &mut scratch,
    )
    .unwrap();
    assert!(!merged.degraded);

    s0.shutdown();
    s1.shutdown();
}

/// A shard whose address refuses connections walks Up → Suspect → Down;
/// once the breaker is open, requests fail fast without touching a
/// socket until the backoff window expires.
#[test]
fn connection_refused_opens_breaker_and_fails_fast() {
    // Grab a port that nothing listens on.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let backend = TcpBackend::new(
        vec![dead_addr],
        TcpBackendOptions {
            client: ClientOptions {
                connect_timeout: Some(Duration::from_millis(300)),
                read_timeout: Some(Duration::from_millis(300)),
                ..ClientOptions::default()
            },
            ..TcpBackendOptions::default()
        },
    );
    for _ in 0..3 {
        assert!(backend.probe(0).is_err());
    }
    assert_eq!(backend.health().health(0), Health::Down);
    let started = Instant::now();
    assert!(matches!(
        backend.prime0(0, 0, None),
        Err(BackendError::ShardDown(0))
    ));
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "open breaker must fail fast, took {:?}",
        started.elapsed()
    );
}

// ---------------------------------------------------------------------------
// The inline scatter over TCP: pipelined, and retried past stale pools
// ---------------------------------------------------------------------------

/// One whole frame (length prefix included), or `None` once the peer is
/// gone.
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).ok()?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).ok()?;
    Some(frame)
}

/// What a [`frame_proxy`] does to the frames it forwards.
struct ProxyRules {
    /// Sees the op byte of every request frame as it reaches the proxy.
    on_request: Box<dyn Fn(u8) + Send + Sync>,
    /// Runs, and may block, before the reply to a request with this op
    /// byte is passed back.
    before_reply: Box<dyn Fn(u8) + Send + Sync>,
    /// Runs, and may block, after the first bytes of the reply to a
    /// request with this op byte are passed back and before the rest is.
    mid_reply: Box<dyn Fn(u8) + Send + Sync>,
    /// Close the connection after this many replies (the hello aside).
    replies_per_connection: Option<usize>,
}

impl Default for ProxyRules {
    /// Forward everything untouched.
    fn default() -> Self {
        ProxyRules {
            on_request: Box::new(|_| {}),
            before_reply: Box::new(|_| {}),
            mid_reply: Box::new(|_| {}),
            replies_per_connection: None,
        }
    }
}

/// A frame-aware TCP proxy in front of `upstream`, applying `rules` to
/// every connection.
fn frame_proxy(upstream: SocketAddr, rules: ProxyRules) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let rules = Arc::new(rules);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(upstream) else {
                continue;
            };
            // Request ops, in order, so each reply meets its request's op.
            let (ops_tx, ops_rx) = mpsc::channel::<u8>();
            let (mut c_in, mut s_out) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            let up_rules = Arc::clone(&rules);
            std::thread::spawn(move || {
                while let Some(frame) = read_raw_frame(&mut c_in) {
                    let op = frame.get(4).copied().unwrap_or(0);
                    (up_rules.on_request)(op);
                    if ops_tx.send(op).is_err() || s_out.write_all(&frame).is_err() {
                        break;
                    }
                }
                let _ = s_out.shutdown(Shutdown::Write);
            });
            let (mut s_in, mut c_out) = (server, client);
            let rules = Arc::clone(&rules);
            std::thread::spawn(move || {
                let Some(hello) = read_raw_frame(&mut s_in) else {
                    return;
                };
                let mut replies = 0;
                if c_out.write_all(&hello).is_ok() {
                    while let Some(reply) = read_raw_frame(&mut s_in) {
                        let Ok(op) = ops_rx.recv() else { break };
                        (rules.before_reply)(op);
                        let (head, rest) = reply.split_at(reply.len().min(6));
                        let sent = c_out.write_all(head).is_ok() && {
                            (rules.mid_reply)(op);
                            c_out.write_all(rest).is_ok()
                        };
                        if !sent {
                            break;
                        }
                        replies += 1;
                        if rules.replies_per_connection == Some(replies) {
                            break;
                        }
                    }
                }
                let _ = c_out.shutdown(Shutdown::Both);
                let _ = s_in.shutdown(Shutdown::Both);
            });
        }
    });
    addr
}

/// Loopback shard servers for `services`, each behind a proxy made by
/// `proxy(shard, server address)`, and a `TcpBackend` over the proxies.
fn proxied_cluster(
    services: &[Arc<QueryService<FlatIndex>>],
    options: TcpBackendOptions,
    proxy: impl Fn(usize, SocketAddr) -> SocketAddr,
) -> (Vec<fastppv::server::net::NetServer>, TcpBackend) {
    let servers: Vec<_> = services
        .iter()
        .map(|s| serve(Arc::clone(s), TcpListener::bind("127.0.0.1:0").unwrap()).unwrap())
        .collect();
    let addrs = servers
        .iter()
        .enumerate()
        .map(|(shard, server)| proxy(shard, server.local_addr()))
        .collect();
    (servers, TcpBackend::new(addrs, options))
}

/// A hedge floor (5 s) far above anything the test allows, so any hedge
/// at all shows up as a slow merge.
fn hedge_never() -> TcpBackendOptions {
    TcpBackendOptions {
        hedge_delay_floor: Duration::from_secs(5),
        sub_request_timeout: Duration::from_secs(20),
        ..TcpBackendOptions::default()
    }
}

/// A one-shot gate a proxy thread can block on until the test opens it
/// (or `limit` passes).
#[derive(Clone, Default)]
struct Gate(Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>);

impl Gate {
    fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }

    fn is_open(&self) -> bool {
        *self.0 .0.lock().unwrap()
    }

    fn wait(&self, limit: Duration) {
        let (lock, cv) = &*self.0;
        let guard = lock.lock().unwrap();
        let _ = cv.wait_timeout_while(guard, limit, |open| !*open).unwrap();
    }
}

/// A non-hub query whose prime PPV leaves live frontier mass on every
/// one of `shards`, so its first expand round reaches each of them.
fn query_reaching(
    fx: &Fixture,
    map: &ShardMap,
    local: &LocalBackend<FlatIndex>,
    shards: &[usize],
) -> NodeId {
    non_hub_queries(fx, 60)
        .into_iter()
        .find(|&q| match local.prime0(map.owner(q) as usize, q, None) {
            Ok(SubReply::Ok(p0)) => shards.iter().all(|&s| {
                p0.frontier
                    .iter()
                    .any(|&(h, m)| m > fx.config.delta && map.owner(h) as usize == s)
            }),
            _ => false,
        })
        .expect("some query's first round reaches every shard")
}

/// Fills each shard's pool with one connection, so the next scatter's
/// sub-requests all take the inline path (a shard with an empty pool
/// starts its first attempt on a thread).
fn warm_pools(backend: &TcpBackend, q: NodeId) {
    for shard in 0..backend.addrs().len() {
        assert!(matches!(
            backend.prime0(shard, q, None),
            Ok(SubReply::Ok(_))
        ));
    }
}

/// Scores compared bit for bit.
fn score_bits(scores: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    scores.iter().map(|&(v, x)| (v, x.to_bits())).collect()
}

/// A scatter puts every shard's sub-request in flight before it waits on
/// any reply: shard 0's expand reply is withheld until shard 1 has
/// received its own expand request, and the merge still finishes at once
/// without a hedge. A scatter that waited on shard 0 before sending to
/// shard 1 would stall until the withholding gave up (3 s).
#[test]
fn scatter_sends_every_sub_request_before_waiting_on_any() {
    let fx = fixture(600, 40, 23);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let services = shard_services(&fx, &map);
    let local = LocalBackend::new(services.clone());
    let q = query_reaching(&fx, &map, &local, &[0, 1]);

    let received = Gate::default();
    let (servers, backend) = proxied_cluster(&services, hedge_never(), |shard, upstream| {
        let (flag, waiter) = (received.clone(), received.clone());
        frame_proxy(
            upstream,
            ProxyRules {
                on_request: Box::new(move |op| {
                    if shard == 1 && op == OP_EXPAND {
                        flag.open();
                    }
                }),
                before_reply: Box::new(move |op| {
                    if shard == 0 && op == OP_EXPAND {
                        waiter.wait(Duration::from_secs(3));
                    }
                }),
                ..ProxyRules::default()
            },
        )
    });
    warm_pools(&backend, q);
    let cfg = router_cfg(&fx);
    let stop = StoppingCondition::iterations(2);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());
    let started = Instant::now();
    let wired = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
    let elapsed = started.elapsed();
    assert!(received.is_open(), "shard 1 never got an expand");
    assert!(
        elapsed < Duration::from_secs(1),
        "merge took {elapsed:?}: shard 1's request waited on shard 0's reply"
    );
    assert_eq!(backend.hedges_sent(), 0);
    assert!(!wired.degraded && wired.shards_skipped.is_empty());
    let clean = merge_query(&local, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
    assert_eq!(score_bits(&wired.scores), score_bits(&clean.scores));
    assert_eq!(wired.l1_error.to_bits(), clean.l1_error.to_bits());

    for server in servers {
        server.shutdown();
    }
}

/// A reply that starts and then stalls mid-frame is hedged like one that
/// never starts: shard 0's proxy passes the first bytes of one expand
/// reply and holds the rest. The merge finishes on the hedge, far inside
/// the sub-request timeout — the stalled read is bounded by the hedge
/// deadline, not by the socket's 30 s read timeout.
#[test]
fn reply_stalled_mid_frame_is_hedged_around() {
    let fx = fixture(600, 40, 23);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let services = shard_services(&fx, &map);
    let local = LocalBackend::new(services.clone());
    let q = query_reaching(&fx, &map, &local, &[0, 1]);

    let release = Gate::default();
    let stalled = Arc::new(AtomicBool::new(false));
    let options = TcpBackendOptions {
        hedge_delay_floor: Duration::from_millis(100),
        hedge_p99_factor: 1.0,
        sub_request_timeout: Duration::from_secs(3),
        ..TcpBackendOptions::default()
    };
    let (servers, backend) = proxied_cluster(&services, options, |shard, upstream| {
        let (release, stalled) = (release.clone(), Arc::clone(&stalled));
        frame_proxy(
            upstream,
            ProxyRules {
                mid_reply: Box::new(move |op| {
                    if shard == 0 && op == OP_EXPAND && !stalled.swap(true, Ordering::AcqRel) {
                        release.wait(Duration::from_secs(20));
                    }
                }),
                ..ProxyRules::default()
            },
        )
    });
    warm_pools(&backend, q);
    let cfg = router_cfg(&fx);
    let stop = StoppingCondition::iterations(2);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());
    let started = Instant::now();
    let wired = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
    let elapsed = started.elapsed();
    release.open();
    assert!(
        stalled.load(Ordering::Acquire),
        "shard 0 never got an expand"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "merge took {elapsed:?} behind a reply stalled mid-frame"
    );
    // The stalled original completes only after the release above, so
    // the answer came from a hedge (a slow prime0 may add another).
    assert!(backend.hedges_sent() >= 1);
    assert!(!wired.degraded && wired.shards_skipped.is_empty());
    let clean = merge_query(&local, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
    assert_eq!(score_bits(&wired.scores), score_bits(&clean.scores));
    assert_eq!(wired.l1_error.to_bits(), clean.l1_error.to_bits());

    for server in servers {
        server.shutdown();
    }
}

/// Each straggler is raced on its own clock: while shard 0 straggles
/// through its whole sub-request timeout (every expand reply it sends,
/// hedge included, stalls mid-frame past it), shard 1's one stalled
/// reply is still hedged at its own delay. Only shard 0 is skipped.
#[test]
fn stragglers_are_hedged_each_on_its_own_clock() {
    let fx = fixture(600, 40, 23);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let services = shard_services(&fx, &map);
    let local = LocalBackend::new(services.clone());
    let q = query_reaching(&fx, &map, &local, &[0, 1]);

    let release = Gate::default();
    let stalled = Arc::new(AtomicBool::new(false));
    let options = TcpBackendOptions {
        hedge_delay_floor: Duration::from_millis(100),
        hedge_p99_factor: 1.0,
        sub_request_timeout: Duration::from_secs(2),
        ..TcpBackendOptions::default()
    };
    let (servers, backend) = proxied_cluster(&services, options, |shard, upstream| {
        let (release, stalled) = (release.clone(), Arc::clone(&stalled));
        frame_proxy(
            upstream,
            ProxyRules {
                mid_reply: Box::new(move |op| {
                    let stall =
                        op == OP_EXPAND && (shard == 0 || !stalled.swap(true, Ordering::AcqRel));
                    if stall {
                        release.wait(Duration::from_secs(20));
                    }
                }),
                ..ProxyRules::default()
            },
        )
    });
    warm_pools(&backend, q);
    let cfg = router_cfg(&fx);
    let stop = StoppingCondition::iterations(1);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());
    let started = Instant::now();
    let wired = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
    let elapsed = started.elapsed();
    release.open();
    assert!(elapsed < Duration::from_secs(4), "merge took {elapsed:?}");
    assert_eq!(wired.shards_skipped, vec![0], "shard 1 was never hedged");
    assert!(wired.degraded);
    // One hedge per stalled shard (a slow prime0 may add another).
    assert!(backend.hedges_sent() >= 2);

    for server in servers {
        server.shutdown();
    }
}

/// The inline gather reads shard 1's reply only after shard 0's. When
/// shard 0 is slow, shard 1's reply has long been queued by then, and
/// the time it waited is shard 0's, not its own: it must not enter shard
/// 1's latency window, or one slow shard would push up every later
/// shard's hedge delay.
#[test]
fn a_slow_shard_does_not_inflate_the_next_shards_hedge_delay() {
    let fx = fixture(600, 40, 23);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let services = shard_services(&fx, &map);
    let local = LocalBackend::new(services.clone());
    let q = query_reaching(&fx, &map, &local, &[0, 1]);
    let slow = Duration::from_millis(300);
    let (servers, backend) = proxied_cluster(&services, hedge_never(), |shard, upstream| {
        frame_proxy(
            upstream,
            ProxyRules {
                before_reply: Box::new(move |op| {
                    if shard == 0 && op == OP_EXPAND {
                        std::thread::sleep(slow);
                    }
                }),
                ..ProxyRules::default()
            },
        )
    });
    warm_pools(&backend, q);
    let cfg = router_cfg(&fx);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());
    for _ in 0..2 {
        let wired = merge_query(
            &backend,
            &map,
            &cfg,
            q,
            &StoppingCondition::iterations(1),
            0,
            &mut scratch,
        )
        .unwrap();
        assert!(!wired.degraded);
    }
    assert_eq!(backend.hedges_sent(), 0);
    let p99 = |shard| backend.health().p99(shard).expect("samples");
    assert!(p99(0) >= slow, "shard 0's p99 {:?}", p99(0));
    assert!(
        p99(1) < slow / 2,
        "shard 1 was charged for shard 0: p99 {:?}",
        p99(1)
    );

    for server in servers {
        server.shutdown();
    }
}

/// Every pooled connection goes stale: the proxy closes each one after a
/// single reply. Each later sub-request meets a closed connection, and is
/// retried at once on a fresh one — no hedge, no wait for the hedge floor,
/// no degraded answer, no health hit.
#[test]
fn stale_pooled_connections_are_retried_fresh_without_a_hedge() {
    let fx = fixture(500, 30, 29);
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let services = shard_services(&fx, &map);
    let local = LocalBackend::new(services.clone());
    let (servers, backend) = proxied_cluster(&services, hedge_never(), |_, upstream| {
        frame_proxy(
            upstream,
            ProxyRules {
                replies_per_connection: Some(1),
                ..ProxyRules::default()
            },
        )
    });

    let cfg = router_cfg(&fx);
    let mut scratch = ScoreScratch::new(fx.graph.num_nodes());
    for (i, &q) in non_hub_queries(&fx, 6).iter().enumerate() {
        let stop = StoppingCondition::iterations(1 + i % 3);
        let started = Instant::now();
        let wired = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "q {q}: merge took {elapsed:?} past stale connections"
        );
        assert!(!wired.degraded && wired.shards_skipped.is_empty(), "q {q}");
        let clean = merge_query(&local, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
        assert_eq!(
            score_bits(&wired.scores),
            score_bits(&clean.scores),
            "q {q}"
        );
    }
    assert_eq!(backend.hedges_sent(), 0);
    assert_eq!(backend.health().health(0), Health::Up);
    assert_eq!(backend.health().health(1), Health::Up);

    for server in servers {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// One front-end loop: the router and a shard fail the same way
// ---------------------------------------------------------------------------

/// Sends one raw frame after the hello: true if the server hangs up
/// instead of answering.
fn closes_on(addr: SocketAddr, payload: &[u8]) -> bool {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    s.read_exact(&mut vec![0u8; u32::from_le_bytes(len) as usize])
        .unwrap();
    s.write_all(&[&(payload.len() as u32).to_le_bytes()[..], payload].concat())
        .unwrap();
    match s.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

/// A router over a two-shard `LocalBackend` of the fixture's index.
fn local_router(fx: &Fixture, net: NetOptions) -> Arc<Router<LocalBackend<FlatIndex>>> {
    let map = ShardMap::round_robin(fx.graph.num_nodes(), 2);
    let options = RouterOptions {
        net,
        ..RouterOptions::default()
    };
    let backend = LocalBackend::new(shard_services(fx, &map));
    Arc::new(Router::new(backend, map, router_cfg(fx), options))
}

/// The whole index behind one shard.
fn single_shard(fx: &Fixture) -> Arc<QueryService<FlatIndex>> {
    let whole = ShardMap::round_robin(fx.graph.num_nodes(), 1);
    shard_services(fx, &whole).remove(0)
}

/// An `OP_STATS` frame with a trailing byte closes the connection on both
/// front-ends, and the shard-only sub-ops close it on the router; a fresh
/// client is then served the same answer by both.
#[test]
fn malformed_frames_close_the_connection_on_both_front_ends() {
    let fx = fixture(300, 20, 5);
    let local = || TcpListener::bind("127.0.0.1:0").unwrap();
    let single = serve(single_shard(&fx), local()).unwrap();
    let routed = serve_router(local_router(&fx, NetOptions::default()), local()).unwrap();
    let sub_op = |op: u8| {
        [
            &[op][..],
            &1u64.to_le_bytes(),
            &EPOCH_ANY.to_le_bytes(),
            &[0; 4],
        ]
        .concat()
    };
    for addr in [single.local_addr(), routed.local_addr()] {
        assert!(
            closes_on(addr, &[OP_STATS, 0]),
            "{addr}: stats with a trailing byte"
        );
        assert!(
            !closes_on(addr, &[OP_STATS]),
            "{addr}: a well-formed stats probe"
        );
    }
    assert!(closes_on(routed.local_addr(), &sub_op(OP_PRIME0)));
    assert!(closes_on(routed.local_addr(), &sub_op(OP_EXPAND)));

    let request = WireRequest::iterations(non_hub_queries(&fx, 1)[0], 3);
    let [a, b] = [single.local_addr(), routed.local_addr()].map(|addr| {
        let response = Client::connect(addr).unwrap().request_one(request).unwrap();
        response.answer().expect("served").clone()
    });
    assert_eq!(
        (a.iterations, a.degraded, b.degraded),
        (b.iterations, false, false)
    );
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert!(x.0 == y.0 && (x.1 - y.1).abs() <= 1e-12, "{x:?} vs {y:?}");
    }
}

/// A zero frame-stall or write timeout is refused when either front-end
/// starts, with the same typed error — not a server that drops every
/// connection before its hello.
#[test]
fn both_front_ends_reject_zero_timeouts_at_start() {
    let fx = fixture(200, 10, 6);
    let local = || TcpListener::bind("127.0.0.1:0").unwrap();
    for net in [
        NetOptions {
            frame_stall_timeout: Duration::ZERO,
            ..NetOptions::default()
        },
        NetOptions {
            write_timeout: Some(Duration::ZERO),
            ..NetOptions::default()
        },
    ] {
        let shard = serve_with_options(single_shard(&fx), local(), net).err();
        let routed = serve_router(local_router(&fx, net), local()).err();
        let shard = shard.expect("the shard started with a zero timeout");
        let routed = routed.expect("the router started with a zero timeout");
        assert_eq!(shard.kind(), ErrorKind::InvalidInput, "{shard}");
        assert_eq!(shard.to_string(), routed.to_string());
    }
}

// ---------------------------------------------------------------------------
// Property: certified degradation on random graphs and partitions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random graphs, random shard maps, and one random dead shard:
    /// the degraded estimate stays an entry-wise lower bound of the
    /// full-cluster answer, and its inflated φ upper-bounds the true L1
    /// gap — certified partial answers never overstate their accuracy.
    #[test]
    fn degraded_phi_upper_bounds_true_gap(
        nodes in 150usize..400,
        seed in 0u64..1_000,
        num_shards in 2u32..5,
        dead_pick in 0u32..64,
        eta in 0u32..4,
        clustered in any::<bool>(),
    ) {
        let fx = fixture(nodes, (nodes / 10).max(6), seed);
        let map = if clustered {
            let clustering = cluster_graph(&fx.graph, 6, ClusteringOptions::default());
            ShardMap::from_clustering(&clustering, num_shards)
        } else {
            ShardMap::round_robin(nodes, num_shards)
        };
        let backend = LocalBackend::new(shard_services(&fx, &map));
        let cfg = router_cfg(&fx);
        let dead = (dead_pick % num_shards) as usize;
        let stop = StoppingCondition::iterations(eta as usize);
        let mut scratch = ScoreScratch::new(nodes);

        for &q in non_hub_queries(&fx, 3).iter() {
            backend.set_dead(dead, true);
            let partial = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
            backend.set_dead(dead, false);
            let full = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();

            prop_assert!((0.0..=1.0 + 1e-12).contains(&partial.l1_error));
            prop_assert!(partial.l1_error + 1e-12 >= full.l1_error);
            let mut gap = 0.0;
            let mut pi = partial.scores.iter().peekable();
            for &(v, sf) in &full.scores {
                match pi.peek() {
                    Some(&&(pv, sp)) if pv == v => {
                        prop_assert!(sp <= sf + 1e-12, "node {v}: partial above full");
                        gap += sf - sp;
                        pi.next();
                    }
                    _ => gap += sf,
                }
            }
            prop_assert!(pi.peek().is_none(), "partial support must stay within full");
            prop_assert!(
                gap <= partial.l1_error + 1e-12,
                "q {q} dead {dead}: gap {gap} > certified φ {}",
                partial.l1_error
            );
        }
    }
}
