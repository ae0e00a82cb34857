//! Fault-injection harness: the service must degrade, not die.
//!
//! Four attack surfaces, each paired with the invariant that survives it:
//!
//! 1. **Protocol garbage** — torn length headers, absurd frame lengths,
//!    well-framed nonsense payloads. The connection that sent them may be
//!    dropped; the *next* well-behaved client always gets a correct
//!    answer.
//! 2. **Slow loris + churn** — connections that stall mid-frame or
//!    connect and vanish. Stalled connections are cut at the frame-stall
//!    timeout; good clients keep their latency.
//! 3. **Snapshot isolation under fire** — duplicated queries inside one
//!    batch must agree bit-for-bit while updates publish new epochs
//!    concurrently (no epoch mixing inside a batch).
//! 4. **Overload** — with the service pinned past its shed and degrade
//!    watermarks in turn, every rejection carries a positive retry hint
//!    and every admitted answer (degraded or not) honors its deadline and
//!    keeps φ a true bound against an exact offline recompute; once the
//!    load drains the service admits at full accuracy again.
//!
//! Rounds scale with `FASTPPV_FAULT_ROUNDS` (CI turns it up; the local
//! default keeps the suite fast). Mid-batch SIGKILL of a real server
//! process lives in `crates/cli/tests/cli.rs`, next to the binary.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastppv::baselines::{exact_ppv, ExactOptions};
use fastppv::core::offline::build_index;
use fastppv::core::query::StoppingCondition;
use fastppv::core::{select_hubs, Config, FlatIndex, HubPolicy};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::{Graph, GraphBuilder};
use fastppv::server::net::{serve, serve_with_options, Client, NetOptions, WireRequest};
use fastppv::server::{Admission, OverloadOptions, QueryService, Request, ServiceOptions};
use proptest::prelude::*;

/// Chaos rounds, scaled by `FASTPPV_FAULT_ROUNDS` in CI.
fn rounds(default: usize) -> usize {
    std::env::var("FASTPPV_FAULT_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fixture(
    nodes: usize,
    hubs: usize,
    seed: u64,
    options: ServiceOptions,
) -> (Arc<Graph>, Arc<QueryService<FlatIndex>>) {
    let config = Config::default().with_epsilon(1e-6);
    let g = barabasi_albert(nodes, 3, seed);
    let hub_set = select_hubs(&g, HubPolicy::ExpectedUtility, hubs, 0);
    let (index, _) = build_index(&g, &hub_set, &config);
    let graph = Arc::new(g);
    let service = Arc::new(QueryService::new(
        Arc::clone(&graph),
        Arc::new(hub_set),
        Arc::new(index),
        config,
        options,
    ));
    (graph, service)
}

/// A batch that parks the worker pool for a while: unbounded iterations
/// under a wall-clock limit, across enough requests that the in-flight
/// count stays above any watermark for the batch's whole duration.
fn pin_batch(n: usize, hold: Duration) -> Vec<Request> {
    (0..n as u32)
        .map(|q| Request {
            query: q,
            stop: StoppingCondition {
                max_iterations: None,
                l1_target: None,
                time_limit: Some(hold),
            },
            deadline: None,
        })
        .collect()
}

#[test]
fn torn_and_garbage_frames_never_take_the_server_down() {
    let (_graph, service) = fixture(
        200,
        20,
        11,
        ServiceOptions {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 32,
        },
    );
    let server = serve_with_options(
        service,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetOptions {
            frame_stall_timeout: Duration::from_millis(200),
            ..NetOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let attacks: Vec<Vec<u8>> = vec![
        // Connect and say nothing.
        vec![],
        // Torn length header.
        vec![0x01],
        // Absurd frame length (greater than MAX_FRAME_BYTES).
        0xFFFF_FFFFu32.to_le_bytes().to_vec(),
        // Valid header, torn payload.
        {
            let mut v = 8u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0xDE, 0xAD]);
            v
        },
        // Complete frame of well-framed nonsense.
        {
            let mut v = 6u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[9, 9, 9, 9, 9, 9]);
            v
        },
    ];
    for round in 0..rounds(20) {
        let attack = &attacks[round % attacks.len()];
        // The attacker may be hung up on mid-write; that is the point.
        let s = TcpStream::connect(addr).unwrap();
        let _ = (&s).write_all(attack);
        drop(s);
        // After every attack, a well-behaved client gets a correct answer
        // on a fresh connection.
        let mut client = Client::connect(addr).unwrap();
        let r = client
            .request_one(WireRequest::iterations((round % 200) as u32, 2))
            .unwrap();
        let a = r.answer().expect("healthy answer after protocol garbage");
        assert!(a.l1_error < 1.0, "φ must be a real certificate");
    }
    server.shutdown();
}

#[test]
fn slow_loris_and_connection_churn_do_not_starve_good_clients() {
    let (_graph, service) = fixture(
        200,
        20,
        12,
        ServiceOptions {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 0,
        },
    );
    let server = serve_with_options(
        service,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetOptions {
            frame_stall_timeout: Duration::from_millis(100),
            ..NetOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // Stalled connections: half a frame header, then silence.
    let loris: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0x02, 0x00]).unwrap();
            s
        })
        .collect();
    // Churn: connections that come and go without ever speaking.
    for _ in 0..rounds(30) {
        drop(TcpStream::connect(addr).unwrap());
    }
    // Good-client goodput while the loris connections stall.
    let mut client = Client::connect(addr).unwrap();
    for i in 0..rounds(50) {
        let started = Instant::now();
        let r = client
            .request_one(WireRequest::iterations((i % 200) as u32, 2))
            .unwrap();
        assert!(r.answer().is_some());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "good client starved behind slow-loris connections"
        );
    }
    // The server cut every stalled connection at the frame-stall timeout —
    // it never keeps them on life support.
    for mut s in loris {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,    // clean EOF: the server hung up
                Ok(_) => continue, // draining the hello
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    break
                }
                Err(e) => panic!("server kept a stalled connection open: {e}"),
            }
        }
    }
    server.shutdown();
}

#[test]
fn duplicate_queries_in_a_batch_agree_while_updates_land() {
    const NODES: usize = 250;
    let (graph, service) = fixture(
        NODES,
        25,
        13,
        ServiceOptions {
            workers: 3,
            queue_capacity: 64,
            // No cache: duplicates must agree because the batch pins one
            // snapshot, not because they hit the same memo entry.
            cache_capacity: 0,
        },
    );
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let svc = Arc::clone(&service);
        let stop = &stop;
        let seed_graph = Arc::clone(&graph);
        scope.spawn(move || {
            let mut cur = (*seed_graph).clone();
            let mut i = 0u32;
            while !stop.load(Ordering::Acquire) {
                let tail = (i * 7 + 3) % NODES as u32;
                let head = (i * 13 + 11) % NODES as u32;
                let mut b = GraphBuilder::new(NODES);
                for (s, t) in cur.edges() {
                    b.add_edge(s, t);
                }
                b.add_edge(tail, head);
                let next = b.build();
                svc.apply_update(next.clone(), &[tail]);
                cur = next;
                i += 1;
                std::thread::sleep(Duration::from_millis(3));
            }
        });
        for round in 0..rounds(40) {
            let qs: Vec<u32> = (0..8u32)
                .map(|k| (round as u32 * 31 + k * 17) % NODES as u32)
                .collect();
            // Each query appears twice in the same batch.
            let requests: Vec<WireRequest> = qs
                .iter()
                .chain(qs.iter())
                .map(|&q| WireRequest::iterations(q, 2))
                .collect();
            let responses = client.request_batch(&requests).unwrap();
            for k in 0..qs.len() {
                let a = responses[k].answer().unwrap();
                let b = responses[k + qs.len()].answer().unwrap();
                let bits = |e: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    e.iter().map(|&(v, s)| (v, s.to_bits())).collect()
                };
                assert_eq!(
                    bits(&a.entries),
                    bits(&b.entries),
                    "duplicate query {} in one batch answered from two \
                     different epochs (snapshot mixing)",
                    qs[k]
                );
            }
        }
        stop.store(true, Ordering::Release);
    });
    server.shutdown();
}

#[test]
fn sheds_carry_positive_retry_hints_and_admitted_answers_stay_certified() {
    let config = Config::default().with_epsilon(1e-6);
    let g = barabasi_albert(400, 3, 14);
    let hub_set = select_hubs(&g, HubPolicy::ExpectedUtility, 40, 0);
    let (index, _) = build_index(&g, &hub_set, &config);
    let graph = Arc::new(g);
    let service = Arc::new(
        QueryService::new(
            Arc::clone(&graph),
            Arc::new(hub_set),
            Arc::new(index),
            config,
            ServiceOptions {
                workers: 2,
                queue_capacity: 64,
                cache_capacity: 0,
            },
        )
        .with_overload(OverloadOptions {
            degrade_in_flight: 2,
            shed_in_flight: 4,
            degraded_max_iterations: 1,
            ..OverloadOptions::default()
        }),
    );
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let probes: Vec<u32> = (0..10u32).map(|k| k * 37 % 400).collect();
    let exact: Vec<Vec<f64>> = probes
        .iter()
        .map(|&q| exact_ppv(&graph, q, ExactOptions::default()))
        .collect();

    // Every probe carries a deadline, and an admitted answer's service-clock
    // latency must honor it. The service clamps `time_limit` to what is
    // left of the deadline and the engine checks that once per increment
    // round, so an answer may run past it by one round plus
    // materialization; a whole request on this fixture takes about a
    // millisecond, and the slack is ten of those. The deadline's cut never
    // fires here (`expired_deadline_*` in `tests/serving.rs` holds that);
    // what this bound holds is that a probe admitted under pressure is
    // served at once, not queued behind the pin.
    const DEADLINE_MS: u32 = 40;
    const ROUND_SLACK: Duration = Duration::from_millis(10);
    let mut sheds = 0usize;
    let mut admitted = 0usize;
    let mut sent = 0usize;
    let mut slowest_admitted = Duration::ZERO;
    let storm_over = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The pin thread keeps the pool parked by re-submitting
        // time-limited batches until the probe side is done, alternately
        // past the shed watermark and past the degrade watermark only, so
        // probes meet both regimes.
        let svc = Arc::clone(&service);
        let storm = &storm_over;
        scope.spawn(move || {
            for n in [8, 2].into_iter().cycle() {
                if storm.load(Ordering::Acquire) {
                    break;
                }
                svc.process_batch(pin_batch(n, Duration::from_millis(60)));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        let want = rounds(6).max(3);
        while (sheds < want || admitted < want) && Instant::now() < deadline {
            // Only fire while the pin is visibly inside the service: a
            // probe is shed past the shed watermark and admitted (capped)
            // below it — both checked.
            while service.load_stats().in_flight < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let k = sent % probes.len();
            sent += 1;
            let r = client
                .request_one(WireRequest::iterations(probes[k], 3).with_deadline_ms(DEADLINE_MS))
                .unwrap();
            if let Some(retry) = r.retry_after() {
                assert!(
                    retry > Duration::ZERO,
                    "a zero retry hint invites a retry storm"
                );
                sheds += 1;
            } else {
                let a = r.answer().expect("admitted request must answer");
                // Admitted under pressure — possibly degraded, still a
                // certificate: φ bounds the gap to the exact answer.
                let gap: f64 = graph
                    .nodes()
                    .map(|v| {
                        exact[k][v as usize]
                            - a.entries
                                .iter()
                                .find(|&&(e, _)| e == v)
                                .map_or(0.0, |&(_, s)| s)
                    })
                    .sum();
                assert!(
                    gap <= a.l1_error + 1e-9,
                    "admitted φ {} does not bound the true gap {gap}",
                    a.l1_error
                );
                slowest_admitted = slowest_admitted.max(a.latency);
                admitted += 1;
            }
        }
        storm_over.store(true, Ordering::Release);
    });
    // Offered load is partitioned: every probe was shed or answered (an
    // error response fails the `expect` above), and the service counted
    // the same sheds the client saw.
    assert_eq!(sheds + admitted, sent);
    assert!(
        slowest_admitted <= Duration::from_millis(DEADLINE_MS.into()) + ROUND_SLACK,
        "admitted under pressure, answered {slowest_admitted:?} after receipt"
    );
    assert!(
        sheds >= 3 && admitted >= 3,
        "the pinned service met one regime only ({sheds} sheds, {admitted} admitted)"
    );
    assert_eq!(service.load_stats().shed, sheds as u64);

    // Recovery: load drained, the same request is admitted undegraded.
    while service.load_stats().in_flight > 0 {
        std::thread::yield_now();
    }
    let r = client
        .request_one(WireRequest::iterations(probes[0], 3))
        .unwrap();
    let a = r.answer().expect("post-storm request must be admitted");
    assert!(!a.degraded, "regime must return to Normal once load drains");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Certified degradation, property-checked: with the degrade watermark
    /// at 1 every query caps itself, and the returned φ must still bound
    /// the gap to an exact offline recompute — a degraded answer is a
    /// looser bound, never a wrong one.
    #[test]
    fn degraded_answers_keep_phi_a_true_bound(q in 0u32..200, eta in 2usize..6) {
        let (graph, service) = degraded_fixture();
        let r = service.query(Request::iterations(q, eta));
        prop_assert!(r.degraded, "η={eta} above the cap must be flagged");
        prop_assert!(r.iterations <= 1, "degraded cap is one increment");
        let exact = exact_ppv(graph, q, ExactOptions::default());
        let gap: f64 = graph.nodes().map(|v| exact[v as usize] - r.scores.get(v)).sum();
        prop_assert!(
            gap <= r.l1_error + 1e-9,
            "degraded φ {} does not bound the true gap {gap}", r.l1_error
        );
        prop_assert!(r.l1_error <= 1.0 + 1e-12);
    }

    /// Shed admission decisions carry exactly the configured (positive)
    /// retry hint, for any hint the options accept.
    #[test]
    fn shed_admissions_echo_the_configured_retry_hint(retry_ms in 1u64..120_000) {
        let (_graph, service) = fixture(
            150,
            12,
            16,
            ServiceOptions { workers: 1, queue_capacity: 16, cache_capacity: 0 },
        );
        // Rebuild with the case's overload policy.
        let service = Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("sole owner"))
            .with_overload(OverloadOptions {
                degrade_in_flight: 1,
                shed_in_flight: 1,
                retry_after: Duration::from_millis(retry_ms),
                ..OverloadOptions::default()
            });
        let mut observed = None;
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc = &service;
            let done_ref = &done;
            scope.spawn(move || {
                while !done_ref.load(Ordering::Acquire) {
                    svc.process_batch(pin_batch(4, Duration::from_millis(40)));
                }
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while observed.is_none() && Instant::now() < deadline {
                if service.load_stats().in_flight < 1 {
                    std::thread::yield_now();
                    continue;
                }
                if let Admission::Shed { retry_after } = service.admission() {
                    observed = Some(retry_after);
                }
            }
            done.store(true, Ordering::Release);
        });
        let retry = observed.expect("pinned service must shed");
        prop_assert!(retry > Duration::ZERO);
        prop_assert_eq!(retry, Duration::from_millis(retry_ms));
    }
}

/// Shared fixture for the degradation proptest: building the index per
/// case would dominate the suite.
fn degraded_fixture() -> &'static (Arc<Graph>, Arc<QueryService<FlatIndex>>) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(Arc<Graph>, Arc<QueryService<FlatIndex>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = Config::default().with_epsilon(1e-6);
        let g = barabasi_albert(200, 3, 15);
        let hub_set = select_hubs(&g, HubPolicy::ExpectedUtility, 20, 0);
        let (index, _) = build_index(&g, &hub_set, &config);
        let graph = Arc::new(g);
        let service = Arc::new(
            QueryService::new(
                Arc::clone(&graph),
                Arc::new(hub_set),
                Arc::new(index),
                config,
                ServiceOptions {
                    workers: 1,
                    queue_capacity: 16,
                    cache_capacity: 0,
                },
            )
            .with_overload(OverloadOptions {
                degrade_in_flight: 1,
                shed_in_flight: 1000,
                degraded_max_iterations: 1,
                ..OverloadOptions::default()
            }),
        );
        (graph, service)
    })
}
