//! Codec round trips and guards, the loopback front-end, and a seeded
//! fuzz over every decoder.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastppv_core::offline::build_index;
use fastppv_core::query::StoppingCondition;
use fastppv_core::{Config, FlatIndex, HubSet, PpvStore, QueryEngine};
use fastppv_graph::gen::EdgeEvent;
use fastppv_graph::{toy, NodeId};

use super::conn::{read_frame, read_frame_stalling, spawn_acceptor, write_frame};
use super::wire::{
    decode_expand_request, decode_expand_response, decode_hello, decode_prime0_request,
    decode_prime0_response, decode_response_batch, decode_stats_request, decode_stats_response,
    decode_update_request, decode_update_response, encode_expand_ok, encode_expand_request,
    encode_hello, encode_prime0_ok, encode_prime0_request, encode_request_batch,
    encode_stats_response, encode_sub_error, encode_sub_skew, encode_update_request,
    encode_update_response, put_u32,
};
use super::*;
use crate::service::{QueryService, ServiceOptions};

fn toy_service() -> Arc<QueryService<FlatIndex>> {
    let g = toy::graph();
    let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
    let config = Config::exhaustive();
    let (index, _) = build_index(&g, &hubs, &config);
    Arc::new(QueryService::new(
        Arc::new(g),
        Arc::new(hubs),
        Arc::new(index),
        config,
        ServiceOptions {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 16,
        },
    ))
}

// One valid value of each message kind, for the round trips and as the
// fuzz corpus.

fn sample_requests() -> Vec<WireRequest> {
    vec![
        WireRequest::iterations(3, 2),
        WireRequest::l1_error(5, 0.125).with_top_k(7),
        WireRequest::iterations(0, 9).with_deadline_ms(1500),
    ]
}

fn sample_responses() -> Vec<WireResponse> {
    vec![
        WireResponse::Answer(WireAnswer {
            query: 4,
            iterations: 3,
            l1_error: 0.25,
            exhausted: true,
            cached: false,
            degraded: true,
            latency: Duration::from_micros(1234),
            entries: vec![(1, 0.5), (7, 0.25)],
        }),
        WireResponse::Error("node 99 out of range".into()),
        WireResponse::Overloaded { retry_after_ms: 75 },
    ]
}

fn sample_hello() -> ServerHello {
    ServerHello {
        num_nodes: 42,
        epoch: 7,
        alpha: 0.15,
        delta: 1e-4,
    }
}

fn sample_prime0() -> WirePrime0 {
    WirePrime0 {
        epoch: 3,
        entries: vec![(1, 0.5), (4, 0.25)],
        frontier: vec![(4, 0.25)],
    }
}

fn sample_expand() -> WireExpand {
    WireExpand {
        epoch: 5,
        entries: vec![(2, 0.125)],
        frontier: vec![],
        increment_mass: 0.125,
        hubs_expanded: 1,
    }
}

fn sample_stats() -> WireStats {
    WireStats {
        in_flight: 2,
        recent_p99: Duration::from_micros(750),
        degraded: 1,
        shed: 4,
        epoch: 6,
    }
}

fn sample_events() -> Vec<EdgeEvent> {
    let event = |tail, head, insert| EdgeEvent { tail, head, insert };
    vec![event(1, 2, true), event(3, 0, false)]
}

#[test]
fn request_batch_round_trips() {
    let requests = sample_requests();
    let decoded = decode_request_batch(&encode_request_batch(&requests)[1..]).unwrap();
    assert_eq!(decoded.len(), 3);
    for (a, b) in requests.iter().zip(&decoded) {
        assert_eq!(a.query, b.query);
        assert_eq!(a.stop, b.stop);
        assert_eq!(a.deadline_ms, b.deadline_ms);
        assert_eq!(a.top_k, b.top_k);
    }
}

#[test]
fn response_batch_round_trips() {
    let decoded = decode_response_batch(&encode_response_batch(&sample_responses())).unwrap();
    let a = decoded[0].answer().unwrap();
    assert_eq!((a.query, a.iterations), (4, 3));
    assert_eq!(a.l1_error, 0.25);
    assert!(a.exhausted && !a.cached);
    assert!(a.degraded, "degraded flag survives the wire");
    assert_eq!(a.latency, Duration::from_micros(1234));
    assert_eq!(a.entries, vec![(1, 0.5), (7, 0.25)]);
    assert_eq!(decoded[1].error(), Some("node 99 out of range"));
    assert_eq!(
        decoded[2].retry_after(),
        Some(Duration::from_millis(75)),
        "overloaded responses carry their retry hint"
    );
}

#[test]
fn zero_retry_after_is_rejected_on_decode() {
    let mut buf = Vec::new();
    put_u32(&mut buf, 1);
    buf.push(2);
    put_u32(&mut buf, 0);
    let err = decode_response_batch(&buf).unwrap_err();
    assert!(err.to_string().contains("retry-storm"), "{err}");
}

#[test]
fn truncated_and_trailing_payloads_are_rejected() {
    let good = encode_request_batch(&[WireRequest::iterations(1, 2)])[1..].to_vec();
    assert!(decode_request_batch(&good[..good.len() - 1]).is_err());
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(decode_request_batch(&trailing).is_err());
    // A count that the payload cannot possibly hold is rejected early.
    let mut huge = Vec::new();
    put_u32(&mut huge, u32::MAX);
    assert!(decode_request_batch(&huge).is_err());
    let hello = sample_hello();
    assert!(decode_hello(&encode_hello(&hello)[..3]).is_err());
    assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);
}

#[test]
fn sub_op_payloads_round_trip_and_validate_request_ids() {
    let p0 = sample_prime0();
    let decoded = decode_prime0_response(&encode_prime0_ok(9, &p0), 9).unwrap();
    assert_eq!(decoded, SubReply::Ok(p0.clone()));
    // A response echoing the wrong request id is a protocol error, not
    // a silently mis-credited answer (hedging correctness).
    let err = decode_prime0_response(&encode_prime0_ok(9, &p0), 10).unwrap_err();
    assert!(err.to_string().contains("expected 10"), "{err}");

    let ex = sample_expand();
    let decoded = decode_expand_response(&encode_expand_ok(1, &ex), 1).unwrap();
    assert_eq!(decoded, SubReply::Ok(ex));

    assert_eq!(
        decode_prime0_response(&encode_sub_skew(2, 8), 2).unwrap(),
        SubReply::EpochSkew { current: 8 }
    );
    assert_eq!(
        decode_expand_response(&encode_sub_error(3, "nope"), 3).unwrap(),
        SubReply::Error("nope".into())
    );

    let stats = sample_stats();
    assert_eq!(
        decode_stats_response(&encode_stats_response(&stats)).unwrap(),
        stats
    );

    let frame = encode_update_request(UpdatePhase::Prepare, 4, &sample_events());
    assert_eq!(frame[0], OP_UPDATE);
    assert_eq!(
        decode_update_response(&encode_update_response(&Ok(()))).unwrap(),
        Ok(())
    );
    assert_eq!(
        decode_update_response(&encode_update_response(&Err("busy".into()))).unwrap(),
        Err("busy".to_string())
    );
}

#[test]
fn loopback_sub_ops_serve_scatter_halves_and_two_phase_updates() {
    use fastppv_graph::gen::synth_events;
    let service = toy_service();
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let hello = *client.hello();
    assert_eq!(hello.num_nodes, 8);
    assert_eq!(hello.epoch, 0);
    assert_eq!(hello.alpha, service.config().alpha);
    assert_eq!(hello.delta, service.config().delta);

    // Health probe.
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 0);

    // prime0 of a hub matches the stored prime PPV; pinning to a wrong
    // epoch skews instead of mixing versions.
    let hub = toy::PAPER_HUBS[0];
    let p0 = client.prime0(hub, Some(0)).unwrap().ok().expect("epoch 0");
    assert_eq!(p0.epoch, 0);
    let state = service.snapshot();
    let stored: Vec<(NodeId, f64)> = state
        .store()
        .view(hub)
        .expect("hub is stored")
        .to_prime_ppv()
        .entries
        .entries()
        .to_vec();
    assert_eq!(p0.entries, stored);
    assert!(p0.frontier.iter().all(|&(h, _)| { state.hubs().is_hub(h) }));
    assert!(matches!(
        client.prime0(hub, Some(99)).unwrap(),
        SubReply::EpochSkew { current: 0 }
    ));
    assert!(matches!(
        client.prime0(999, None).unwrap(),
        SubReply::Error(_)
    ));

    // expand over the prime0 frontier reproduces the first increment:
    // iteration 1 of the single-process engine.
    if !p0.frontier.is_empty() {
        let ex = client
            .expand(&p0.frontier, Some(0))
            .unwrap()
            .ok()
            .expect("epoch 0");
        assert!(ex.increment_mass > 0.0);
        assert_eq!(ex.hubs_expanded as usize, p0.frontier.len());
    }

    // Two-phase update: prepare stages (serving epoch unchanged),
    // commit publishes, and a pre-update pin now skews.
    let events = synth_events(state.graph(), 3, 0.0, 42);
    assert_eq!(client.update_prepare(1, &events).unwrap(), Ok(()));
    assert_eq!(service.epoch(), 0, "prepare must not publish");
    assert!(client.prime0(hub, Some(0)).unwrap().ok().is_some());
    assert_eq!(client.update_commit(1).unwrap(), Ok(()));
    assert_eq!(service.epoch(), 1);
    assert!(matches!(
        client.prime0(hub, Some(0)).unwrap(),
        SubReply::EpochSkew { current: 1 }
    ));
    assert!(client.prime0(hub, Some(1)).unwrap().ok().is_some());

    // Committing again fails cleanly; a fresh prepare can be aborted.
    assert!(client.update_commit(1).unwrap().is_err());
    let events2 = synth_events(&service.graph(), 2, 0.0, 43);
    assert_eq!(client.update_prepare(2, &events2).unwrap(), Ok(()));
    assert_eq!(client.update_abort().unwrap(), Ok(()));
    assert!(client.update_commit(2).unwrap().is_err());
    assert_eq!(service.epoch(), 1, "aborted update must not publish");

    drop(client);
    server.shutdown();
}

/// An `OP_UPDATE` prepare that deletes an edge the graph does not hold —
/// never there, or deleted earlier in the same batch — is refused with an
/// error naming the event; nothing is staged, the epoch stays put, and
/// the connection keeps answering.
#[test]
fn prepare_refuses_deletes_of_absent_edges_and_keeps_serving() {
    let service = toy_service();
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let graph = service.graph();
    let (tail, head) = graph
        .edges()
        .find(|&(s, t)| s != t)
        .expect("a non-loop edge");
    let absent = graph
        .nodes()
        .flat_map(|s| graph.nodes().map(move |t| (s, t)))
        .find(|&(s, t)| s != t && !graph.has_edge(s, t))
        .expect("an absent edge");
    let delete = |(tail, head)| EdgeEvent {
        tail,
        head,
        insert: false,
    };
    for (batch, bad) in [
        (vec![delete(absent)], 0),
        (vec![delete((tail, head)), delete((tail, head))], 1),
    ] {
        let refused = client
            .update_prepare(1, &batch)
            .expect("the connection survives the refusal")
            .expect_err("a delete of an absent edge is refused");
        assert!(
            refused.contains(&format!("event {bad}: delete of absent edge")),
            "{refused}"
        );
        assert_eq!(service.epoch(), 0);
        assert!(
            client.update_commit(1).unwrap().is_err(),
            "a refused prepare stages nothing"
        );
    }
    assert_eq!(service.epoch(), 0);
    assert_eq!(*service.graph(), *graph);

    // The canary: the same connection answers a query, and a valid batch
    // still goes through.
    let canary = client
        .request_one(WireRequest::iterations(toy::A, 3))
        .unwrap();
    assert!(canary.answer().is_some(), "{canary:?}");
    assert_eq!(
        client.update_prepare(1, &[delete((tail, head))]).unwrap(),
        Ok(())
    );
    assert_eq!(client.update_commit(1).unwrap(), Ok(()));
    assert_eq!(service.epoch(), 1);
    assert!(!service.graph().has_edge(tail, head));

    drop(client);
    server.shutdown();
}

/// A shard holding a slice of the index cannot answer a whole query (its
/// expansion would reach hubs other shards own): `OP_QUERY` gets a typed
/// per-request error naming the router, and the connection keeps serving
/// the scatter sub-ops it exists for.
#[test]
fn sliced_shard_refuses_whole_queries_and_keeps_serving_sub_ops() {
    let g = toy::graph();
    let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
    let config = Config::exhaustive();
    let (full, _) = build_index(&g, &hubs, &config);
    let owned = toy::PAPER_HUBS[0];
    let mut slice = FlatIndex::new(8);
    slice.insert_from(&full, owned, &hubs);
    let service = Arc::new(QueryService::new(
        Arc::new(g),
        Arc::new(hubs),
        Arc::new(slice),
        config,
        ServiceOptions {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 16,
        },
    ));
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let requests: Vec<WireRequest> = (0..8u32).map(|q| WireRequest::iterations(q, 5)).collect();
    let responses = client.request_batch(&requests).unwrap();
    assert_eq!(responses.len(), 8);
    for r in &responses {
        let err = r.error().expect("a sliced shard answers no whole query");
        assert!(err.contains("send whole queries to the router"), "{err}");
    }
    // The same connection still serves the scatter halves.
    let p0 = client.prime0(owned, Some(0)).unwrap().ok().expect("prime0");
    let ex = client
        .expand(&[(owned, 0.125)], Some(0))
        .unwrap()
        .ok()
        .expect("expand of an owned hub");
    assert_eq!((p0.epoch, ex.hubs_expanded), (0, 1));
    drop(client);
    server.shutdown();
}

/// The wire grammar sends an `OP_EXPAND` sublist in strictly ascending hub
/// id — the order the single-process step expands in. A sublist out of
/// order, or one naming a hub twice (which would expand it twice), is
/// refused with a typed error, and the connection keeps serving.
#[test]
fn expand_refuses_unsorted_and_duplicate_sublists() {
    let service = toy_service();
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let hubs = service.hubs();
    let (h1, h2) = (hubs.ids()[0], hubs.ids()[1]);
    for sublist in [[(h2, 0.125), (h1, 0.125)], [(h1, 0.125), (h1, 0.125)]] {
        match client.expand(&sublist, Some(0)).unwrap() {
            SubReply::Error(msg) => assert!(msg.contains("strictly ascending"), "{msg}"),
            other => panic!("{sublist:?} was answered {other:?}"),
        }
    }
    let ex = client
        .expand(&[(h1, 0.125), (h2, 0.125)], Some(0))
        .unwrap()
        .ok()
        .expect("an ascending sublist is served");
    assert_eq!(ex.hubs_expanded, 2);
    drop(client);
    server.shutdown();
}

#[test]
#[should_panic(expected = "send whole queries to the router")]
fn sliced_service_query_names_the_router() {
    let g = toy::graph();
    let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
    let config = Config::exhaustive();
    let (full, _) = build_index(&g, &hubs, &config);
    let mut slice = FlatIndex::new(8);
    slice.insert_from(&full, toy::PAPER_HUBS[0], &hubs);
    let service = QueryService::new(
        Arc::new(g),
        Arc::new(hubs),
        Arc::new(slice),
        config,
        ServiceOptions::default(),
    );
    service.process_batch(vec![crate::Request::iterations(toy::A, 5)]);
}

#[test]
fn batch_and_count_caps_are_enforced() {
    // A frame large enough to hold MAX_BATCH_REQUESTS + 1 requests is
    // still rejected by the per-frame cap (bounds the response size).
    let over = MAX_BATCH_REQUESTS + 1;
    let mut payload = vec![0u8; 4 + over * 17];
    payload[..4].copy_from_slice(&(over as u32).to_le_bytes());
    let err = decode_request_batch(&payload).unwrap_err();
    assert!(err.to_string().contains("per-frame cap"), "{err}");
    // A response count the payload cannot hold is rejected before any
    // allocation is sized off it (client-side OOM guard).
    let mut bogus = Vec::new();
    put_u32(&mut bogus, 1000);
    let err = decode_response_batch(&bogus).unwrap_err();
    assert!(err.to_string().contains("overruns frame"), "{err}");
}

#[test]
fn loopback_serves_exact_answers_and_per_request_errors() {
    let service = toy_service();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = serve(Arc::clone(&service), listener).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.num_nodes(), 8);

    let responses = client
        .request_batch(&[
            WireRequest::iterations(toy::A, 3),
            WireRequest::iterations(99, 3), // out of range
            WireRequest::iterations(toy::E, 2).with_top_k(2),
        ])
        .unwrap();
    assert_eq!(responses.len(), 3);

    let state = service.snapshot();
    let engine = state.engine(*service.config());
    let direct = engine.query(toy::A, &StoppingCondition::iterations(3));
    let a = responses[0].answer().unwrap();
    assert_eq!(a.entries, direct.scores.entries().to_vec());
    assert_eq!(a.iterations as usize, direct.iterations);
    assert!((a.l1_error - direct.l1_error).abs() < 1e-15);

    let err = responses[1].error().unwrap();
    assert!(err.contains("out of range"), "{err}");

    let top2 = responses[2].answer().unwrap();
    let direct_e = engine.query(toy::E, &StoppingCondition::iterations(2));
    assert_eq!(top2.entries, direct_e.scores.top_k(2));

    // The connection survived the per-request error.
    let again = client
        .request_one(WireRequest::iterations(toy::A, 3))
        .unwrap();
    let again = again.answer().unwrap();
    assert!(again.cached, "repeat deterministic request hits the cache");
    assert_eq!(again.entries, direct.scores.entries().to_vec());

    drop(client);
    server.shutdown();
}

#[test]
fn loopback_expired_deadline_stops_immediately() {
    let service = toy_service();
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let r = client
        .request_one(WireRequest::iterations(toy::A, 50).with_deadline_ms(0))
        .unwrap();
    let a = r.answer().unwrap();
    assert_eq!(a.iterations, 0, "0 ms deadline must stop at iteration 0");
    drop(client);
    server.shutdown();
}

#[test]
fn loopback_sheds_past_high_water_mark_and_recovers() {
    use crate::OverloadOptions;
    let g = toy::graph();
    let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
    let config = Config::exhaustive();
    let (index, _) = build_index(&g, &hubs, &config);
    let service = Arc::new(
        QueryService::new(
            Arc::new(g),
            Arc::new(hubs),
            Arc::new(index),
            config,
            ServiceOptions {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 0,
            },
        )
        .with_overload(OverloadOptions {
            degrade_in_flight: 2,
            shed_in_flight: 4,
            ..OverloadOptions::default()
        }),
    );
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Pin the service past the high-water mark, as a flood of slow
    // batches would.
    let held = service.load.enter(4);
    let shed = client
        .request_one(WireRequest::iterations(toy::A, 3))
        .unwrap();
    let retry = shed.retry_after().expect("past high water: must shed");
    assert!(retry > Duration::ZERO, "retry hint must be positive");
    assert!(service.load_stats().shed >= 1);
    // Load drains: the same connection serves normally again.
    drop(held);
    let ok = client
        .request_one(WireRequest::iterations(toy::A, 3))
        .unwrap();
    assert!(ok.answer().is_some(), "recovered after shed: {ok:?}");
    // Between the watermarks: admitted but degraded, φ still carried.
    let held = service.load.enter(1); // +1 for the request itself = 2
    let soft = client
        .request_one(WireRequest::iterations(toy::A, 8))
        .unwrap();
    let a = soft.answer().expect("degrade admits the request");
    assert!(a.degraded, "degrade regime must flag the answer");
    assert!(a.l1_error.is_finite());
    drop(held);
    drop(client);
    server.shutdown();
}

#[test]
fn slow_loris_connection_is_disconnected_but_idle_survives() {
    let service = toy_service();
    let server = serve_with_options(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetOptions {
            frame_stall_timeout: Duration::from_millis(100),
            write_timeout: Some(Duration::from_secs(5)),
        },
    )
    .unwrap();
    // An idle (frame-boundary) connection outlives many stall windows.
    let mut idle = Client::connect(server.local_addr()).unwrap();
    // A slow-loris peer: starts a frame, then stalls mid-header.
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    {
        let mut r = BufReader::new(loris.try_clone().unwrap());
        read_frame(&mut r).unwrap().expect("hello");
    }
    loris.write_all(&[7u8, 0]).unwrap(); // 2 of 4 header bytes, then silence
    std::thread::sleep(Duration::from_millis(400));
    // The server must have closed the stalled connection…
    loris.write_all(&[0u8, 0]).ok(); // complete the header (may already fail)
    let mut probe = [0u8; 1];
    let outcome = loris.read(&mut probe);
    assert!(
        matches!(outcome, Ok(0) | Err(_)),
        "stalled connection must be closed, got {outcome:?}"
    );
    // …while the idle one still serves.
    let r = idle
        .request_one(WireRequest::iterations(toy::A, 2))
        .unwrap();
    assert!(r.answer().is_some());
    drop(idle);
    server.shutdown();
}

#[test]
fn admission_cap_closes_before_hello_and_frees_slots() {
    let service = toy_service();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // The acceptor `serve` and `serve_router` run, with a cap of 2.
    let server = spawn_acceptor(service, listener, NetOptions::default(), 2).unwrap();
    let addr = server.local_addr();
    // A connected client has read its hello, so its slot is taken.
    let first = Client::connect(addr).unwrap();
    let mut second = Client::connect(addr).unwrap();
    let Err(refused) = Client::connect(addr) else {
        panic!("a third connection was admitted past a cap of 2");
    };
    assert!(
        refused.to_string().contains("before sending hello"),
        "{refused}"
    );
    // Disconnecting frees the slot once the handler has seen the EOF.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut third = loop {
        match Client::connect(addr) {
            Ok(client) => break client,
            Err(e) if Instant::now() >= deadline => panic!("slot never freed: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    for client in [&mut second, &mut third] {
        let r = client
            .request_one(WireRequest::iterations(toy::A, 2))
            .unwrap();
        assert!(r.answer().is_some());
    }
    drop((second, third));
    server.shutdown();
}

#[test]
fn client_times_out_instead_of_hanging_on_a_silent_server() {
    // A listener that accepts but never says hello: the old client
    // blocked forever here; the typed path must fail within the read
    // timeout.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let conn = listener.accept().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });
    let started = Instant::now();
    let err = Client::connect_with(
        addr,
        ClientOptions {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_millis(100)),
        },
    )
    .unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "must not wait out the silent server"
    );
    assert!(
        matches!(ClientError::from(err), ClientError::Timeout(_)),
        "a silent server is a typed timeout"
    );
    hold.join().unwrap();
}

/// The split sub-op calls: `wait_reply` stops at its deadline even
/// mid-frame — the server sends a few bytes of its reply, then holds the
/// rest — and loses nothing, so the reply read afterwards and the next
/// round trip on the same connection are in sync.
#[test]
fn wait_reply_stops_at_its_deadline_mid_frame_and_keeps_the_connection_in_sync() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let shard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        write_frame(&mut stream, &encode_hello(&sample_hello())).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for round in 0..2 {
            let frame = read_frame(&mut reader).unwrap().expect("a request");
            assert_eq!(frame[0], OP_PRIME0);
            let (request_id, _, _) = decode_prime0_request(&frame[1..]).unwrap();
            let mut reply = Vec::new();
            write_frame(&mut reply, &encode_prime0_ok(request_id, &sample_prime0())).unwrap();
            if round == 0 {
                stream.write_all(&reply[..6]).unwrap();
                release_rx.recv().unwrap();
                stream.write_all(&reply[6..]).unwrap();
            } else {
                stream.write_all(&reply).unwrap();
            }
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let id = client.send_prime0(4, None).unwrap();
    let started = Instant::now();
    assert_eq!(
        client
            .wait_reply(started + Duration::from_millis(30))
            .unwrap(),
        ReplyWait::Pending
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the deadline bounds a stalled frame, not the read timeout"
    );
    assert_eq!(
        client.wait_reply(Instant::now()).unwrap(),
        ReplyWait::Pending
    );
    release_tx.send(()).unwrap();
    assert_ne!(
        client
            .wait_reply(Instant::now() + Duration::from_secs(10))
            .unwrap(),
        ReplyWait::Pending
    );
    assert_eq!(
        client.wait_reply(Instant::now()).unwrap(),
        ReplyWait::Queued,
        "a whole buffered reply is ready at once"
    );
    assert_eq!(
        client.recv_prime0(id).unwrap(),
        SubReply::Ok(sample_prime0())
    );
    assert_eq!(
        client.prime0(4, None).unwrap(),
        SubReply::Ok(sample_prime0())
    );
    shard.join().unwrap();
}

#[test]
fn engine_matches_queryengine_reference() {
    // Guard against drift between `ServingState::engine` and a
    // hand-built QueryEngine over the same pieces.
    let service = toy_service();
    let state = service.snapshot();
    let by_state = state
        .engine(*service.config())
        .query(toy::B, &StoppingCondition::iterations(2));
    let by_hand = QueryEngine::new(
        state.graph(),
        state.hubs(),
        state.store().as_ref(),
        *service.config(),
    )
    .query(toy::B, &StoppingCondition::iterations(2));
    assert_eq!(by_state.scores, by_hand.scores);
}

/// Every decoder, on both sides of a connection, fed one payload.
/// Returns how many accepted it.
fn decode_everywhere(payload: &[u8]) -> usize {
    [
        decode_hello(payload).is_ok(),
        decode_request_batch(payload).is_ok(),
        decode_response_batch(payload).is_ok(),
        decode_stats_request(payload).is_ok(),
        decode_stats_response(payload).is_ok(),
        decode_prime0_request(payload).is_ok(),
        decode_prime0_response(payload, 7).is_ok(),
        decode_expand_request(payload).is_ok(),
        decode_expand_response(payload, 7).is_ok(),
        decode_update_request(payload).is_ok(),
        decode_update_response(payload).is_ok(),
    ]
    .into_iter()
    .filter(|&ok| ok)
    .count()
}

#[test]
fn wire_decoder_fuzz_never_panics() {
    // Deterministic garbage for every decoder: truncated, bit-flipped,
    // overwritten and length-lying variants of one valid payload of each
    // message kind, plus the same damage to a framed copy fed to both
    // frame readers. Each call must return a value or an `Err` — never
    // panic, and never size an allocation off a lying count.
    let corpus: Vec<Vec<u8>> = vec![
        encode_hello(&sample_hello()),
        encode_request_batch(&sample_requests())[1..].to_vec(),
        encode_response_batch(&sample_responses()),
        encode_stats_response(&sample_stats()),
        encode_prime0_request(7, Some(3), 5)[1..].to_vec(),
        encode_expand_request(7, None, &sample_prime0().entries)[1..].to_vec(),
        encode_prime0_ok(7, &sample_prime0()),
        encode_expand_ok(7, &sample_expand()),
        encode_sub_skew(7, 9),
        encode_sub_error(7, "hub 4 not in this shard's store"),
        encode_update_request(UpdatePhase::Prepare, 4, &sample_events())[1..].to_vec(),
        encode_update_request(UpdatePhase::Commit, 4, &[])[1..].to_vec(),
        encode_update_response(&Err("busy".into())),
    ];
    // Each pristine payload decodes under its own decoder (and maybe
    // others: an empty stats body, say).
    for payload in &corpus {
        assert!(decode_everywhere(payload) >= 1, "{payload:?}");
    }
    assert_eq!(decode_everywhere(&[]), 1, "only the stats request is empty");

    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut damage = |bytes: &mut Vec<u8>, kind: usize| match kind {
        0 => bytes.truncate(rng() as usize % (bytes.len() + 1)),
        1 => {
            let bit = rng() as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        2 => {
            for _ in 0..4 {
                let at = rng() as usize % bytes.len();
                bytes[at] = rng() as u8;
            }
        }
        _ => {
            // A count or length field that lies: a u32 written anywhere.
            let lie = match rng() % 4 {
                0 => u32::MAX,
                1 => bytes.len() as u32 + 1,
                2 => (bytes.len() / 12) as u32 + 1,
                _ => rng() as u32,
            };
            let at = rng() as usize % bytes.len();
            let end = (at + 4).min(bytes.len());
            bytes[at..end].copy_from_slice(&lie.to_le_bytes()[..end - at]);
        }
    };
    let rounds: usize = std::env::var("FASTPPV_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let (mut rejected, mut frames_read) = (0usize, 0usize);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut scratch = Vec::new();
    for round in 0..rounds {
        let pristine = &corpus[round % corpus.len()];
        let kind = (round / corpus.len()) % 4;
        let mut payload = pristine.clone();
        damage(&mut payload, kind);
        if decode_everywhere(&payload) == 0 {
            rejected += 1;
        }
        let mut framed = (pristine.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(pristine);
        damage(&mut framed, kind);
        if let Ok(Some(frame)) = read_frame(&mut framed.as_slice()) {
            frames_read += 1;
            decode_everywhere(&frame);
        }
        let _ = read_frame_stalling(&mut framed.as_slice(), &stop, &mut scratch);
    }
    // The guarantee under test is no panic, not total rejection (a flipped
    // score bit is a valid f64), but most damage must be caught.
    assert!(rejected > rounds / 4, "{rejected} of {rounds} rejected");
    assert!(frames_read < rounds, "every damaged frame was read");
}
