//! Proves thirteen acceptance criteria with a counting global allocator:
//!
//! * zero heap allocations in `IncrementalState::step` rounds and in the
//!   assemble pass that folds them into the estimate, on the `FlatIndex`
//!   path (hub sources — iteration 0 is an arena view);
//! * O(1) amortized allocations for a **cold non-hub query** on the fused
//!   extract+solve path (`PrimeComputer::prime_ppv_into`): once the
//!   workspace is warm, starting a session computes the whole prime PPV
//!   on the fly with the session bookkeeping's single allocation, and
//!   every subsequent step, and the assemble pass, allocate nothing;
//! * one allocation to **materialize a warm answer**, hub or non-hub
//!   source, by either of the drain's two methods: the entry vector, at
//!   exact capacity — the drain writes it in id order, with no sort buffer
//!   and no growth;
//! * under 1 KB to **finish a warm non-hub top-10 answer**
//!   (`QuerySession::finish(10)`): the selection buffer and nothing
//!   answer-sized;
//! * under 300 B **retained per cached top-10 answer**: N distinct
//!   non-hub `top_k = 10` requests through the service's network entry
//!   point (`Frontend::query`) grow the live heap by less than 300·N bytes
//!   — the cache keeps the ten entries asked for, in ten entries' storage,
//!   not the vector they were chosen from or the selection buffer's `2k`;
//! * under 1.5× its reply for a **warm shard expand** of every hub
//!   (`QueryService::expand`): the partial is computed straight into its
//!   wire reply, with no cache key, no cache copy and no entry copy — the
//!   reply's `(entries + frontier) × 16` bytes are nearly all it
//!   allocates;
//! * a **prime computer's heap** is what it reports: after 200 non-hub
//!   prime-0s on BA-2k, `PrimeComputer::heap_bytes()` is within 10 % of
//!   the live bytes gained from `new` on, and a second pass over the same
//!   sources grows the live heap by nothing;
//! * under 1 KB **retained per shard prime-0**: N distinct non-hub
//!   `QueryService::prime0`s, after a warm-up pass over the same sources
//!   and `invalidate_cache()`, grow the live heap by less than N KB on a
//!   service with a 4 096-entry cache — a shard keeps no sub-request
//!   partials;
//! * one allocation per **stored prime PPV** (`PrimeComputer::prime_ppv`,
//!   what the offline build and an exact recompute run per hub): on a
//!   warm computer the solve runs on the graph's own CSR in reused
//!   scratch, and the returned entry vector is all it allocates;
//! * nothing graph-sized for an **edge event no hub sees**: a delta
//!   refresh whose tail no stored PPV holds mass at allocates less than
//!   `8·n` bytes beyond the arena's copy-on-write directory clone (the
//!   per-hub part: the node → slot map is shared between clones) — no
//!   reverse-search scratch (`8·n` by itself), no dirty mask, no push
//!   arrays;
//! * nothing graph-sized for an **edge event that patches** on a warm
//!   `Refresher`: beyond the directory clone and the segments the patch
//!   appends to the arena, less than `8·n` bytes — the push scratch
//!   (`17·n`), its deposits, and the merge buffers are all reused;
//! * a stream of **edge events** publishes only what each changed: a
//!   hundred sequential `apply_event`s on BA-2k allocate less than three
//!   copies of its CSR in total — every epoch shares the base and the
//!   rows earlier events replaced, where a flat copy per event would be a
//!   hundred;
//! * at most **one chunk** of transient heap per edge event's refresh,
//!   plus what the refresh itself replaced: streamed through a warm
//!   `Refresher` over an arena of four chunks or more, with the previous
//!   snapshot held until the new one is published, each refresh's heap
//!   peak exceeds the live heap after the publish by less than one chunk's
//!   bytes, the segments it appended, and its tombstoned entries over the
//!   compaction threshold (the seal's budget beyond one chunk) —
//!   compaction rewrites chunk by chunk, never the whole arena beside the
//!   pinned one.
//!
//! This file deliberately holds a single test: the allocation counter is
//! process-global, and a lone test keeps other threads from muddying the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fastppv::core::dynamic::{refresh_flat_index_snapshot_delta, Refresher};
use fastppv::core::index::FlatIndex;
use fastppv::core::offline::build_flat_index;
use fastppv::core::query::{QuerySession, QueryWorkspace, StoppingCondition};
use fastppv::core::{
    select_hubs, Config, DeltaConfig, HubPolicy, PpvStore, PrimeComputer, QueryEngine,
};
use fastppv::graph::builder::from_edges;
use fastppv::graph::gen::{apply_event, barabasi_albert, synth_events, EdgeEvent};
use fastppv::graph::NodeId;
use fastppv::server::net::{Frontend, WireRequest, WireResponse};
use fastppv::server::{QueryService, Request, ServiceOptions};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocated minus freed bytes (wrapping: read differences only).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The highest `LIVE_BYTES` has been since it was last reset to it.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts `size` more live bytes and raises the peak to match.
fn count_live(size: usize) {
    let live = LIVE_BYTES
        .fetch_add(size as u64, Ordering::Relaxed)
        .wrapping_add(size as u64);
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to the `System` allocator (plus a side-effect-
// free counter bump), so `System`'s allocation guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        count_live(layout.size());
        // SAFETY: forwarded verbatim — the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim — `ptr`/`layout` came from this
        // allocator, which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // A moving realloc holds the old block and the new one at once.
        count_live(new_size);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim — the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steps_allocate_nothing_on_flat_path_with_warm_workspace() {
    let g = barabasi_albert(2000, 4, 42);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    // δ = 0 keeps the frontier alive long enough to measure many steps.
    let config = Config::default().with_epsilon(1e-6).with_delta(0.0);
    let (flat, _) = build_flat_index(&g, &hubs, &config, 1);
    let engine = QueryEngine::new(&g, &hubs, &flat, config);
    let mut ws = engine.workspace();
    // Pick a hub query: iteration 0 is a pure view into the arena, so the
    // whole session exercises only the flat hot path.
    let q = hubs.ids()[0];

    // Warm-up: grows the touched lists / frontier buffer to this query's
    // working set (first-time capacity growth is a per-workspace cost, not
    // a per-iteration one).
    let warm = engine.query_with(&mut ws, q, &StoppingCondition::iterations(6));
    assert!(
        warm.iterations >= 3,
        "workload too shallow to measure steps"
    );

    let mut session = engine.session_in(&mut ws, q);
    let mut steps = 0usize;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    while steps < 6 && session.step() {
        steps += 1;
    }
    session.assemble();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(steps >= 3, "frontier exhausted after {steps} steps");
    assert_eq!(
        during, 0,
        "{during} heap allocations across {steps} warm steps and their \
         assemble pass on the flat path"
    );
    // Six rounds at δ = 0 reach every node, so this answer's drain scans
    // the value array.
    answer_is_one_exact_allocation(session, "hub");
    assert!(
        ws.last_scan().hubs_scanned > 0,
        "the assemble pass scanned nothing"
    );
    // The same hub's iteration 0 in a workspace sixteen times the graph:
    // the answer covers under an eighth of the scratch, so its drain sorts
    // the touched ids instead — the path a hub answer on a large graph
    // takes.
    let mut wide = QueryWorkspace::new(16 * g.num_nodes());
    engine.query_with(&mut wide, q, &StoppingCondition::iterations(0));
    let len = answer_is_one_exact_allocation(engine.session_in(&mut wide, q), "hub");
    assert!(
        len * 8 < wide.capacity(),
        "a {len}-entry answer does not exercise the sort path"
    );

    // Phase 2: a cold non-hub source. Iteration 0 must run the fused
    // extract+solve inside the workspace's reused arena: no PrimeSubgraph,
    // no materialized PrimePpv. After one warmup query (which grows the
    // arena buffers to this source's footprint), starting a session costs
    // a small constant number of allocations — the session's stats vector
    // and nothing proportional to the subgraph — and steps cost zero.
    let q_cold = (0..2000u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
    let warm_cold = engine.query_with(&mut ws, q_cold, &StoppingCondition::iterations(6));
    assert!(
        warm_cold.iterations >= 3,
        "non-hub workload too shallow to measure steps"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut session = engine.session_in(&mut ws, q_cold);
    let session_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        session_allocs <= 2,
        "{session_allocs} heap allocations to start a warm cold-source \
         session (fused extract+solve must stay inside the arena)"
    );
    let mut steps = 0usize;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    while steps < 6 && session.step() {
        steps += 1;
    }
    session.assemble();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(steps >= 3, "non-hub frontier exhausted after {steps} steps");
    assert_eq!(
        during, 0,
        "{during} heap allocations across {steps} warm non-hub steps and \
         their assemble pass"
    );
    answer_is_one_exact_allocation(session, "non-hub");

    // Phase 2b: the same warm non-hub session finished as a top-10 answer
    // selects from the dense estimate; it must not build the answer it
    // selects from.
    let mut session = engine.session_in(&mut ws, q_cold);
    while session.iterations_done() < 6 && session.step() {}
    session.assemble();
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let top = session.finish(10);
    let finish_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(top.scores.len(), 10);
    assert!(
        finish_bytes < 1024,
        "finishing a warm non-hub top-10 answer allocated {finish_bytes} bytes \
         (the whole answer has {} entries)",
        warm_cold.scores.len()
    );

    // Phase 2c: what the service keeps per top-10 answer. Every source
    // first runs once in process (k = 0, so a different cache key): the
    // workspace grows to the largest footprint, and those whole answers
    // are cached before the measurement starts. Then N distinct top-10
    // misses through the network entry point may keep their ten entries
    // and nothing larger.
    let service = QueryService::new(
        Arc::new(g.clone()),
        Arc::new(hubs.clone()),
        Arc::new(flat.clone()),
        config,
        ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 4096,
        },
    );
    let cold: Vec<NodeId> = (0..2000u32).filter(|&v| !hubs.is_hub(v)).take(64).collect();
    for &q in &cold {
        service.query(Request::iterations(q, 2));
    }
    let no_stop = AtomicBool::new(false);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for &q in &cold {
        let request = WireRequest::iterations(q, 2).with_top_k(10);
        let answered = Frontend::query(&service, &[request], &no_stop);
        assert!(
            matches!(&answered[..], [WireResponse::Answer(a)] if !a.cached && a.entries.len() == 10)
        );
    }
    let retained = LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(before) as i64;
    assert!(
        retained < 300 * cold.len() as i64,
        "{} cached top-10 answers retained {retained} bytes",
        cold.len()
    );

    // Phase 2d: a shard's warm expand of every hub (δ = 0, so each one
    // expands). The first call grows the pooled workspace; the second
    // allocates the reply and little else.
    let share = 1.0 / hubs.len() as f64;
    let sublist: Vec<(NodeId, f64)> = hubs.ids().iter().map(|&h| (h, share)).collect();
    service
        .expand(&sublist, None)
        .ok()
        .expect("expand of every hub");
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let reply = service
        .expand(&sublist, None)
        .ok()
        .expect("expand of every hub");
    let expand_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let reply_bytes = 16 * (reply.entries.len() + reply.frontier.len()) as u64;
    assert_eq!(reply.hubs_expanded as usize, hubs.len());
    assert!(
        2 * expand_bytes < 3 * reply_bytes,
        "a warm expand of {} hubs allocated {expand_bytes} bytes for a \
         {reply_bytes}-byte reply",
        hubs.len()
    );

    // Phase 2e: what a shard keeps per prime-0. A warm-up pass grows the
    // workspace to the largest source; the publish that follows would
    // clear any cached partial, so the measured pass misses every one.
    for &q in &cold {
        service.prime0(q, None).ok().expect("prime-0 of a non-hub");
    }
    service.invalidate_cache();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for &q in &cold {
        let parts = service.prime0(q, None).ok().expect("prime-0 of a non-hub");
        assert!(!parts.entries.is_empty());
    }
    let retained = LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(before) as i64;
    assert!(
        retained < 1024 * cold.len() as i64,
        "{} shard prime-0s retained {retained} bytes",
        cold.len()
    );

    // Phase 3: the stored family, over every hub. A warm pass grows the
    // computer's buffers to the largest footprint; after it, each
    // `prime_ppv` allocates exactly the entry vector it returns.
    let mut pc = PrimeComputer::new(g.num_nodes());
    for &h in hubs.ids() {
        pc.prime_ppv(&g, &hubs, h, &config, config.clip);
    }
    let mut returned = 0u64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for &h in hubs.ids() {
        let (ppv, _) = pc.prime_ppv(&g, &hubs, h, &config, config.clip);
        returned += u64::from(!ppv.entries.is_empty());
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(returned > 0);
    assert_eq!(
        during, returned,
        "{during} heap allocations for {returned} warm stored prime PPVs"
    );

    // Phase 3b: what a prime computer holds. After 200 non-hub prime-0s
    // its `heap_bytes()` is what the heap gained from `new` on, within
    // 10 %, and a second pass over the same sources grows the heap by
    // nothing: every buffer is sized by what it held, none over-reserved.
    let prime0 = Config::default().with_epsilon(1e-6);
    let sources: Vec<NodeId> = (0..2000u32)
        .filter(|&v| !hubs.is_hub(v))
        .take(200)
        .collect();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut pc = PrimeComputer::new(g.num_nodes());
    for &q in &sources {
        pc.prime_ppv_into(&g, &hubs, q, &prime0);
    }
    let gained = LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(before) as i64;
    let held = pc.heap_bytes() as i64;
    assert!(
        10 * (held - gained).abs() <= gained,
        "a prime computer reports {held} heap bytes; the heap gained {gained}"
    );
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for &q in &sources {
        pc.prime_ppv_into(&g, &hubs, q, &prime0);
    }
    let grown = LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(before) as i64;
    assert_eq!(grown, 0, "a warm pass of 200 prime-0s grew the heap");

    // Phase 4: an edge event invisible to every stored PPV. Node `n - 1`
    // is appended with one out-edge and no in-edge, so no hub holds mass
    // there; the delta refresh probes each hub's stored ids, finds
    // nothing, and must not build anything graph-sized on the way.
    let n = g.num_nodes() + 1;
    let unreferenced = (n - 1) as NodeId;
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    edges.push((unreferenced, 0));
    let g = from_edges(n, &edges);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let (flat, _) = build_flat_index(&g, &hubs, &config, 1);
    let event = EdgeEvent {
        tail: unreferenced,
        head: 1,
        insert: true,
    };
    let next = apply_event(&g, &event);
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let clone = flat.clone();
    let clone_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        clone_bytes < 4 * n as u64,
        "a snapshot clone copied {clone_bytes} bytes: the node -> slot map \
         ({n} nodes) is shared, not copied"
    );
    drop(clone);
    let delta = DeltaConfig::default();
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let (refreshed, stats) =
        refresh_flat_index_snapshot_delta(&flat, &g, &next, &hubs, &[event.tail], &config, &delta);
    let refresh_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(stats.reused, hubs.len(), "{stats:?}");
    assert_eq!(refreshed.total_entries(), flat.total_entries());
    assert!(
        refresh_bytes < clone_bytes + 8 * n as u64,
        "an invisible event allocated {refresh_bytes} bytes; the directory \
         clone is {clone_bytes} and n is {n}"
    );

    // Phase 5: an edge event that patches, on a warm refresher. The first
    // pass over the event builds the push scratch and grows the holder
    // lists and merge buffers to its footprint; after that the event must
    // allocate nothing graph-sized — only the arena's directory clone and
    // the patched segments the arena appends (measured by writing the same
    // segments into another clone), with less than `8·n` to spare.
    let (event, next) = synth_events(&g, 200, 0.2, 7)
        .into_iter()
        .map(|event| (event, apply_event(&g, &event)))
        .find(|(event, next)| {
            let (_, stats) = refresh_flat_index_snapshot_delta(
                &flat,
                &g,
                next,
                &hubs,
                &[event.tail],
                &config,
                &delta,
            );
            !hubs.is_hub(event.tail)
                && stats.recomputed == 0
                && stats.delta_patched > stats.delta_noop
        })
        .expect("an event that patches without recomputing");
    let mut refresher = Refresher::new();
    for _ in 0..4 {
        refresher.refresh(&flat, &g, &next, &hubs, &[event.tail], &config, &delta);
    }
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let (refreshed, stats) =
        refresher.refresh(&flat, &g, &next, &hubs, &[event.tail], &config, &delta);
    let refresh_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let patched: Vec<(NodeId, Vec<(NodeId, f64)>)> = hubs
        .ids()
        .iter()
        .filter(|&&h| refreshed.load(h) != flat.load(h))
        .map(|&h| (h, refreshed.load(h).unwrap().entries.into_entries()))
        .collect();
    assert_eq!(
        patched.len(),
        stats.delta_patched - stats.delta_noop,
        "{stats:?}"
    );
    let mut copy = flat.clone();
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for (h, entries) in &patched {
        copy.replace_entries(*h, entries, &hubs);
    }
    let segment_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        refresh_bytes < clone_bytes + segment_bytes + 8 * n as u64,
        "a patching event allocated {refresh_bytes} bytes on a warm refresher; \
         the directory clone is {clone_bytes}, its {} patched segments \
         {segment_bytes}, and n is {n}",
        patched.len()
    );

    // Phase 6: a stream of edge events publishes only what each changed.
    // A hundred sequential events on the flat BA-2k graph share its CSR
    // and the rows earlier events wrote: together they allocate less than
    // three copies of the CSR (a fold on the way would cost one), where a
    // flat copy per event would be a hundred.
    let csr_bytes = g.memory_bytes() as u64;
    let events = synth_events(&g, 100, 0.2, 9);
    let mut cur = g.clone();
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for event in &events {
        cur = apply_event(&cur, event);
    }
    let stream_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(
        cur.num_edges(),
        g.num_edges() + events.iter().filter(|e| e.insert).count()
            - events.iter().filter(|e| !e.insert).count()
    );
    assert!(
        stream_bytes < 3 * csr_bytes,
        "{} edge events allocated {stream_bytes} bytes; one CSR is {csr_bytes}",
        events.len()
    );

    // Phase 7: the transient of an edge event's refresh. BA-2.5k with 130
    // hubs at δ = 0 and clip 0 stores nearly every node per hub: an arena
    // of at least four chunks. Events stream through a warm refresher
    // while the previous snapshot is held, as a serving process holds it
    // until publish; once it is dropped, the heap peak of the refresh minus
    // the live heap is what the refresh needed beyond the arena it left.
    // That must stay under one chunk (at most `CHUNK_ENTRIES` entries, each
    // with a border-sublist slot) plus the segments the refresh appended
    // and its tombstones over the threshold (what a seal compacts beyond
    // one chunk) — a compaction that rewrote the whole arena beside the
    // pinned one would hold the arena twice. Run until four compactions have
    // happened: the first ones coalesce small chunks, the later ones
    // rewrite whole built chunks past the threshold.
    let g = barabasi_albert(2_500, 4, 17);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 130, 0);
    let config = Config::default()
        .with_epsilon(1e-6)
        .with_delta(0.0)
        .with_clip(0.0);
    let (flat, _) = build_flat_index(&g, &hubs, &config, 1);
    assert!(
        flat.chunk_count() >= 4,
        "{} entries fill only {} chunks",
        flat.total_entries(),
        flat.chunk_count()
    );
    let one_chunk = (FlatIndex::CHUNK_ENTRIES * (4 + 8 + 4 + 4)) as u64;
    let events = synth_events(&g, 400, 0.2, 23);
    let mut refresher = Refresher::new();
    let warm = apply_event(&g, &events[0]);
    refresher.refresh(&flat, &g, &warm, &hubs, &[events[0].tail], &config, &delta);
    let (mut graph, mut prev) = (g, flat);
    for event in &events {
        if prev.compactions() >= 4 {
            break;
        }
        let next_graph = apply_event(&graph, event);
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
        let (next, _) = refresher.refresh(
            &prev,
            &graph,
            &next_graph,
            &hubs,
            &[event.tail],
            &config,
            &delta,
        );
        let peak = PEAK_BYTES.load(Ordering::Relaxed);
        let patched: Vec<NodeId> = hubs
            .ids()
            .iter()
            .copied()
            .filter(|&h| !same_bits(&prev, &next, h))
            .collect();
        let appended: u64 = patched
            .iter()
            .map(|&h| {
                let len = next.view(h).unwrap().len() as u64;
                let border = next.border_sublist(h).unwrap().0.len() as u64;
                len * 12 + border * 8
            })
            .sum();
        // The seal may compact the refresh's tombstones over the threshold
        // beyond its one chunk, at an entry's bytes and a border slot each.
        let tombstoned: usize = patched.iter().map(|&h| prev.view(h).unwrap().len()).sum();
        let share = (tombstoned as f64 / FlatIndex::COMPACTION_THRESHOLD).ceil() as u64 * 20;
        // Publish: the previous snapshot goes.
        drop(prev);
        let transient = peak.wrapping_sub(LIVE_BYTES.load(Ordering::Relaxed));
        assert!(
            transient < one_chunk + appended + share,
            "a refresh needed {transient} bytes beyond the arena it left; one \
             chunk is {one_chunk}, its appended segments {appended} and its \
             {tombstoned} tombstones' share {share}"
        );
        (graph, prev) = (next_graph, next);
    }
    assert!(
        prev.compactions() >= 4,
        "{} events compacted {} chunks",
        events.len(),
        prev.compactions()
    );

    // Sanity check that the counter is actually live.
    let probe = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    assert!(ALLOCATIONS.load(Ordering::Relaxed) > probe);
}

/// Whether `a` and `b` store `hub`'s entries bit for bit alike.
fn same_bits(a: &FlatIndex, b: &FlatIndex, hub: NodeId) -> bool {
    let (x, y) = (a.view(hub).unwrap(), b.view(hub).unwrap());
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    x.for_each(|v, s| xs.push((v, s.to_bits())));
    y.for_each(|v, s| ys.push((v, s.to_bits())));
    xs == ys
}

/// Finalizes a session over a warm workspace and checks that materializing
/// the answer allocated exactly one buffer — its entry vector, at exactly
/// the answer's length. A drain that sorted through a scratch buffer, or
/// grew its output, would show here. Returns the answer's length.
fn answer_is_one_exact_allocation<S: PpvStore>(
    session: QuerySession<'_, '_, S>,
    source: &str,
) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = session.into_result();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let entries = result.scores.into_entries();
    assert_eq!(
        allocs,
        1,
        "{allocs} heap allocations to materialize a warm {source} answer of \
         {} entries",
        entries.len()
    );
    assert_eq!(
        entries.capacity(),
        entries.len(),
        "the {source} answer's entry vector is not at exact capacity"
    );
    entries.len()
}
