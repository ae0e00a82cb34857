//! Proves two acceptance criteria with a counting global allocator:
//!
//! * zero heap allocations in `IncrementalState::step` rounds and in the
//!   assemble pass that folds them into the estimate, on the `FlatIndex`
//!   path (hub sources — iteration 0 is an arena view);
//! * O(1) amortized allocations for a **cold non-hub query** on the fused
//!   extract+solve path (`PrimeComputer::prime_ppv_into`): once the
//!   workspace is warm, starting a session computes the whole prime PPV
//!   on the fly with the session bookkeeping's single allocation, and
//!   every subsequent step, and the assemble pass, allocate nothing.
//!
//! This file deliberately holds a single test: the allocation counter is
//! process-global, and a lone test keeps other threads from muddying the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fastppv::core::offline::build_flat_index;
use fastppv::core::query::StoppingCondition;
use fastppv::core::{select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::barabasi_albert;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator (plus a side-effect-
// free counter bump), so `System`'s allocation guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim — the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim — `ptr`/`layout` came from this
        // allocator, which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    drop(session);
    assert!(
        ws.last_scan().hubs_scanned > 0,
        "the assemble pass scanned nothing"
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

    // Sanity check that the counter is actually live.
    let probe = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    assert!(ALLOCATIONS.load(Ordering::Relaxed) > probe);
}
