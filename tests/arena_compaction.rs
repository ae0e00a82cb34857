//! Compaction moves bytes and never changes one a reader can see.
//!
//! Over random graphs and random insert/delete batches, on whole and
//! sliced arenas at budgets 0.01 and 0.05, every delta refresh runs while
//! the previous snapshot is held, and after every batch:
//!
//! * each hub's entries, border sublist, norm and spend equal, bit for
//!   bit, those of the same refresh run over a copy of the previous arena
//!   rebuilt hub by hub (one fresh chunk layout with no dead entries, so
//!   other compactions fire, or none), and those of a copy run through the
//!   whole-arena `compact()`; all three serialize to the same `FPPVIDX3`
//!   bytes;
//! * the held snapshot still reads exactly what it read before the
//!   refresh;
//! * the dead share is at most `COMPACTION_THRESHOLD` plus the entries the
//!   refresh tombstoned.
//!
//! A thousand-event stream then shows that sealing one small chunk per
//! refresh does not grow the chunk count without bound, and that every
//! owned chunk holds exactly its bytes.
//!
//! The proptest case count is `FASTPPV_FUZZ_ROUNDS` (16 by default).

use fastppv::cluster::{slice_store, ShardMap};
use fastppv::core::dynamic::{DeltaConfig, Refresher};
use fastppv::core::index::{FlatIndex, PpvStore};
use fastppv::core::offline::build_flat_index;
use fastppv::core::{select_hubs, Config, HubPolicy, HubSet};
use fastppv::graph::builder::{from_edges, GraphBuilder};
use fastppv::graph::gen::{apply_event, barabasi_albert, synth_events};
use fastppv::graph::{Graph, NodeId};
use proptest::prelude::*;

/// Everything a reader can get out of one hub's segment, as bits.
#[derive(Debug, PartialEq)]
struct Readable {
    entries: Vec<(NodeId, u64)>,
    border: (Vec<NodeId>, Vec<u32>),
    norm: u64,
    spend: u64,
}

fn readable(index: &FlatIndex, hub: NodeId) -> Readable {
    let mut entries = Vec::new();
    index
        .view(hub)
        .expect("indexed hub")
        .for_each(|v, s| entries.push((v, s.to_bits())));
    let (ids, pos) = index.border_sublist(hub).expect("indexed hub");
    Readable {
        entries,
        border: (ids.to_vec(), pos.to_vec()),
        norm: index.stored_norm(hub).expect("indexed hub").to_bits(),
        spend: index.budget_spent(hub).to_bits(),
    }
}

fn everything(index: &FlatIndex) -> Vec<Readable> {
    index
        .hub_ids()
        .iter()
        .map(|&h| readable(index, h))
        .collect()
}

fn file_bytes(index: &FlatIndex, name: &str) -> Vec<u8> {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "fastppv-compaction-{}-{name}.fppv",
        std::process::id()
    ));
    index.write_to_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// `index` rebuilt hub by hub in its slot order: the same readable bytes
/// in one fresh layout.
fn rebuilt(index: &FlatIndex, hubs: &HubSet) -> FlatIndex {
    let mut fresh = FlatIndex::new(index.capacity());
    for &h in index.hub_ids() {
        fresh.insert_from(index, h, hubs);
    }
    fresh.seal();
    fresh
}

/// Toggles edge `u -> v`: deletes it when live, inserts it otherwise
/// (self-loops are the builder's dangling bookkeeping, not data).
fn flip(graph: &Graph, u: NodeId, v: NodeId) -> Option<Graph> {
    if u == v {
        return None;
    }
    let n = graph.num_nodes();
    let mut b = GraphBuilder::new(n);
    let live = graph.has_edge(u, v);
    let mut remaining = 0usize;
    for (s, t) in graph.edges() {
        if s == u && (t == v || (!live && t == u)) {
            continue;
        }
        remaining += usize::from(s == u);
        b.add_edge(s, t);
    }
    if !live {
        b.add_edge(u, v);
    } else if remaining == 0 {
        b.add_edge(u, u); // keep the dangling-fix invariant
    }
    Some(b.build())
}

/// A generated case: node count, initial edge list, flip batches.
type Case = (usize, Vec<(NodeId, NodeId)>, Vec<Vec<(NodeId, NodeId)>>);

/// Small random graphs and batches of one to three flips (a batch may
/// change several tails, or one tail twice, so a hub can be patched twice
/// in one refresh).
fn case() -> impl Strategy<Value = Case> {
    (12usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as NodeId, 0..n as NodeId), n..4 * n);
        let flip = (0..n as NodeId, 0..n as NodeId);
        let batches = prop::collection::vec(prop::collection::vec(flip, 1..4), 1..24);
        (Just(n), edges, batches)
    })
}

/// Proptest case count: `FASTPPV_FUZZ_ROUNDS`, 16 by default.
fn fuzz_rounds() -> u32 {
    std::env::var("FASTPPV_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_rounds()))]

    #[test]
    fn compaction_changes_no_readable_byte((n, edges, batches) in case()) {
        let graph0 = from_edges(n, &edges);
        let hubs = select_hubs(&graph0, HubPolicy::ExpectedUtility, (n / 3).max(2), 0);
        let config = Config::default().with_epsilon(1e-6);
        let (built, _) = build_flat_index(&graph0, &hubs, &config, 1);
        let map = ShardMap::round_robin(n, 2);
        let (mut refresher, mut oracle) = (Refresher::new(), Refresher::new());
        for budget in [0.01, 0.05] {
            let delta = DeltaConfig::default().with_budget(budget);
            for sliced in [false, true] {
                let mut arenas: Vec<FlatIndex> = if sliced {
                    (0..2).map(|s| slice_store(&built, &hubs, &map, s)).collect()
                } else {
                    vec![built.clone()]
                };
                let mut graph = graph0.clone();
                for (b, batch) in batches.iter().enumerate() {
                    let mut next_graph = graph.clone();
                    let mut tails = Vec::new();
                    for &(u, v) in batch {
                        if let Some(g) = flip(&next_graph, u, v) {
                            next_graph = g;
                            tails.push(u);
                        }
                    }
                    for arena in &mut arenas {
                        let pinned = everything(arena);
                        let fresh = rebuilt(arena, &hubs);
                        let (next, _) = refresher.refresh(
                            arena, &graph, &next_graph, &hubs, &tails, &config, &delta,
                        );
                        let ctx = format!("budget {budget}, sliced {sliced}, batch {b} {batch:?}");
                        prop_assert!(everything(arena) == pinned, "{}: the held snapshot moved", ctx);
                        let (expected, _) = oracle.refresh(
                            &fresh, &graph, &next_graph, &hubs, &tails, &config, &delta,
                        );
                        let mut compacted = next.clone();
                        compacted.compact();
                        prop_assert_eq!(compacted.dead_entries(), 0);
                        let read = everything(&next);
                        prop_assert!(read == everything(&expected), "{}: the rebuilt arena reads otherwise", ctx);
                        prop_assert!(read == everything(&compacted), "{}: compact() moved a byte", ctx);
                        let bytes = file_bytes(&next, "next");
                        prop_assert!(
                            bytes == file_bytes(&expected, "expected"),
                            "{}: the rebuilt arena's file bytes differ", ctx
                        );
                        prop_assert!(
                            bytes == file_bytes(&compacted, "compacted"),
                            "{}: the compacted file bytes differ", ctx
                        );
                        // A patch tombstones the hub's old segment.
                        let tombstoned: usize = next
                            .hub_ids()
                            .iter()
                            .filter(|&&h| readable(arena, h).entries != readable(&next, h).entries)
                            .map(|&h| arena.view(h).unwrap().len())
                            .sum();
                        let stored = next.total_entries() + next.dead_entries();
                        prop_assert!(
                            next.dead_entries() as f64
                                <= FlatIndex::COMPACTION_THRESHOLD * stored as f64 + tombstoned as f64,
                            "{}: {} dead of {} stored, {} tombstoned",
                            ctx, next.dead_entries(), stored, tombstoned
                        );
                        *arena = next;
                    }
                    graph = next_graph;
                }
            }
        }
    }
}

/// Each refresh seals one small chunk; coalescing keeps the count near
/// the logarithm of the arena, whatever the stream's length. Every owned
/// chunk holds exactly its bytes (a heap arena's resident bytes are its
/// viewed bytes), and no chunk stays past the threshold.
#[test]
fn chunk_count_stays_bounded_over_a_long_stream() {
    const EVENTS: usize = 1_000;
    let g0 = barabasi_albert(300, 3, 0xC4A7);
    let hubs: HubSet = select_hubs(&g0, HubPolicy::ExpectedUtility, 30, 0);
    let config = Config::default().with_epsilon(1e-6);
    let delta = DeltaConfig::default().with_budget(0.01);
    let (mut published, _) = build_flat_index(&g0, &hubs, &config, 1);
    let mut refresher = Refresher::new();
    let mut graph = g0.clone();
    let (mut most, mut compactions) = (0usize, 0u64);
    for (i, event) in synth_events(&g0, EVENTS, 0.2, 5).iter().enumerate() {
        let next_graph = apply_event(&graph, event);
        let (next, _) = refresher.refresh(
            &published,
            &graph,
            &next_graph,
            &hubs,
            &[event.tail],
            &config,
            &delta,
        );
        assert_eq!(
            next.resident_bytes(),
            next.arena_bytes(),
            "event {i}: an owned chunk holds spare capacity"
        );
        let stored = next.total_entries() + next.dead_entries();
        assert!(
            next.dead_entries() as f64 <= FlatIndex::COMPACTION_THRESHOLD * stored as f64,
            "event {i}: {} dead of {stored}",
            next.dead_entries()
        );
        // Logarithmic in the stored entries: twice their bit length, plus
        // the open tail and one chunk past the threshold.
        let bound = 2 * (usize::BITS - stored.leading_zeros()) as usize + 2;
        assert!(
            next.chunk_count() <= bound,
            "event {i}: {} chunks for {stored} entries (bound {bound})",
            next.chunk_count()
        );
        most = most.max(next.chunk_count());
        compactions = next.compactions();
        (published, graph) = (next, next_graph);
    }
    assert!(compactions > 0, "the stream never compacted");
    assert!(most > 1, "the stream never sealed a second chunk");
}
