//! Growing-graph series: prefix sampling, induced subgraphs, and edge
//! event streams.
//!
//! The paper's scalability study (Fig. 13) uses DBLP snapshots by year and
//! LiveJournal samples of increasing edge counts. [`sample_prefix`] produces
//! the latter: the first `k` edges in creation order induce a graph over the
//! nodes they touch (node ids compacted). [`synth_events`] /
//! [`apply_event`] drive the dynamic-update experiments (§7): a seeded
//! stream of single-edge insert/delete events applied one at a time to an
//! otherwise fixed node set.
//!
//! An applied event costs what it changed: the new graph shares its
//! predecessor's base CSR and overlaid rows, and adds only the tail's new
//! out-row and the touched heads' new in-rows to a copy of the overlay's
//! index (see [`crate::csr`] for the layout and when the overlay folds
//! back into a flat base). [`try_apply_event`] is the checked entry point
//! for events from outside the program.

use std::collections::HashSet;
use std::fmt;

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};

/// Builds the graph induced by the first `k` edges of `edges` (creation
/// order). Returns the compacted graph and the map from new ids to old ids.
pub fn sample_prefix(edges: &[(NodeId, NodeId)], k: usize) -> (Graph, Vec<NodeId>) {
    let k = k.min(edges.len());
    let prefix = &edges[..k];
    let mut seen: Vec<NodeId> = Vec::with_capacity(2 * k);
    for &(u, v) in prefix {
        seen.push(u);
        seen.push(v);
    }
    seen.sort_unstable();
    seen.dedup();
    let max_old = seen.last().copied().map_or(0, |m| m as usize + 1);
    let mut remap = vec![NodeId::MAX; max_old];
    for (new, &old) in seen.iter().enumerate() {
        remap[old as usize] = new as NodeId;
    }
    let mut b = GraphBuilder::new(seen.len())
        .with_edge_capacity(k)
        .dedup(true);
    for &(u, v) in prefix {
        b.add_edge(remap[u as usize], remap[v as usize]);
    }
    (b.build(), seen)
}

/// Builds the subgraph induced by `nodes` (edges with both endpoints in the
/// set). Returns the compacted graph and the map from new ids to old ids.
pub fn induced_subgraph(graph: &Graph, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
    let mut keep: Vec<NodeId> = nodes.to_vec();
    keep.sort_unstable();
    keep.dedup();
    let mut remap = vec![NodeId::MAX; graph.num_nodes()];
    for (new, &old) in keep.iter().enumerate() {
        remap[old as usize] = new as NodeId;
    }
    let mut b = GraphBuilder::new(keep.len());
    for &old in &keep {
        for &t in graph.out_neighbors(old) {
            if remap[t as usize] != NodeId::MAX {
                b.add_edge(remap[old as usize], remap[t as usize]);
            }
        }
    }
    (b.build(), keep)
}

/// One edge change in a streaming-update workload. The node set is fixed;
/// only the adjacency evolves. `tail` is the single node whose out-row the
/// event touches — what an index refresh wants as its changed-tails list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeEvent {
    /// Source of the inserted or deleted edge.
    pub tail: NodeId,
    /// Target of the inserted or deleted edge.
    pub head: NodeId,
    /// `true` inserts the edge, `false` deletes it.
    pub insert: bool,
}

/// Synthesizes a seeded stream of `count` single-edge events against
/// `graph`: inserts of fresh non-self edges, mixed with deletes of live
/// edges at rate `delete_fraction`. The stream is *sequentially
/// consistent* — each delete targets an edge that exists at that point of
/// the stream (initial edges or earlier inserts), each insert an edge that
/// does not — so it can be applied one event at a time with
/// [`apply_event`]. Dangling-fix self-loops are never deleted directly;
/// they come and go through the builder's dangling policy.
pub fn synth_events(
    graph: &Graph,
    count: usize,
    delete_fraction: f64,
    seed: u64,
) -> Vec<EdgeEvent> {
    assert!(graph.num_nodes() >= 2, "need at least two nodes");
    assert!((0.0..=1.0).contains(&delete_fraction));
    let n = graph.num_nodes() as NodeId;
    let mut rng = super::rng(seed);
    // Live real edges; dangling-fix self-loops are bookkeeping, not data.
    let mut live: Vec<(NodeId, NodeId)> = graph.edges().filter(|&(s, t)| s != t).collect();
    let mut present: HashSet<(NodeId, NodeId)> = live.iter().copied().collect();
    let mut events = Vec::with_capacity(count);
    while events.len() < count {
        if !live.is_empty() && rng.gen::<f64>() < delete_fraction {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            present.remove(&(u, v));
            events.push(EdgeEvent {
                tail: u,
                head: v,
                insert: false,
            });
        } else {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || present.contains(&(u, v)) {
                continue;
            }
            present.insert((u, v));
            live.push((u, v));
            events.push(EdgeEvent {
                tail: u,
                head: v,
                insert: true,
            });
        }
    }
    events
}

/// Why [`try_apply_event`] refused an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventError {
    /// An endpoint is not a node of the graph.
    OutOfRange {
        /// The event's tail.
        tail: NodeId,
        /// The event's head.
        head: NodeId,
        /// Nodes in the graph.
        num_nodes: usize,
    },
    /// A delete names an edge the graph does not hold.
    AbsentEdge {
        /// The event's tail.
        tail: NodeId,
        /// The event's head.
        head: NodeId,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventError::OutOfRange {
                tail,
                head,
                num_nodes,
            } => write!(
                f,
                "event edge {tail} -> {head} out of range ({num_nodes} nodes)"
            ),
            EventError::AbsentEdge { tail, head } => {
                write!(f, "delete of absent edge {tail} -> {head}")
            }
        }
    }
}

impl std::error::Error for EventError {}

/// Applies one event, returning the updated graph (same node set) —
/// logically the graph a [`GraphBuilder`] rebuild of the edited edge list
/// would lay out, but sharing the input's CSR: only the tail's out-row and
/// the touched heads' in-rows are written, into the graph's row overlay
/// ([`crate::csr`]). The builder's dangling policy is kept by hand: a
/// node gaining its first real edge sheds its dangling-fix self-loop, a
/// node losing its last real edge gets one back.
///
/// # Panics
/// Panics on an event [`try_apply_event`] refuses: an endpoint out of
/// range, or a delete of an edge the graph does not hold.
pub fn apply_event(graph: &Graph, event: &EdgeEvent) -> Graph {
    try_apply_event(graph, event).unwrap_or_else(|e| panic!("{e}"))
}

/// [`apply_event`] for events from outside the program: an endpoint out
/// of range, or a delete of an edge `graph` does not hold, is refused
/// with an [`EventError`] instead of a panic.
pub fn try_apply_event(graph: &Graph, event: &EdgeEvent) -> Result<Graph, EventError> {
    let (u, v) = (event.tail, event.head);
    let num_nodes = graph.num_nodes();
    if u as usize >= num_nodes || v as usize >= num_nodes {
        return Err(EventError::OutOfRange {
            tail: u,
            head: v,
            num_nodes,
        });
    }
    let old_row = graph.out_neighbors(u);
    let mut row = Vec::with_capacity(old_row.len() + 1);
    if event.insert {
        row.extend(old_row.iter().copied().filter(|&t| t != u));
        row.insert(row.partition_point(|&t| t < v), v);
    } else {
        let at = old_row
            .binary_search(&v)
            .map_err(|_| EventError::AbsentEdge { tail: u, head: v })?;
        row.extend_from_slice(old_row);
        row.remove(at);
    }
    if row.is_empty() {
        row.push(u);
    }
    let mut next = graph.with_out_row(u, &row);
    // A rebuild self-loops *every* dangling node, not just the tail. Only
    // a `DanglingPolicy::Keep` graph has any, and the count is O(1) to
    // read, so every other graph skips the scan.
    if graph.num_dangling() > 0 {
        for w in graph.nodes().filter(|&w| w != u && graph.is_dangling(w)) {
            next = next.with_out_row(w, &[w]);
        }
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, DanglingPolicy};

    /// The pre-splice `apply_event`: re-add every edge through the builder.
    /// Kept as the oracle the splice must equal.
    fn rebuild_event(graph: &Graph, event: &EdgeEvent) -> Graph {
        let mut b = GraphBuilder::new(graph.num_nodes());
        let mut removed = event.insert;
        for (s, t) in graph.edges() {
            if event.insert && s == t && s == event.tail {
                continue; // shed the dangling-fix self-loop
            }
            if !removed && s == event.tail && t == event.head {
                removed = true;
                continue;
            }
            b.add_edge(s, t);
        }
        if event.insert {
            b.add_edge(event.tail, event.head);
        }
        b.build()
    }

    #[test]
    fn splice_equals_rebuild_on_random_event_sequences() {
        // Seeds to run: `FASTPPV_FUZZ_ROUNDS`, 40 by default.
        let rounds: u64 = std::env::var("FASTPPV_FUZZ_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(40);
        // Cases the stream must have hit: [self-loop shed, self-loop
        // restored, parallel edge inserted, an event on an overlaid graph
        // that stayed overlaid, a fold].
        let mut hit = [0usize; 5];
        for seed in 0..rounds {
            let mut rng = crate::gen::rng(seed);
            // Every fourth graph is large enough for the overlay to stack
            // several events before it folds; tiny ones fold at once.
            let max_n = if seed % 4 == 0 { 120 } else { 12 };
            let n = rng.gen_range(2..max_n) as NodeId;
            let edges: Vec<(NodeId, NodeId)> = (0..rng.gen_range(0..3 * n))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            // Parallel edges and real self-loops included; sparse seeds
            // leave nodes on their dangling-fix self-loop alone.
            let mut g = from_edges(n as usize, &edges);
            for step in 0..60 {
                let tail = rng.gen_range(0..n);
                let row = g.out_neighbors(tail);
                let event = if rng.gen::<f64>() < 0.5 {
                    // Deleting a node's last edge restores its self-loop.
                    let head = row[rng.gen_range(0..row.len())];
                    EdgeEvent {
                        tail,
                        head,
                        insert: false,
                    }
                } else {
                    // Inserting (duplicates allowed) sheds it.
                    let head = rng.gen_range(0..n);
                    EdgeEvent {
                        tail,
                        head,
                        insert: true,
                    }
                };
                hit[0] += usize::from(event.insert && row == [tail] && event.head != tail);
                hit[1] += usize::from(!event.insert && row.len() == 1 && event.head != tail);
                hit[2] += usize::from(event.insert && row.contains(&event.head));
                let next = apply_event(&g, &event);
                hit[3] += usize::from(g.overlay_entries() > 0 && next.overlay_entries() > 0);
                hit[4] += usize::from(next.overlay_entries() == 0);
                assert_eq!(
                    next,
                    rebuild_event(&g, &event),
                    "seed {seed} step {step}: {event:?} on {:?}",
                    g.edges().collect::<Vec<_>>()
                );
                g = next;
            }
        }
        assert!(hit.iter().all(|&h| h > 10), "cases hit: {hit:?}");
    }

    #[test]
    fn absent_deletes_and_out_of_range_edges_are_refused() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let event = |tail, head, insert| EdgeEvent { tail, head, insert };
        assert_eq!(
            try_apply_event(&g, &event(0, 2, false)),
            Err(EventError::AbsentEdge { tail: 0, head: 2 })
        );
        assert_eq!(
            try_apply_event(&g, &event(3, 0, true)),
            Err(EventError::OutOfRange {
                tail: 3,
                head: 0,
                num_nodes: 3
            })
        );
        assert!(try_apply_event(&g, &event(1, 7, false)).is_err());
        let err = try_apply_event(&g, &event(0, 2, false)).unwrap_err();
        assert!(err.to_string().contains("absent edge 0 -> 2"), "{err}");
        assert_eq!(
            try_apply_event(&g, &event(0, 1, false)),
            Ok(apply_event(&g, &event(0, 1, false)))
        );
    }

    #[test]
    fn splice_self_loops_every_dangling_node_like_a_rebuild() {
        let mut b = GraphBuilder::new(4).dangling(DanglingPolicy::Keep);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_dangling(), 3);
        for event in [
            EdgeEvent {
                tail: 2,
                head: 0,
                insert: true,
            },
            EdgeEvent {
                tail: 0,
                head: 1,
                insert: false,
            },
        ] {
            let next = apply_event(&g, &event);
            assert_eq!(next, rebuild_event(&g, &event), "{event:?}");
            assert_eq!(next.num_dangling(), 0);
        }
    }

    #[test]
    fn prefix_compacts_ids() {
        let edges = vec![(5, 9), (9, 5), (0, 5)];
        let (g, map_back) = sample_prefix(&edges, 2);
        assert_eq!(map_back, vec![5, 9]);
        assert_eq!(g.num_nodes(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn prefix_larger_than_list_takes_all() {
        let edges = vec![(0, 1)];
        let (g, _) = sample_prefix(&edges, 100);
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    fn prefix_growth_is_monotone() {
        let edges: Vec<(NodeId, NodeId)> = (0..100).map(|i| (i, (i + 1) % 100)).collect();
        let (g1, _) = sample_prefix(&edges, 10);
        let (g2, _) = sample_prefix(&edges, 50);
        assert!(g1.num_nodes() < g2.num_nodes());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, map_back) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(map_back, vec![0, 1, 2]);
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 2));
        // Edge 2 -> 3 dropped; 2 becomes dangling -> self-loop.
        assert!(sub.has_edge(2, 2));
        assert_eq!(sub.num_edges(), 3);
    }

    #[test]
    fn induced_subgraph_dedups_input_nodes() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let (sub, map_back) = induced_subgraph(&g, &[1, 1, 0]);
        assert_eq!(map_back, vec![0, 1]);
        assert_eq!(sub.num_nodes(), 2);
    }

    #[test]
    fn event_stream_is_sequentially_consistent() {
        let g0 = crate::gen::barabasi_albert(60, 2, 9);
        let events = synth_events(&g0, 120, 0.4, 17);
        assert_eq!(events.len(), 120);
        let mut g = g0;
        for (i, ev) in events.iter().enumerate() {
            if ev.insert {
                assert!(!g.has_edge(ev.tail, ev.head), "event {i} inserts a dup");
                assert_ne!(ev.tail, ev.head, "event {i} inserts a self-loop");
            } else {
                assert!(g.has_edge(ev.tail, ev.head), "event {i} deletes a ghost");
            }
            g = apply_event(&g, ev);
            if ev.insert {
                assert!(g.has_edge(ev.tail, ev.head));
            } else {
                assert!(!g.has_edge(ev.tail, ev.head) || ev.tail == ev.head);
            }
            assert_eq!(g.num_nodes(), 60, "node set is fixed");
        }
    }

    #[test]
    fn event_stream_is_deterministic() {
        let g = crate::gen::barabasi_albert(40, 2, 3);
        assert_eq!(synth_events(&g, 50, 0.3, 5), synth_events(&g, 50, 0.3, 5));
        assert_ne!(synth_events(&g, 50, 0.3, 5), synth_events(&g, 50, 0.3, 6));
    }

    #[test]
    fn dangling_invariant_survives_events() {
        // Node 2's only real edge is deleted: the builder restores its
        // dangling-fix self-loop; re-inserting sheds it again.
        let g = from_edges(3, &[(0, 1), (1, 0), (2, 0)]);
        let del = EdgeEvent {
            tail: 2,
            head: 0,
            insert: false,
        };
        let g2 = apply_event(&g, &del);
        assert!(g2.has_edge(2, 2), "dangling node gets its self-loop back");
        let ins = EdgeEvent {
            tail: 2,
            head: 1,
            insert: true,
        };
        let g3 = apply_event(&g2, &ins);
        assert!(g3.has_edge(2, 1) && !g3.has_edge(2, 2));
    }
}
