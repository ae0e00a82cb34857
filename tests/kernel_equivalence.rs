//! Kernel-equivalence suite: the bucket-queue + CSR prime-PPV kernel
//! against a self-contained reference implementation of the original
//! binary-heap kernel (exact float priorities, discovery-order local
//! numbering).
//!
//! The two kernels must agree on the *semantics* — the prime-subgraph node
//! sets are order-free fixed points and match exactly; the solved prime
//! PPVs differ only in floating-point accumulation order (the new kernel
//! sweeps interiors by degree), so entries match to ≤ 1e-12. On top of
//! that, the entry points of the one search, sweep loop and emit are
//! pinned bit-for-bit against each other: the in-memory one-shots, which
//! sweep the graph's own CSR, against the paths that sweep a copy of the
//! interior's rows (the materialized `extract` + `solve` pipeline, and
//! `prime_ppv_from` over `OrderedCsr`, a test-local row source that takes
//! the same CSR through the ordered-probe search a disk-resident graph
//! takes). The stored family (`prime_ppv`) matches under every
//! configuration, unclipped and at a storage clip; the query-time family
//! (`prime_ppv_into`) matches the stored one once δ = 0 disarms its early
//! stop, matches `prime_ppv_from` at any δ — work counters and leftover
//! residual included — and under the configuration's own δ is pinned as an
//! entry-wise lower bound that is short by at most δ. Graphs with parallel
//! edges, self-loops (a hub source whose row points back at itself among
//! them) and dangling interior nodes give the copied rows every chance to
//! disagree with the graph's. So do graphs that
//! carry a row overlay — the epochs edge events publish, which serving
//! answers prime-0 from — against the same graph laid out flat, through
//! every entry point.
//!
//! The proptests' case count is `FASTPPV_FUZZ_ROUNDS` (24 by default).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fastppv::core::{Config, HubSet, PrimeComputer, PrimePpv, RowSource};
use fastppv::graph::gen::{barabasi_albert, synth_events, try_apply_event};
use fastppv::graph::{CsrView, DanglingPolicy, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// A graph's CSR behind the ordered-probe search `DiskGraph` takes: the
/// sweep list reads interior degrees in discovery order, and
/// `prime_ppv_from` sweeps a copy of the rows.
struct OrderedCsr<'a>(CsrView<'a>);

impl RowSource for OrderedCsr<'_> {
    const ORDERED_PROBES: bool = true;

    fn degree(&mut self, v: NodeId) -> usize {
        self.0.out_degree(v)
    }

    fn visit<F: FnMut(NodeId)>(&mut self, v: NodeId, mut f: F) {
        for &t in self.0.out_neighbors(v) {
            f(t);
        }
    }
}

/// `prime_ppv_from` over `graph` through [`OrderedCsr`].
fn prime_ppv_ordered(
    pc: &mut PrimeComputer,
    graph: &Graph,
    hubs: &HubSet,
    q: NodeId,
    config: &Config,
) -> (PrimePpv, usize) {
    pc.prime_ppv_from(&mut OrderedCsr(graph.out_csr()), hubs, q, config)
}

/// The original kernel, kept verbatim as a test oracle: max-probability
/// Dijkstra over a `BinaryHeap` with exact float priorities, interior
/// locals in pop order, adjacency copied into a per-call subgraph, and the
/// same worklist solve.
mod reference {
    use super::*;

    struct ProbEntry(f64, NodeId);

    impl PartialEq for ProbEntry {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0 && self.1 == other.1
        }
    }
    impl Eq for ProbEntry {}
    impl PartialOrd for ProbEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for ProbEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0).then(other.1.cmp(&self.1))
        }
    }

    pub struct Subgraph {
        pub nodes: Vec<NodeId>,
        pub num_interior: usize,
        adj_offsets: Vec<usize>,
        adj_targets: Vec<u32>,
        out_degree: Vec<u32>,
        source_is_hub: bool,
    }

    pub fn extract(graph: &Graph, hubs: &HubSet, source: NodeId, config: &Config) -> Subgraph {
        let alpha = config.alpha;
        let eps = config.epsilon;
        let n = graph.num_nodes();
        let mut best = vec![0.0f64; n];
        let mut slot_of = vec![u32::MAX; n];
        let mut nodes: Vec<NodeId> = Vec::new();
        let push_local = |v: NodeId, nodes: &mut Vec<NodeId>, slot_of: &mut [u32]| -> u32 {
            let slot = &mut slot_of[v as usize];
            if *slot == u32::MAX {
                *slot = nodes.len() as u32;
                nodes.push(v);
            }
            *slot
        };
        let mut heap = BinaryHeap::new();
        best[source as usize] = 1.0;
        heap.push(ProbEntry(1.0, source));
        let mut interior: Vec<NodeId> = Vec::new();
        while let Some(ProbEntry(p, v)) = heap.pop() {
            if p < best[v as usize] {
                continue;
            }
            best[v as usize] = f64::INFINITY;
            interior.push(v);
            let d = graph.out_degree(v);
            if d == 0 {
                continue;
            }
            let w = p * (1.0 - alpha) / d as f64;
            if w < eps {
                continue;
            }
            for &t in graph.out_neighbors(v) {
                if hubs.is_hub(t) {
                    continue;
                }
                if w > best[t as usize] {
                    best[t as usize] = w;
                    heap.push(ProbEntry(w, t));
                }
            }
        }
        for &v in &interior {
            push_local(v, &mut nodes, &mut slot_of);
        }
        let num_interior = nodes.len();
        let mut adj_offsets = vec![0usize];
        let mut adj_targets: Vec<u32> = Vec::new();
        let mut out_degree = Vec::new();
        for u in 0..num_interior {
            let v = nodes[u];
            out_degree.push(graph.out_degree(v) as u32);
            for &t in graph.out_neighbors(v) {
                let lt = push_local(t, &mut nodes, &mut slot_of);
                adj_targets.push(lt);
            }
            adj_offsets.push(adj_targets.len());
        }
        Subgraph {
            nodes,
            num_interior,
            adj_offsets,
            adj_targets,
            out_degree,
            source_is_hub: hubs.is_hub(source),
        }
    }

    pub fn solve(sub: &Subgraph, config: &Config, clip: f64) -> Vec<(NodeId, f64)> {
        let alpha = config.alpha;
        let ni = sub.num_interior;
        let ntot = sub.nodes.len();
        let theta = config.solve_tolerance;
        let mut mass = vec![0.0f64; ni];
        let mut mass_next = vec![0.0f64; ni];
        let mut absorbed = vec![0.0f64; ntot - ni];
        let mut in_queue = vec![false; ni];
        let mut queue = std::collections::VecDeque::new();
        let mut source_returns = 0.0;
        mass_next[0] = 1.0;
        in_queue[0] = true;
        queue.push_back(0u32);
        let max_pushes = config
            .solve_max_iterations
            .saturating_mul(ni.max(1))
            .max(1_000);
        let mut pushes = 0usize;
        while let Some(u) = queue.pop_front() {
            let u = u as usize;
            in_queue[u] = false;
            let r = mass_next[u];
            if r == 0.0 {
                continue;
            }
            mass_next[u] = 0.0;
            mass[u] += r;
            pushes += 1;
            if pushes > max_pushes {
                break;
            }
            let d = sub.out_degree[u];
            if d == 0 {
                continue;
            }
            let share = r * (1.0 - alpha) / d as f64;
            for &t in &sub.adj_targets[sub.adj_offsets[u]..sub.adj_offsets[u + 1]] {
                let t = t as usize;
                if t >= ni {
                    absorbed[t - ni] += share;
                } else if t == 0 && sub.source_is_hub {
                    source_returns += share;
                } else {
                    mass_next[t] += share;
                    if mass_next[t] > theta && !in_queue[t] {
                        in_queue[t] = true;
                        queue.push_back(t as u32);
                    }
                }
            }
        }
        let mut entries: Vec<(NodeId, f64)> = Vec::new();
        let src_score = if sub.source_is_hub {
            alpha * source_returns
        } else {
            alpha * (mass[0] - 1.0)
        };
        if src_score >= clip && src_score > 0.0 {
            entries.push((sub.nodes[0], src_score));
        }
        for (&v, &m) in sub.nodes[1..ni].iter().zip(&mass[1..ni]) {
            let s = alpha * m;
            if s >= clip && s > 0.0 {
                entries.push((v, s));
            }
        }
        for (i, &a) in absorbed.iter().enumerate() {
            let s = alpha * a;
            if s >= clip && s > 0.0 {
                entries.push((sub.nodes[ni + i], s));
            }
        }
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries
    }
}

fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort_unstable();
    v
}

fn bits(entries: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    entries.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

/// A BA graph roughened with every row shape a row source could mishandle:
/// parallel edges, self-loops — doubled on some nodes, and on hubs, so a
/// hub source's row points back at itself — and dangling nodes (every
/// `u % 11 == 7` keeps no out-edge, hubs and the reachable interior
/// included). Hubs are every `hub_stride`-th node.
fn messy_graph(n: usize, seed: u64, hub_stride: usize) -> (Graph, HubSet) {
    let base = barabasi_albert(n, 3, seed);
    let dangling = |u: NodeId| u % 11 == 7;
    let mut b = GraphBuilder::new(n).dangling(DanglingPolicy::Keep);
    for (u, v) in base.edges() {
        if dangling(u) {
            continue;
        }
        b.add_edge(u, v);
        if (u + v) % 5 == 0 {
            b.add_edge(u, v);
        }
    }
    for v in (0..n as NodeId).step_by(3).filter(|&v| !dangling(v)) {
        b.add_edge(v, v);
        if v % 2 == 0 {
            b.add_edge(v, v);
        }
    }
    let hubs = HubSet::from_ids(n, (0..n as NodeId).step_by(hub_stride).collect());
    (b.build(), hubs)
}

fn tight_config(epsilon: f64) -> Config {
    let mut config = Config::default().with_epsilon(epsilon).with_clip(0.0);
    config.solve_tolerance = 1e-15;
    config
}

/// Asserts the new kernel against the reference for one (graph, hubs,
/// source, config) instance, and its row sources against each other. The
/// reference comparison runs at `clip = 0`: a positive clip would let
/// sub-ulp score differences flip borderline entries in or out — between
/// row sources there are none, so they are also compared at a clip.
fn assert_kernels_agree(
    g: &Graph,
    hubs: &HubSet,
    pc: &mut PrimeComputer,
    q: NodeId,
    config: &Config,
) {
    let ref_sub = reference::extract(g, hubs, q, config);
    let new_sub = pc.extract(g, hubs, q, config);
    assert_eq!(new_sub.num_interior, ref_sub.num_interior);
    assert_eq!(
        sorted(new_sub.nodes[..new_sub.num_interior].to_vec()),
        sorted(ref_sub.nodes[..ref_sub.num_interior].to_vec())
    );
    assert_eq!(
        sorted(new_sub.nodes[new_sub.num_interior..].to_vec()),
        sorted(ref_sub.nodes[ref_sub.num_interior..].to_vec())
    );

    let ref_entries = reference::solve(&ref_sub, config, 0.0);
    let (new_ppv, size) = pc.prime_ppv(g, hubs, q, config, 0.0);
    assert_eq!(size, ref_sub.nodes.len());
    let new_entries = new_ppv.entries.entries();
    assert_eq!(new_entries.len(), ref_entries.len());
    for (&(nv, ns), &(rv, rs)) in new_entries.iter().zip(&ref_entries) {
        assert_eq!(nv, rv);
        assert!(
            (ns - rs).abs() <= 1e-12,
            "source {q} node {nv}: bucket kernel {ns} vs heap kernel {rs}"
        );
    }

    // The graph-row one-shots are pinned bit-for-bit to the copied-row
    // paths (one sweep loop, same addends in the same order): the stored
    // family unclipped and at a storage clip, the query-time family with
    // its early stop disarmed.
    let materialized = pc.solve(&new_sub, config, 0.0);
    assert_eq!(bits(materialized.entries.entries()), bits(new_entries));
    let (clipped, _) = pc.prime_ppv(g, hubs, q, config, 1e-4);
    let clipped_work = pc.last_solve();
    let materialized = pc.solve(&new_sub, config, 1e-4);
    assert_eq!(
        bits(materialized.entries.entries()),
        bits(clipped.entries.entries())
    );
    assert_eq!(pc.last_solve(), clipped_work);
    let (slice, fused_size) = pc.prime_ppv_into(g, hubs, q, &config.with_delta(0.0));
    assert_eq!(fused_size, size);
    assert_eq!(bits(slice), bits(new_entries));

    // The query-time family on either row source, at δ = 0 and at the
    // configuration's own δ: same entries, same sweeps and settles, and
    // the same residual left behind, read from the arrays the solve ran in.
    for delta in [0.0, config.delta] {
        let at = config.with_delta(delta);
        let (slice, fused_size) = pc.prime_ppv_into(g, hubs, q, &at);
        let fused = bits(slice);
        let fused_work = pc.last_solve();
        let (local, local_size) = prime_ppv_ordered(pc, g, hubs, q, &at);
        assert_eq!(local_size, fused_size, "source {q}, δ = {delta}");
        assert_eq!(
            bits(local.entries.entries()),
            fused,
            "source {q}, δ = {delta}"
        );
        let local_work = pc.last_solve();
        assert_eq!(
            local_work.sweeps, fused_work.sweeps,
            "source {q}, δ = {delta}"
        );
        assert_eq!(
            local_work.settles, fused_work.settles,
            "source {q}, δ = {delta}"
        );
        assert_eq!(
            local_work.leftover.to_bits(),
            fused_work.leftover.to_bits(),
            "source {q}, δ = {delta}"
        );
    }

    // Under the configuration's own δ the query-time family may stop
    // early: what it emits is settled mass only, so every score is at most
    // the stored family's, and the total shortfall at most δ.
    let (slice, fused_size) = pc.prime_ppv_into(g, hubs, q, config);
    assert_eq!(fused_size, size);
    let mut covered = 0.0;
    for &(v, s) in slice {
        assert!(
            s <= new_ppv.entries.get(v),
            "source {q} node {v}: query-time score above the stored one"
        );
        covered += s;
    }
    let shortfall = new_ppv.entries.l1_norm() - covered;
    assert!(
        (-1e-12..=config.delta + 1e-12).contains(&shortfall),
        "source {q}: query-time prime-0 short by {shortfall}, δ = {}",
        config.delta
    );
}

/// `graph`'s edges laid out in a fresh flat CSR: the same rows, no
/// overlay.
fn flat_copy(graph: &Graph) -> Graph {
    let mut b = GraphBuilder::new(graph.num_nodes()).dangling(DanglingPolicy::Keep);
    for (u, v) in graph.edges() {
        b.add_edge(u, v);
    }
    b.build()
}

/// Whether `graph` reads some rows from an overlay: it then holds more
/// than the same rows laid out flat.
fn carries_overlay(graph: &Graph) -> bool {
    graph.memory_bytes() > flat_copy(graph).memory_bytes()
}

/// `base` after `count` seeded edge events, applied one at a time. An
/// event that would fold the overlay into a fresh base is skipped, and so
/// is a delete of an edge a skipped insert never added: the result still
/// reads its changed rows from the overlay.
fn overlaid_graph(base: &Graph, count: usize, delete_fraction: f64, seed: u64) -> Graph {
    let mut graph = base.clone();
    let mut applied = 0;
    for event in synth_events(base, count + 32, delete_fraction, seed) {
        match try_apply_event(&graph, &event) {
            Ok(next) if carries_overlay(&next) => graph = next,
            _ => continue,
        }
        applied += 1;
        if applied == count {
            break;
        }
    }
    graph
}

/// Asserts that every kernel entry point reads `overlaid` exactly as it
/// reads `flat`, the same rows laid out without an overlay: entries bit
/// for bit, subgraph sizes and work counters.
fn assert_overlay_reads_like_flat(
    overlaid: &Graph,
    flat: &Graph,
    hubs: &HubSet,
    pc: &mut PrimeComputer,
    q: NodeId,
    config: &Config,
) {
    for clip in [0.0, 1e-4] {
        let (a, a_size) = pc.prime_ppv(overlaid, hubs, q, config, clip);
        let a_work = pc.last_solve();
        let (b, b_size) = pc.prime_ppv(flat, hubs, q, config, clip);
        assert_eq!(
            bits(a.entries.entries()),
            bits(b.entries.entries()),
            "prime_ppv, source {q}, clip {clip}"
        );
        assert_eq!((a_size, a_work), (b_size, pc.last_solve()));
    }
    for delta in [0.0, config.delta] {
        let at = config.with_delta(delta);
        let (a, a_size) = pc.prime_ppv_into(overlaid, hubs, q, &at);
        let (a, a_work) = (bits(a), pc.last_solve());
        let (b, b_size) = pc.prime_ppv_into(flat, hubs, q, &at);
        assert_eq!(a, bits(b), "prime_ppv_into, source {q}, δ = {delta}");
        assert_eq!((a_size, a_work), (b_size, pc.last_solve()));

        let (a, a_size) = prime_ppv_ordered(pc, overlaid, hubs, q, &at);
        let a_work = pc.last_solve();
        let (b, b_size) = prime_ppv_ordered(pc, flat, hubs, q, &at);
        assert_eq!(
            bits(a.entries.entries()),
            bits(b.entries.entries()),
            "prime_ppv_from, source {q}, δ = {delta}"
        );
        assert_eq!((a_size, a_work), (b_size, pc.last_solve()));
    }
    let a = pc.extract(overlaid, hubs, q, config);
    let b = pc.extract(flat, hubs, q, config);
    assert_eq!(
        (&a.nodes, a.num_interior, &a.offsets, &a.targets),
        (&b.nodes, b.num_interior, &b.offsets, &b.targets),
        "extract, source {q}"
    );
    let a_ppv = pc.solve(&a, config, 1e-4);
    let b_ppv = pc.solve(&b, config, 1e-4);
    assert_eq!(
        bits(a_ppv.entries.entries()),
        bits(b_ppv.entries.entries()),
        "extract + solve, source {q}"
    );
}

/// Proptest case count: `FASTPPV_FUZZ_ROUNDS`, 24 by default.
fn fuzz_rounds() -> u32 {
    std::env::var("FASTPPV_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_rounds()))]

    #[test]
    fn bucket_kernel_matches_heap_kernel_on_random_ba_graphs(
        n in 60usize..240,
        m in 2usize..5,
        seed in 0u64..1_000,
        hub_stride in 2usize..12,
        eps_exp in 4u32..9,
    ) {
        let g = barabasi_albert(n, m, seed);
        // Deterministic but varied hub sets: every `hub_stride`-th node.
        let hub_ids: Vec<NodeId> =
            (0..n as NodeId).step_by(hub_stride).collect();
        let hubs = HubSet::from_ids(n, hub_ids);
        let mut config = Config::default()
            .with_epsilon(10f64.powi(-(eps_exp as i32)))
            .with_clip(0.0);
        // The sweep solver and the FIFO oracle place their sub-tolerance
        // leftovers differently; per-entry divergence is bounded by
        // 2·|interior|·θ, so θ = 1e-15 keeps it well inside 1e-12.
        config.solve_tolerance = 1e-15;
        let mut pc = PrimeComputer::new(n);
        // A hub source, a non-hub source, and the highest-degree node.
        let non_hub = (0..n as NodeId).find(|&v| !hubs.is_hub(v));
        let top_degree = (0..n as NodeId).max_by_key(|&v| (g.out_degree(v), v)).unwrap();
        let mut sources = vec![0 as NodeId, top_degree];
        if let Some(v) = non_hub {
            sources.push(v);
        }
        for q in sources {
            assert_kernels_agree(&g, &hubs, &mut pc, q, &config);
        }
    }

    #[test]
    fn kernels_agree_on_graphs_that_carry_a_row_overlay(
        n in 80usize..240,
        m in 2usize..5,
        seed in 0u64..1_000,
        hub_stride in 2usize..12,
        eps_exp in 4u32..9,
        events in 1usize..12,
        delete_fraction in 0.0f64..0.6,
    ) {
        // A serving epoch: edge events below the fold threshold, so the
        // changed rows (the tails' out-rows among them) live in the
        // overlay. Against the heap reference, and against the same rows
        // laid out flat through every entry point.
        let base = barabasi_albert(n, m, seed);
        let g = overlaid_graph(&base, events, delete_fraction, seed);
        prop_assert!(carries_overlay(&g));
        let flat = flat_copy(&g);
        let hubs = HubSet::from_ids(n, (0..n as NodeId).step_by(hub_stride).collect());
        let config = tight_config(10f64.powi(-(eps_exp as i32)));
        let mut pc = PrimeComputer::new(n);
        // A hub source, the first node whose out-row the overlay holds,
        // and a non-hub source.
        let tail = (0..n as NodeId)
            .find(|&v| g.out_neighbors(v) != base.out_neighbors(v))
            .expect("an event changed a row");
        let mut sources = vec![0 as NodeId, tail];
        sources.extend((0..n as NodeId).find(|&v| !hubs.is_hub(v)));
        for q in sources {
            assert_kernels_agree(&g, &hubs, &mut pc, q, &config);
            assert_overlay_reads_like_flat(&g, &flat, &hubs, &mut pc, q, &config);
        }
    }

    #[test]
    fn bucket_kernel_matches_heap_kernel_without_hubs(
        n in 40usize..150,
        seed in 0u64..500,
    ) {
        // No hubs: the prime subgraph is the whole ε-ball — the deepest
        // searches and largest solves the kernel sees.
        let g = barabasi_albert(n, 3, seed);
        let hubs = HubSet::empty(n);
        let mut config = Config::default().with_epsilon(1e-7).with_clip(0.0);
        config.solve_tolerance = 1e-15;
        let mut pc = PrimeComputer::new(n);
        assert_kernels_agree(&g, &hubs, &mut pc, 0, &config);
    }

    #[test]
    fn kernels_agree_on_parallel_edges_self_loops_and_dangling_nodes(
        n in 60usize..200,
        seed in 0u64..1_000,
        hub_stride in 3usize..9,
        eps_exp in 5u32..9,
    ) {
        let (g, hubs) = messy_graph(n, seed, hub_stride);
        let config = tight_config(10f64.powi(-(eps_exp as i32)));
        let mut pc = PrimeComputer::new(n);
        // Hub 0 carries a doubled self-loop; 7 is a dangling source; 3 and
        // 1 are plain and self-looped non-hubs unless the stride hits them.
        for q in [0 as NodeId, 3, 7, 1, hub_stride as NodeId * 3] {
            if (q as usize) < n {
                assert_kernels_agree(&g, &hubs, &mut pc, q, &config);
            }
        }
    }
}

#[test]
fn kernels_agree_on_a_hub_source_whose_row_points_back_at_itself() {
    // Every multiple of 6 is a hub with one or two self-loops (18 and 84
    // are dangling hubs instead): each such source's own row sends mass
    // straight to its return slot, once per parallel copy, in the first
    // sweep — and the slot must never be swept again.
    let (g, hubs) = messy_graph(150, 3, 6);
    let config = tight_config(1e-8);
    let mut pc = PrimeComputer::new(150);
    for q in [0 as NodeId, 6, 12, 18, 24, 84] {
        assert!(hubs.is_hub(q));
        if g.out_neighbors(q).contains(&q) {
            let (ppv, _) = pc.prime_ppv(&g, &hubs, q, &config, 0.0);
            assert!(ppv.entries.get(q) > 0.0, "hub {q} returns nothing");
        }
        assert_kernels_agree(&g, &hubs, &mut pc, q, &config);
    }
}

#[test]
fn kernels_agree_on_exhaustive_config() {
    // Deep ε (1e-14) drives the bucket queue across ~50 octaves.
    let g = barabasi_albert(120, 3, 7);
    let hub_ids: Vec<NodeId> = (0..120).step_by(5).collect();
    let hubs = HubSet::from_ids(120, hub_ids);
    let config = Config::exhaustive();
    let mut pc = PrimeComputer::new(120);
    for q in [0u32, 5, 17, 119] {
        assert_kernels_agree(&g, &hubs, &mut pc, q, &config);
    }
}

#[test]
fn kernels_agree_for_unusual_alphas() {
    // α above 0.5 (k = 0, octave-wide buckets) and α below the monotone
    // clamp threshold 1/65 (the re-expansion fallback path).
    let g = barabasi_albert(150, 3, 11);
    let hub_ids: Vec<NodeId> = (0..150).step_by(4).collect();
    let hubs = HubSet::from_ids(150, hub_ids);
    for alpha in [0.6, 0.3, 0.01, 0.005] {
        let mut config = Config::default()
            .with_alpha(alpha)
            .with_epsilon(1e-7)
            .with_clip(0.0);
        config.solve_tolerance = 1e-15;
        let mut pc = PrimeComputer::new(150);
        for q in [0u32, 3, 77] {
            assert_kernels_agree(&g, &hubs, &mut pc, q, &config);
        }
    }
}
