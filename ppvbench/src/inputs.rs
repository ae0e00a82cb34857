//! Everything a run feeds the product: the fixed datasets, the fixed
//! source populations, and the seeded traffic drawn on them.
//!
//! The graph is a *dataset* — generated from its own constant seed, its
//! edge list pinned by digest — so `--seed` never changes what is served,
//! only the order and draw of the traffic. Traffic is built to be
//! seed-insensitive where the gate needs it to be: the mixed stream is
//! stratified per 100-request block, and the class-pure populations are
//! fixed lists the seed only permutes.

use std::collections::HashSet;
use std::sync::Arc;

use fastppv_core::hubs::{select_hubs_with_pagerank, HubPolicy};
use fastppv_core::{Config, HubSet};
use fastppv_graph::gen::{barabasi_albert, EdgeEvent};
use fastppv_graph::{pagerank, Graph, NodeId, PageRankOptions};

/// Seed of the dataset generator (never `--seed`).
pub const GRAPH_SEED: u64 = 0x05EE_DD20;
/// Requests per block of the mixed stream.
pub const BLOCK: usize = 100;
/// Seed of the fixed event pool (never `--seed`).
pub const EVENT_POOL_SEED: u64 = 0xE7E7_7500;
/// Share of events that delete a live edge.
pub const DELETE_FRACTION: f64 = 0.2;
/// The seed whose first [`PINNED_EVENTS`] events are pinned by digest.
pub const DEFAULT_SEED: u64 = 1;
/// How many events of the default seed the digest covers.
pub const PINNED_EVENTS: usize = 300;
/// Non-hub sources in the class-pure population.
pub const NONHUB_POPULATION: usize = 2_000;

/// SplitMix64: the benchmark's own generator, so traffic does not depend
/// on which `rand` the product vendors.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn digest_ids(ids: &[NodeId]) -> u64 {
    let mut h = Fnv::new();
    ids.iter().for_each(|&v| h.u32(v));
    h.finish()
}

/// The four input digests of a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digests {
    pub edges: u64,
    pub hubs: u64,
    pub nonhubs: u64,
    pub events: u64,
}

/// One of the two fixed deployments' inputs.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub nodes: usize,
    pub attach: usize,
    pub hubs: usize,
    pub config: Config,
    /// What the inputs must hash to at scale 1 (a run whose inputs differ
    /// refuses to measure).
    pub pinned: Digests,
}

/// BA-20k, 800 hubs, the default configuration at ε = 1e-6.
pub fn d20() -> DatasetSpec {
    DatasetSpec {
        name: "D20",
        nodes: 20_000,
        attach: 4,
        hubs: 800,
        config: Config::default().with_epsilon(1e-6),
        pinned: Digests {
            edges: 0xd070_2364_d02a_c781,
            hubs: 0xe276_5262_406a_811e,
            nonhubs: 0xcd85_3bc6_f528_b7ce,
            events: 0x62aa_a54d_8d9b_01fa,
        },
    }
}

/// BA-5k, 200 hubs, δ = 0 and clip = 0: Theorem 2 holds, so φ targets
/// are reachable.
pub fn d5acc() -> DatasetSpec {
    DatasetSpec {
        name: "D5acc",
        nodes: 5_000,
        attach: 4,
        hubs: 200,
        config: Config::default()
            .with_epsilon(1e-6)
            .with_delta(0.0)
            .with_clip(0.0),
        pinned: Digests {
            edges: 0x894f_4b97_9be2_65d9,
            hubs: 0xdfba_9ba1_7c93_6a52,
            nonhubs: 0xb58a_3406_e695_49ed,
            events: 0x7d77_2bfd_22c8_d2f3,
        },
    }
}

/// A generated dataset with its hub set and source populations.
pub struct Dataset {
    pub spec: DatasetSpec,
    pub graph: Arc<Graph>,
    pub hubs: Arc<HubSet>,
    /// Every node, by descending out-degree (ties by id): rank `r` of the
    /// Zipf stream is `ranked[r]`.
    pub ranked: Vec<NodeId>,
    /// Cumulative Zipf(1.0) weights over `ranked`.
    zipf_cdf: Vec<f64>,
    /// The class-pure non-hub population: an even stride through the
    /// degree-ranked non-hubs, so it spans hot and cold sources.
    pub nonhubs: Vec<NodeId>,
    /// Wall-clock of hub selection (PageRank included), for `hubs.select_ms`.
    pub select_seconds: f64,
}

impl Dataset {
    /// Generates the dataset at `scale` (1.0 is the pinned one; the smoke
    /// test shrinks it).
    pub fn generate(spec: DatasetSpec, scale: f64) -> Dataset {
        let nodes = ((spec.nodes as f64 * scale) as usize).max(100);
        let hub_count = ((spec.hubs as f64 * scale) as usize).max(4);
        let graph = barabasi_albert(nodes, spec.attach, GRAPH_SEED);
        let started = std::time::Instant::now();
        let pr = pagerank(&graph, PageRankOptions::default());
        let hubs =
            select_hubs_with_pagerank(&graph, HubPolicy::ExpectedUtility, hub_count, 0, Some(&pr));
        let select_seconds = started.elapsed().as_secs_f64();
        let mut ranked: Vec<NodeId> = (0..nodes as NodeId).collect();
        ranked.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
        let mut zipf_cdf = Vec::with_capacity(nodes);
        let mut total = 0.0;
        for r in 0..nodes {
            total += 1.0 / (r + 1) as f64;
            zipf_cdf.push(total);
        }
        let ranked_nonhubs: Vec<NodeId> = ranked
            .iter()
            .copied()
            .filter(|&v| !hubs.is_hub(v))
            .collect();
        let want = ((NONHUB_POPULATION as f64 * scale) as usize)
            .max(20)
            .min(ranked_nonhubs.len());
        let nonhubs: Vec<NodeId> = (0..want)
            .map(|i| ranked_nonhubs[i * ranked_nonhubs.len() / want])
            .collect();
        Dataset {
            spec,
            graph: Arc::new(graph),
            hubs: Arc::new(hubs),
            ranked,
            zipf_cdf,
            nonhubs,
            select_seconds,
        }
    }

    /// Digests of this dataset's inputs (events: the default seed's first
    /// [`PINNED_EVENTS`]).
    pub fn digests(&self) -> Digests {
        let mut edges = Fnv::new();
        for (u, v) in self.graph.edges() {
            edges.u32(u);
            edges.u32(v);
        }
        let mut events = Fnv::new();
        for e in self.events(DEFAULT_SEED, PINNED_EVENTS) {
            events.u32(e.tail);
            events.u32(e.head);
            events.u32(e.insert as u32);
        }
        Digests {
            edges: edges.finish(),
            hubs: digest_ids(self.hubs.ids()),
            nonhubs: digest_ids(&self.nonhubs),
            events: events.finish(),
        }
    }

    /// One block of the mixed stream: [`BLOCK`] degree-ranked Zipf(1.0)
    /// draws from stratified uniforms (one per 1/BLOCK slice of the unit
    /// interval), shuffled. The marginal is the plain Zipf law; what the
    /// stratification removes is block-to-block (and so seed-to-seed)
    /// variation in how many hot, cold, hub and non-hub sources a block
    /// holds.
    pub fn mix_block(&self, rng: &mut Rng) -> Vec<NodeId> {
        let total = *self.zipf_cdf.last().expect("non-empty graph");
        let mut block: Vec<NodeId> = (0..BLOCK)
            .map(|i| {
                let u = (i as f64 + rng.f64()) / BLOCK as f64 * total;
                let rank = self.zipf_cdf.partition_point(|&c| c < u);
                self.ranked[rank.min(self.ranked.len() - 1)]
            })
            .collect();
        rng.shuffle(&mut block);
        block
    }

    /// Every hub, in an order the seed picks.
    pub fn hub_order(&self, rng: &mut Rng) -> Vec<NodeId> {
        let mut order = self.hubs.ids().to_vec();
        rng.shuffle(&mut order);
        order
    }

    /// The non-hub population, in an order the seed picks.
    pub fn nonhub_order(&self, rng: &mut Rng) -> Vec<NodeId> {
        let mut order = self.nonhubs.clone();
        rng.shuffle(&mut order);
        order
    }

    /// The benchmark's own sequentially-consistent single-edge stream.
    ///
    /// The *set* of events is fixed by the graph: the first `count` of a
    /// pool drawn from a constant seed, 20 % deletes of original edges and
    /// 80 % inserts of edges the graph does not have, no edge touched
    /// twice. Because every event owns its edge, any order of any subset
    /// is sequentially consistent — so `seed` only shuffles the order,
    /// and every run of a given length does the same total update work.
    /// Dangling-fix self-loops are never touched directly.
    pub fn events(&self, seed: u64, count: usize) -> Vec<EdgeEvent> {
        let n = self.graph.num_nodes();
        let mut rng = Rng::new(EVENT_POOL_SEED);
        let originals: Vec<(NodeId, NodeId)> =
            self.graph.edges().filter(|&(s, t)| s != t).collect();
        let mut touched: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut pool = Vec::with_capacity(count);
        while pool.len() < count {
            let insert = rng.f64() >= DELETE_FRACTION;
            let (tail, head) = if insert {
                (rng.below(n) as NodeId, rng.below(n) as NodeId)
            } else {
                originals[rng.below(originals.len())]
            };
            if tail == head
                || insert == self.graph.has_edge(tail, head)
                || !touched.insert((tail, head))
            {
                continue;
            }
            pool.push(EdgeEvent { tail, head, insert });
        }
        Rng::new(seed ^ 0x00E7_E775).shuffle(&mut pool);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::generate(d20(), 0.02)
    }

    #[test]
    fn same_seed_same_traffic() {
        let d = small();
        let a = d.mix_block(&mut Rng::new(7));
        let b = d.mix_block(&mut Rng::new(7));
        let c = d.mix_block(&mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.events(3, 50), d.events(3, 50));
        // Another seed: the same set of events, in another order.
        let (mut x, mut y) = (d.events(3, 50), d.events(4, 50));
        assert_ne!(x, y);
        let key = |e: &EdgeEvent| (e.tail, e.head, e.insert);
        x.sort_by_key(key);
        y.sort_by_key(key);
        assert_eq!(x, y);
        assert_eq!(d.digests(), small().digests());
    }

    #[test]
    fn stratified_blocks_hold_their_class_share() {
        let d = small();
        let mut rng = Rng::new(11);
        let counts: Vec<usize> = (0..50)
            .map(|_| {
                d.mix_block(&mut rng)
                    .iter()
                    .filter(|&&v| d.hubs.is_hub(v))
                    .count()
            })
            .collect();
        let (lo, hi) = (
            *counts.iter().min().expect("blocks"),
            *counts.iter().max().expect("blocks"),
        );
        // A stratum boundary can move one draw across a class boundary per
        // hub/non-hub run in rank order; on this dataset that is a handful.
        assert!(hi - lo <= 6, "hub share moved {lo}..{hi}");
    }

    #[test]
    fn events_are_sequentially_consistent() {
        let d = small();
        let mut present: HashSet<(NodeId, NodeId)> =
            d.graph.edges().filter(|&(s, t)| s != t).collect();
        let events = d.events(5, 400);
        let deletes = events.iter().filter(|e| !e.insert).count();
        assert!((40..=120).contains(&deletes), "{deletes} deletes of 400");
        for e in events {
            assert_ne!(e.tail, e.head);
            if e.insert {
                assert!(present.insert((e.tail, e.head)), "insert of a live edge");
            } else {
                assert!(present.remove(&(e.tail, e.head)), "delete of a dead edge");
            }
        }
    }

    #[test]
    fn populations_are_class_pure() {
        let d = small();
        assert!(d.nonhubs.iter().all(|&v| !d.hubs.is_hub(v)));
        let mut sorted = d.nonhubs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), d.nonhubs.len(), "non-hub population repeats");
        let mut order = d.hub_order(&mut Rng::new(1));
        order.sort_unstable();
        assert_eq!(order, d.hubs.ids());
    }
}
