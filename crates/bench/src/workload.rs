//! Test queries, exact ground truth, and the result-stream digest.
//!
//! The paper samples 1000 random query nodes per graph and reports averages.
//! Exact PPVs (the accuracy reference) are the expensive part at any scale,
//! so the default query count here is smaller and the ground-truth solves
//! run on all cores.

use fastppv_baselines::exact::{exact_ppv, ExactOptions};
use fastppv_core::query::StoppingCondition;
use fastppv_core::{Config, HubSet, PpvStore, QueryEngine};
use fastppv_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Samples `count` distinct query nodes uniformly at random (seeded).
pub fn sample_queries(graph: &Graph, count: usize, seed: u64) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut all: Vec<NodeId> = (0..n as NodeId).collect();
    all.shuffle(&mut rng);
    all.truncate(count.min(n));
    all
}

/// Samples `count` query nodes from a Zipf-skewed popularity distribution
/// (with repetition — repeats are the point: they model the hot keys a
/// serving cache exists for). Nodes are ranked by out-degree descending and
/// rank `r` is drawn with probability ∝ `1/r^exponent`; `exponent = 0` is
/// uniform, ~1 matches typical web/social query traffic.
pub fn sample_queries_zipf(graph: &Graph, count: usize, exponent: f64, seed: u64) -> Vec<NodeId> {
    assert!(exponent >= 0.0, "zipf exponent must be non-negative");
    let n = graph.num_nodes();
    assert!(n > 0, "empty graph");
    let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
    // Cumulative weights over ranks; inverse-CDF sampling by binary search.
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for r in 1..=n {
        total += (r as f64).powf(-exponent);
        cdf.push(total);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5a1f);
    (0..count)
        .map(|_| {
            let u: f64 = rand::Rng::gen::<f64>(&mut rng) * total;
            let rank = cdf.partition_point(|&c| c < u).min(n - 1);
            by_degree[rank]
        })
        .collect()
}

/// FNV-1a over a byte stream — stable, dependency-free.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the full result stream of `queries` at iteration budget
/// `eta`: every `(query, node, score-bits, φ-bits)` is folded in. Two runs
/// over equal deployments must produce equal digests, whatever the store
/// layout — what `tests/results_digest.rs` pins.
pub fn results_digest<S: PpvStore>(
    graph: &Graph,
    hubs: &HubSet,
    store: &S,
    config: Config,
    queries: &[NodeId],
    eta: usize,
) -> u64 {
    let engine = QueryEngine::new(graph, hubs, store, config);
    let mut ws = engine.workspace();
    let stop = StoppingCondition::iterations(eta);
    let mut h = Fnv1a::default();
    for &q in queries {
        let result = engine.query_with(&mut ws, q, &stop);
        h.update(&q.to_le_bytes());
        h.update(&result.l1_error.to_bits().to_le_bytes());
        for &(v, s) in result.scores.entries() {
            h.update(&v.to_le_bytes());
            h.update(&s.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Exact PPVs for every query (parallel power iteration).
pub fn ground_truth(graph: &Graph, queries: &[NodeId]) -> Vec<Vec<f64>> {
    ground_truth_with(graph, queries, ExactOptions::default())
}

/// Like [`ground_truth`] with explicit solver options.
pub fn ground_truth_with(graph: &Graph, queries: &[NodeId], opts: ExactOptions) -> Vec<Vec<f64>> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(queries.len().max(1));
    let chunk = queries.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                scope.spawn(move || {
                    qs.iter()
                        .map(|&q| exact_ppv(graph, q, opts))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastppv_graph::gen::barabasi_albert;

    #[test]
    fn queries_are_distinct_and_seeded() {
        let g = barabasi_albert(100, 2, 1);
        let a = sample_queries(&g, 20, 7);
        let b = sample_queries(&g, 20, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn count_clamped() {
        let g = barabasi_albert(10, 2, 1);
        assert_eq!(sample_queries(&g, 100, 0).len(), 10);
    }

    #[test]
    fn zipf_queries_are_seeded_and_skewed() {
        let g = barabasi_albert(500, 3, 9);
        let a = sample_queries_zipf(&g, 400, 1.0, 3);
        let b = sample_queries_zipf(&g, 400, 1.0, 3);
        assert_eq!(a, b, "same seed, same workload");
        assert!(a.iter().all(|&q| (q as usize) < 500));
        // Skew: the most frequent node must appear far above the uniform
        // expectation (400/500 < 1, so > 10 repeats means real skew).
        let mut counts = vec![0usize; 500];
        for &q in &a {
            counts[q as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert!(max > 10, "hot key appeared only {max} times");
        // Exponent 0 is uniform: far less concentrated.
        let u = sample_queries_zipf(&g, 400, 0.0, 3);
        let mut ucounts = vec![0usize; 500];
        for &q in &u {
            ucounts[q as usize] += 1;
        }
        assert!(*ucounts.iter().max().unwrap() < max);
    }

    #[test]
    fn ground_truth_matches_serial() {
        let g = barabasi_albert(150, 3, 2);
        let queries = sample_queries(&g, 8, 3);
        let parallel = ground_truth(&g, &queries);
        for (i, &q) in queries.iter().enumerate() {
            let serial = exact_ppv(&g, q, ExactOptions::default());
            assert_eq!(parallel[i], serial);
        }
    }
}
