//! Global PageRank via power iteration.
//!
//! FastPPV's hub selection scores nodes by *expected utility*
//! `EU(v) = PageRank(v) · |Out(v)|` (paper Eq. 7), so the offline phase needs
//! one global PageRank run. The convention throughout this workspace follows
//! the paper: `alpha` is the **teleport** probability (0.15), i.e. the
//! damping factor is `1 - alpha`.

use crate::csr::Graph;

/// Options for [`pagerank`].
#[derive(Clone, Copy, Debug)]
pub struct PageRankOptions {
    /// Teleport probability `α` (paper default 0.15).
    pub alpha: f64,
    /// Stop when the L1 change between iterations falls below this.
    pub tolerance: f64,
    /// Hard cap on iterations.
    pub max_iterations: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions {
            alpha: 0.15,
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

/// Computes global PageRank scores (sums to 1).
///
/// Dangling-node mass is redistributed uniformly, so the result is a proper
/// distribution regardless of the graph's [`crate::DanglingPolicy`].
pub fn pagerank(graph: &Graph, opts: PageRankOptions) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let alpha = opts.alpha;
    assert!((0.0..1.0).contains(&alpha), "alpha must be in (0, 1)");
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    let csr = graph.out_csr();
    for _ in 0..opts.max_iterations {
        let mut dangling_mass = 0.0;
        // The dangling count is O(1): a graph without any skips the scan.
        if graph.num_dangling() > 0 {
            for v in graph.nodes() {
                if graph.is_dangling(v) {
                    dangling_mass += rank[v as usize];
                }
            }
        }
        let base = alpha * uniform + (1.0 - alpha) * dangling_mass * uniform;
        next.iter_mut().for_each(|x| *x = base);
        for u in graph.nodes() {
            let row = csr.out_neighbors(u);
            if row.is_empty() {
                continue;
            }
            let share = (1.0 - alpha) * rank[u as usize] / row.len() as f64;
            for &v in row {
                next[v as usize] += share;
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < opts.tolerance {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_undirected_edges, GraphBuilder};

    #[test]
    fn sums_to_one() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let pr = pagerank(&g, PageRankOptions::default());
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let pr = pagerank(&g, PageRankOptions::default());
        for &p in &pr {
            assert!((p - 0.2).abs() < 1e-8);
        }
    }

    #[test]
    fn star_center_dominates() {
        // Undirected star: center 0 connected to 1..=4.
        let g = from_undirected_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let pr = pagerank(&g, PageRankOptions::default());
        for leaf in 1..5 {
            assert!(pr[0] > pr[leaf]);
        }
    }

    #[test]
    fn dangling_mass_redistributed() {
        let mut b = GraphBuilder::new(3).dangling(crate::DanglingPolicy::Keep);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.num_dangling(), 2);
        let pr = pagerank(&g, PageRankOptions::default());
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_empty() {
        let g = crate::Graph::empty(0);
        assert!(pagerank(&g, PageRankOptions::default()).is_empty());
    }

    #[test]
    fn matches_fixed_point_equation() {
        let g = from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (1, 4),
            ],
        );
        let opts = PageRankOptions {
            tolerance: 1e-14,
            ..Default::default()
        };
        let pr = pagerank(&g, opts);
        // Verify r(v) = α/n + (1-α) Σ_{u→v} r(u)/out(u) for each v.
        let n = g.num_nodes() as f64;
        for v in g.nodes() {
            let mut rhs = 0.15 / n;
            for &u in g.in_neighbors(v) {
                rhs += 0.85 * pr[u as usize] / g.out_degree(u) as f64;
            }
            assert!((pr[v as usize] - rhs).abs() < 1e-9, "node {v}");
        }
    }
}
