//! Seeded synthetic graph generators.
//!
//! The paper evaluates on DBLP (undirected bibliographic network, 2.0M
//! nodes / 8.8M edges, with paper timestamps) and a LiveJournal sample
//! (directed social network, 1.2M nodes / 4.8M edges). Neither dataset ships
//! with this repository, so [`dblp`] and [`social`] generate structurally
//! analogous networks: power-law degree distributions, the same node-kind
//! structure (author–paper–venue tripartite vs. directed friendship), and
//! the growth dimension each scalability experiment needs (paper years for
//! DBLP snapshots, edge arrival order for LiveJournal samples).
//! See `DESIGN.md` §4 for the substitution argument.
//!
//! All generators are deterministic given a seed (ChaCha8).

pub mod ba;
pub mod dblp;
pub mod er;
pub mod evolve;
pub mod social;

pub use ba::barabasi_albert;
pub use dblp::{BibNetwork, DblpParams, NodeKind};
pub use er::erdos_renyi;
pub use evolve::{
    apply_event, induced_subgraph, sample_prefix, synth_events, try_apply_event, EdgeEvent,
    EventError,
};
pub use social::{SocialNetwork, SocialParams};

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG used by every generator in this module.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Samples from `1..=max` with a Zipf-ish tail: P(k) ∝ 1/k^s, computed by
/// inverse CDF over the (small) support. Used for author counts, venue
/// fan-out and other skewed small integers.
pub(crate) fn zipf_small<R: Rng>(rng: &mut R, max: usize, s: f64) -> usize {
    debug_assert!(max >= 1);
    let weights: Vec<f64> = (1..=max).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i + 1;
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn zipf_small_bounds() {
        let mut r = rng(1);
        for _ in 0..1000 {
            let k = zipf_small(&mut r, 5, 1.5);
            assert!((1..=5).contains(&k));
        }
        // Skew: 1 should be the most frequent value.
        let mut counts = [0usize; 6];
        for _ in 0..5000 {
            counts[zipf_small(&mut r, 5, 1.5)] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[4]);
    }
}
