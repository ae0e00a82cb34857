//! Offline precomputation (paper §5.1, Algorithm 1).
//!
//! For each hub, extract its prime subgraph and solve for its prime PPV,
//! and store everything in the [`FlatIndex`] arena that is served and
//! written to disk ([`FlatIndex::write_to_file`]). Hub builds are
//! independent, so [`build_flat_index`] shards them across scoped threads
//! pulling hubs off a shared atomic counter (work stealing): prime-subgraph
//! sizes follow the graph's power law, so any static partition of the hub
//! list leaves most threads idle behind whichever one drew the giants.
//! Stealing changes wall-clock only, not results — each hub's PPV is
//! deterministic and the arena is filled in ascending hub id, so the
//! output is byte-identical to a serial build regardless of thread count
//! or hub ordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fastppv_graph::{Graph, NodeId};

use crate::config::Config;
use crate::hubs::HubSet;
use crate::index::{FlatIndex, PpvStore, PrimePpv};
use crate::prime::PrimeComputer;

/// Statistics from an offline build.
#[derive(Clone, Copy, Debug, Default)]
pub struct OfflineStats {
    /// Wall-clock build time.
    pub build_time: Duration,
    /// Number of hubs indexed.
    pub hubs: usize,
    /// Total entries stored (after clipping).
    pub total_entries: usize,
    /// Nominal index size in bytes: the paper's 8-byte record per entry
    /// (`u32` node, `f32` score) plus a 24-byte directory-and-spend record
    /// per hub and a 24-byte header. This is the paper-comparable figure
    /// the index-size columns of the Fig. 7b / Fig. 11 reproductions
    /// report, not the size of any file.
    pub storage_bytes: usize,
    /// Mean prime-subgraph size (nodes, including absorbers).
    pub avg_subgraph_nodes: f64,
    /// Largest prime subgraph seen.
    pub max_subgraph_nodes: usize,
    /// Mean number of border-hub entries per prime PPV (the paper's |H̄|,
    /// which drives online complexity, §5.2).
    pub avg_border_hubs: f64,
}

/// Builds the PPV index single-threaded.
pub fn build_index(graph: &Graph, hubs: &HubSet, config: &Config) -> (FlatIndex, OfflineStats) {
    build_flat_index(graph, hubs, config, 1)
}

/// Builds the PPV index with `threads` worker threads (work-stealing over
/// the hub list; byte-identical output to [`build_index`]). The arena is
/// chunked ([`FlatIndex::CHUNK_ENTRIES`] entries per chunk), so a later
/// [`FlatIndex::write_to_file`] / [`FlatIndex::open`] round trip can
/// serve it zero-copy from an mmap'd file, and snapshot clones share
/// chunks copy-on-write.
pub fn build_flat_index(
    graph: &Graph,
    hubs: &HubSet,
    config: &Config,
    threads: usize,
) -> (FlatIndex, OfflineStats) {
    build_index_in_order(graph, hubs, hubs.ids(), config, threads)
}

/// Like [`build_flat_index`], building the hubs of `order` (each id must
/// be a hub, listed at most once) in that order. Output depends only on
/// the set of hubs in `order`, never on their order or on `threads`:
/// workers steal the next unbuilt hub off a shared counter, and the arena
/// is filled in ascending hub id — so even an adversarial order (largest prime subgraph first, the
/// worst case for static chunking) parallelizes without skew.
pub fn build_index_in_order(
    graph: &Graph,
    hubs: &HubSet,
    order: &[NodeId],
    config: &Config,
    threads: usize,
) -> (FlatIndex, OfflineStats) {
    config.validate();
    let threads = threads.clamp(1, order.len().max(1));
    let start = Instant::now();

    struct Shard {
        // (hub, built PPV, subgraph node count)
        ppvs: Vec<(NodeId, PrimePpv, usize)>,
        border_hubs: usize,
    }

    let next = AtomicUsize::new(0);
    let shards: Vec<Shard> = if order.is_empty() {
        Vec::new()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut pc = PrimeComputer::new(graph.num_nodes());
                        let mut shard = Shard {
                            ppvs: Vec::new(),
                            border_hubs: 0,
                        };
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&h) = order.get(i) else { break };
                            let (ppv, size) = pc.prime_ppv(graph, hubs, h, config, config.clip);
                            shard.border_hubs += ppv.border_hubs(hubs).count();
                            shard.ppvs.push((h, ppv, size));
                        }
                        shard
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    // Stats are order-insensitive sums; the arena layout must not depend
    // on which worker built what, so segments go in by ascending hub id.
    let mut built: Vec<(NodeId, PrimePpv)> = Vec::with_capacity(order.len());
    let mut subgraph_nodes = 0usize;
    let mut max_subgraph = 0usize;
    let mut border_hubs = 0usize;
    for shard in shards {
        border_hubs += shard.border_hubs;
        for (h, ppv, size) in shard.ppvs {
            subgraph_nodes += size;
            max_subgraph = max_subgraph.max(size);
            built.push((h, ppv));
        }
    }
    built.sort_unstable_by_key(|&(h, _)| h);
    let mut index = FlatIndex::new(graph.num_nodes());
    for (h, ppv) in built {
        index.insert(h, &ppv, hubs);
    }
    // The last chunk gives back what it grew by and no more.
    index.seal();
    let n_hubs = index.hub_count();
    let stats = OfflineStats {
        build_time: start.elapsed(),
        hubs: n_hubs,
        total_entries: index.total_entries(),
        storage_bytes: 24 + n_hubs * 24 + index.total_entries() * 8,
        avg_subgraph_nodes: ratio(subgraph_nodes, n_hubs),
        max_subgraph_nodes: max_subgraph,
        avg_border_hubs: ratio(border_hubs, n_hubs),
    };
    (index, stats)
}

fn ratio(total: usize, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubs::{select_hubs, HubPolicy};
    use fastppv_graph::gen::barabasi_albert;
    use fastppv_graph::toy;

    #[test]
    fn builds_every_hub() {
        let g = toy::graph();
        let hubs = crate::hubs::HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let (index, stats) = build_index(&g, &hubs, &Config::default());
        assert_eq!(index.hub_count(), 3);
        assert_eq!(stats.hubs, 3);
        for h in toy::PAPER_HUBS {
            assert!(index.contains(h));
        }
        assert!(stats.total_entries > 0);
        assert!(stats.avg_subgraph_nodes > 0.0);
        assert!(stats.max_subgraph_nodes >= 1);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let g = barabasi_albert(600, 3, 21);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 50, 0);
        let config = Config::default();
        let (serial, s_stats) = build_index(&g, &hubs, &config);
        let (parallel, p_stats) = build_flat_index(&g, &hubs, &config, 4);
        assert_eq!(s_stats.total_entries, p_stats.total_entries);
        assert_eq!(serial.hub_count(), parallel.hub_count());
        assert_eq!(serial.hub_ids(), parallel.hub_ids());
        for &h in hubs.ids() {
            assert_eq!(
                serial.load(h).unwrap(),
                parallel.load(h).unwrap(),
                "hub {h}"
            );
        }
    }

    #[test]
    fn in_order_build_respects_order_and_matches_default() {
        let g = barabasi_albert(400, 3, 19);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let config = Config::default();
        let (default, _) = build_index(&g, &hubs, &config);
        // Reversed order: same PPVs, and the arena is laid out in
        // ascending hub id whatever order the hubs were built in.
        let mut reversed: Vec<_> = hubs.ids().to_vec();
        reversed.reverse();
        let (ordered, _) = build_index_in_order(&g, &hubs, &reversed, &config, 3);
        let mut ascending = reversed.clone();
        ascending.sort_unstable();
        assert_eq!(ordered.hub_ids(), &ascending[..]);
        assert_eq!(default.hub_ids(), &ascending[..]);
        for &h in hubs.ids() {
            assert_eq!(
                ordered.load(h).unwrap(),
                default.load(h).unwrap(),
                "hub {h}"
            );
        }
        // A sub-list builds exactly the hubs it names.
        let (part, stats) = build_index_in_order(&g, &hubs, &reversed[..7], &config, 2);
        assert_eq!(stats.hubs, 7);
        for (i, &h) in reversed.iter().enumerate() {
            assert_eq!(part.contains(h), i < 7, "hub {h}");
        }
    }

    #[test]
    fn oversubscribed_threads_are_clamped() {
        let g = toy::graph();
        let hubs = crate::hubs::HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        // More threads than hubs: workers beyond the hub count exit
        // immediately; output unaffected.
        let (index, stats) = build_flat_index(&g, &hubs, &Config::default(), 64);
        assert_eq!(index.hub_count(), 3);
        assert_eq!(stats.hubs, 3);
    }

    #[test]
    fn empty_hub_set_builds_empty_index() {
        let g = toy::graph();
        let hubs = crate::hubs::HubSet::empty(8);
        let (index, stats) = build_index(&g, &hubs, &Config::default());
        assert_eq!(index.hub_count(), 0);
        assert_eq!(stats.total_entries, 0);
        assert_eq!(stats.avg_subgraph_nodes, 0.0);
    }

    #[test]
    fn more_hubs_smaller_average_subgraph() {
        // §5.1: more hubs ⇒ exponentially smaller prime subgraphs.
        let g = barabasi_albert(2000, 4, 5);
        let config = Config::default();
        let few = select_hubs(&g, HubPolicy::ExpectedUtility, 20, 0);
        let many = select_hubs(&g, HubPolicy::ExpectedUtility, 200, 0);
        let (_, few_stats) = build_index(&g, &few, &config);
        let (_, many_stats) = build_index(&g, &many, &config);
        assert!(
            many_stats.avg_subgraph_nodes < few_stats.avg_subgraph_nodes,
            "{} !< {}",
            many_stats.avg_subgraph_nodes,
            few_stats.avg_subgraph_nodes
        );
    }

    #[test]
    fn clip_shrinks_storage() {
        let g = barabasi_albert(500, 3, 8);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let (_, clipped) = build_index(&g, &hubs, &Config::default().with_clip(1e-3));
        let (_, full) = build_index(&g, &hubs, &Config::default().with_clip(0.0));
        assert!(clipped.total_entries < full.total_entries);
        assert!(clipped.storage_bytes < full.storage_bytes);
    }

    #[test]
    fn storage_bytes_is_the_papers_nominal_record_size() {
        // Not a file size: 8 bytes per entry (`u32` node, `f32` score), a
        // 24-byte record per hub and a 24-byte header — the figure the
        // Fig. 7b / Fig. 11 columns print.
        let g = toy::graph();
        let hubs = crate::hubs::HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let (index, stats) = build_index(&g, &hubs, &Config::default());
        assert_eq!(stats.storage_bytes, 24 + 3 * 24 + index.total_entries() * 8);
        assert_ne!(stats.storage_bytes, index.storage_bytes());
    }
}
