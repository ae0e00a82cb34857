//! Hub→shard partition maps for scale-out serving.
//!
//! The router in `fastppv-router` scatters each query's border-hub
//! frontier to the shards that *own* those hubs and merges the partial
//! contributions (the paper's linearity decomposition makes the merge
//! exact). This module provides the ownership map:
//!
//! * [`ShardMap::from_clustering`] folds a [`crate::partition`]
//!   anchor-based clustering onto `num_shards` shards round-robin by
//!   cluster id, so hubs that share a cluster — and therefore co-occur in
//!   prime subgraphs and frontiers — land on the same shard and one
//!   scatter touches few shards.
//! * [`ShardMap::write_to_file`] / [`ShardMap::read_from_file`] persist
//!   the map in the `FPVM1` format (byte layout below) with crash-safe
//!   atomic publication; the reader fails closed on any structural
//!   inconsistency.
//! * [`slice_store`] materializes one shard's partial [`FlatIndex`]
//!   arena — exactly the hubs it owns — from the whole arena.
//!
//! ## `FPVM1` byte layout (all little-endian)
//!
//! ```text
//! magic   u32   0x4650_564D ("MVPF" on disk, "FPVM" spelled out)
//! version u16   1
//! shards  u32   number of shards (> 0)
//! nodes   u64   number of nodes
//! owner   u32 × nodes   owning shard of every node (< shards)
//! ```

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use fastppv_core::atomic_io::write_atomic;
use fastppv_core::hubs::HubSet;
use fastppv_core::index::FlatIndex;
use fastppv_graph::NodeId;

use crate::partition::Clustering;

/// Magic and version of the shard-map format, re-exported from the
/// workspace constant registry under their historical public names.
pub use fastppv_core::protocol_consts::{
    SHARD_MAP_MAGIC as MAP_MAGIC, SHARD_MAP_VERSION as MAP_VERSION,
};

/// Which shard owns each node.
///
/// For hubs, the owner is the shard whose store holds the hub's prime
/// PPV — the only shard that can expand it. For non-hubs the owner is a
/// deterministic routing hint (the router sends iteration 0 of a non-hub
/// query there); any shard *can* compute a non-hub prime PPV on the fly,
/// so non-hub ownership affects load spread, not correctness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    num_shards: u32,
    owner: Vec<u32>,
}

/// Why a shard-map file failed to open. The reader fails closed: any
/// structural inconsistency is an error, never a best-effort map.
#[derive(Debug)]
pub enum MapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid `FPVM1` map (reason inside).
    Format(String),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Io(e) => write!(f, "shard map i/o: {e}"),
            MapError::Format(msg) => write!(f, "shard map format: {msg}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<io::Error> for MapError {
    fn from(e: io::Error) -> Self {
        MapError::Io(e)
    }
}

impl ShardMap {
    /// Folds a clustering onto `num_shards` shards: node `v` is owned by
    /// `assignment[v] mod num_shards`. Clusters are kept whole (locality:
    /// hubs that co-occur in frontiers stay on one shard) and spread
    /// round-robin (balance: adjacent cluster ids land on different
    /// shards).
    pub fn from_clustering(clustering: &Clustering, num_shards: u32) -> ShardMap {
        assert!(num_shards > 0, "need at least one shard");
        ShardMap {
            num_shards,
            owner: clustering
                .assignment
                .iter()
                .map(|&c| c % num_shards)
                .collect(),
        }
    }

    /// A clustering-free map: node `v` is owned by `v mod num_shards`.
    /// No locality, perfect balance — the test/baseline partitioner.
    pub fn round_robin(num_nodes: usize, num_shards: u32) -> ShardMap {
        assert!(num_shards > 0, "need at least one shard");
        ShardMap {
            num_shards,
            owner: (0..num_nodes).map(|v| v as u32 % num_shards).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Number of nodes the map covers.
    pub fn num_nodes(&self) -> usize {
        self.owner.len()
    }

    /// Owning shard of node `v`.
    pub fn owner(&self, v: NodeId) -> u32 {
        self.owner[v as usize]
    }

    /// The hubs shard `shard` owns, ascending.
    pub fn owned_hubs(&self, hubs: &HubSet, shard: u32) -> Vec<NodeId> {
        hubs.ids()
            .iter()
            .copied()
            .filter(|&h| self.owner(h) == shard)
            .collect()
    }

    /// Hubs per shard — the store-size balance the partitioner achieved.
    pub fn hub_counts(&self, hubs: &HubSet) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_shards as usize];
        for &h in hubs.ids() {
            counts[self.owner(h) as usize] += 1;
        }
        counts
    }

    /// Writes the map crash-safely (`FPVM1`, layout in the module docs).
    pub fn write_to_file<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_atomic(path, |w| {
            w.write_all(&MAP_MAGIC.to_le_bytes())?;
            w.write_all(&MAP_VERSION.to_le_bytes())?;
            w.write_all(&self.num_shards.to_le_bytes())?;
            w.write_all(&(self.owner.len() as u64).to_le_bytes())?;
            for &o in &self.owner {
                w.write_all(&o.to_le_bytes())?;
            }
            Ok(())
        })
    }

    /// Reads a map written by [`ShardMap::write_to_file`]. Fails closed:
    /// wrong magic/version, truncated or oversized payload, zero shards,
    /// and out-of-range owners are all [`MapError::Format`].
    pub fn read_from_file<P: AsRef<Path>>(path: P) -> Result<ShardMap, MapError> {
        let bytes = fs::read(path)?;
        const HEADER: usize = 4 + 2 + 4 + 8;
        if bytes.len() < HEADER {
            return Err(MapError::Format(format!(
                "file too short for header: {} bytes",
                bytes.len()
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != MAP_MAGIC {
            return Err(MapError::Format(format!("bad magic {magic:#x}")));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != MAP_VERSION {
            return Err(MapError::Format(format!("unsupported version {version}")));
        }
        let num_shards = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
        if num_shards == 0 {
            return Err(MapError::Format("zero shards".into()));
        }
        let nodes = u64::from_le_bytes(bytes[10..18].try_into().unwrap());
        let nodes: usize = nodes
            .try_into()
            .map_err(|_| MapError::Format(format!("node count {nodes} overflows usize")))?;
        let expected = HEADER
            + nodes.checked_mul(4).ok_or_else(|| {
                MapError::Format(format!("node count {nodes} overflows the owner table"))
            })?;
        if bytes.len() != expected {
            return Err(MapError::Format(format!(
                "payload is {} bytes, expected {expected} for {nodes} nodes",
                bytes.len()
            )));
        }
        let mut owner = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let at = HEADER + i * 4;
            let o = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if o >= num_shards {
                return Err(MapError::Format(format!(
                    "node {i} owned by shard {o}, but only {num_shards} shards"
                )));
            }
            owner.push(o);
        }
        Ok(ShardMap { num_shards, owner })
    }
}

/// Materializes shard `shard`'s arena from the whole one: exactly the
/// hubs the map assigns to it, each segment copied verbatim (so a
/// scattered expansion reads the same numbers a single-process query
/// would) in ascending hub id. Per-hub error-budget spend is carried over,
/// keeping later delta refreshes on the slice as strict as on the source.
pub fn slice_store(store: &FlatIndex, hubs: &HubSet, map: &ShardMap, shard: u32) -> FlatIndex {
    assert!(shard < map.num_shards(), "shard {shard} out of range");
    let mut slice = FlatIndex::new(map.num_nodes());
    for h in map.owned_hubs(hubs, shard) {
        slice.insert_from(store, h, hubs);
    }
    slice.seal();
    slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{cluster_graph, ClusteringOptions};
    use fastppv_core::offline::build_index;
    use fastppv_core::{select_hubs, Config, HubPolicy, PpvStore};
    use fastppv_graph::gen::barabasi_albert;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fastppv-shardmap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn map_roundtrips_through_file() {
        let g = barabasi_albert(300, 3, 7);
        let clustering = cluster_graph(&g, 8, ClusteringOptions::default());
        let map = ShardMap::from_clustering(&clustering, 4);
        let path = temp_file("roundtrip");
        map.write_to_file(&path).unwrap();
        let back = ShardMap::read_from_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(map, back);
    }

    #[test]
    fn reader_fails_closed_on_corruption() {
        let map = ShardMap::round_robin(64, 4);
        let path = temp_file("corrupt");
        map.write_to_file(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Truncation, magic flip, version flip, out-of-range owner,
        // trailing junk: every mutation must be rejected, never mapped.
        let mut cases: Vec<Vec<u8>> = vec![
            good[..good.len() - 1].to_vec(),
            good[..10].to_vec(),
            Vec::new(),
        ];
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        cases.push(bad_magic);
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        cases.push(bad_version);
        let mut bad_owner = good.clone();
        let last = bad_owner.len() - 4;
        bad_owner[last..].copy_from_slice(&99u32.to_le_bytes());
        cases.push(bad_owner);
        let mut trailing = good.clone();
        trailing.push(0);
        cases.push(trailing);
        for (i, bytes) in cases.into_iter().enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(ShardMap::read_from_file(&path), Err(MapError::Format(_))),
                "corruption case {i} was not rejected"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clustering_map_keeps_clusters_whole_and_slices_partition_the_store() {
        let g = barabasi_albert(400, 3, 11);
        let clustering = cluster_graph(&g, 12, ClusteringOptions::default());
        let map = ShardMap::from_clustering(&clustering, 4);
        // Cluster-mates share a shard.
        for v in 0..400u32 {
            for u in 0..400u32 {
                if clustering.assignment[v as usize] == clustering.assignment[u as usize] {
                    assert_eq!(map.owner(v), map.owner(u));
                }
            }
        }
        let config = Config::default().with_epsilon(1e-6);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 40, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let slices: Vec<FlatIndex> = (0..4)
            .map(|s| slice_store(&index, &hubs, &map, s))
            .collect();
        let total: usize = slices.iter().map(|s| s.hub_count()).sum();
        assert_eq!(total, index.hub_count(), "slices must partition the hubs");
        for (s, slice) in slices.iter().enumerate() {
            assert!(slice.hub_ids().is_sorted(), "slices are laid out ascending");
            for &h in slice.hub_ids() {
                assert_eq!(map.owner(h), s as u32);
                // Byte-identical PPV content, norm and border sublist.
                assert_eq!(slice.load(h), index.load(h));
                assert_eq!(slice.stored_norm(h), index.stored_norm(h));
                assert_eq!(slice.border_sublist(h), index.border_sublist(h));
            }
        }
    }
}
