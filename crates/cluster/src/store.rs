//! Disk layout for a clustered graph, and the bounded-residency view.
//!
//! Format (`FPPVCLG1`, little-endian):
//!
//! ```text
//! magic "FPPVCLG1" | u32 version | u32 num_clusters | u64 num_nodes
//! assignment: num_nodes × u32          (node -> cluster)
//! directory:  num_clusters × { u64 offset, u64 byte_len }
//! blobs: per cluster {
//!     u32 num_members
//!     members:  num_members × { u32 global_id, u32 degree }
//!     targets:  Σ degree × u32         (global ids, row-major)
//! }
//! ```
//!
//! [`DiskGraph`] keeps the assignment array and directory in memory (tiny)
//! and at most `resident_capacity` cluster blobs (the paper keeps exactly
//! one). Every adjacency probe for a non-resident node is a **cluster
//! fault**: the needed cluster is read from disk, evicting FIFO.
//!
//! [`DiskGraph::open`] fails closed: every header field, assignment,
//! directory entry and blob is checked against the file before anything
//! is sized from it, one blob at a time, and a file that does not hold
//! exactly the graph it claims is rejected with `InvalidData`. A file
//! that opens holds no id a probe could index out of bounds with.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use fastppv_core::prime::RowSource;
use fastppv_graph::{Graph, NodeId};

use crate::partition::Clustering;

use fastppv_core::protocol_consts::{
    CLUSTER_GRAPH_MAGIC as MAGIC, CLUSTER_GRAPH_VERSION as VERSION,
};

/// Writes `graph` clustered by `clustering` to `path`. Returns the per-
/// cluster byte sizes (the largest is the minimum working set).
pub fn write_clustered_graph<P: AsRef<Path>>(
    graph: &Graph,
    clustering: &Clustering,
    path: P,
) -> io::Result<Vec<u64>> {
    let n = graph.num_nodes();
    assert_eq!(clustering.assignment.len(), n, "clustering/graph mismatch");
    let k = clustering.num_clusters;
    // Group members by cluster.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in graph.nodes() {
        members[clustering.assignment[v as usize] as usize].push(v);
    }
    // Blob sizes: 4 + m*8 + Σdeg*4.
    let mut blob_sizes: Vec<u64> = Vec::with_capacity(k);
    for ms in &members {
        let deg_sum: usize = ms.iter().map(|&v| graph.out_degree(v)).sum();
        blob_sizes.push(4 + ms.len() as u64 * 8 + deg_sum as u64 * 4);
    }
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(k as u32).to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    for &c in &clustering.assignment {
        w.write_all(&c.to_le_bytes())?;
    }
    let dir_start = (8 + 4 + 4 + 8 + n * 4) as u64;
    let mut offset = dir_start + (k * 16) as u64;
    for &len in &blob_sizes {
        w.write_all(&offset.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
        offset += len;
    }
    for ms in &members {
        w.write_all(&(ms.len() as u32).to_le_bytes())?;
        for &v in ms {
            w.write_all(&v.to_le_bytes())?;
            w.write_all(&(graph.out_degree(v) as u32).to_le_bytes())?;
        }
        for &v in ms {
            for &t in graph.out_neighbors(v) {
                w.write_all(&t.to_le_bytes())?;
            }
        }
    }
    w.flush()?;
    Ok(blob_sizes)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cluster graph: {msg}"))
}

/// The little-endian `u32` at `at`, if `bytes` holds one there.
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

/// The little-endian `u64` at `at`, if `bytes` holds one there.
fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let b = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// Byte length of the header: magic, version, cluster and node counts.
const HEADER_LEN: u64 = 24;

/// One resident cluster, parsed for lookup.
struct ResidentCluster {
    id: u32,
    /// Sorted global member ids (write order is ascending).
    members: Vec<NodeId>,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl ResidentCluster {
    /// Parses cluster `id`'s blob of a graph of `num_nodes` nodes. The blob
    /// must be exactly its member table and rows, members strictly
    /// ascending, and every member and target a node id.
    fn parse(id: u32, blob: &[u8], num_nodes: usize) -> io::Result<Self> {
        let m = u32_at(blob, 0).ok_or_else(|| invalid("cluster blob truncated"))? as usize;
        let rows_at = m
            .checked_mul(8)
            .and_then(|b| b.checked_add(4))
            .filter(|&end| end <= blob.len())
            .ok_or_else(|| invalid("member table overruns its blob"))?;
        let mut members = Vec::with_capacity(m);
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for at in (4..rows_at).step_by(8) {
            let (Some(v), Some(degree)) = (u32_at(blob, at), u32_at(blob, at + 4)) else {
                return Err(invalid("member table truncated"));
            };
            if v as usize >= num_nodes || members.last().is_some_and(|&last| last >= v) {
                return Err(invalid("members out of range or not ascending"));
            }
            members.push(v);
            total = total
                .checked_add(degree as usize)
                .ok_or_else(|| invalid("degree sum overflows"))?;
            offsets.push(total);
        }
        let rows = blob.get(rows_at..).unwrap_or_default();
        if total.checked_mul(4) != Some(rows.len()) {
            return Err(invalid("rows disagree with the member degrees"));
        }
        let mut targets = Vec::with_capacity(total);
        for chunk in rows.chunks_exact(4) {
            let t = u32_at(chunk, 0).ok_or_else(|| invalid("rows truncated"))?;
            if t as usize >= num_nodes {
                return Err(invalid("row target out of range"));
            }
            targets.push(t);
        }
        Ok(ResidentCluster {
            id,
            members,
            offsets,
            targets,
        })
    }

    fn local_index(&self, v: NodeId) -> Option<usize> {
        self.members.binary_search(&v).ok()
    }

    fn neighbors(&self, local: usize) -> &[NodeId] {
        &self.targets[self.offsets[local]..self.offsets[local + 1]]
    }
}

/// Reads and parses cluster `id`'s blob, `len` bytes at `offset`.
fn load_cluster(
    file: &mut File,
    id: u32,
    (offset, len): (u64, u64),
    num_nodes: usize,
) -> io::Result<ResidentCluster> {
    let len = usize::try_from(len).map_err(|_| invalid("cluster blob too large"))?;
    let mut blob = vec![0u8; len];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut blob)?;
    ResidentCluster::parse(id, &blob, num_nodes)
}

/// A disk-resident clustered graph with bounded cluster residency.
pub struct DiskGraph {
    file: File,
    assignment: Vec<u32>,
    directory: Vec<(u64, u64)>,
    resident: Vec<ResidentCluster>,
    resident_capacity: usize,
    faults: u64,
    fault_cap: Option<u64>,
    truncated: bool,
}

impl DiskGraph {
    /// Opens a file written by [`write_clustered_graph`], keeping at most
    /// `resident_capacity` clusters in memory (the paper uses 1; 0 is an
    /// `InvalidInput` error).
    ///
    /// The whole file is validated first, one blob at a time, so memory
    /// stays bounded by the assignment, the directory and the largest
    /// blob: header counts that overrun the file, an assignment naming no
    /// cluster, a directory entry outside the file, a blob that is not
    /// exactly its member table and rows, members out of order, out of
    /// range or filed under another cluster, and row targets out of range
    /// are all `InvalidData`.
    pub fn open<P: AsRef<Path>>(path: P, resident_capacity: usize) -> io::Result<Self> {
        if resident_capacity == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster graph: resident capacity must be at least 1",
            ));
        }
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(invalid("header truncated"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if !header.starts_with(MAGIC) {
            return Err(invalid("not a FastPPV clustered graph (bad magic)"));
        }
        let version = u32_at(&header, 8).ok_or_else(|| invalid("header truncated"))?;
        if version != VERSION {
            return Err(invalid(&format!("unsupported version {version}")));
        }
        let (Some(k), Some(n)) = (u32_at(&header, 12), u64_at(&header, 16)) else {
            return Err(invalid("header truncated"));
        };
        // Both tables must fit in the file before either is allocated.
        let blobs_at = n
            .checked_mul(4)
            .and_then(|a| a.checked_add(u64::from(k) * 16))
            .and_then(|t| t.checked_add(HEADER_LEN))
            .filter(|&end| end <= file_len)
            .ok_or_else(|| invalid("node or cluster count overruns the file"))?;
        let n = usize::try_from(n).map_err(|_| invalid("node count too large"))?;
        let mut buf = vec![0u8; n * 4];
        file.read_exact(&mut buf)?;
        let mut assignment = Vec::with_capacity(n);
        for chunk in buf.chunks_exact(4) {
            match u32_at(chunk, 0) {
                Some(c) if c < k => assignment.push(c),
                _ => return Err(invalid("node assigned to no cluster")),
            }
        }
        buf = vec![0u8; k as usize * 16];
        file.read_exact(&mut buf)?;
        let mut directory = Vec::with_capacity(k as usize);
        for chunk in buf.chunks_exact(16) {
            let (Some(offset), Some(len)) = (u64_at(chunk, 0), u64_at(chunk, 8)) else {
                return Err(invalid("directory truncated"));
            };
            if offset < blobs_at || offset.checked_add(len).is_none_or(|end| end > file_len) {
                return Err(invalid("directory entry outside the file"));
            }
            directory.push((offset, len));
        }
        // Every blob parses, and the blobs partition the nodes exactly as
        // the assignment does: each member is filed under its own cluster
        // (so no node is listed twice), and they list n members in all.
        let mut listed = 0usize;
        for (c, &entry) in (0..k).zip(&directory) {
            let cluster = load_cluster(&mut file, c, entry, n)?;
            if cluster
                .members
                .iter()
                .any(|&v| assignment.get(v as usize) != Some(&c))
            {
                return Err(invalid("member filed under another cluster"));
            }
            listed += cluster.members.len();
        }
        if listed != n {
            return Err(invalid("clusters do not list every node"));
        }
        Ok(DiskGraph {
            file,
            assignment,
            directory,
            resident: Vec::new(),
            resident_capacity,
            faults: 0,
            fault_cap: None,
            truncated: false,
        })
    }

    /// Number of nodes.
    pub fn num_nodes_total(&self) -> usize {
        self.assignment.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.directory.len()
    }

    /// Cluster faults since the last [`DiskGraph::reset_faults`].
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Whether a fault-capped probe was refused since the last reset.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Caps the number of faults; once exceeded, adjacency probes for
    /// non-resident nodes return empty (the paper's premature-termination
    /// heuristic, §5.3). `None` removes the cap.
    pub fn set_fault_cap(&mut self, cap: Option<u64>) {
        self.fault_cap = cap;
    }

    /// Resets the fault counter and truncation flag (per query).
    pub fn reset_faults(&mut self) {
        self.faults = 0;
        self.truncated = false;
    }

    /// Byte size of the largest cluster (minimum working set).
    pub fn largest_cluster_bytes(&self) -> u64 {
        self.directory
            .iter()
            .map(|&(_, len)| len)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes across clusters.
    pub fn total_cluster_bytes(&self) -> u64 {
        self.directory.iter().map(|&(_, len)| len).sum()
    }

    /// `v`'s out-row, faulting its cluster in if needed; empty if the fault
    /// cap refused the load.
    fn row(&mut self, v: NodeId) -> &[NodeId] {
        match self.ensure_resident(v) {
            Some(i) => {
                let r = &self.resident[i];
                r.local_index(v).map_or(&[], |l| r.neighbors(l))
            }
            None => &[],
        }
    }

    /// Ensures `v`'s cluster is resident; returns its resident slot, or
    /// `None` if the fault cap refused the load. A cluster that no longer
    /// reads back as it did at open (the file changed underneath) is
    /// refused the same way, so the answer reports truncation rather than
    /// the probe panicking.
    fn ensure_resident(&mut self, v: NodeId) -> Option<usize> {
        let c = self.assignment[v as usize];
        if let Some(i) = self.resident.iter().position(|r| r.id == c) {
            return Some(i);
        }
        if self.fault_cap.is_some_and(|cap| self.faults >= cap) {
            self.truncated = true;
            return None;
        }
        self.faults += 1;
        let n = self.assignment.len();
        let entry = self.directory[c as usize];
        let Ok(parsed) = load_cluster(&mut self.file, c, entry, n) else {
            self.truncated = true;
            return None;
        };
        if self.resident.len() >= self.resident_capacity {
            self.resident.remove(0); // FIFO eviction
        }
        self.resident.push(parsed);
        Some(self.resident.len() - 1)
    }
}

/// Every probe may fault `v`'s cluster in (or be refused past the fault
/// cap), so the kernel replays probes in one fixed order.
impl RowSource for DiskGraph {
    const ORDERED_PROBES: bool = true;

    fn degree(&mut self, v: NodeId) -> usize {
        self.row(v).len()
    }

    fn visit<F: FnMut(NodeId)>(&mut self, v: NodeId, f: F) {
        self.row(v).iter().copied().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{cluster_graph, ClusteringOptions};
    use fastppv_graph::gen::barabasi_albert;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fastppv-cluster-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn round_trip_preserves_adjacency() {
        let g = barabasi_albert(300, 3, 6);
        let c = cluster_graph(&g, 8, ClusteringOptions::default());
        let path = temp_path("roundtrip.clg");
        let sizes = write_clustered_graph(&g, &c, &path).unwrap();
        assert_eq!(sizes.len(), 8);
        let mut dg = DiskGraph::open(&path, 8).unwrap();
        assert_eq!(dg.num_nodes_total(), 300);
        assert_eq!(dg.num_clusters(), 8);
        for v in g.nodes() {
            assert_eq!(dg.degree(v), g.out_degree(v), "degree of {v}");
            let mut got = Vec::new();
            dg.visit(v, |t| got.push(t));
            assert_eq!(got, g.out_neighbors(v), "neighbors of {v}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn faults_counted_and_capacity_respected() {
        let g = barabasi_albert(200, 2, 9);
        let c = cluster_graph(&g, 5, ClusteringOptions::default());
        let path = temp_path("faults.clg");
        write_clustered_graph(&g, &c, &path).unwrap();
        let mut dg = DiskGraph::open(&path, 1).unwrap();
        // Touch one node per cluster: one fault each.
        for cl in 0..5u32 {
            let v = (0..200u32)
                .find(|&v| c.assignment[v as usize] == cl)
                .unwrap();
            dg.degree(v);
        }
        assert_eq!(dg.faults(), 5);
        // Re-touching the last cluster is free; an earlier one faults again.
        let last = (0..200u32)
            .find(|&v| c.assignment[v as usize] == 4)
            .unwrap();
        dg.degree(last);
        assert_eq!(dg.faults(), 5);
        let first = (0..200u32)
            .find(|&v| c.assignment[v as usize] == 0)
            .unwrap();
        dg.degree(first);
        assert_eq!(dg.faults(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_cap_truncates() {
        let g = barabasi_albert(200, 2, 11);
        let c = cluster_graph(&g, 10, ClusteringOptions::default());
        let path = temp_path("cap.clg");
        write_clustered_graph(&g, &c, &path).unwrap();
        let mut dg = DiskGraph::open(&path, 1).unwrap();
        dg.set_fault_cap(Some(2));
        let mut refused = 0;
        for v in 0..200u32 {
            let mut any = false;
            dg.visit(v, |_| any = true);
            if !any {
                refused += 1;
            }
        }
        assert!(dg.faults() <= 2);
        assert!(dg.truncated());
        assert!(refused > 0);
        dg.reset_faults();
        assert_eq!(dg.faults(), 0);
        assert!(!dg.truncated());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn working_set_shrinks_with_more_clusters() {
        let g = barabasi_albert(600, 3, 13);
        let path_few = temp_path("few.clg");
        let path_many = temp_path("many.clg");
        let few = cluster_graph(&g, 4, ClusteringOptions::default());
        let many = cluster_graph(&g, 32, ClusteringOptions::default());
        write_clustered_graph(&g, &few, &path_few).unwrap();
        write_clustered_graph(&g, &many, &path_many).unwrap();
        let dg_few = DiskGraph::open(&path_few, 1).unwrap();
        let dg_many = DiskGraph::open(&path_many, 1).unwrap();
        assert!(dg_many.largest_cluster_bytes() < dg_few.largest_cluster_bytes());
        // Same total adjacency payload (modulo per-cluster headers).
        std::fs::remove_file(&path_few).unwrap();
        std::fs::remove_file(&path_many).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage.clg");
        std::fs::write(&path, b"nope").unwrap();
        assert!(DiskGraph::open(&path, 1).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// A clustered BA graph's file bytes, with its node count, cluster
    /// count and the byte offset of cluster 0's blob.
    fn pristine(seed: u64) -> (Vec<u8>, usize, usize, usize) {
        let g = barabasi_albert(300, 3, seed);
        let c = cluster_graph(&g, 8, ClusteringOptions::default());
        let path = temp_path("pristine.clg");
        write_clustered_graph(&g, &c, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let blob0 = u64_at(&bytes, 24 + 300 * 4).unwrap() as usize;
        (bytes, 300, 8, blob0)
    }

    /// Opens `bytes` written to a scratch file.
    fn open_bytes(bytes: &[u8], name: &str) -> io::Result<DiskGraph> {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let opened = DiskGraph::open(&path, 1);
        std::fs::remove_file(&path).unwrap();
        opened
    }

    #[test]
    fn open_rejects_every_structural_lie_with_invalid_data() {
        let (bytes, n, k, blob0) = pristine(6);
        let dir = 24 + n * 4;
        let put = |at: usize, value: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + value.len()].copy_from_slice(value);
            b
        };
        let first_member = u32_at(&bytes, blob0 + 4).unwrap();
        let second_member = u32_at(&bytes, blob0 + 12).unwrap();
        let other_cluster =
            (u32_at(&bytes, 24 + 4 * first_member as usize).unwrap() + 1) % k as u32;
        let lies: Vec<(&str, Vec<u8>)> = vec![
            ("short header", bytes[..20].to_vec()),
            ("short last blob", bytes[..bytes.len() - 1].to_vec()),
            ("node count", put(16, &u64::MAX.to_le_bytes())),
            (
                "node count past the file",
                put(16, &(n as u64 * 1000).to_le_bytes()),
            ),
            ("cluster count", put(12, &u32::MAX.to_le_bytes())),
            ("assignment", put(24, &(k as u32).to_le_bytes())),
            (
                "directory length",
                put(dir + 8, &(u64::MAX / 2).to_le_bytes()),
            ),
            ("directory offset", put(dir, &0u64.to_le_bytes())),
            ("member count", put(blob0, &u32::MAX.to_le_bytes())),
            ("member degree", put(blob0 + 8, &u32::MAX.to_le_bytes())),
            (
                "unsorted members",
                put(blob0 + 4, &second_member.to_le_bytes()),
            ),
            (
                "member out of range",
                put(blob0 + 4, &(n as u32).to_le_bytes()),
            ),
            (
                "member filed under another cluster",
                put(24 + 4 * first_member as usize, &other_cluster.to_le_bytes()),
            ),
            (
                "target out of range",
                put(bytes.len() - 4, &(n as u32).to_le_bytes()),
            ),
        ];
        for (what, lie) in &lies {
            match open_bytes(lie, "lie.clg") {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
                Ok(_) => panic!("{what}: a lying file opened"),
            }
        }
        let path = temp_path("capacity.clg");
        std::fs::write(&path, &bytes).unwrap();
        let err = DiskGraph::open(&path, 0).err().expect("capacity 0 refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(DiskGraph::open(&path, 1).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cluster_graph_corruption_fuzz_fails_closed() {
        // Truncate, flip a bit, overwrite bytes, or lie in a length field
        // (a header count, a directory length, a member count or degree).
        // Open must return `InvalidData` or a graph every probe and every
        // prime-0 search can read without a panic.
        use fastppv_core::{Config, HubSet, PrimeComputer};
        let (pristine, n, k, blob0) = pristine(17);
        let length_fields = [
            16,
            12,
            24 + n * 4 + 8,
            24 + n * 4 + 16 * (k - 1) + 8,
            blob0,
            blob0 + 8,
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rounds: usize = std::env::var("FASTPPV_FUZZ_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        let config = Config::default();
        let mut pc = PrimeComputer::new(n);
        let (mut opened, mut rejected) = (0, 0);
        for round in 0..rounds {
            let mut bytes = pristine.clone();
            match round % 4 {
                0 => bytes.truncate(rng() as usize % bytes.len()),
                1 => {
                    let at = rng() as usize % bytes.len();
                    bytes[at] ^= 1 << (rng() % 8);
                }
                2 => {
                    for _ in 0..4 {
                        let at = rng() as usize % bytes.len();
                        bytes[at] = rng() as u8;
                    }
                }
                _ => {
                    let at = length_fields[rng() as usize % length_fields.len()];
                    let lie = match rng() % 3 {
                        0 => u32::MAX,
                        1 => rng() as u32,
                        _ => u32_at(&bytes, at)
                            .unwrap()
                            .wrapping_add(1 + rng() as u32 % 4),
                    };
                    bytes[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                }
            }
            match open_bytes(&bytes, "fuzz.clg") {
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "round {round}: {e}");
                    rejected += 1;
                }
                Ok(mut dg) => {
                    opened += 1;
                    assert_eq!(dg.num_nodes_total(), n, "round {round}");
                    for v in 0..n as NodeId {
                        let d = dg.degree(v);
                        let mut seen = 0;
                        dg.visit(v, |t| {
                            assert!((t as usize) < n);
                            seen += 1;
                        });
                        assert_eq!(seen, d, "round {round}, node {v}");
                    }
                    let hubs = HubSet::empty(n);
                    for q in [0, 7, n as NodeId - 1] {
                        pc.prime_ppv_from(&mut dg, &hubs, q, &config);
                    }
                }
            }
        }
        // Flips in a row's target bytes can leave a valid graph, so some
        // damaged files open; the length lies and truncations cannot.
        assert!(rejected > rounds / 4, "{rejected} of {rounds} rejected");
        assert!(
            opened > 0,
            "no damaged file opened: the probes went unexercised"
        );
        assert!(open_bytes(&pristine, "fuzz.clg").is_ok());
    }
}
