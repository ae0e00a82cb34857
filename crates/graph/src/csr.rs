//! Compressed sparse row (CSR) graph representation.
//!
//! The graph is immutable once built (see [`crate::builder::GraphBuilder`]).
//! Both the forward (out-edge) and reverse (in-edge) adjacency are stored so
//! that push-style algorithms (out-edges) and pull-style power iteration
//! (in-edges) are both cache-friendly.

/// Node identifier. Graphs with more than `u32::MAX` nodes are out of scope.
pub type NodeId = u32;

/// An immutable directed graph in CSR form.
///
/// Parallel edges are permitted (the builder can deduplicate them); an
/// undirected graph is represented by storing each edge in both directions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Graph {
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_targets: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph directly from prepared CSR arrays. Intended for the
    /// builder; prefer [`crate::builder::GraphBuilder`] in user code.
    ///
    /// # Panics
    /// Panics if the offset arrays are malformed or any target is out of
    /// range.
    pub(crate) fn from_csr(
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_targets: Vec<NodeId>,
    ) -> Self {
        assert!(!out_offsets.is_empty() && !in_offsets.is_empty());
        assert_eq!(out_offsets.len(), in_offsets.len());
        assert_eq!(*out_offsets.last().unwrap(), out_targets.len());
        assert_eq!(*in_offsets.last().unwrap(), in_targets.len());
        let n = out_offsets.len() - 1;
        debug_assert!(out_targets.iter().all(|&t| (t as usize) < n));
        debug_assert!(in_targets.iter().all(|&t| (t as usize) < n));
        Graph {
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        }
    }

    /// A copy of the graph with `u`'s out-row replaced by `new_row` (sorted
    /// ascending; parallel edges allowed). Only that row and the in-rows of
    /// the heads whose multiplicity changed are rewritten — everything
    /// else is a straight copy of the CSR arrays with shifted offsets, so
    /// a single-edge change costs a memcpy, not a rebuild.
    pub(crate) fn with_out_row(&self, u: NodeId, new_row: &[NodeId]) -> Graph {
        debug_assert!(new_row.windows(2).all(|w| w[0] <= w[1]));
        let old_row = self.out_neighbors(u);
        let start = self.out_offsets[u as usize];
        let new_edges = self.num_edges() - old_row.len() + new_row.len();

        let mut out_targets = Vec::with_capacity(new_edges);
        out_targets.extend_from_slice(&self.out_targets[..start]);
        out_targets.extend_from_slice(new_row);
        out_targets.extend_from_slice(&self.out_targets[start + old_row.len()..]);
        let mut out_offsets = self.out_offsets.clone();
        shift_offsets(
            &mut out_offsets[u as usize + 1..],
            new_row.len() as isize - old_row.len() as isize,
        );

        // `u` sits in `in_row(t)` once per occurrence of `t` in its out-row,
        // contiguously (rows are sorted): walk the heads of both rows in
        // ascending order and swap the run of `u`s where the counts differ.
        let mut in_targets = Vec::with_capacity(new_edges);
        let mut in_offsets = self.in_offsets.clone();
        let (mut i, mut j) = (0usize, 0usize);
        let mut copied = 0usize; // old in_targets consumed so far
        let mut shift = 0isize; // offset shift owed to rows after `settled`
        let mut settled = 0usize; // in_offsets[..=settled] are final
        while i < old_row.len() || j < new_row.len() {
            let next_heads = old_row.get(i).into_iter().chain(new_row.get(j));
            let t = *next_heads.min().expect("a row has heads left");
            let lost = old_row[i..].iter().take_while(|&&x| x == t).count();
            let gained = new_row[j..].iter().take_while(|&&x| x == t).count();
            i += lost;
            j += gained;
            if lost == gained {
                continue;
            }
            let t = t as usize;
            let row_start = self.in_offsets[t];
            let row = &self.in_targets[row_start..self.in_offsets[t + 1]];
            let at = row_start + row.partition_point(|&x| x < u);
            in_targets.extend_from_slice(&self.in_targets[copied..at]);
            in_targets.extend(std::iter::repeat_n(u, gained));
            copied = at + lost;
            shift_offsets(&mut in_offsets[settled + 1..=t], shift);
            shift += gained as isize - lost as isize;
            settled = t;
        }
        in_targets.extend_from_slice(&self.in_targets[copied..]);
        shift_offsets(&mut in_offsets[settled + 1..], shift);
        Graph::from_csr(out_offsets, out_targets, in_offsets, in_targets)
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges (an undirected edge counts twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v`, in sorted order.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v`, in sorted order.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_targets[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Whether `v` has no out-edges. Dangling nodes break the probability-
    /// conservation assumption of the accuracy-aware error (paper Eq. 6);
    /// see [`crate::builder::DanglingPolicy`].
    #[inline]
    pub fn is_dangling(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over all directed edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Number of dangling (out-degree 0) nodes.
    pub fn num_dangling(&self) -> usize {
        self.nodes().filter(|&v| self.is_dangling(v)).count()
    }

    /// Whether the directed edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Rough in-memory footprint in bytes (CSR arrays only).
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>() * 2
            + self.out_targets.len() * std::mem::size_of::<NodeId>() * 2
    }

    /// The transition probability of a single random-walk step `u -> v`,
    /// i.e. `1/|Out(u)|` if the edge exists (with multiplicity for parallel
    /// edges), else 0.
    pub fn step_probability(&self, u: NodeId, v: NodeId) -> f64 {
        let d = self.out_degree(u);
        if d == 0 {
            return 0.0;
        }
        let mult = self.out_neighbors(u).iter().filter(|&&t| t == v).count();
        mult as f64 / d as f64
    }

    /// A borrowed view of the forward (out-edge) CSR arrays, for kernels
    /// that want raw slice access without going through `&Graph` method
    /// dispatch (see [`CsrView`]).
    #[inline]
    pub fn out_csr(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.out_offsets,
            targets: &self.out_targets,
        }
    }
}

/// Adds `delta` to every offset in `offsets`.
fn shift_offsets(offsets: &mut [usize], delta: isize) {
    if delta != 0 {
        for o in offsets {
            *o = o.wrapping_add_signed(delta);
        }
    }
}

/// A borrowed view of one CSR adjacency (offsets + targets slices).
///
/// This is the raw form hot kernels iterate: `Copy`, two slices, no
/// indirection. [`Graph::out_csr`] produces the forward view; neighbor
/// slices borrow the graph (`'a`), not the view, so they can outlive it.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    offsets: &'a [usize],
    targets: &'a [NodeId],
}

impl<'a> CsrView<'a> {
    /// Number of nodes covered by the view.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of `v`, in sorted order.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_neighbors(0), &[] as &[NodeId]);
        assert_eq!(g.num_dangling(), 3);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.num_dangling(), 0);
    }

    #[test]
    fn edges_iterator_round_trip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
    }

    #[test]
    fn has_edge_and_step_probability() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.step_probability(0, 1), 0.5);
        assert_eq!(g.step_probability(3, 0), 1.0);
        assert_eq!(g.step_probability(1, 0), 0.0);
    }

    #[test]
    fn csr_view_matches_graph_accessors() {
        let g = diamond();
        let view = g.out_csr();
        assert_eq!(view.num_nodes(), g.num_nodes());
        for v in g.nodes() {
            assert_eq!(view.out_degree(v), g.out_degree(v));
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
        }
    }

    #[test]
    fn parallel_edges_affect_step_probability() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.out_degree(0), 3);
        assert!((g.step_probability(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    }
}
