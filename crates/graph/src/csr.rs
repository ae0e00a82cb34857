//! Compressed sparse row (CSR) graph representation.
//!
//! A graph is immutable once built (see [`crate::builder::GraphBuilder`]).
//! Both the forward (out-edge) and reverse (in-edge) adjacency are stored so
//! that push-style algorithms (out-edges) and pull-style power iteration
//! (in-edges) are both cache-friendly.
//!
//! ## Epochs share one CSR
//!
//! A [`Graph`] is a base CSR (four `Arc`-shared arrays) plus an optional
//! `Arc`-shared overlay of replaced rows. An edge event
//! ([`crate::gen::apply_event`])
//! publishes a graph that shares the base, copies only the overlay's
//! index (two dirty bitmaps and the list of overlaid rows, which are
//! themselves shared), and adds the tail's new out-row and the touched
//! heads' new in-rows: O(changed rows), where a flat copy would be
//! O(V + E). Once the overlay holds more than `1 / FOLD_DENOMINATOR` of
//! the base's entries it is folded into a fresh flat base — the cost of
//! one flat copy, paid once per thousands of events on a large graph.
//!
//! Reads test one dirty bit before the base lookup, so a clean row costs
//! no extra indirection; a graph also counts its dangling nodes, so
//! [`Graph::num_dangling`] is O(1). `Clone` is shallow, and equality is
//! logical (row by row), whatever the two graphs' layouts.

use std::sync::Arc;

/// Node identifier. Graphs with more than `u32::MAX` nodes are out of scope.
pub type NodeId = u32;

/// The overlay folds into a fresh base once its rows hold more than
/// `1 / FOLD_DENOMINATOR` of the base's entries (both directions).
const FOLD_DENOMINATOR: usize = 8;

/// A directed graph in CSR form: a shared base plus the rows edge events
/// replaced since it was laid out.
///
/// Parallel edges are permitted (the builder can deduplicate them); an
/// undirected graph is represented by storing each edge in both directions.
#[derive(Clone, Debug)]
pub struct Graph {
    base: Csr,
    overlay: Option<Arc<RowOverlay>>,
    num_edges: usize,
    num_dangling: usize,
}

/// The flat arrays of both directions, each `Arc`-shared. The slices sit
/// in the `Graph` itself, so a row read is no more indirect than on owned
/// vectors.
#[derive(Clone, Debug)]
struct Csr {
    out_offsets: Arc<[usize]>,
    out_targets: Arc<[NodeId]>,
    in_offsets: Arc<[usize]>,
    in_targets: Arc<[NodeId]>,
}

impl Csr {
    /// Entries stored, both directions.
    fn entries(&self) -> usize {
        self.out_targets.len() + self.in_targets.len()
    }

    fn memory_bytes(&self) -> usize {
        (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<usize>()
            + self.entries() * std::mem::size_of::<NodeId>()
    }
}

/// The replaced rows of both directions.
#[derive(Clone, Debug)]
struct RowOverlay {
    out_rows: Rows,
    in_rows: Rows,
}

impl RowOverlay {
    fn entries(&self) -> usize {
        self.out_rows.entries + self.in_rows.entries
    }
}

/// One direction's replaced rows: a dirty bit per node, and the rows of
/// the dirty nodes by ascending node id. Cloning copies the bitmap and the
/// index; the rows themselves are shared.
#[derive(Clone, Debug)]
struct Rows {
    dirty: Vec<u64>,
    nodes: Vec<NodeId>,
    rows: Vec<Arc<[NodeId]>>,
    /// Targets held by `rows`.
    entries: usize,
}

impl Rows {
    fn new(n: usize) -> Self {
        Rows {
            dirty: vec![0; n.div_ceil(64)],
            nodes: Vec::new(),
            rows: Vec::new(),
            entries: 0,
        }
    }

    #[inline]
    fn is_dirty(&self, v: NodeId) -> bool {
        self.dirty[v as usize / 64] >> (v % 64) & 1 != 0
    }

    /// The replacement row of the dirty node `v` — off the clean-row path,
    /// so not inlined into the kernels' row loops.
    #[inline(never)]
    fn row(&self, v: NodeId) -> &[NodeId] {
        let at = self
            .nodes
            .binary_search(&v)
            .expect("a dirty node has an overlaid row");
        &self.rows[at]
    }

    /// A copy of these rows with `changes` (ascending by node) written
    /// over them. The bitmap and the index are copied at exact size; the
    /// rows themselves are shared.
    fn with_rows(&self, changes: &[(NodeId, Arc<[NodeId]>)]) -> Rows {
        let fresh = changes.iter().filter(|(v, _)| !self.is_dirty(*v)).count();
        let mut next = Rows {
            dirty: self.dirty.clone(),
            nodes: Vec::with_capacity(self.nodes.len() + fresh),
            rows: Vec::with_capacity(self.nodes.len() + fresh),
            entries: self.entries,
        };
        let mut old = self.nodes.iter().copied().zip(&self.rows).peekable();
        for (v, row) in changes {
            while let Some((w, kept)) = old.next_if(|&(w, _)| w < *v) {
                next.nodes.push(w);
                next.rows.push(Arc::clone(kept));
            }
            match old.next_if(|&(w, _)| w == *v) {
                Some((_, replaced)) => next.entries -= replaced.len(),
                None => next.dirty[*v as usize / 64] |= 1 << (v % 64),
            }
            next.entries += row.len();
            next.nodes.push(*v);
            next.rows.push(Arc::clone(row));
        }
        for (w, kept) in old {
            next.nodes.push(w);
            next.rows.push(Arc::clone(kept));
        }
        next
    }

    fn memory_bytes(&self) -> usize {
        // Each row is one allocation: its targets behind two reference
        // counts.
        let per_row = std::mem::size_of::<NodeId>()
            + std::mem::size_of::<Arc<[NodeId]>>()
            + 2 * std::mem::size_of::<usize>();
        self.dirty.len() * std::mem::size_of::<u64>()
            + self.nodes.len() * per_row
            + self.entries * std::mem::size_of::<NodeId>()
    }
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
        let num_dangling = out_offsets.windows(2).filter(|w| w[0] == w[1]).count();
        Graph {
            num_edges: out_targets.len(),
            num_dangling,
            base: Csr {
                out_offsets: out_offsets.into(),
                out_targets: out_targets.into(),
                in_offsets: in_offsets.into(),
                in_targets: in_targets.into(),
            },
            overlay: None,
        }
    }

    /// The graph with `u`'s out-row replaced by `new_row` (sorted
    /// ascending; parallel edges allowed). Only that row and the in-rows of
    /// the heads whose multiplicity changed are written, into a copy of
    /// the overlay's index; the base and every other row are shared with
    /// `self`. Folds the overlay into a fresh base once it passes
    /// `1 / FOLD_DENOMINATOR` of the base's entries.
    pub(crate) fn with_out_row(&self, u: NodeId, new_row: &[NodeId]) -> Graph {
        debug_assert!(new_row.windows(2).all(|w| w[0] <= w[1]));
        let old_row = self.out_neighbors(u);
        // `u` sits in `in_row(t)` once per occurrence of `t` in its out-row,
        // contiguously (rows are sorted): walk the heads of both rows in
        // ascending order and swap the run of `u`s where the counts differ.
        let mut in_changes: Vec<(NodeId, Arc<[NodeId]>)> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
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
            let row = self.in_neighbors(t);
            let at = row.partition_point(|&x| x < u);
            let spliced = row[..at]
                .iter()
                .copied()
                .chain(std::iter::repeat_n(u, gained))
                .chain(row[at + lost..].iter().copied())
                .collect();
            in_changes.push((t, spliced));
        }
        let empty;
        let (out_rows, in_rows) = match &self.overlay {
            Some(overlay) => (&overlay.out_rows, &overlay.in_rows),
            None => {
                empty = Rows::new(self.num_nodes());
                (&empty, &empty)
            }
        };
        let overlay = RowOverlay {
            out_rows: out_rows.with_rows(&[(u, new_row.into())]),
            in_rows: in_rows.with_rows(&in_changes),
        };
        let next = Graph {
            base: self.base.clone(),
            num_edges: self.num_edges - old_row.len() + new_row.len(),
            num_dangling: self.num_dangling + usize::from(new_row.is_empty())
                - usize::from(old_row.is_empty()),
            overlay: Some(Arc::new(overlay)),
        };
        if next.overlay_entries() * FOLD_DENOMINATOR > self.base.entries() {
            next.fold()
        } else {
            next
        }
    }

    /// The same graph laid out flat: a fresh base, no overlay.
    fn fold(&self) -> Graph {
        let (out_offsets, out_targets) =
            flatten(self.num_edges, self.nodes().map(|v| self.out_neighbors(v)));
        let (in_offsets, in_targets) =
            flatten(self.num_edges, self.nodes().map(|v| self.in_neighbors(v)));
        Graph::from_csr(out_offsets, out_targets, in_offsets, in_targets)
    }

    /// Targets held by the overlay's rows, both directions (0 for a flat
    /// graph).
    pub(crate) fn overlay_entries(&self) -> usize {
        self.overlay.as_ref().map_or(0, |o| o.entries())
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph::from_csr(vec![0; n + 1], Vec::new(), vec![0; n + 1], Vec::new())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.base.out_offsets.len() - 1
    }

    /// Number of directed edges (an undirected edge counts twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Out-neighbors of `v`, in sorted order.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        match &self.overlay {
            Some(overlay) if overlay.out_rows.is_dirty(v) => overlay.out_rows.row(v),
            _ => {
                let (offsets, v) = (&self.base.out_offsets, v as usize);
                &self.base.out_targets[offsets[v]..offsets[v + 1]]
            }
        }
    }

    /// In-neighbors of `v`, in sorted order.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        match &self.overlay {
            Some(overlay) if overlay.in_rows.is_dirty(v) => overlay.in_rows.row(v),
            _ => {
                let (offsets, v) = (&self.base.in_offsets, v as usize);
                &self.base.in_targets[offsets[v]..offsets[v + 1]]
            }
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        match &self.overlay {
            Some(overlay) if overlay.out_rows.is_dirty(v) => overlay.out_rows.row(v).len(),
            _ => self.base.out_offsets[v as usize + 1] - self.base.out_offsets[v as usize],
        }
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        match &self.overlay {
            Some(overlay) if overlay.in_rows.is_dirty(v) => overlay.in_rows.row(v).len(),
            _ => self.base.in_offsets[v as usize + 1] - self.base.in_offsets[v as usize],
        }
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

    /// Number of dangling (out-degree 0) nodes — kept as a count, so
    /// reading it is O(1).
    #[inline]
    pub fn num_dangling(&self) -> usize {
        self.num_dangling
    }

    /// Whether the directed edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Rough in-memory footprint in bytes: the base's CSR arrays plus the
    /// overlay's bitmaps, index and rows. A base shared with other graphs
    /// is counted in full by each.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes()
            + self
                .overlay
                .as_ref()
                .map_or(0, |o| o.out_rows.memory_bytes() + o.in_rows.memory_bytes())
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

    /// A borrowed view of the forward (out-edge) adjacency, for kernels
    /// that want raw slice access without going through `&Graph` method
    /// dispatch (see [`CsrView`]).
    #[inline]
    pub fn out_csr(&self) -> CsrView<'_> {
        let rows = self.overlay.as_deref().map_or(&NO_ROWS, |o| &o.out_rows);
        CsrView {
            offsets: &self.base.out_offsets,
            targets: &self.base.out_targets,
            dirty: &rows.dirty,
            rows,
        }
    }
}

/// The 0-node graph.
impl Default for Graph {
    fn default() -> Self {
        Graph::empty(0)
    }
}

/// Logical equality: the same nodes with the same rows, both directions,
/// whatever part of each graph sits in its base or its overlay.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes() == other.num_nodes()
            && self.num_edges == other.num_edges
            && self.nodes().all(|v| {
                self.out_neighbors(v) == other.out_neighbors(v)
                    && self.in_neighbors(v) == other.in_neighbors(v)
            })
    }
}

/// Lays `rows` (one per node, in node order) out as offsets + targets.
fn flatten<'a>(
    entries: usize,
    rows: impl Iterator<Item = &'a [NodeId]>,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut offsets = vec![0];
    let mut targets = Vec::with_capacity(entries);
    for row in rows {
        targets.extend_from_slice(row);
        offsets.push(targets.len());
    }
    (offsets, targets)
}

/// The out-rows of a flat graph's view: none dirty.
static NO_ROWS: Rows = Rows {
    dirty: Vec::new(),
    nodes: Vec::new(),
    rows: Vec::new(),
    entries: 0,
};

/// A borrowed view of the forward adjacency: the base's offsets and
/// targets slices, plus the overlay's out-rows and their dirty bitmap
/// (empty for a flat graph).
///
/// This is the form hot kernels iterate: `Copy`, three slices, and a
/// dirty bit to test per row. [`Graph::out_csr`] produces it; neighbor
/// slices borrow the graph (`'a`), not the view, so they can outlive it.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    offsets: &'a [usize],
    targets: &'a [NodeId],
    dirty: &'a [u64],
    rows: &'a Rows,
}

impl<'a> CsrView<'a> {
    /// Number of nodes covered by the view.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether `v`'s row lives in the overlay.
    #[inline]
    fn is_dirty(&self, v: NodeId) -> bool {
        self.dirty
            .get(v as usize / 64)
            .is_some_and(|word| word >> (v % 64) & 1 != 0)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        if self.is_dirty(v) {
            return self.rows.row(v).len();
        }
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of `v`, in sorted order.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        if self.is_dirty(v) {
            return self.rows.row(v);
        }
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use rand::Rng;

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
    fn default_is_the_zero_node_graph() {
        let g = Graph::default();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_dangling(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.out_csr().num_nodes(), 0);
        assert_eq!(g, Graph::empty(0));
    }

    /// A BA graph after `rounds` random out-row replacements.
    fn overlaid(rounds: usize) -> Graph {
        let mut g = crate::gen::barabasi_albert(300, 3, 5);
        let mut rng = crate::gen::rng(11);
        for _ in 0..rounds {
            let u = rng.gen_range(0..300);
            let mut row: Vec<NodeId> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(0..300))
                .collect();
            row.sort_unstable();
            g = g.with_out_row(u, &row);
        }
        g
    }

    #[test]
    fn csr_view_matches_graph_rows_on_overlaid_graphs() {
        let g = overlaid(40);
        assert!(g.overlay_entries() > 0, "the edits folded away");
        let view = g.out_csr();
        assert_eq!(view.num_nodes(), g.num_nodes());
        for v in g.nodes() {
            assert_eq!(view.out_degree(v), g.out_degree(v));
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
        }
    }

    #[test]
    fn overlaid_rows_equal_a_rebuild_and_fold_into_one() {
        let g = overlaid(40);
        let rebuilt = crate::builder::from_edges(g.num_nodes(), &g.edges().collect::<Vec<_>>());
        assert_eq!(rebuilt.overlay_entries(), 0);
        assert_eq!(g, rebuilt, "equality is row by row, not by layout");
        for v in g.nodes() {
            assert_eq!(g.in_neighbors(v), rebuilt.in_neighbors(v), "in-row {v}");
        }
        assert_eq!(g.num_edges(), rebuilt.num_edges());
        assert_eq!(g.fold(), rebuilt);
        // Enough edits to pass the fold share leave a flat graph behind at
        // least once on the way.
        assert!(g.memory_bytes() > rebuilt.memory_bytes());
        let mut folded = false;
        let mut h = rebuilt;
        for round in 0..400 {
            let u = (round * 7 % 300) as NodeId;
            h = h.with_out_row(u, &[(round % 300) as NodeId]);
            folded |= h.overlay_entries() == 0;
        }
        assert!(folded, "400 edits never folded");
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
