//! Shared numeric kernels for PPR computations.
//!
//! Every algorithm in the workspace accumulates scores over a shifting
//! subset of nodes. [`ScoreScratch`] is the dense workspace that makes those
//! accumulations allocation-free and hash-free on the hot path, and it owns
//! the order its entries come out in: every read of the whole scratch visits
//! each nonzero slot once, in ascending node id, by whichever of two exact
//! methods is cheaper for the number of slots touched — a sort of the
//! touched ids when they are few, one sequential pass over the value array
//! once they cover an eighth of it. Callers never re-sort what a drain
//! returns. [`SparseVector`] is the compact, sorted materialization used for
//! results and the on-disk index.

use crate::csr::NodeId;

/// A sparse score vector: entries sorted by node id, strictly increasing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(NodeId, f64)>,
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        SparseVector {
            entries: Vec::new(),
        }
    }

    /// Builds from entries that are already sorted by node id (debug-checked).
    pub fn from_sorted(entries: Vec<(NodeId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        SparseVector { entries }
    }

    /// Builds from unsorted entries, summing duplicates.
    pub fn from_unsorted(mut entries: Vec<(NodeId, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut out: Vec<(NodeId, f64)> = Vec::with_capacity(entries.len());
        for (id, s) in entries {
            match out.last_mut() {
                Some(last) if last.0 == id => last.1 += s,
                _ => out.push((id, s)),
            }
        }
        SparseVector { entries: out }
    }

    /// The entries, sorted by node id.
    #[inline]
    pub fn entries(&self) -> &[(NodeId, f64)] {
        &self.entries
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no stored entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Score of `v` (0 if absent). Binary search.
    pub fn get(&self, v: NodeId) -> f64 {
        match self.entries.binary_search_by_key(&v, |&(id, _)| id) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Sum of all scores (the L1 norm for non-negative vectors).
    pub fn l1_norm(&self) -> f64 {
        self.entries.iter().map(|&(_, s)| s).sum()
    }

    /// Drops entries with score strictly below `threshold`.
    pub fn clip(&mut self, threshold: f64) {
        self.entries.retain(|&(_, s)| s >= threshold);
    }

    /// The `k` highest-scoring entries, ties broken by node id (ascending)
    /// for determinism, returned in descending score order.
    ///
    /// O(n + k log k) over the borrowed entries ([`top_k_of`]): the vector
    /// is never cloned and the full list never ordered.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        top_k_of(self.entries.iter().copied(), k)
    }

    /// Materializes into a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut d = vec![0.0; n];
        for &(id, s) in &self.entries {
            d[id as usize] = s;
        }
        d
    }

    /// `self += coeff * other`, entry-wise (merge of two sorted lists).
    pub fn axpy(&mut self, coeff: f64, other: &SparseVector) {
        if coeff == 0.0 || other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((b[j].0, coeff * b[j].1));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((a[i].0, a[i].1 + coeff * b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend(b[j..].iter().map(|&(id, s)| (id, coeff * s)));
        self.entries = merged;
    }

    /// L1 distance to a dense vector (entries absent here count as 0).
    pub fn l1_distance_dense(&self, dense: &[f64]) -> f64 {
        let mut err = 0.0;
        let mut covered = 0.0;
        for &(id, s) in &self.entries {
            let e = dense[id as usize];
            err += (e - s).abs();
            covered += e;
        }
        // Mass of dense entries we do not store at all.
        err + (dense.iter().sum::<f64>() - covered)
    }

    /// Consumes the vector, returning its entries.
    pub fn into_entries(self) -> Vec<(NodeId, f64)> {
        self.entries
    }
}

/// Rank order of scored entries: descending score, ties by ascending node
/// id. Uses [`f64::total_cmp`], so a NaN score (which should not occur, but
/// can leak in from corrupt input) ranks deterministically instead of
/// panicking.
fn by_rank(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Selects the `k` highest-ranking entries of an owned list, in rank order
/// (see [`top_k_of`] for selecting out of entries that are only borrowed).
pub fn top_k_entries(mut v: Vec<(NodeId, f64)>, k: usize) -> Vec<(NodeId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    if k < v.len() {
        // Partition: everything at or before index k-1 ranks at least as
        // high as everything after it. The prefix is unsorted until below.
        v.select_nth_unstable_by(k - 1, by_rank);
        v.truncate(k);
    }
    v.sort_unstable_by(by_rank);
    v
}

/// Selects the `k` highest-ranking of `entries` in one pass over a buffer
/// of at most `2k` candidates — what [`top_k_entries`] returns for the
/// collected list, without collecting it. Shared by [`SparseVector::top_k`]
/// and [`ScoreScratch::top_k`]: picking ten nodes out of a 19 k-entry
/// answer copies twenty entries, not the answer.
pub fn top_k_of(entries: impl IntoIterator<Item = (NodeId, f64)>, k: usize) -> Vec<(NodeId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let entries = entries.into_iter();
    let (at_least, at_most) = entries.size_hint();
    let mut top = TopK::new(k, at_most.unwrap_or(at_least));
    entries.for_each(|e| top.offer(e));
    top.finish()
}

/// [`top_k_of`]'s selection, fed one entry at a time.
///
/// Whenever the buffer fills it is cut back to its best `k`, and the worst
/// of those becomes the bar a later entry must outrank to be buffered at
/// all, so past the first `2k` entries almost every one costs a single
/// comparison.
struct TopK {
    k: usize,
    limit: usize,
    buf: Vec<(NodeId, f64)>,
    bar: Option<(NodeId, f64)>,
}

impl TopK {
    /// A selector for a positive `k` over about `expected` entries.
    fn new(k: usize, expected: usize) -> Self {
        debug_assert!(k > 0);
        let limit = k.saturating_mul(2);
        TopK {
            k,
            limit,
            buf: Vec::with_capacity(limit.min(expected)),
            bar: None,
        }
    }

    #[inline]
    fn offer(&mut self, e: (NodeId, f64)) {
        // `<` on the scores settles nearly every entry; it implies the
        // total order's verdict, which only ties, zeros and NaNs need.
        if self
            .bar
            .is_some_and(|bar| e.1 < bar.1 || by_rank(&e, &bar).is_ge())
        {
            return;
        }
        self.buf.push(e);
        if self.buf.len() == self.limit {
            self.buf.select_nth_unstable_by(self.k - 1, by_rank);
            self.buf.truncate(self.k);
            self.bar = Some(self.buf[self.k - 1]);
        }
    }

    fn finish(self) -> Vec<(NodeId, f64)> {
        top_k_entries(self.buf, self.k)
    }
}

impl FromIterator<(NodeId, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (NodeId, f64)>>(iter: T) -> Self {
        SparseVector::from_unsorted(iter.into_iter().collect())
    }
}

/// Reusable dense accumulator with a touched list.
///
/// `add` is O(1). The backing array is sized to the graph once and reused
/// across queries (the "workhorse collection" pattern).
///
/// Every read of the whole scratch — the drains, [`ScoreScratch::to_sparse`],
/// [`ScoreScratch::top_k`] and [`ScoreScratch::sum`] — visits each nonzero
/// slot exactly once, in ascending node id, so a drained list is sorted and
/// needs no sort after it. The visit picks one of two exact methods from the
/// touched count `t` against the capacity `n`:
///
/// * `t < n/8`: sort the touched ids in place and read their slots,
///   O(t log t);
/// * `t ≥ n/8`: one sequential pass over the value array, O(n), which is
///   already in id order. A non-hub answer, which covers most of the graph,
///   takes this path.
///
/// The eighth is a measured crossover: draining into a fresh vector on a
/// 2-vCPU x86-64 Xeon, the pass beats the sort from t ≈ n/12 at n = 5 k and
/// 20 k, and from t ≈ n/6 at n = 200 k, so at the switch either method
/// costs at most about a quarter more than the better one.
#[derive(Clone, Debug)]
pub struct ScoreScratch {
    values: Vec<f64>,
    /// Every slot `add` found at 0 since the last drain or clear, in no
    /// particular order. A slot that cancels to exactly 0 and is touched
    /// again is listed twice; the visit reads it once.
    touched: Vec<NodeId>,
}

/// The visit scans the whole value array once the touched list covers
/// `1/DENSE_SHARE` of it (see [`ScoreScratch`] for the measurement).
const DENSE_SHARE: usize = 8;

impl ScoreScratch {
    /// A scratch for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        ScoreScratch {
            values: vec![0.0; n],
            touched: Vec::new(),
        }
    }

    /// Capacity (number of node slots).
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Grows the backing array if the graph is larger than the scratch.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.values.len() < n {
            self.values.resize(n, 0.0);
        }
    }

    /// Adds `s` to node `v`'s accumulator.
    #[inline]
    pub fn add(&mut self, v: NodeId, s: f64) {
        let slot = &mut self.values[v as usize];
        if *slot == 0.0 {
            self.touched.push(v);
        }
        *slot += s;
    }

    /// Current value for `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        self.values[v as usize]
    }

    /// The ordered visit every whole-scratch read goes through: calls
    /// `f(v, value)` once per nonzero slot, in ascending `v`, by the method
    /// the touched count selects (see [`ScoreScratch`]). With `DRAIN` it
    /// zeroes each visited slot and empties the touched list, leaving the
    /// scratch reset; otherwise the scratch keeps its values.
    #[inline]
    fn visit<const DRAIN: bool>(&mut self, mut f: impl FnMut(NodeId, f64)) {
        let mut read = |v: NodeId, slot: &mut f64| {
            let s = *slot;
            if s != 0.0 {
                if DRAIN {
                    *slot = 0.0;
                }
                f(v, s);
            }
        };
        if self.touched.len() * DENSE_SHARE >= self.values.len() {
            for (v, slot) in self.values.iter_mut().enumerate() {
                read(v as NodeId, slot);
            }
        } else {
            self.touched.sort_unstable();
            self.touched.dedup();
            for &v in &self.touched {
                read(v, &mut self.values[v as usize]);
            }
        }
        if DRAIN {
            self.touched.clear();
        }
    }

    /// Calls `f(v, value)` for every nonzero slot, in ascending `v`,
    /// without resetting the scratch.
    pub fn for_each(&mut self, f: impl FnMut(NodeId, f64)) {
        self.visit::<false>(f);
    }

    /// Sum over nonzero slots, in ascending node id.
    pub fn sum(&mut self) -> f64 {
        let mut total = 0.0;
        self.visit::<false>(|_, s| total += s);
        total
    }

    /// Materializes the nonzero entries into a [`SparseVector`] and resets
    /// the scratch for reuse. The entry vector is allocated once, sized to
    /// the touched count, and filled in id order.
    pub fn drain_sparse(&mut self) -> SparseVector {
        let mut entries = Vec::with_capacity(self.touched.len());
        self.visit::<true>(|v, s| entries.push((v, s)));
        SparseVector::from_sorted(entries)
    }

    /// Drains the nonzero entries into `out` in ascending node id and
    /// resets the scratch. `out` is cleared first; with a reused `out`
    /// whose capacity has warmed up, the call performs no heap allocation —
    /// this is the hot-path alternative to [`ScoreScratch::drain_sparse`].
    pub fn drain_into(&mut self, out: &mut Vec<(NodeId, f64)>) {
        out.clear();
        out.reserve(self.touched.len());
        self.visit::<true>(|v, s| out.push((v, s)));
    }

    /// Materializes the nonzero entries into a [`SparseVector`] *without*
    /// resetting the scratch.
    pub fn to_sparse(&mut self) -> SparseVector {
        let mut entries = Vec::with_capacity(self.touched.len());
        self.visit::<false>(|v, s| entries.push((v, s)));
        SparseVector::from_sorted(entries)
    }

    /// The `k` highest-scoring nonzero entries (ties broken by ascending
    /// node id), descending, without resetting the scratch.
    pub fn top_k(&mut self, k: usize) -> Vec<(NodeId, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut top = TopK::new(k, self.touched.len());
        self.visit::<false>(|v, s| top.offer((v, s)));
        top.finish()
    }

    /// Drains the scratch as an answer of `k` entries and resets it: every
    /// nonzero entry when `k` is 0 ([`ScoreScratch::drain_sparse`]), else
    /// the `k` that [`ScoreScratch::top_k`] selects. Either way the entries
    /// come out in ascending node id. A top-`k` drain allocates only the
    /// selection buffer of at most `2k` entries, never an answer-sized
    /// vector, and returns it shrunk to the entries it holds: a cached
    /// top-`k` answer keeps `k` entries' storage, not `2k`.
    pub fn drain_top_k(&mut self, k: usize) -> SparseVector {
        if k == 0 {
            return self.drain_sparse();
        }
        let mut top = self.top_k(k);
        self.clear();
        top.sort_unstable_by_key(|&(v, _)| v);
        top.shrink_to_fit();
        SparseVector::from_sorted(top)
    }

    /// Resets without materializing.
    pub fn clear(&mut self) {
        for &v in &self.touched {
            self.values[v as usize] = 0.0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_from_unsorted_merges_duplicates() {
        let v = SparseVector::from_unsorted(vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(v.entries(), &[(1, 2.0), (3, 1.5)]);
        assert_eq!(v.get(3), 1.5);
        assert_eq!(v.get(2), 0.0);
    }

    #[test]
    fn axpy_merges_sorted_lists() {
        let mut a = SparseVector::from_sorted(vec![(1, 1.0), (4, 2.0)]);
        let b = SparseVector::from_sorted(vec![(0, 1.0), (4, 1.0), (7, 3.0)]);
        a.axpy(2.0, &b);
        assert_eq!(a.entries(), &[(0, 2.0), (1, 1.0), (4, 4.0), (7, 6.0)]);
    }

    #[test]
    fn axpy_zero_coeff_is_noop() {
        let mut a = SparseVector::from_sorted(vec![(1, 1.0)]);
        let b = SparseVector::from_sorted(vec![(2, 5.0)]);
        a.axpy(0.0, &b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn top_k_breaks_ties_by_id() {
        let v = SparseVector::from_sorted(vec![(1, 0.5), (2, 0.5), (3, 0.9)]);
        assert_eq!(v.top_k(2), vec![(3, 0.9), (1, 0.5)]);
        assert_eq!(v.top_k(10).len(), 3);
    }

    #[test]
    fn clip_drops_small_entries() {
        let mut v = SparseVector::from_sorted(vec![(0, 1e-5), (1, 1e-3)]);
        v.clip(1e-4);
        assert_eq!(v.entries(), &[(1, 1e-3)]);
    }

    #[test]
    fn l1_distance_counts_missing_mass() {
        let v = SparseVector::from_sorted(vec![(0, 0.4)]);
        let dense = vec![0.5, 0.5];
        // |0.5-0.4| + 0.5 (missing node 1)
        assert!((v.l1_distance_dense(&dense) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn scratch_drain_resets() {
        let mut s = ScoreScratch::new(5);
        s.add(3, 1.0);
        s.add(0, 0.5);
        s.add(3, 1.0);
        assert_eq!(s.get(3), 2.0);
        let v = s.drain_sparse();
        assert_eq!(v.entries(), &[(0, 0.5), (3, 2.0)]);
        assert!(s.to_sparse().is_empty());
        assert_eq!(s.get(3), 0.0);
        // Reusable after drain.
        s.add(1, 1.0);
        assert_eq!(s.drain_sparse().entries(), &[(1, 1.0)]);
    }

    #[test]
    fn scratch_drops_cancelled_entries() {
        let mut s = ScoreScratch::new(3);
        s.add(1, 1.0);
        s.add(1, -1.0);
        let v = s.drain_sparse();
        assert!(v.is_empty());
    }

    #[test]
    fn scratch_visits_a_cancelled_then_retouched_slot_once() {
        // The slot lands on the touched list twice. Capacity 3 takes the
        // value-array pass, capacity 1000 the sort of the touched ids.
        for n in [3, 1000] {
            let mut s = ScoreScratch::new(n);
            s.add(2, 1.0);
            s.add(2, -1.0);
            s.add(2, 0.5);
            assert_eq!(s.top_k(3), vec![(2, 0.5)], "n = {n}");
            assert_eq!(s.sum(), 0.5, "n = {n}");
            assert_eq!(s.to_sparse().entries(), &[(2, 0.5)], "n = {n}");
            assert_eq!(s.drain_sparse().entries(), &[(2, 0.5)], "n = {n}");
        }
    }

    #[test]
    fn top_k_selection_matches_full_sort() {
        // The select-then-sort fast path must agree with a naive full sort
        // for every k, including ties and k ∈ {0, len, len+1}.
        let entries = vec![(5, 0.25), (1, 0.5), (9, 0.25), (2, 0.9), (7, 0.1), (3, 0.5)];
        let v = SparseVector::from_unsorted(entries.clone());
        for k in 0..=entries.len() + 1 {
            let mut naive = entries.clone();
            naive.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            naive.truncate(k);
            assert_eq!(v.top_k(k), naive, "k = {k}");
        }
    }

    #[test]
    fn top_k_survives_nan_scores() {
        // A NaN score must not panic the comparator; under total_cmp,
        // (positive) NaN ranks above every finite score, so it sorts first
        // — deterministically — instead of poisoning the whole ordering.
        let entries = vec![(5, 0.25), (1, f64::NAN), (9, 0.5), (2, 0.9)];
        let top = top_k_entries(entries.clone(), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1, "NaN entry ranks first under total_cmp");
        assert_eq!(top[1], (2, 0.9));
        // All-NaN input: ties broken by ascending id, no panic.
        let all_nan = vec![(7, f64::NAN), (3, f64::NAN)];
        let top = top_k_entries(all_nan, 2);
        assert_eq!(top[0].0, 3);
        assert_eq!(top[1].0, 7);
    }

    #[test]
    fn scratch_drain_into_reuses_buffer() {
        let mut s = ScoreScratch::new(6);
        let mut buf = Vec::new();
        s.add(4, 1.0);
        s.add(1, 0.5);
        s.add(2, 1.0);
        s.add(2, -1.0); // cancels: must be skipped
        s.drain_into(&mut buf);
        assert_eq!(buf, vec![(1, 0.5), (4, 1.0)], "id order, zeros dropped");
        assert!(s.to_sparse().is_empty());
        assert_eq!(s.get(4), 0.0);
        // Reuse: previous contents are replaced, not appended.
        s.add(0, 2.0);
        s.drain_into(&mut buf);
        assert_eq!(buf, vec![(0, 2.0)]);
    }

    #[test]
    fn scratch_to_sparse_and_top_k_do_not_reset() {
        let mut s = ScoreScratch::new(6);
        s.add(3, 0.75);
        s.add(0, 0.25);
        assert_eq!(s.to_sparse().entries(), &[(0, 0.25), (3, 0.75)]);
        assert_eq!(s.top_k(1), vec![(3, 0.75)]);
        // Still intact afterwards.
        assert_eq!(s.get(3), 0.75);
        assert_eq!(s.drain_sparse().len(), 2);
    }

    #[test]
    fn scratch_drain_top_k_is_the_top_k_in_id_order_and_resets() {
        // Capacity 8 takes the value-array pass, capacity 1000 the sort of
        // the touched ids; both must leave every slot zeroed.
        for n in [8, 1000] {
            let mut s = ScoreScratch::new(n);
            for (v, x) in [(6, 0.5), (1, 0.25), (4, 0.75), (2, 0.5)] {
                s.add(v, x);
            }
            let top = s.drain_top_k(3).into_entries();
            assert_eq!(top, [(2, 0.5), (4, 0.75), (6, 0.5)]);
            assert_eq!(top.capacity(), 3, "a top-3 answer keeps 3 entries' storage");
            assert!(s.to_sparse().is_empty(), "n = {n}");
            assert_eq!(s.get(1), 0.0, "n = {n}");
            s.add(5, 1.0);
            assert_eq!(s.drain_top_k(0).entries(), &[(5, 1.0)], "n = {n}");
        }
    }

    #[test]
    fn to_dense_round_trip() {
        let v = SparseVector::from_sorted(vec![(1, 0.25), (3, 0.75)]);
        assert_eq!(v.to_dense(4), vec![0.0, 0.25, 0.0, 0.75]);
        assert!((v.l1_norm() - 1.0).abs() < 1e-12);
    }
}
