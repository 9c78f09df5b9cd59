//! Sparse matrix representations for Features and Labels (paper
//! Appendix C.2).
//!
//! Three classic layouts with different access-pattern strengths:
//!
//! * [`CsrMatrix`] (compressed sparse row) — two flat arrays
//!   (`indptr`/`indices`) of presence-only rows, since Appendix B's
//!   features are bit vectors; rows are contiguous slices, the whole matrix
//!   is two allocations, and it shares zero-copy behind an `Arc`. The
//!   featurizer's output format.
//! * [`LilMatrix`] (list of lists) — each row stores `(column, value)`
//!   pairs; whole-row retrieval is one slice borrow, but updating a value
//!   requires a scan of the row. Optimal for Labels in production.
//! * [`CooMatrix`] (coordinate list) — a flat `(row, column, value)` triple
//!   list; appends are O(1), but row retrieval scans all triples. Optimal
//!   for Labels during iterative development, where every labeling-function
//!   edit appends a column of updates.

/// Read access shared by both representations.
pub trait SparseAccess {
    /// Number of rows.
    fn n_rows(&self) -> usize;

    /// Materialize one row as `(column, value)` pairs (deduplicated,
    /// last-write-wins, sorted by column).
    fn row_of(&self, r: usize) -> Vec<(u32, f32)>;

    /// Number of stored entries (before deduplication for COO).
    fn nnz(&self) -> usize;
}

/// List-of-lists sparse matrix.
#[derive(Debug, Clone, Default)]
pub struct LilMatrix {
    rows: Vec<Vec<(u32, f32)>>,
}

impl LilMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a row. Entries are sorted and deduplicated (last wins).
    pub fn push_row(&mut self, mut entries: Vec<(u32, f32)>) -> usize {
        entries.sort_by_key(|&(c, _)| c);
        entries.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        self.rows.push(entries);
        self.rows.len() - 1
    }

    /// Borrow one row (sorted by column).
    pub fn row(&self, r: usize) -> &[(u32, f32)] {
        &self.rows[r]
    }

    /// Set `(r, c)` to `v`, inserting or overwriting in place. O(row len).
    pub fn set(&mut self, r: usize, c: u32, v: f32) {
        if r >= self.rows.len() {
            self.rows.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.rows[r];
        match row.binary_search_by_key(&c, |&(col, _)| col) {
            Ok(i) => row[i].1 = v,
            Err(i) => row.insert(i, (c, v)),
        }
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: u32) -> Option<f32> {
        self.rows.get(r).and_then(|row| {
            row.binary_search_by_key(&c, |&(col, _)| col)
                .ok()
                .map(|i| row[i].1)
        })
    }
}

impl SparseAccess for LilMatrix {
    fn n_rows(&self) -> usize {
        self.rows.len()
    }

    fn row_of(&self, r: usize) -> Vec<(u32, f32)> {
        self.rows[r].clone()
    }

    fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }
}

/// Presence-only compressed-sparse-row matrix: row `r` is the set of
/// column ids `indices[indptr[r]..indptr[r+1]]` (sorted, deduplicated),
/// every stored entry worth 1.0 (Appendix B's bit-vector features). Two
/// flat allocations total, so a featurized corpus is shared zero-copy
/// (`Arc<CsrMatrix>`) by the learners and supervision instead of being
/// re-materialized per candidate. [`LilMatrix`] and [`CooMatrix`] keep
/// values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrMatrix {
    indptr: Vec<u32>,
    indices: Vec<u32>,
}

impl Default for CsrMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl CsrMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self {
            indptr: vec![0],
            indices: Vec::new(),
        }
    }

    /// Assemble a matrix from its two arrays (`indptr` starts at 0 and ends
    /// at `indices.len()`; each row's ids sorted and deduplicated).
    pub(crate) fn from_parts(indptr: Vec<u32>, indices: Vec<u32>) -> Self {
        debug_assert_eq!(indptr.first(), Some(&0));
        debug_assert_eq!(*indptr.last().unwrap() as usize, indices.len());
        Self { indptr, indices }
    }

    /// Append a row of already sorted, deduplicated column ids — the
    /// featurizer's hot path.
    pub fn push_ids<I: IntoIterator<Item = u32>>(&mut self, ids: I) -> usize {
        for id in ids {
            debug_assert!(
                self.indices.len() as u32 == *self.indptr.last().unwrap()
                    || *self.indices.last().unwrap() < id,
                "push_ids requires sorted, deduplicated columns"
            );
            self.indices.push(id);
        }
        self.indptr.push(self.indices.len() as u32);
        self.indptr.len() - 2
    }

    #[inline]
    fn bounds(&self, r: usize) -> (usize, usize) {
        (self.indptr[r] as usize, self.indptr[r + 1] as usize)
    }

    /// Column ids of row `r` (sorted, deduplicated).
    #[inline]
    pub fn row_ids(&self, r: usize) -> &[u32] {
        let (lo, hi) = self.bounds(r);
        &self.indices[lo..hi]
    }

    /// The row-pointer array (`n_rows + 1` offsets into `indices`).
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// The flat column-id array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Retained heap bytes of the two arrays.
    pub fn heap_bytes(&self) -> usize {
        self.indptr.capacity() * 4 + self.indices.capacity() * 4
    }

    /// Convert to LIL (for the Appendix C.2 representation comparisons).
    pub fn to_lil(&self) -> LilMatrix {
        let mut lil = LilMatrix::new();
        for r in 0..self.n_rows() {
            lil.push_row(self.row_of(r));
        }
        lil
    }
}

impl SparseAccess for CsrMatrix {
    fn n_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Every stored entry of a presence-only row reads 1.0.
    fn row_of(&self, r: usize) -> Vec<(u32, f32)> {
        self.row_ids(r).iter().map(|&c| (c, 1.0)).collect()
    }

    fn nnz(&self) -> usize {
        self.indices.len()
    }
}

/// Coordinate-list sparse matrix.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    n_rows: usize,
    triples: Vec<(u32, u32, f32)>,
}

impl CooMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `(r, c, v)` in constant time. Later appends for the same
    /// coordinate win on read.
    pub fn push(&mut self, r: usize, c: u32, v: f32) {
        self.n_rows = self.n_rows.max(r + 1);
        self.triples.push((r as u32, c, v));
    }

    /// All stored triples in insertion order.
    pub fn triples(&self) -> &[(u32, u32, f32)] {
        &self.triples
    }

    /// Convert to LIL (the production-mode migration in Appendix C.2).
    pub fn to_lil(&self) -> LilMatrix {
        let mut lil = LilMatrix::new();
        for r in 0..self.n_rows {
            lil.push_row(Vec::new());
            let _ = r;
        }
        for &(r, c, v) in &self.triples {
            lil.set(r as usize, c, v);
        }
        lil
    }
}

impl SparseAccess for CooMatrix {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn row_of(&self, r: usize) -> Vec<(u32, f32)> {
        // Full scan; last write wins per column.
        let mut out: Vec<(u32, f32)> = Vec::new();
        for &(tr, c, v) in &self.triples {
            if tr as usize == r {
                match out.binary_search_by_key(&c, |&(col, _)| col) {
                    Ok(i) => out[i].1 = v,
                    Err(i) => out.insert(i, (c, v)),
                }
            }
        }
        out
    }

    fn nnz(&self) -> usize {
        self.triples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lil_push_sorts_and_dedups() {
        let mut m = LilMatrix::new();
        let r = m.push_row(vec![(5, 1.0), (2, 1.0), (5, 3.0)]);
        assert_eq!(m.row(r), &[(2, 1.0), (5, 3.0)]);
        assert_eq!(m.row_of(r), vec![(2, 1.0), (5, 3.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn lil_set_and_get() {
        let mut m = LilMatrix::new();
        m.set(2, 7, 1.5);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.get(2, 7), Some(1.5));
        assert_eq!(m.get(2, 8), None);
        assert_eq!(m.get(0, 7), None);
        m.set(2, 7, -1.0);
        assert_eq!(m.get(2, 7), Some(-1.0));
    }

    #[test]
    fn coo_append_and_row_scan() {
        let mut m = CooMatrix::new();
        m.push(0, 3, 1.0);
        m.push(1, 0, -1.0);
        m.push(0, 1, 1.0);
        m.push(0, 3, 9.0); // overwrite
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_of(0), vec![(1, 1.0), (3, 9.0)]);
        assert_eq!(m.row_of(1), vec![(0, -1.0)]);
    }

    #[test]
    fn coo_to_lil_preserves_last_writes() {
        let mut m = CooMatrix::new();
        m.push(0, 1, 1.0);
        m.push(0, 1, 2.0);
        m.push(3, 0, 5.0);
        let lil = m.to_lil();
        assert_eq!(lil.n_rows(), 4);
        assert_eq!(lil.get(0, 1), Some(2.0));
        assert_eq!(lil.get(3, 0), Some(5.0));
        assert_eq!(lil.row_of(1), Vec::new());
    }

    #[test]
    fn csr_push_ids_and_row_access() {
        let mut m = CsrMatrix::new();
        assert_eq!(m.n_rows(), 0);
        let r0 = m.push_ids([2, 5, 9]);
        let r1 = m.push_ids([]);
        let r2 = m.push_ids([0]);
        assert_eq!((r0, r1, r2), (0, 1, 2));
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_ids(0), &[2, 5, 9]);
        assert_eq!(m.row_ids(1), &[] as &[u32]);
        assert_eq!(m.row_of(0), vec![(2, 1.0), (5, 1.0), (9, 1.0)]);
        assert_eq!(m.row_of(2), vec![(0, 1.0)]);
        assert_eq!(m.indptr(), &[0, 3, 3, 4]);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn csr_to_lil_roundtrip() {
        let mut csr = CsrMatrix::new();
        csr.push_ids([1, 3]);
        csr.push_ids([]);
        csr.push_ids([0, 2, 4]);
        let lil = csr.to_lil();
        assert_eq!(lil.n_rows(), 3);
        for r in 0..3 {
            assert_eq!(lil.row_of(r), csr.row_of(r), "row {r}");
        }
    }

    #[test]
    fn representations_agree() {
        let mut coo = CooMatrix::new();
        let mut lil = LilMatrix::new();
        let entries = [
            (0usize, 2u32, 1.0f32),
            (0, 4, 2.0),
            (1, 0, 3.0),
            (2, 2, 4.0),
        ];
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
            lil.set(r, c, v);
        }
        for r in 0..3 {
            assert_eq!(coo.row_of(r), lil.row_of(r), "row {r}");
        }
    }
}
