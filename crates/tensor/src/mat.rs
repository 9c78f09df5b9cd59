//! Contiguous row-major `f32` matrices.
//!
//! [`Mat`] is the activation container for the training hot path: one flat
//! `Vec<f32>`, row-major. [`Mat::resize`] never gives back capacity, so a
//! workspace of `Mat`s reused across samples is allocation-free once each
//! has reached its largest shape.

/// A contiguous row-major `f32` matrix.
#[derive(Debug, Clone, Default)]
pub struct Mat {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from row-major data (length must be `rows × cols`).
    pub fn from_slice(rows: usize, cols: usize, values: &[f32]) -> Self {
        assert_eq!(values.len(), rows * cols, "row-major shape mismatch");
        Self {
            data: values.to_vec(),
            rows,
            cols,
        }
    }

    /// Build from a ragged `Vec<Vec<f32>>` of equal-length rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "ragged input to Mat::from_rows");
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    /// Reshape to `rows × cols`, zero-filling all elements. Keeps the
    /// capacity, so repeated resizes in a workspace never allocate once the
    /// high-water mark is reached.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.as_mut_slice()[r * c..(r + 1) * c]
    }

    /// Rows `[a, b)` as one contiguous slice.
    #[inline]
    pub fn rows_range(&self, a: usize, b: usize) -> &[f32] {
        &self.as_slice()[a * self.cols..b * self.cols]
    }

    /// Two distinct rows, the second mutably (for in-place recurrences).
    #[inline]
    pub fn row_pair_mut(&mut self, read: usize, write: usize) -> (&[f32], &mut [f32]) {
        assert_ne!(read, write, "row_pair_mut requires distinct rows");
        let c = self.cols;
        let s = self.as_mut_slice();
        if read < write {
            let (lo, hi) = s.split_at_mut(write * c);
            (&lo[read * c..(read + 1) * c], &mut hi[..c])
        } else {
            let (lo, hi) = s.split_at_mut(read * c);
            (&hi[..c], &mut lo[write * c..(write + 1) * c])
        }
    }

    /// All elements, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// All elements, row-major, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.as_mut_slice().fill(v);
    }

    /// Copy the contents to a `Vec<Vec<f32>>` (test/interop convenience).
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat_rows_and_resize() {
        let mut m = Mat::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.row_mut(0)[2] = 9.0;
        assert_eq!(m.as_slice(), &[1.0, 2.0, 9.0, 4.0, 5.0, 6.0]);
        m.resize(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn resize_zeroes_and_keeps_the_allocation() {
        let mut m = Mat::zeros(8, 4);
        m.fill(3.0);
        let ptr = m.as_slice().as_ptr();
        m.resize(2, 3);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        m.fill(5.0);
        m.resize(4, 8);
        assert_eq!(m.len(), 32);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.as_slice().as_ptr(), ptr, "a shrink or regrow reallocated");
    }

    #[test]
    fn row_pair_mut_both_orders() {
        let mut m = Mat::from_slice(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let (r0, r2) = m.row_pair_mut(0, 2);
        assert_eq!(r0, &[1.0, 2.0]);
        r2.copy_from_slice(&[7.0, 8.0]);
        let (r2, r0) = m.row_pair_mut(2, 0);
        assert_eq!(r2, &[7.0, 8.0]);
        r0[0] = -1.0;
        assert_eq!(m.row(0), &[-1.0, 2.0]);
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let m = Mat::from_rows(&rows);
        assert_eq!(m.to_rows(), rows);
        let empty = Mat::from_rows(&[]);
        assert_eq!(empty.rows(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Mat::from_slice(1, 2, &[1.0, 2.0]);
        let b = a.clone();
        a.row_mut(0)[0] = 9.0;
        assert_eq!(b.row(0), &[1.0, 2.0]);
    }
}
