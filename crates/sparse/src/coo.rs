//! Coordinate (triplet) sparse matrix format.
//!
//! COO is the natural assembly format: entries arrive in arbitrary
//! order as `(row, col, value)` triplets and are later converted to
//! [`Csr`](crate::Csr) for computation. Duplicate coordinates are
//! summed during conversion, matching the MatrixMarket convention.

use crate::error::SparseError;
use crate::index_u32;
use crate::Result;

/// A sparse matrix in coordinate (triplet) format.
///
/// Invariants maintained by the constructors:
/// * `rows`, `cols` and `values` always have equal lengths;
/// * every `(rows[k], cols[k])` lies inside `nrows x ncols`.
///
/// Entries may appear in any order and duplicates are allowed; they
/// are summed on conversion to CSR.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    values: Vec<f64>,
}

impl Coo {
    /// Creates an empty COO matrix of the given shape.
    ///
    /// # Errors
    /// Returns [`SparseError::DimensionMismatch`] if either dimension
    /// exceeds `u32::MAX` (indices are stored as `u32`).
    pub fn new(nrows: usize, ncols: usize) -> Result<Self> {
        Self::check_shape(nrows, ncols)?;
        Ok(Coo { nrows, ncols, rows: Vec::new(), cols: Vec::new(), values: Vec::new() })
    }

    /// Creates an empty COO matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Result<Self> {
        Self::check_shape(nrows, ncols)?;
        Ok(Coo {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        })
    }

    /// Builds a COO matrix from pre-existing triplet arrays.
    ///
    /// # Errors
    /// * [`SparseError::LengthMismatch`] if array lengths differ;
    /// * [`SparseError::IndexOutOfBounds`] on any out-of-range entry.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        Self::check_shape(nrows, ncols)?;
        if rows.len() != cols.len() || rows.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                detail: format!(
                    "rows={}, cols={}, values={}",
                    rows.len(),
                    cols.len(),
                    values.len()
                ),
            });
        }
        for k in 0..rows.len() {
            let (r, c) = (rows[k] as usize, cols[k] as usize);
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, nrows, ncols });
            }
        }
        Ok(Coo { nrows, ncols, rows, cols, values })
    }

    pub(crate) fn check_shape(nrows: usize, ncols: usize) -> Result<()> {
        if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
            return Err(SparseError::DimensionMismatch {
                detail: format!("shape {nrows}x{ncols} exceeds u32 index space"),
            });
        }
        Ok(())
    }

    /// Appends one entry.
    ///
    /// # Errors
    /// [`SparseError::IndexOutOfBounds`] if `(row, col)` is outside the
    /// matrix.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(index_u32(row));
        self.cols.push(index_u32(col));
        self.values.push(value);
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (including duplicates and explicit
    /// zeros).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row indices of the stored entries.
    #[inline]
    pub fn row_indices(&self) -> &[u32] {
        &self.rows
    }

    /// Column indices of the stored entries.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.cols
    }

    /// Values of the stored entries.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Multiplies `y = A * x` directly on the triplets (reference
    /// implementation used for cross-checking the optimized kernels).
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        y.fill(0.0);
        for k in 0..self.values.len() {
            y[self.rows[k] as usize] += self.values[k] * x[self.cols[k] as usize];
        }
    }

    /// Mirrors every strictly-lower (or strictly-upper) entry to make
    /// the matrix structurally symmetric. Used when expanding
    /// MatrixMarket `symmetric` files. Diagonal entries are kept once.
    pub fn symmetrize(&mut self) {
        let n = self.values.len();
        for k in 0..n {
            if self.rows[k] != self.cols[k] {
                let (r, c, v) = (self.cols[k], self.rows[k], self.values[k]);
                self.rows.push(r);
                self.cols.push(c);
                self.values.push(v);
            }
        }
    }

    /// Consumes the matrix and returns its triplet arrays
    /// `(nrows, ncols, rows, cols, values)`.
    pub fn into_triplets(self) -> (usize, usize, Vec<u32>, Vec<u32>, Vec<f64>) {
        (self.nrows, self.ncols, self.rows, self.cols, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        let mut m = Coo::new(3, 4).unwrap();
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 2, 2.0).unwrap();
        m.push(2, 3, 3.0).unwrap();
        m.push(2, 0, 4.0).unwrap();
        m
    }

    #[test]
    fn push_and_query() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 4);
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets[1], (1, 2, 2.0));
    }

    #[test]
    fn push_out_of_bounds_rejected() {
        let mut m = Coo::new(2, 2).unwrap();
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn from_triplets_validates() {
        assert!(Coo::from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(Coo::from_triplets(2, 2, vec![5], vec![0], vec![1.0]).is_err());
        assert!(Coo::from_triplets(2, 2, vec![1], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn spmv_reference() {
        let m = sample();
        let x = [1.0, 1.0, 1.0, 2.0];
        let mut y = [0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, [1.0, 2.0, 10.0]);
    }

    #[test]
    fn spmv_sums_duplicates() {
        let mut m = Coo::new(1, 1).unwrap();
        m.push(0, 0, 1.5).unwrap();
        m.push(0, 0, 2.5).unwrap();
        let mut y = [0.0];
        m.spmv(&[2.0], &mut y);
        assert_eq!(y, [8.0]);
    }

    #[test]
    fn symmetrize_mirrors_off_diagonal() {
        let mut m = Coo::new(3, 3).unwrap();
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 0, 2.0).unwrap();
        m.push(2, 1, 3.0).unwrap();
        m.symmetrize();
        assert_eq!(m.nnz(), 5); // diagonal kept once, two mirrored
        let has = |r, c, v| m.iter().any(|t| t == (r, c, v));
        assert!(has(0, 1, 2.0));
        assert!(has(1, 2, 3.0));
    }

    #[test]
    fn empty_matrix_spmv_zeroes_output() {
        let m = Coo::new(2, 2).unwrap();
        let mut y = [9.0, 9.0];
        m.spmv(&[1.0, 1.0], &mut y);
        assert_eq!(y, [0.0, 0.0]);
    }
}
