//! Long-row matrix decomposition — the paper's `IMB`-class
//! optimization for matrices with highly uneven row lengths.
//!
//! The matrix is split into two parts (paper Fig. 5 / Fig. 6):
//!
//! 1. a **short part** containing every row except the long ones
//!    (long rows stay present but empty, so `y` indexing is direct);
//! 2. a **long part** listing the dense rows; during SpMV *every*
//!    thread computes a chunk of each long row and a reduction of
//!    partial sums follows.
//!
//! The paper keeps the long-row elements in place and skips them via
//! per-row offsets; we instead materialise the two parts in separate
//! arrays. The traversal order, work division and arithmetic are
//! identical, the preprocessing cost is the same `O(NNZ)` copy, and
//! the memory footprint differs only by the (negligible) duplicated
//! row pointers, so the performance behaviour the paper attributes to
//! this optimization is preserved.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::index_u32;
use crate::Result;

/// One long (dense) row extracted from the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LongRow {
    /// Original row index in the matrix.
    pub row: u32,
    /// Start of this row's slice in the long-part arrays.
    pub start: usize,
    /// End (exclusive) of this row's slice in the long-part arrays.
    pub end: usize,
}

/// A CSR matrix decomposed into a short part and a long-row part.
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposedCsr {
    short: Csr,
    long_rows: Vec<LongRow>,
    long_colind: Vec<u32>,
    long_values: Vec<f64>,
    threshold: usize,
}

impl DecomposedCsr {
    /// Splits `a`: rows with more than `threshold` nonzeros go to the
    /// long part.
    ///
    /// # Errors
    /// [`SparseError::InvalidGenerator`] when `threshold == 0` (every
    /// nonzero row would be "long", which defeats the decomposition).
    pub fn split(a: &Csr, threshold: usize) -> Result<DecomposedCsr> {
        if threshold == 0 {
            return Err(SparseError::InvalidGenerator(
                "decomposition threshold must be >= 1".into(),
            ));
        }
        let nrows = a.nrows();
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::new();
        let mut values = Vec::new();
        let mut long_rows = Vec::new();
        let mut long_colind = Vec::new();
        let mut long_values = Vec::new();
        for (i, cols, vals) in a.rows() {
            if cols.len() > threshold {
                let start = long_colind.len();
                long_colind.extend_from_slice(cols);
                long_values.extend_from_slice(vals);
                long_rows.push(LongRow { row: index_u32(i), start, end: long_colind.len() });
            } else {
                colind.extend_from_slice(cols);
                values.extend_from_slice(vals);
            }
            rowptr.push(colind.len());
        }
        let short = Csr::from_raw(nrows, a.ncols(), rowptr, colind, values)
            .expect("split preserves CSR invariants");
        Ok(DecomposedCsr { short, long_rows, long_colind, long_values, threshold })
    }

    /// Chooses a threshold the way the paper's optimizer does: a row is
    /// long when it exceeds both a multiple of the average row length
    /// and a fair per-thread share of the work. Returns `None` when
    /// the matrix has no such outlier rows (decomposition not
    /// worthwhile).
    pub fn auto_threshold(a: &Csr, nthreads: usize) -> Option<usize> {
        let n = a.nrows();
        if n == 0 || a.nnz() == 0 {
            return None;
        }
        let avg = a.nnz() as f64 / n as f64;
        let share = a.nnz() as f64 / nthreads.max(1) as f64;
        // A row qualifies as "long" when serialising it on one thread
        // would claim a substantial fraction of that thread's fair
        // share of work (and is far above the average row).
        let threshold = (avg * 16.0).max(share * 0.2).ceil() as usize;
        let threshold = threshold.max(1);
        let any_long = (0..n).any(|i| a.row_nnz(i) > threshold);
        any_long.then_some(threshold)
    }

    /// The short part (long rows present but empty).
    #[inline]
    pub fn short(&self) -> &Csr {
        &self.short
    }

    /// The extracted long rows.
    #[inline]
    pub fn long_rows(&self) -> &[LongRow] {
        &self.long_rows
    }

    /// Column indices of the long part.
    #[inline]
    pub fn long_colind(&self) -> &[u32] {
        &self.long_colind
    }

    /// Values of the long part.
    #[inline]
    pub fn long_values(&self) -> &[f64] {
        &self.long_values
    }

    /// Threshold used for the split.
    #[inline]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.short.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.short.ncols()
    }

    /// Total nonzeros across both parts.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.short.nnz() + self.long_values.len()
    }

    /// Nonzeros in the long part.
    #[inline]
    pub fn long_nnz(&self) -> usize {
        self.long_values.len()
    }

    /// Serial two-phase SpMV (paper Fig. 6): short rows first, then
    /// each long row.
    ///
    /// # Panics
    /// Panics on vector length mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.short.spmv(x, y);
        for lr in &self.long_rows {
            let mut sum = 0.0;
            for j in lr.start..lr.end {
                sum += self.long_values[j] * x[self.long_colind[j] as usize];
            }
            y[lr.row as usize] = sum;
        }
    }

    /// Computes the partial dot product of long row `lr` over the
    /// element sub-range `chunk` (relative to `lr.start`), the unit of
    /// work given to each thread in the parallel reduction.
    pub fn long_row_partial(&self, lr: &LongRow, chunk: std::ops::Range<usize>, x: &[f64]) -> f64 {
        let s = lr.start + chunk.start;
        let e = (lr.start + chunk.end).min(lr.end);
        let mut sum = 0.0;
        for j in s..e {
            sum += self.long_values[j] * x[self.long_colind[j] as usize];
        }
        sum
    }

    /// Like [`DecomposedCsr::long_row_partial`] with per-element
    /// bounds checks elided — the long-row reduction fast path.
    ///
    /// # Safety
    /// * `self` must hold a structure that passed
    ///   [`crate::validate::ValidateFormat::validate_structure`]
    ///   (i.e. the caller holds a [`crate::Validated`] witness): long
    ///   rows are chained slices inside the long-part arrays and every
    ///   long column index is `< ncols`.
    /// * `lr` must be one of `self.long_rows()`.
    /// * `x.len() == self.ncols()`.
    pub unsafe fn long_row_partial_unchecked(
        &self,
        lr: &LongRow,
        chunk: std::ops::Range<usize>,
        x: &[f64],
    ) -> f64 {
        let s = lr.start + chunk.start;
        let e = (lr.start + chunk.end).min(lr.end);
        let mut sum = 0.0;
        for j in s..e {
            // SAFETY: validation proved lr.end <= long_colind.len() ==
            // long_values.len() and every long column < ncols == x.len()
            // (caller contract), and j < lr.end by the loop bound.
            sum += unsafe {
                *self.long_values.get_unchecked(j)
                    * *x.get_unchecked(*self.long_colind.get_unchecked(j) as usize)
            };
        }
        sum
    }

    /// Reassembles the original matrix (used by tests).
    pub fn to_csr(&self) -> Csr {
        let mut coo = self.short.to_coo();
        for lr in &self.long_rows {
            for j in lr.start..lr.end {
                coo.push(lr.row as usize, self.long_colind[j] as usize, self.long_values[j])
                    .expect("long-part indices are in range");
            }
        }
        Csr::from_coo(&coo)
    }
}

impl crate::validate::ValidateFormat for DecomposedCsr {
    fn format_name(&self) -> &'static str {
        "decomposed-csr"
    }

    fn validate_structure(&self) -> Result<()> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "decomposed-csr", detail };
        crate::validate::ValidateFormat::validate_structure(&self.short)
            .map_err(|e| corrupt(format!("short part: {e}")))?;
        if self.long_colind.len() != self.long_values.len() {
            return Err(corrupt(format!(
                "long_colind length {} != long_values length {}",
                self.long_colind.len(),
                self.long_values.len()
            )));
        }
        for (j, &c) in self.long_colind.iter().enumerate() {
            if c as usize >= self.ncols() {
                return Err(corrupt(format!(
                    "long column index {c} at position {j} >= ncols = {}",
                    self.ncols()
                )));
            }
        }
        // Long rows must chain through the long-part arrays without
        // gaps or overlap, and each covered row must be empty in the
        // short part — together this makes row coverage exactly-once.
        let mut cursor = 0usize;
        for (k, lr) in self.long_rows.iter().enumerate() {
            if lr.start != cursor {
                return Err(corrupt(format!(
                    "long row {k} starts at {} but the previous slice ended at {cursor}",
                    lr.start
                )));
            }
            if lr.end < lr.start {
                return Err(corrupt(format!(
                    "long row {k} has end {} < start {}",
                    lr.end, lr.start
                )));
            }
            cursor = lr.end;
            let row = lr.row as usize;
            if row >= self.nrows() {
                return Err(corrupt(format!(
                    "long row {k} names row {row} >= nrows = {}",
                    self.nrows()
                )));
            }
            if self.short.row_nnz(row) != 0 {
                return Err(corrupt(format!("row {row} appears in both the short and long parts")));
            }
        }
        if cursor != self.long_colind.len() {
            return Err(corrupt(format!(
                "long rows cover {cursor} elements but the long part stores {}",
                self.long_colind.len()
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for lr in &self.long_rows {
            if !seen.insert(lr.row) {
                return Err(corrupt(format!("row {} listed as long twice", lr.row)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    /// n-row matrix with one dense row 0 and unit diagonal elsewhere.
    fn skewed(n: usize) -> Csr {
        let mut coo = Coo::new(n, n).unwrap();
        for c in 0..n {
            coo.push(0, c, 1.0).unwrap();
        }
        for i in 1..n {
            coo.push(i, i, 2.0).unwrap();
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn split_extracts_long_rows() {
        let a = skewed(100);
        let d = DecomposedCsr::split(&a, 10).unwrap();
        assert_eq!(d.long_rows().len(), 1);
        assert_eq!(d.long_rows()[0].row, 0);
        assert_eq!(d.long_nnz(), 100);
        assert_eq!(d.short().row_nnz(0), 0);
        assert_eq!(d.nnz(), a.nnz());
    }

    #[test]
    fn zero_threshold_rejected() {
        let a = skewed(4);
        assert!(DecomposedCsr::split(&a, 0).is_err());
    }

    #[test]
    fn spmv_matches_plain_csr() {
        let a = skewed(64);
        let d = DecomposedCsr::split(&a, 8).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut y_ref = vec![0.0; 64];
        let mut y = vec![0.0; 64];
        a.spmv(&x, &mut y_ref);
        d.spmv(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_to_csr() {
        let a = skewed(32);
        let d = DecomposedCsr::split(&a, 4).unwrap();
        assert_eq!(d.to_csr(), a);
    }

    #[test]
    fn auto_threshold_detects_skew() {
        let a = skewed(4096);
        assert!(DecomposedCsr::auto_threshold(&a, 64).is_some());
        let id = Csr::identity(4096);
        assert!(DecomposedCsr::auto_threshold(&id, 64).is_none());
    }

    #[test]
    fn auto_threshold_none_for_balanced() {
        assert!(DecomposedCsr::auto_threshold(&Csr::identity(128), 8).is_none());
    }

    #[test]
    fn long_row_partials_sum_to_row_value() {
        let a = skewed(100);
        let d = DecomposedCsr::split(&a, 10).unwrap();
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        let lr = &d.long_rows()[0];
        let len = lr.end - lr.start;
        let mut total = 0.0;
        let chunk = 7;
        let mut s = 0;
        while s < len {
            total += d.long_row_partial(lr, s..(s + chunk).min(len), &x);
            s += chunk;
        }
        let mut y = vec![0.0; 100];
        a.spmv(&x, &mut y);
        assert!((total - y[0]).abs() < 1e-9);
    }

    #[test]
    fn threshold_boundary_row_stays_short() {
        // Row with exactly `threshold` nonzeros is NOT long.
        let mut coo = Coo::new(2, 8).unwrap();
        for c in 0..4 {
            coo.push(0, c, 1.0).unwrap();
        }
        coo.push(1, 0, 1.0).unwrap();
        let a = Csr::from_coo(&coo);
        let d = DecomposedCsr::split(&a, 4).unwrap();
        assert!(d.long_rows().is_empty());
        let d2 = DecomposedCsr::split(&a, 3).unwrap();
        assert_eq!(d2.long_rows().len(), 1);
    }
}
