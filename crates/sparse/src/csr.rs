//! Compressed Sparse Row format — the baseline format of the paper.
//!
//! The `y = A·x` kernel over CSR (paper Fig. 2) is the object of all
//! optimizations in this workspace: every optimized kernel, bound
//! micro-benchmark and classifier operates on (or is derived from)
//! this representation.

use crate::coo::Coo;
use crate::error::SparseError;
use crate::index_u32;
use crate::Result;

/// A sparse matrix in Compressed Sparse Row format with `f64` values
/// and `u32` column indices.
///
/// Invariants (checked at construction):
/// * `rowptr.len() == nrows + 1`, `rowptr[0] == 0`,
///   `rowptr[nrows] == nnz`, monotone non-decreasing;
/// * `colind.len() == values.len() == nnz`;
/// * every column index is `< ncols`;
/// * within each row, column indices are strictly increasing (sorted,
///   no duplicates).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays, validating all invariants.
    ///
    /// # Errors
    /// * [`SparseError::InvalidRowPtr`] for malformed `rowptr`;
    /// * [`SparseError::LengthMismatch`] if `colind`/`values` disagree;
    /// * [`SparseError::IndexOutOfBounds`] for a column `>= ncols`;
    /// * [`SparseError::InvalidRowPtr`] if a row's columns are not
    ///   strictly increasing.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if rowptr.len() != nrows + 1 {
            return Err(SparseError::InvalidRowPtr(format!(
                "rowptr length {} != nrows + 1 = {}",
                rowptr.len(),
                nrows + 1
            )));
        }
        if rowptr[0] != 0 {
            return Err(SparseError::InvalidRowPtr(format!("rowptr[0] = {}", rowptr[0])));
        }
        if colind.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                detail: format!("colind={}, values={}", colind.len(), values.len()),
            });
        }
        if rowptr[nrows] != colind.len() {
            return Err(SparseError::InvalidRowPtr(format!(
                "rowptr[nrows] = {} != nnz = {}",
                rowptr[nrows],
                colind.len()
            )));
        }
        for i in 0..nrows {
            if rowptr[i] > rowptr[i + 1] {
                return Err(SparseError::InvalidRowPtr(format!("rowptr not monotone at row {i}")));
            }
            let row = &colind[rowptr[i]..rowptr[i + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c as usize >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: i,
                        col: c as usize,
                        nrows,
                        ncols,
                    });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(SparseError::InvalidRowPtr(format!(
                        "columns of row {i} not strictly increasing"
                    )));
                }
            }
        }
        Ok(Csr { nrows, ncols, rowptr, colind, values })
    }

    /// Builds a CSR matrix from raw arrays **without** validating the
    /// per-row column ordering (lengths and bounds are still checked
    /// in debug builds).
    ///
    /// Exists for benchmark kernels that deliberately construct
    /// degenerate structures — e.g. the paper's `P_ML` micro-benchmark
    /// sets every column index of a row to the row index, which is not
    /// a legal CSR pattern but is exactly what must be executed.
    /// `spmv` remains memory-safe for any in-bounds indices.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(rowptr.len(), nrows + 1);
        debug_assert_eq!(colind.len(), values.len());
        debug_assert!(colind.iter().all(|&c| (c as usize) < ncols.max(1)));
        Csr { nrows, ncols, rowptr, colind, values }
    }

    /// Converts a COO matrix, sorting entries row-major and summing
    /// duplicates. Runs in `O(NNZ + N)` (counting sort on rows, then
    /// per-row sort by column).
    pub fn from_coo(coo: &Coo) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let nnz_in = coo.nnz();

        // Counting sort by row.
        let mut counts = vec![0usize; nrows + 1];
        for &r in coo.row_indices() {
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<u32> = vec![0; nnz_in];
        {
            let mut next = counts.clone();
            let rows = coo.row_indices();
            for (k, &r) in rows.iter().enumerate() {
                order[next[r as usize]] = index_u32(k);
                next[r as usize] += 1;
            }
        }

        let cols_in = coo.col_indices();
        let vals_in = coo.values();
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colind: Vec<u32> = Vec::with_capacity(nnz_in);
        let mut values: Vec<f64> = Vec::with_capacity(nnz_in);
        let mut rowbuf: Vec<(u32, f64)> = Vec::new();
        for i in 0..nrows {
            rowbuf.clear();
            for &k in &order[counts[i]..counts[i + 1]] {
                rowbuf.push((cols_in[k as usize], vals_in[k as usize]));
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            // Sum duplicates.
            let mut j = 0;
            while j < rowbuf.len() {
                let c = rowbuf[j].0;
                let mut v = rowbuf[j].1;
                j += 1;
                while j < rowbuf.len() && rowbuf[j].0 == c {
                    v += rowbuf[j].1;
                    j += 1;
                }
                colind.push(c);
                values.push(v);
            }
            rowptr.push(colind.len());
        }
        Csr { nrows, ncols, rowptr, colind, values }
    }

    /// Builds an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colind: (0..index_u32(n)).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored nonzero elements.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column index array.
    #[inline]
    pub fn colind(&self) -> &[u32] {
        &self.colind
    }

    /// Nonzero value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
        (&self.colind[s..e], &self.values[s..e])
    }

    /// Iterates over rows as `(row_index, cols, vals)`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[u32], &[f64])> + '_ {
        (0..self.nrows).map(move |i| {
            let (c, v) = self.row(i);
            (i, c, v)
        })
    }

    /// Serial reference SpMV: `y = A * x` (paper Fig. 2).
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for j in self.rowptr[i]..self.rowptr[i + 1] {
                sum += self.values[j] * x[self.colind[j] as usize];
            }
            *yi = sum;
        }
    }

    /// Transposes the matrix in `O(NNZ + N)`.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.colind {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut rowptr_t = counts.clone();
        let nnz = self.nnz();
        let mut colind_t = vec![0u32; nnz];
        let mut values_t = vec![0.0f64; nnz];
        let mut next = counts;
        for i in 0..self.nrows {
            for j in self.rowptr[i]..self.rowptr[i + 1] {
                let c = self.colind[j] as usize;
                let dst = next[c];
                next[c] += 1;
                colind_t[dst] = index_u32(i);
                values_t[dst] = self.values[j];
            }
        }
        rowptr_t.truncate(self.ncols + 1);
        // counts was cloned before mutation; recompute final pointer.
        rowptr_t[self.ncols] = nnz;
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr: rowptr_t,
            colind: colind_t,
            values: values_t,
        }
    }

    /// Converts back to COO (row-major order).
    pub fn to_coo(&self) -> Coo {
        let mut rows = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            rows.extend(std::iter::repeat_n(index_u32(i), self.row_nnz(i)));
        }
        Coo::from_triplets(self.nrows, self.ncols, rows, self.colind.clone(), self.values.clone())
            .expect("CSR invariants imply valid COO")
    }

    /// Extracts the main diagonal (missing entries read as zero).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for (i, item) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            if let Ok(k) = cols.binary_search(&index_u32(i)) {
                *item = vals[k];
            }
        }
        d
    }

    /// Value at `(row, col)`, or 0.0 when not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&index_u32(col)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Whether the sparsity pattern and values are symmetric (within
    /// `tol` relative tolerance). `O(NNZ log nnz_row)`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (k, &c) in cols.iter().enumerate() {
                let v = vals[k];
                let vt = self.get(c as usize, i);
                let scale = v.abs().max(vt.abs()).max(1.0);
                if (v - vt).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// Memory footprint in bytes of the CSR representation
    /// (`rowptr` as 8-byte + `colind` as 4-byte + `values` as 8-byte),
    /// the `S_format` quantity of the paper's bound analysis.
    pub fn footprint_bytes(&self) -> usize {
        (self.nrows + 1) * std::mem::size_of::<usize>()
            + self.nnz() * std::mem::size_of::<u32>()
            + self.nnz() * std::mem::size_of::<f64>()
    }

    /// Footprint in bytes of the values array alone (`S_values`), the
    /// index-free lower bound used for `P_peak`.
    pub fn values_bytes(&self) -> usize {
        self.nnz() * std::mem::size_of::<f64>()
    }

    /// Consumes the matrix, returning `(nrows, ncols, rowptr, colind,
    /// values)`.
    pub fn into_raw(self) -> (usize, usize, Vec<usize>, Vec<u32>, Vec<f64>) {
        (self.nrows, self.ncols, self.rowptr, self.colind, self.values)
    }
}

impl crate::validate::ValidateFormat for Csr {
    fn format_name(&self) -> &'static str {
        "csr"
    }

    /// Safety-relevant invariants only: row-pointer shape and column
    /// bounds. Per-row column *ordering* is a format invariant but no
    /// fast path relies on it (and [`Csr::from_raw_unchecked`] callers
    /// like the `P_ML` micro-benchmark deliberately violate it), so it
    /// is not checked here.
    fn validate_structure(&self) -> Result<()> {
        crate::validate::check_rowptr("csr", &self.rowptr, self.nrows, self.colind.len())?;
        if self.colind.len() != self.values.len() {
            return Err(SparseError::Corrupt {
                format: "csr",
                detail: format!(
                    "colind length {} != values length {}",
                    self.colind.len(),
                    self.values.len()
                ),
            });
        }
        for (k, &c) in self.colind.iter().enumerate() {
            if c as usize >= self.ncols {
                return Err(SparseError::Corrupt {
                    format: "csr",
                    detail: format!("column index {c} at position {k} >= ncols = {}", self.ncols),
                });
            }
        }
        Ok(())
    }
}

/// Splits rows into `nparts` contiguous ranges of roughly equal nnz.
///
/// Each boundary is chosen so a partition ends as soon as it has
/// reached `ceil(nnz / nparts)` nonzeros; trailing partitions may be
/// empty for extremely skewed matrices.
pub fn partition_rows_by_nnz(rowptr: &[usize], nparts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(nparts > 0, "nparts must be positive");
    let nrows = rowptr.len() - 1;
    let nnz = rowptr[nrows];
    let target = nnz.div_ceil(nparts.max(1)).max(1);
    let mut ranges = Vec::with_capacity(nparts);
    let mut start = 0usize;
    for p in 0..nparts {
        if start >= nrows {
            ranges.push(start..start);
            continue;
        }
        if p == nparts - 1 {
            ranges.push(start..nrows);
            start = nrows;
            continue;
        }
        // Find the smallest end such that nnz(start..end) >= target.
        let want = rowptr[start] + target;
        let mut end = match rowptr[start + 1..=nrows].binary_search(&want) {
            Ok(k) => start + 1 + k,
            Err(k) => start + 1 + k,
        };
        end = end.min(nrows).max(start + 1);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 3 0]
        // [4 5 6]
        Csr::from_raw(
            3,
            3,
            vec![0, 2, 3, 6],
            vec![0, 2, 1, 0, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn from_raw_validates_rowptr() {
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // An empty second row is perfectly valid.
        assert!(Csr::from_raw(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
    }

    #[test]
    fn from_raw_rejects_bad_columns() {
        // column out of range
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 2], vec![1.0, 1.0]).is_err());
        // duplicate column in a row
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // unsorted column in a row
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn from_coo_sorts_and_sums() {
        let mut coo = Coo::new(2, 3).unwrap();
        coo.push(1, 2, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(1, 0, 3.0).unwrap();
        coo.push(0, 1, 4.0).unwrap(); // duplicate
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row(0), (&[1u32][..], &[6.0][..]));
        assert_eq!(csr.row(1), (&[0u32, 2][..], &[3.0, 1.0][..]));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, [7.0, 6.0, 32.0]);
    }

    #[test]
    fn spmv_matches_coo_reference() {
        let m = sample();
        let coo = m.to_coo();
        let x = [0.5, -1.0, 2.0];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        m.spmv(&x, &mut y1);
        coo.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(0, 2), 4.0);
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn identity_and_diagonal() {
        let id = Csr::identity(4);
        assert_eq!(id.nnz(), 4);
        assert_eq!(id.diagonal(), vec![1.0; 4]);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        id.spmv(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn symmetry_detection() {
        let id = Csr::identity(3);
        assert!(id.is_symmetric(1e-12));
        let m = sample();
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn footprints() {
        let m = sample();
        assert_eq!(m.values_bytes(), 6 * 8);
        assert_eq!(m.footprint_bytes(), 4 * 8 + 6 * 4 + 6 * 8);
    }

    #[test]
    fn partition_balances_nnz() {
        // Rows with nnz: 1, 1, 8, 1, 1 -> 2 parts should split after row 2.
        let rowptr = vec![0, 1, 2, 10, 11, 12];
        let parts = partition_rows_by_nnz(&rowptr, 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], 0..3);
        assert_eq!(parts[1], 3..5);
    }

    #[test]
    fn partition_covers_all_rows_disjointly() {
        let m = sample();
        for nparts in 1..6 {
            let parts = partition_rows_by_nnz(m.rowptr(), nparts);
            assert_eq!(parts.len(), nparts);
            let mut next = 0;
            for r in &parts {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, m.nrows());
        }
    }

    #[test]
    fn partition_more_parts_than_rows() {
        let rowptr = vec![0, 3, 5];
        let parts = partition_rows_by_nnz(&rowptr, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert_eq!(parts.last().unwrap().end, 2);
    }

    #[test]
    fn get_missing_is_zero() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 3.0);
    }
}

#[cfg(test)]
mod corruption_proptests {
    use crate::validate::{ValidateFormat, Validated};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every corruption of a well-formed CSR buffer is rejected by
        /// the witness constructor with an error — never a panic.
        #[test]
        fn corrupted_csr_is_rejected(n in 2usize..40, seed in 0u64..1000, kind in 0usize..4) {
            let mut a = crate::gen::banded(n, 2, 1.0, seed).expect("generator");
            match kind {
                0 => *a.rowptr.last_mut().unwrap() += 1,
                1 => a.colind[0] = a.ncols as u32,
                2 => { a.values.pop(); }
                _ => a.rowptr[1] = a.values.len() + 1,
            }
            let err = a.validate_structure().expect_err("corruption must be caught");
            prop_assert!(err.to_string().contains("csr"), "got: {err}");
            prop_assert!(Validated::new(&a).is_err());
        }

        /// Untouched generator output always passes validation.
        #[test]
        fn well_formed_csr_validates(n in 1usize..40, seed in 0u64..1000) {
            let a = crate::gen::banded(n, 2, 0.8, seed).expect("generator");
            prop_assert!(a.validate_structure().is_ok());
        }
    }
}
