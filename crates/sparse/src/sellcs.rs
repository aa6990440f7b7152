//! SELL-C-σ — the SIMD-friendly sliced-ELL format of Kreutzer et al.
//! (cited by the paper as `kreutzer2014unified`).
//!
//! Rows are sorted by length inside windows of `sigma` rows (limiting
//! how far a row can move from its original position), grouped into
//! chunks of `C` consecutive sorted rows, and each chunk is padded to
//! its own maximal length and stored **column-major** so a SIMD unit
//! processes `C` rows in lockstep. The extension format that
//! demonstrates the plug-and-play optimization pool.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::index_u32;
use crate::Result;

/// Column sentinel marking a padding slot.
pub const SELL_PAD: u32 = u32::MAX;

/// A sparse matrix in SELL-C-σ format.
#[derive(Debug, Clone, PartialEq)]
pub struct SellCs {
    nrows: usize,
    ncols: usize,
    chunk: usize,
    sigma: usize,
    /// Row permutation: `perm[i]` = original row stored at sorted
    /// position `i`.
    perm: Vec<u32>,
    /// Start of each chunk in `colind` / `values`.
    chunkptr: Vec<usize>,
    /// Width (max row length) of each chunk.
    chunk_width: Vec<u32>,
    /// Column indices, column-major within each chunk.
    colind: Vec<u32>,
    /// Values, column-major within each chunk.
    values: Vec<f64>,
    /// True (unpadded) nonzero count.
    nnz: usize,
}

impl SellCs {
    /// Converts from CSR with chunk size `chunk` (the SIMD width,
    /// typically 4–32) and sorting window `sigma >= chunk`.
    ///
    /// # Errors
    /// [`SparseError::InvalidGenerator`] when `chunk == 0` or
    /// `sigma < chunk`.
    pub fn from_csr(a: &Csr, chunk: usize, sigma: usize) -> Result<SellCs> {
        if chunk == 0 {
            return Err(SparseError::InvalidGenerator("chunk must be positive".into()));
        }
        if sigma < chunk {
            return Err(SparseError::InvalidGenerator(format!(
                "sigma {sigma} must be >= chunk {chunk}"
            )));
        }
        let nrows = a.nrows();
        // Sort rows by descending length within sigma windows.
        let mut perm: Vec<u32> = (0..index_u32(nrows)).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&i| std::cmp::Reverse(a.row_nnz(i as usize)));
        }
        let nchunks = nrows.div_ceil(chunk);
        let mut chunkptr = Vec::with_capacity(nchunks + 1);
        let mut chunk_width = Vec::with_capacity(nchunks);
        chunkptr.push(0usize);
        let mut colind = Vec::new();
        let mut values = Vec::new();
        for ci in 0..nchunks {
            let rows = &perm[ci * chunk..((ci + 1) * chunk).min(nrows)];
            let width = rows.iter().map(|&r| a.row_nnz(r as usize)).max().unwrap_or(0);
            chunk_width.push(index_u32(width));
            let base = colind.len();
            colind.resize(base + width * chunk, SELL_PAD);
            values.resize(base + width * chunk, 0.0);
            for (lane, &r) in rows.iter().enumerate() {
                let (cols, vals) = a.row(r as usize);
                for (k, &c) in cols.iter().enumerate() {
                    // Column-major: slot = base + k * chunk + lane.
                    colind[base + k * chunk + lane] = c;
                    values[base + k * chunk + lane] = vals[k];
                }
            }
            chunkptr.push(colind.len());
        }
        Ok(SellCs {
            nrows,
            ncols: a.ncols(),
            chunk,
            sigma,
            perm,
            chunkptr,
            chunk_width,
            colind,
            values,
            nnz: a.nnz(),
        })
    }

    /// Number of rows (original ordering).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True nonzero count (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Chunk height `C`.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Sorting window `σ`.
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of chunks.
    #[inline]
    pub fn nchunks(&self) -> usize {
        self.chunk_width.len()
    }

    /// Fraction of stored slots that are padding.
    pub fn padding_ratio(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.values.len() as f64
    }

    /// Memory footprint in bytes (slabs incl. padding + permutation +
    /// chunk metadata).
    pub fn footprint_bytes(&self) -> usize {
        self.colind.len() * 4
            + self.values.len() * 8
            + self.perm.len() * 4
            + self.chunkptr.len() * 8
            + self.chunk_width.len() * 4
    }

    /// Serial SpMV: `y = A x` (output in the original row ordering).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        self.spmv_chunks(0..self.nchunks(), x, y);
    }

    /// SpMV over a contiguous chunk range, scattering into `y` at the
    /// original row positions (disjoint across chunks, so parallel
    /// callers may partition by chunks).
    pub fn spmv_chunks(&self, chunks: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        self.spmv_chunks_scatter(chunks, x, &mut |row, value| y[row] = value);
    }

    /// SpMV over a contiguous chunk range, delivering each result as
    /// `scatter(original_row, value)`. Rows delivered by distinct
    /// chunks are disjoint (the permutation is a bijection), which
    /// lets parallel callers write through a shared raw pointer
    /// without materialising aliasing `&mut` slices.
    pub fn spmv_chunks_scatter(
        &self,
        chunks: std::ops::Range<usize>,
        x: &[f64],
        scatter: &mut dyn FnMut(usize, f64),
    ) {
        let c = self.chunk;
        let mut acc = vec![0.0f64; c];
        for ci in chunks {
            let base = self.chunkptr[ci];
            let width = self.chunk_width[ci] as usize;
            let lanes = c.min(self.nrows - ci * c);
            acc[..lanes].fill(0.0);
            for k in 0..width {
                let col_base = base + k * c;
                for (lane, a) in acc.iter_mut().enumerate().take(lanes) {
                    let col = self.colind[col_base + lane];
                    if col != SELL_PAD {
                        *a += self.values[col_base + lane] * x[col as usize];
                    }
                }
            }
            for (lane, &a) in acc.iter().enumerate().take(lanes) {
                scatter(self.perm[ci * c + lane] as usize, a);
            }
        }
    }

    /// Like [`SellCs::spmv_chunks_scatter`] with per-element bounds
    /// checks elided — the sliced-ELL fast path.
    ///
    /// # Safety
    /// * `self` must hold a structure that passed
    ///   [`crate::validate::ValidateFormat::validate_structure`]
    ///   (i.e. the caller holds a [`crate::Validated`] witness): slab
    ///   geometry is consistent, every stored column is `SELL_PAD` or
    ///   `< ncols`, and `perm` is a bijection on `0..nrows` (so rows
    ///   delivered by distinct chunks stay disjoint).
    /// * `chunks.end <= self.nchunks()`.
    /// * `x.len() == self.ncols()`.
    ///
    /// `scatter` receives original row indices `< nrows`, each at most
    /// once per call.
    pub unsafe fn spmv_chunks_scatter_unchecked(
        &self,
        chunks: std::ops::Range<usize>,
        x: &[f64],
        scatter: &mut dyn FnMut(usize, f64),
    ) {
        let c = self.chunk;
        let mut acc = vec![0.0f64; c];
        for ci in chunks {
            // SAFETY: the validated chunkptr/chunk_width have
            // nchunks + 1 / nchunks entries and the caller guarantees
            // chunks.end <= nchunks.
            let (base, width) = unsafe {
                (*self.chunkptr.get_unchecked(ci), *self.chunk_width.get_unchecked(ci) as usize)
            };
            let lanes = c.min(self.nrows - ci * c);
            acc[..lanes].fill(0.0);
            for k in 0..width {
                let col_base = base + k * c;
                for (lane, a) in acc.iter_mut().enumerate().take(lanes) {
                    // SAFETY: validation proved chunkptr[ci + 1] -
                    // chunkptr[ci] == width * chunk and colind/values have
                    // chunkptr[nchunks] entries, so col_base + lane is in
                    // bounds for both slabs.
                    let col = unsafe { *self.colind.get_unchecked(col_base + lane) };
                    if col != SELL_PAD {
                        // SAFETY: validation proved every non-pad column is
                        // < ncols, and the caller guarantees
                        // x.len() == ncols.
                        *a += unsafe {
                            *self.values.get_unchecked(col_base + lane)
                                * *x.get_unchecked(col as usize)
                        };
                    }
                }
            }
            for (lane, &a) in acc.iter().enumerate().take(lanes) {
                // SAFETY: perm has nrows entries (validated) and
                // ci * c + lane < nrows because lanes is clamped.
                scatter(unsafe { *self.perm.get_unchecked(ci * c + lane) } as usize, a);
            }
        }
    }

    /// Chunk pointer in *chunk* units for nnz-balanced partitioning:
    /// entry `i` is the number of stored slots before chunk `i`.
    pub fn chunk_slots_ptr(&self) -> &[usize] {
        &self.chunkptr
    }
}

impl crate::validate::ValidateFormat for SellCs {
    fn format_name(&self) -> &'static str {
        "sell-c-sigma"
    }

    fn validate_structure(&self) -> Result<()> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "sell-c-sigma", detail };
        if self.chunk == 0 {
            return Err(corrupt("chunk size is zero".into()));
        }
        let nchunks = self.nrows.div_ceil(self.chunk);
        if self.chunk_width.len() != nchunks {
            return Err(corrupt(format!(
                "chunk_width length {} != nchunks = {nchunks}",
                self.chunk_width.len()
            )));
        }
        crate::validate::check_rowptr("sell-c-sigma", &self.chunkptr, nchunks, self.colind.len())?;
        for ci in 0..nchunks {
            let slots = self.chunkptr[ci + 1] - self.chunkptr[ci];
            let want = self.chunk_width[ci] as usize * self.chunk;
            if slots != want {
                return Err(corrupt(format!(
                    "chunk {ci} holds {slots} slots but width * chunk = {want}"
                )));
            }
        }
        if self.values.len() != self.colind.len() {
            return Err(corrupt(format!(
                "values length {} != colind length {}",
                self.values.len(),
                self.colind.len()
            )));
        }
        for (k, &col) in self.colind.iter().enumerate() {
            if col != SELL_PAD && col as usize >= self.ncols {
                return Err(corrupt(format!(
                    "column index {col} at slot {k} >= ncols = {}",
                    self.ncols
                )));
            }
        }
        if self.perm.len() != self.nrows {
            return Err(corrupt(format!(
                "perm length {} != nrows = {}",
                self.perm.len(),
                self.nrows
            )));
        }
        let mut seen = vec![false; self.nrows];
        for &p in &self.perm {
            match seen.get_mut(p as usize) {
                Some(s) if !*s => *s = true,
                Some(_) => {
                    return Err(corrupt(format!("perm maps to row {p} twice; not a bijection")))
                }
                None => return Err(corrupt(format!("perm entry {p} >= nrows = {}", self.nrows))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_product(a: &Csr, chunk: usize, sigma: usize) -> SellCs {
        let s = SellCs::from_csr(a, chunk, sigma).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y1);
        s.spmv(&x, &mut y2);
        for (i, (u, v)) in y1.iter().zip(&y2).enumerate() {
            assert!((u - v).abs() < 1e-10, "C={chunk} σ={sigma} row {i}: {u} vs {v}");
        }
        s
    }

    #[test]
    fn rejects_bad_parameters() {
        let a = Csr::identity(8);
        assert!(SellCs::from_csr(&a, 0, 8).is_err());
        assert!(SellCs::from_csr(&a, 8, 4).is_err());
    }

    #[test]
    fn matches_csr_across_shapes() {
        let a = gen::powerlaw(500, 7, 1.9, 3).unwrap();
        for (c, s) in [(1, 1), (4, 4), (4, 64), (8, 128), (16, 500), (7, 21)] {
            check_product(&a, c, s);
        }
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        // Skewed row lengths: sorting within large windows groups
        // similar lengths together, shrinking chunk padding.
        let a = gen::powerlaw(4_000, 8, 1.7, 5).unwrap();
        let unsorted = SellCs::from_csr(&a, 8, 8).unwrap();
        let sorted = SellCs::from_csr(&a, 8, 1024).unwrap();
        assert!(
            sorted.padding_ratio() < unsorted.padding_ratio(),
            "{} vs {}",
            sorted.padding_ratio(),
            unsorted.padding_ratio()
        );
    }

    #[test]
    fn uniform_rows_have_no_padding() {
        let a = gen::random_uniform(256, 8, 1).unwrap();
        // every row has 8 or 9 nonzeros (incl. diagonal)
        let s = SellCs::from_csr(&a, 8, 64).unwrap();
        assert!(s.padding_ratio() < 0.15, "{}", s.padding_ratio());
    }

    #[test]
    fn ragged_tail_chunk() {
        let a = gen::banded(103, 3, 1.0, 7).unwrap(); // 103 % 8 != 0
        let s = check_product(&a, 8, 32);
        assert_eq!(s.nchunks(), 13);
        assert_eq!(s.nnz(), a.nnz());
    }

    #[test]
    fn chunk_range_partial_execution() {
        let a = gen::banded(64, 2, 1.0, 9).unwrap();
        let s = SellCs::from_csr(&a, 4, 16).unwrap();
        let x = vec![1.0; 64];
        let mut full = vec![0.0; 64];
        a.spmv(&x, &mut full);
        let mut y = vec![f64::NAN; 64];
        s.spmv_chunks(4..8, &x, &mut y); // sorted rows 16..32
        let mut written = 0;
        for i in 0..64 {
            if !y[i].is_nan() {
                assert!((y[i] - full[i]).abs() < 1e-12);
                written += 1;
            }
        }
        assert_eq!(written, 16);
    }

    #[test]
    fn footprint_accounts_padding_and_metadata() {
        let a = gen::powerlaw(300, 6, 2.0, 2).unwrap();
        let s = SellCs::from_csr(&a, 8, 64).unwrap();
        assert!(s.footprint_bytes() > a.values_bytes());
    }
}

#[cfg(test)]
mod corruption_proptests {
    use super::*;
    use crate::validate::{ValidateFormat, Validated};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every corruption of a well-formed SELL-C-σ buffer —
        /// including a broken permutation, which the parallel scatter
        /// relies on for write disjointness — is rejected by the
        /// witness constructor with an error, never a panic.
        #[test]
        fn corrupted_sellcs_is_rejected(n in 4usize..40, seed in 0u64..1000, kind in 0usize..4) {
            let a = crate::gen::banded(n, 2, 1.0, seed).expect("generator");
            let mut s = SellCs::from_csr(&a, 4, 16).expect("convertible");
            match kind {
                0 => *s.chunkptr.last_mut().unwrap() += 1,
                1 => s.colind[0] = s.ncols as u32,
                2 => s.perm[0] = s.perm[1],
                _ => s.chunk_width[0] += 1,
            }
            let err = s.validate_structure().expect_err("corruption must be caught");
            prop_assert!(err.to_string().contains("sell"), "got: {err}");
            prop_assert!(Validated::new(&s).is_err());
        }
    }
}
