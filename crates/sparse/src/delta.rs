//! Delta-compressed CSR — the paper's `MB`-class optimization.
//!
//! Column indices are stored as deltas from the previous nonzero in
//! the same row (the first nonzero of each row is stored absolutely).
//! Following Pooch & Nieder as adopted by the paper, deltas are either
//! **8-bit or 16-bit, never both**, "in order to limit the branching
//! overhead during SpMV computation". Deltas that do not fit the
//! chosen width escape to a 32-bit side stream through a sentinel
//! value, so every matrix remains representable.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::Result;

/// Width of the delta stream. One width per matrix (paper: "8- or
/// 16-bit deltas wherever possible, but never both").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaWidth {
    /// 1-byte deltas, sentinel `u8::MAX`.
    U8,
    /// 2-byte deltas, sentinel `u16::MAX`.
    U16,
}

impl DeltaWidth {
    /// Bytes per stored delta.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            DeltaWidth::U8 => 1,
            DeltaWidth::U16 => 2,
        }
    }

    /// Largest delta representable without escaping.
    #[inline]
    pub fn max_inline(self) -> u32 {
        match self {
            DeltaWidth::U8 => u32::from(u8::MAX) - 1,
            DeltaWidth::U16 => u32::from(u16::MAX) - 1,
        }
    }
}

/// Delta stream storage, one variant per [`DeltaWidth`].
#[derive(Debug, Clone, PartialEq)]
enum Deltas {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

impl Deltas {
    fn len(&self) -> usize {
        match self {
            Deltas::U8(v) => v.len(),
            Deltas::U16(v) => v.len(),
        }
    }
}

/// CSR with delta-compressed column indices.
///
/// Layout:
/// * `rowptr` — as in CSR, indexes both `values` and the delta stream;
/// * `firstcol[i]` — absolute column of the first nonzero of row `i`
///   (0 for empty rows);
/// * `deltas[j]` — gap to the previous column for the 2nd.. nonzeros
///   of a row; the first slot of each row is a padding 0 so streams
///   stay aligned with `values`;
/// * sentinel deltas escape to `exceptions`, consumed in row-major
///   order; `exc_ptr[i]` points at row `i`'s first exception.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCsr {
    nrows: usize,
    ncols: usize,
    width: DeltaWidth,
    rowptr: Vec<usize>,
    firstcol: Vec<u32>,
    deltas: Deltas,
    exceptions: Vec<u32>,
    exc_ptr: Vec<u32>,
    values: Vec<f64>,
}

impl DeltaCsr {
    /// Compresses `a` with an automatically chosen delta width: the
    /// width with the smaller total footprint wins (8-bit unless the
    /// escape traffic makes 16-bit cheaper).
    ///
    /// # Errors
    /// See [`DeltaCsr::with_width`].
    pub fn from_csr(a: &Csr) -> Result<DeltaCsr> {
        let (n8, n16) = count_escapes(a);
        let nnz = a.nnz();
        let cost8 = nnz + 4 * n8; // bytes: 1/delta + 4/escape
        let cost16 = 2 * nnz + 4 * n16;
        let width = if cost8 <= cost16 { DeltaWidth::U8 } else { DeltaWidth::U16 };
        Self::with_width(a, width)
    }

    /// Compresses `a` with an explicit delta width. All narrowing is
    /// checked: a delta that does not fit the chosen stream escapes,
    /// and anything that cannot be represented at all (non-monotone
    /// rows from [`Csr::from_raw_unchecked`], an exception count
    /// overflowing the 32-bit cursor) is an error rather than a
    /// silent wrap.
    ///
    /// # Errors
    /// [`SparseError::Corrupt`] if a row's columns decrease (delta
    /// compression requires sorted rows) or an index stream would
    /// overflow its storage type.
    pub fn with_width(a: &Csr, width: DeltaWidth) -> Result<DeltaCsr> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "delta-csr", detail };
        let nrows = a.nrows();
        let nnz = a.nnz();
        let max_inline = width.max_inline();
        let mut firstcol = Vec::with_capacity(nrows);
        let mut exceptions: Vec<u32> = Vec::new();
        let mut exc_ptr = Vec::with_capacity(nrows + 1);
        let mut d8 = Vec::new();
        let mut d16 = Vec::new();
        match width {
            DeltaWidth::U8 => d8.reserve(nnz),
            DeltaWidth::U16 => d16.reserve(nnz),
        }
        let mut push = |v: u32| -> Result<()> {
            match width {
                DeltaWidth::U8 => d8.push(u8::try_from(v).map_err(|_| SparseError::Corrupt {
                    format: "delta-csr",
                    detail: format!("delta {v} does not fit the 8-bit stream"),
                })?),
                DeltaWidth::U16 => {
                    d16.push(u16::try_from(v).map_err(|_| SparseError::Corrupt {
                        format: "delta-csr",
                        detail: format!("delta {v} does not fit the 16-bit stream"),
                    })?)
                }
            }
            Ok(())
        };
        let sentinel = match width {
            DeltaWidth::U8 => u32::from(u8::MAX),
            DeltaWidth::U16 => u32::from(u16::MAX),
        };
        let cursor = |n: usize| {
            u32::try_from(n)
                .map_err(|_| corrupt("exception count overflows the 32-bit cursor".into()))
        };
        for (i, cols, _) in a.rows() {
            exc_ptr.push(cursor(exceptions.len())?);
            firstcol.push(cols.first().copied().unwrap_or(0));
            for (k, &c) in cols.iter().enumerate() {
                if k == 0 {
                    push(0)?; // alignment padding; column is in firstcol
                    continue;
                }
                let gap = c.checked_sub(cols[k - 1]).ok_or_else(|| {
                    corrupt(format!(
                        "columns of row {i} decrease at position {k}; \
                         delta compression requires sorted rows"
                    ))
                })?;
                if gap <= max_inline {
                    push(gap)?;
                } else {
                    push(sentinel)?;
                    exceptions.push(gap);
                }
            }
        }
        exc_ptr.push(cursor(exceptions.len())?);
        Ok(DeltaCsr {
            nrows,
            ncols: a.ncols(),
            width,
            rowptr: a.rowptr().to_vec(),
            firstcol,
            deltas: match width {
                DeltaWidth::U8 => Deltas::U8(d8),
                DeltaWidth::U16 => Deltas::U16(d16),
            },
            exceptions,
            exc_ptr,
            values: a.values().to_vec(),
        })
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Chosen delta width.
    #[inline]
    pub fn width(&self) -> DeltaWidth {
        self.width
    }

    /// Row pointer array.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Nonzero values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of escaped (sentinel) deltas.
    #[inline]
    pub fn n_exceptions(&self) -> usize {
        self.exceptions.len()
    }

    /// Memory footprint in bytes of the compressed representation —
    /// the `S_format` that enters the `P_MB` bound when this format is
    /// selected.
    pub fn footprint_bytes(&self) -> usize {
        (self.nrows + 1) * std::mem::size_of::<usize>()
            + self.nrows * std::mem::size_of::<u32>()          // firstcol
            + self.deltas.len() * self.width.bytes()
            + self.exceptions.len() * std::mem::size_of::<u32>()
            + (self.nrows + 1) * std::mem::size_of::<u32>()    // exc_ptr
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Compression ratio of index data relative to plain CSR
    /// (`< 1.0` means the compressed form is smaller).
    pub fn index_compression_ratio(&self, original: &Csr) -> f64 {
        self.footprint_bytes() as f64 / original.footprint_bytes() as f64
    }

    /// Serial SpMV over the compressed format: `y = A * x`.
    ///
    /// # Panics
    /// Panics if vector lengths do not match the matrix shape.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        match &self.deltas {
            Deltas::U8(d) => self.spmv_impl(x, y, d, u32::from(u8::MAX), |v| u32::from(*v)),
            Deltas::U16(d) => self.spmv_impl(x, y, d, u32::from(u16::MAX), |v| u32::from(*v)),
        }
    }

    /// SpMV over a contiguous row range writing into a range-local
    /// output slice, `out[k] = (A*x)[rows.start + k]`, with every
    /// per-element bounds check elided — the compressed-format fast
    /// path. The range-local output lets parallel callers hand each
    /// worker a disjoint `&mut` sub-slice of `y`.
    ///
    /// # Safety
    /// * `self` must hold a structure that passed
    ///   [`crate::validate::ValidateFormat::validate_structure`]
    ///   (i.e. the caller holds a [`crate::Validated`] witness): the
    ///   delta streams decode strictly in-bounds and the exception
    ///   cursor never overruns.
    /// * `rows.end <= self.nrows()`.
    /// * `x.len() == self.ncols()`.
    /// * `out.len() == rows.len()`.
    pub unsafe fn spmv_rows_into_unchecked(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        out: &mut [f64],
    ) {
        match &self.deltas {
            // SAFETY: forwarded contract; sentinel matches the stream width.
            Deltas::U8(d) => unsafe {
                self.spmv_rows_into_unchecked_impl(rows, x, out, d, u32::from(u8::MAX))
            },
            // SAFETY: forwarded contract; sentinel matches the stream width.
            Deltas::U16(d) => unsafe {
                self.spmv_rows_into_unchecked_impl(rows, x, out, d, u32::from(u16::MAX))
            },
        }
    }

    /// # Safety
    /// Same contract as [`DeltaCsr::spmv_rows_into_unchecked`];
    /// additionally `deltas`/`sentinel` must be the matrix's own
    /// stream and its width's sentinel.
    unsafe fn spmv_rows_into_unchecked_impl<T: Copy + Into<u32>>(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        out: &mut [f64],
        deltas: &[T],
        sentinel: u32,
    ) {
        let start = rows.start;
        for i in rows {
            // SAFETY: the validated rowptr has nrows + 1 entries and the
            // caller guarantees rows.end <= nrows, so i and i + 1 are in
            // bounds for rowptr and i is in bounds for exc_ptr/firstcol.
            let (s, e, mut exc, mut col) = unsafe {
                (
                    *self.rowptr.get_unchecked(i),
                    *self.rowptr.get_unchecked(i + 1),
                    *self.exc_ptr.get_unchecked(i) as usize,
                    *self.firstcol.get_unchecked(i),
                )
            };
            let mut sum = 0.0;
            for j in s..e {
                if j > s {
                    // SAFETY: the validated rowptr is monotone with
                    // rowptr[nrows] == deltas.len(), so j < deltas.len().
                    let d: u32 = unsafe { *deltas.get_unchecked(j) }.into();
                    let gap = if d == sentinel {
                        // SAFETY: validation decoded every stream and
                        // proved the exception cursor stays within
                        // exceptions.len() for each sentinel consumed.
                        let g = unsafe { *self.exceptions.get_unchecked(exc) };
                        exc += 1;
                        g
                    } else {
                        d
                    };
                    col += gap;
                }
                // SAFETY: j < values.len() as above; validation decoded
                // this exact stream and proved col < ncols at every
                // element, and the caller guarantees x.len() == ncols.
                sum += unsafe { *self.values.get_unchecked(j) * *x.get_unchecked(col as usize) };
            }
            // SAFETY: i - start < rows.len() <= out.len() by contract.
            unsafe {
                *out.get_unchecked_mut(i - start) = sum;
            }
        }
    }

    #[inline]
    fn spmv_impl<T>(
        &self,
        x: &[f64],
        y: &mut [f64],
        deltas: &[T],
        sentinel: u32,
        widen: impl Fn(&T) -> u32,
    ) {
        for (i, yi) in y.iter_mut().enumerate() {
            let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
            let mut exc = self.exc_ptr[i] as usize;
            let mut col = self.firstcol[i];
            let mut sum = 0.0;
            // Indexed loop: `j` addresses `deltas` and `values` in
            // lockstep while threading the exception cursor.
            #[allow(clippy::needless_range_loop)]
            for j in s..e {
                if j > s {
                    let d = widen(&deltas[j]);
                    let gap = if d == sentinel {
                        let g = self.exceptions[exc];
                        exc += 1;
                        g
                    } else {
                        d
                    };
                    col += gap;
                }
                sum += self.values[j] * x[col as usize];
            }
            *yi = sum;
        }
    }

    /// Decompresses back to plain CSR (exact structural roundtrip).
    ///
    /// # Errors
    /// Propagates validation errors; a successful compression always
    /// roundtrips.
    pub fn to_csr(&self) -> Result<Csr> {
        let mut colind = Vec::with_capacity(self.nnz());
        match &self.deltas {
            Deltas::U8(d) => {
                self.decode_into(&mut colind, d, u32::from(u8::MAX), |v| u32::from(*v))
            }
            Deltas::U16(d) => {
                self.decode_into(&mut colind, d, u32::from(u16::MAX), |v| u32::from(*v))
            }
        }
        Csr::from_raw(self.nrows, self.ncols, self.rowptr.clone(), colind, self.values.clone())
    }

    fn decode_into<T>(
        &self,
        colind: &mut Vec<u32>,
        deltas: &[T],
        sentinel: u32,
        widen: impl Fn(&T) -> u32,
    ) {
        for i in 0..self.nrows {
            let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
            let mut exc = self.exc_ptr[i] as usize;
            let mut col = self.firstcol[i];
            // Indexed loop: `j` addresses `deltas` while threading the
            // exception cursor.
            #[allow(clippy::needless_range_loop)]
            for j in s..e {
                if j > s {
                    let d = widen(&deltas[j]);
                    col += if d == sentinel {
                        let g = self.exceptions[exc];
                        exc += 1;
                        g
                    } else {
                        d
                    };
                }
                colind.push(col);
            }
        }
    }

    /// Validates internal consistency (used by property tests).
    ///
    /// # Errors
    /// [`SparseError::LengthMismatch`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        if self.rowptr.len() != self.nrows + 1 {
            return Err(SparseError::LengthMismatch { detail: "rowptr".into() });
        }
        if self.deltas.len() != self.values.len() {
            return Err(SparseError::LengthMismatch { detail: "deltas vs values".into() });
        }
        if self.exc_ptr.len() != self.nrows + 1 {
            return Err(SparseError::LengthMismatch { detail: "exc_ptr".into() });
        }
        if *self.exc_ptr.last().unwrap() as usize != self.exceptions.len() {
            return Err(SparseError::LengthMismatch { detail: "exc_ptr tail".into() });
        }
        Ok(())
    }

    /// Full decode check behind [`crate::validate::ValidateFormat`]:
    /// replays every delta stream and proves each decoded column is in
    /// bounds and the exception cursor advances exactly as `exc_ptr`
    /// claims.
    fn validate_decode<T: Copy + Into<u32>>(&self, deltas: &[T], sentinel: u32) -> Result<()> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "delta-csr", detail };
        let mut exc = 0usize;
        for i in 0..self.nrows {
            if self.exc_ptr[i] as usize != exc {
                return Err(corrupt(format!(
                    "exc_ptr[{i}] = {} but {exc} exceptions consumed before row {i}",
                    self.exc_ptr[i]
                )));
            }
            let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
            // Accumulate in u64 so a corrupted stream cannot wrap the
            // column accumulator past the bounds check.
            let mut col = u64::from(self.firstcol[i]);
            // Indexed loop: `j` addresses `deltas` while threading the
            // exception cursor.
            #[allow(clippy::needless_range_loop)]
            for j in s..e {
                if j > s {
                    let d: u32 = deltas[j].into();
                    col += if d == sentinel {
                        let g = self.exceptions.get(exc).copied().ok_or_else(|| {
                            corrupt(format!(
                                "row {i} consumes more exceptions than the {} stored",
                                self.exceptions.len()
                            ))
                        })?;
                        exc += 1;
                        u64::from(g)
                    } else {
                        u64::from(d)
                    };
                }
                if col >= self.ncols as u64 {
                    return Err(corrupt(format!(
                        "row {i} decodes column {col} >= ncols = {}",
                        self.ncols
                    )));
                }
            }
        }
        if exc != self.exceptions.len() {
            return Err(corrupt(format!(
                "{} exceptions stored but only {exc} consumed by the streams",
                self.exceptions.len()
            )));
        }
        if self.exc_ptr[self.nrows] as usize != exc {
            return Err(corrupt(format!(
                "exc_ptr tail = {} but the streams consume {exc} exceptions",
                self.exc_ptr[self.nrows]
            )));
        }
        Ok(())
    }
}

impl crate::validate::ValidateFormat for DeltaCsr {
    fn format_name(&self) -> &'static str {
        "delta-csr"
    }

    fn validate_structure(&self) -> Result<()> {
        let corrupt = |detail: String| SparseError::Corrupt { format: "delta-csr", detail };
        crate::validate::check_rowptr("delta-csr", &self.rowptr, self.nrows, self.values.len())?;
        if self.deltas.len() != self.values.len() {
            return Err(corrupt(format!(
                "delta stream length {} != values length {}",
                self.deltas.len(),
                self.values.len()
            )));
        }
        if self.firstcol.len() != self.nrows {
            return Err(corrupt(format!(
                "firstcol length {} != nrows = {}",
                self.firstcol.len(),
                self.nrows
            )));
        }
        if self.exc_ptr.len() != self.nrows + 1 {
            return Err(corrupt(format!(
                "exc_ptr length {} != nrows + 1 = {}",
                self.exc_ptr.len(),
                self.nrows + 1
            )));
        }
        match &self.deltas {
            Deltas::U8(d) => self.validate_decode(d, u32::from(u8::MAX)),
            Deltas::U16(d) => self.validate_decode(d, u32::from(u16::MAX)),
        }
    }
}

/// Counts deltas that would escape at 8- and 16-bit widths.
fn count_escapes(a: &Csr) -> (usize, usize) {
    let mut n8 = 0;
    let mut n16 = 0;
    for (_, cols, _) in a.rows() {
        for w in cols.windows(2) {
            let gap = w[1] - w[0];
            if gap > DeltaWidth::U8.max_inline() {
                n8 += 1;
            }
            if gap > DeltaWidth::U16.max_inline() {
                n16 += 1;
            }
        }
    }
    (n8, n16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::validate::Validated;

    fn banded(n: usize, band: usize) -> Csr {
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            for c in i.saturating_sub(band)..(i + band + 1).min(n) {
                coo.push(i, c, (i + c) as f64 + 1.0).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    fn scattered(n: usize, stride: usize) -> Csr {
        let mut coo = Coo::new(n, n * stride).unwrap();
        for i in 0..n {
            for k in 0..8.min(n) {
                coo.push(i, k * stride, 1.0 + k as f64).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn banded_picks_u8_and_roundtrips() {
        let a = banded(64, 2);
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert_eq!(d.width(), DeltaWidth::U8);
        assert_eq!(d.n_exceptions(), 0);
        assert_eq!(d.to_csr().unwrap(), a);
        d.validate().unwrap();
    }

    #[test]
    fn scattered_needs_escapes_or_u16() {
        let a = scattered(16, 1000);
        let d8 = DeltaCsr::with_width(&a, DeltaWidth::U8).unwrap();
        assert!(d8.n_exceptions() > 0);
        assert_eq!(d8.to_csr().unwrap(), a);
        let d16 = DeltaCsr::with_width(&a, DeltaWidth::U16).unwrap();
        assert_eq!(d16.n_exceptions(), 0);
        assert_eq!(d16.to_csr().unwrap(), a);
    }

    #[test]
    fn auto_width_minimizes_footprint() {
        let a = scattered(16, 70000); // gaps exceed u16 as well
        let auto = DeltaCsr::from_csr(&a).unwrap();
        let d8 = DeltaCsr::with_width(&a, DeltaWidth::U8).unwrap();
        let d16 = DeltaCsr::with_width(&a, DeltaWidth::U16).unwrap();
        assert!(auto.footprint_bytes() <= d8.footprint_bytes().min(d16.footprint_bytes()) + 1);
    }

    #[test]
    fn spmv_matches_csr() {
        for a in [banded(50, 3), scattered(20, 700)] {
            let d = DeltaCsr::from_csr(&a).unwrap();
            let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
            let mut y_ref = vec![0.0; a.nrows()];
            let mut y = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y_ref);
            d.spmv(&x, &mut y);
            for (u, v) in y.iter().zip(&y_ref) {
                assert!((u - v).abs() < 1e-12, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn spmv_rows_partial_range() {
        // The scattered matrix's 700-column gaps escape at 8 bits, so
        // the U8 stream also walks the exception cursor.
        for a in [banded(32, 1), scattered(32, 700)] {
            let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 5) as f64 - 2.0).collect();
            let mut y_full = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y_full);
            for width in [DeltaWidth::U8, DeltaWidth::U16] {
                let d = Validated::new(DeltaCsr::with_width(&a, width).unwrap()).unwrap();
                let mut out = vec![f64::NAN; 16];
                // SAFETY: `d` is a Validated witness, 8..24 lies within
                // its 32 rows, x.len() == ncols and out.len() == 16 ==
                // rows.len().
                unsafe { d.spmv_rows_into_unchecked(8..24, &x, &mut out) };
                assert_eq!(out, y_full[8..24], "{width:?}");
            }
        }
    }

    #[test]
    fn compression_shrinks_regular_matrices() {
        let a = banded(256, 4);
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert!(d.index_compression_ratio(&a) < 1.0);
    }

    #[test]
    fn empty_rows_handled() {
        let mut coo = Coo::new(4, 4).unwrap();
        coo.push(0, 3, 2.0).unwrap();
        coo.push(3, 0, 5.0).unwrap();
        let a = Csr::from_coo(&coo);
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert_eq!(d.to_csr().unwrap(), a);
        let mut y = vec![0.0; 4];
        d.spmv(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [2.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn exact_boundary_gap_stays_inline() {
        // gap of exactly max_inline must not escape
        let mut coo = Coo::new(1, 300).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 254, 1.0).unwrap(); // u8 max_inline = 254
        let a = Csr::from_coo(&coo);
        let d = DeltaCsr::with_width(&a, DeltaWidth::U8).unwrap();
        assert_eq!(d.n_exceptions(), 0);
        let mut coo2 = Coo::new(1, 300).unwrap();
        coo2.push(0, 0, 1.0).unwrap();
        coo2.push(0, 255, 1.0).unwrap(); // gap 255 = sentinel -> escapes
        let a2 = Csr::from_coo(&coo2);
        let d2 = DeltaCsr::with_width(&a2, DeltaWidth::U8).unwrap();
        assert_eq!(d2.n_exceptions(), 1);
        assert_eq!(d2.to_csr().unwrap(), a2);
    }
}

#[cfg(test)]
mod corruption_proptests {
    use super::*;
    use crate::validate::{ValidateFormat, Validated};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every corruption of a well-formed delta-CSR buffer is
        /// rejected by the witness constructor with an error — never a
        /// panic (and in particular never an out-of-bounds decode).
        #[test]
        fn corrupted_delta_is_rejected(n in 2usize..40, seed in 0u64..1000, kind in 0usize..4) {
            let a = crate::gen::banded(n, 2, 1.0, seed).expect("generator");
            let mut d = DeltaCsr::from_csr(&a).expect("encodable");
            match kind {
                0 => *d.rowptr.last_mut().unwrap() += 1,
                1 => d.firstcol[0] = d.ncols as u32,
                2 => { d.values.pop(); }
                _ => *d.exc_ptr.last_mut().unwrap() += 1,
            }
            let err = d.validate_structure().expect_err("corruption must be caught");
            prop_assert!(err.to_string().contains("delta"), "got: {err}");
            prop_assert!(Validated::new(&d).is_err());
        }

        /// Wide random matrices exercise the escape path; truncating
        /// the exception stream must be caught by the cursor check.
        #[test]
        fn truncated_exceptions_are_rejected(n in 64usize..200, seed in 0u64..200) {
            let a = crate::gen::random_uniform(n, 12, seed).expect("generator");
            let mut d = DeltaCsr::from_csr(&a).expect("encodable");
            if d.n_exceptions() == 0 {
                // Dense enough not to escape; nothing to truncate.
                return;
            }
            d.exceptions.pop();
            prop_assert!(d.validate_structure().is_err());
        }
    }
}
