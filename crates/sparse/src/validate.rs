//! Validated-format witnesses for the unsafe SpMV fast paths.
//!
//! The optimized kernels in `spmv-kernels` only beat plain CSR because
//! their inner loops skip per-element bounds checks. Skipping a check
//! is sound only if the *structure* guarantees it can never fail, and
//! that guarantee must come from somewhere: this module provides it as
//! a one-time `O(NNZ)` structural verification wrapped in a type-level
//! witness.
//!
//! * [`ValidateFormat`] — per-format structural verification: row
//!   pointers monotone and bounds-consistent, column indices inside
//!   `ncols`, delta streams that decode in-bounds, SELL-C-σ
//!   slice lengths and padding, decomposition row coverage
//!   exactly-once.
//! * [`Validated<F>`] — a witness that `validate_structure` succeeded
//!   on the wrapped value. Because every format's fields are private
//!   and its safe constructors preserve the invariants, the witness
//!   remains truthful for the lifetime of the wrapper. Every kernel
//!   constructor takes this witness, so each `// SAFETY:` comment can
//!   cite a *named, checked* invariant. A matrix is validated once,
//!   where it is made or received, and the witness (an `Arc` clone for
//!   shared CSR) travels to every kernel built from it.
//!
//! The checks here are the **safety-relevant** invariants only. For
//! CSR in particular, sortedness of column indices inside a row is a
//! format invariant but not a safety requirement of any fast path, and
//! the `P_ML` micro-benchmark deliberately builds constant-column rows
//! — so duplicate or unsorted columns still validate.

use std::sync::Arc;

use crate::error::SparseError;
use crate::Result;

/// Structural verification of a sparse-format value: `O(NNZ)` proof
/// that every index the format can produce during SpMV is in bounds.
pub trait ValidateFormat {
    /// Format name used in error messages and kernel diagnostics.
    fn format_name(&self) -> &'static str;

    /// Verifies every safety-relevant structural invariant.
    ///
    /// # Errors
    /// [`SparseError::Corrupt`] naming the first violated invariant.
    fn validate_structure(&self) -> Result<()>;
}

impl<T: ValidateFormat + ?Sized> ValidateFormat for &T {
    fn format_name(&self) -> &'static str {
        (**self).format_name()
    }

    fn validate_structure(&self) -> Result<()> {
        (**self).validate_structure()
    }
}

/// A shared handle validates as its target. A [`Validated`] witness
/// hands out only `&Arc<T>`, through which the target cannot be
/// mutated, so the verified structure stays verified.
impl<T: ValidateFormat + ?Sized> ValidateFormat for Arc<T> {
    fn format_name(&self) -> &'static str {
        (**self).format_name()
    }

    fn validate_structure(&self) -> Result<()> {
        (**self).validate_structure()
    }
}

/// Witness that [`ValidateFormat::validate_structure`] succeeded on
/// the wrapped value.
///
/// The only way to obtain a `Validated<F>` is through
/// [`Validated::new`], which runs the full structural verification.
/// Holders may therefore rely on the format's invariants in `unsafe`
/// code — this is the contract the kernels' fast paths cite.
#[derive(Debug, Clone)]
pub struct Validated<F>(F);

impl<F: ValidateFormat> Validated<F> {
    /// Verifies `format` and wraps it on success.
    ///
    /// # Errors
    /// [`SparseError::Corrupt`] describing the first violated
    /// invariant; the value is dropped.
    pub fn new(format: F) -> Result<Validated<F>> {
        format.validate_structure()?;
        Ok(Validated(format))
    }
}

impl<F> Validated<F> {
    /// The verified value.
    #[inline]
    pub fn get(&self) -> &F {
        &self.0
    }

    /// Unwraps the verified value.
    pub fn into_inner(self) -> F {
        self.0
    }
}

impl<F> std::ops::Deref for Validated<F> {
    type Target = F;

    fn deref(&self) -> &F {
        &self.0
    }
}

/// Shared helper: verifies a CSR-shaped row pointer against an
/// element-array length. Used by every rowptr-bearing format.
pub(crate) fn check_rowptr(
    format: &'static str,
    rowptr: &[usize],
    nrows: usize,
    nnz: usize,
) -> Result<()> {
    let corrupt = |detail: String| SparseError::Corrupt { format, detail };
    if rowptr.len() != nrows + 1 {
        return Err(corrupt(format!(
            "rowptr length {} != nrows + 1 = {}",
            rowptr.len(),
            nrows + 1
        )));
    }
    if rowptr[0] != 0 {
        return Err(corrupt(format!("rowptr[0] = {} != 0", rowptr[0])));
    }
    for i in 0..nrows {
        if rowptr[i] > rowptr[i + 1] {
            return Err(corrupt(format!("rowptr not monotone at row {i}")));
        }
    }
    if rowptr[nrows] != nnz {
        return Err(corrupt(format!("rowptr[nrows] = {} != nnz = {nnz}", rowptr[nrows])));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::{Csr, DecomposedCsr, DeltaCsr, SellCs};

    #[test]
    fn well_formed_formats_all_validate() {
        let a = gen::circuit(600, 2, 0.4, 5, 3).unwrap();
        assert!(Validated::new(&a).is_ok());
        let d = DeltaCsr::from_csr(&a).unwrap();
        assert!(Validated::new(&d).is_ok());
        let s = SellCs::from_csr(&a, 8, 64).unwrap();
        assert!(Validated::new(&s).is_ok());
        let dc = DecomposedCsr::split(&a, 16).unwrap();
        assert!(Validated::new(&dc).is_ok());
    }

    #[test]
    fn witness_derefs_to_the_format() {
        let a = Csr::identity(5);
        let v = Validated::new(&a).unwrap();
        assert_eq!(v.nrows(), 5);
        assert_eq!(v.get().nnz(), 5);
    }

    #[test]
    fn corrupt_error_is_descriptive() {
        let a = Csr::from_raw_unchecked(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 1.0]);
        let err = Validated::new(&a).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("csr"), "{msg}");
        assert!(msg.contains("rowptr"), "{msg}");
    }

    #[test]
    fn unsorted_columns_still_validate() {
        // The P_ML micro-benchmark builds constant-column rows; they
        // are not legal CSR but are safety-valid (all indices in
        // bounds), so the witness accepts them.
        let a = Csr::from_raw_unchecked(2, 4, vec![0, 3, 4], vec![1, 1, 1, 2], vec![1.0; 4]);
        assert!(Validated::new(&a).is_ok());
    }
}
