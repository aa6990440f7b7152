//! Multi-vector CSR SpMM kernel for request batching.
//!
//! The serving plane (see `crates/serve`) coalesces concurrent SpMV
//! requests against the same registered matrix into one sparse
//! matrix × dense block product `Y = A · X`: the matrix is streamed
//! once for the whole batch instead of once per request, amortizing
//! the dominant memory traffic the same way Nagasaka & Azad's KNL
//! sparse-product kernels do. With `k` coalesced requests the kernel
//! performs `k` dependent accumulations per matrix element at the
//! cost of one traversal, so at equal thread count the batched path
//! moves `(bytes_A / k + bytes_xy)` per request instead of
//! `(bytes_A + bytes_xy)`.
//!
//! # Layout
//!
//! [`SpmmKernel::run_multi`] takes `k` *separate* vectors and reads
//! and writes them in place: requests arrive and results leave as
//! independent vectors, and transposing them into one interleaved
//! block would cost two extra passes over `O(n·k)` data per batch —
//! serial work comparable to the traversal the batch was meant to
//! save.
//!
//! # Determinism contract
//!
//! Every output element is accumulated in the *same order* as the
//! serial reference [`Csr::spmv`]: per row, per request, column by
//! column. Results are therefore **bitwise identical** to `k`
//! independent serial SpMVs regardless of thread count or batch
//! composition — the property the serving plane's exact mode
//! advertises, and what lets batching be transparent to clients. At
//! `k = 1` the kernel is the exact single-request kernel.

use std::ops::Range;
use std::sync::Arc;

use spmv_sparse::{Csr, Validated};

use crate::baseline::InnerLoop;
use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};

/// Largest batch width the serving scheduler coalesces. The kernel
/// itself accepts any `k`; this is the sizing hint shared with the
/// request scheduler so accumulator stripes stay register-friendly.
pub const MAX_BATCH: usize = 8;

/// Parallel CSR × dense-block kernel (`Y = A · X`, `k` vectors).
///
/// Holds a precomputed [`Plan`] like the single-vector kernels, so a
/// registered matrix pays partitioning once and serves batches of any
/// width from the warm pool.
pub struct SpmmKernel {
    a: Validated<Arc<Csr>>,
    plan: Plan,
}

impl SpmmKernel {
    /// Builds a batch kernel over the process-wide engine for
    /// `nthreads`, with the same nnz-balanced row partition as the
    /// baseline SpMV kernel. Keeps a clone of the caller's witness.
    pub fn new(a: &Validated<Arc<Csr>>, nthreads: usize) -> SpmmKernel {
        let plan = Plan::new(Schedule::NnzBalanced, a.rowptr(), nthreads);
        SpmmKernel { a: a.clone(), plan }
    }

    /// Rows of the underlying matrix.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Columns of the underlying matrix.
    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// Computes `y_j = A · x_j` for `k` independent vectors: each
    /// `xs[j]` is read in place and each `ys[j]` written directly, so
    /// a caller holding per-request vectors pays zero transpose
    /// passes.
    ///
    /// Accumulation order per vector is the serial reference's (row
    /// by row, column by column), so every `ys[j]` is bitwise
    /// identical to `A.spmv(xs[j])` regardless of thread count or
    /// batch composition.
    ///
    /// # Panics
    /// On shape mismatch, `k == 0`, or `xs.len() != ys.len()`.
    pub fn run_multi(&self, xs: &[&[f64]], ys: &mut [Vec<f64>]) -> ThreadTimes {
        let k = xs.len();
        assert!(k > 0, "batch width must be at least 1");
        assert_eq!(ys.len(), k, "one output vector per input vector");
        for x in xs {
            assert_eq!(x.len(), self.a.ncols(), "x length");
        }
        for y in ys.iter() {
            assert_eq!(y.len(), self.a.nrows(), "y length");
        }
        let yps: Vec<YPtr> = ys.iter_mut().map(|y| YPtr(y.as_mut_ptr())).collect();
        self.plan.execute_labeled("spmm", |range| {
            multi_worker(&self.a, range, xs, &yps);
        })
    }
}

/// One worker's share of the batch product: whole rows, every
/// `ys[j][i]` written by exactly one thread. The row's column/value
/// slices stay cache-hot across the `k` passes, so the matrix still
/// streams from memory once per batch.
fn multi_worker(a: &Validated<Arc<Csr>>, range: Range<usize>, xs: &[&[f64]], ys: &[YPtr]) {
    for i in range {
        let (cols, vals) = a.row(i);
        for (x, y) in xs.iter().zip(ys) {
            // SAFETY: `a` is a Validated witness and
            // `run_multi` asserted `x.len() == ncols`, so every column
            // is in bounds of `x` (row_sum_unchecked's contract). The
            // plan hands each worker disjoint row ranges and every
            // `ys[j]` points at a live `nrows` buffer, so `ys[j][i]` is
            // written exclusively by this worker and stays in bounds.
            unsafe { y.write(i, InnerLoop::Scalar.row_sum_unchecked(cols, vals, x)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    /// Deterministic pseudo-random vector (no RNG dependency needed).
    fn lcg_x(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    fn assert_bitwise_matches_serial(a: &Validated<Arc<Csr>>, nthreads: usize, k: usize) {
        let xs: Vec<Vec<f64>> = (0..k).map(|j| lcg_x(a.ncols(), j as u64 + 1)).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; a.nrows()]).collect();
        let kernel = SpmmKernel::new(a, nthreads);
        kernel.run_multi(&x_refs, &mut ys);
        for (j, (x, y)) in xs.iter().zip(&ys).enumerate() {
            let mut y_ref = vec![0.0; a.nrows()];
            a.spmv(x, &mut y_ref);
            for (i, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {i} vector {j} diverges from serial reference"
                );
            }
        }
    }

    #[test]
    fn run_multi_is_bitwise_serial_without_transposes() {
        let a = Validated::new(Arc::new(gen::banded(400, 5, 0.9, 7).unwrap())).unwrap();
        for nthreads in [1, 3, 4] {
            for k in [1, 2, 4, MAX_BATCH] {
                assert_bitwise_matches_serial(&a, nthreads, k);
            }
        }
    }

    #[test]
    fn powerlaw_batch_matches_serial() {
        let a = Validated::new(Arc::new(gen::powerlaw(600, 7, 2.0, 11).unwrap())).unwrap();
        assert_bitwise_matches_serial(&a, 4, 6);
    }

    #[test]
    fn empty_rows_zero_every_vector() {
        let a = Validated::new(Arc::new(
            Csr::from_raw(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![5.0, 7.0]).unwrap(),
        ))
        .unwrap();
        let xs = [vec![1.0; 3], vec![2.0; 3], vec![0.5; 3]];
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![9.0; 3]; 3];
        SpmmKernel::new(&a, 2).run_multi(&x_refs, &mut ys);
        assert_eq!(ys[0], [5.0, 0.0, 7.0]); // row 1 is empty
        assert_eq!(ys[1], [10.0, 0.0, 14.0]);
        assert_eq!(ys[2], [2.5, 0.0, 3.5]);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn shape_mismatch_panics() {
        let a = Validated::new(Arc::new(Csr::identity(4))).unwrap();
        let x = [1.0; 7];
        let mut ys = vec![vec![0.0; 4]; 2];
        SpmmKernel::new(&a, 1).run_multi(&[&x, &x], &mut ys);
    }
}
