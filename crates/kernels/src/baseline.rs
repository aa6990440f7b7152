//! Baseline parallel CSR SpMV kernel.
//!
//! This is the paper's reference implementation: plain CSR traversal
//! (Fig. 2) with a static one-dimensional row partitioning where each
//! thread receives approximately equal nonzeros. All optimized
//! kernels are measured against it.
//!
//! Every row loop here and in [`crate::vectorized`],
//! [`crate::prefetch`] and [`crate::micro`] exists once, as an
//! `unsafe` entry point with its bounds checks elided, and runs only
//! under a [`spmv_sparse::Validated`] witness, which every kernel
//! constructor takes. Each format's checked serial `spmv` is the
//! tests' oracle only.

use std::ops::Range;
use std::sync::Arc;

use spmv_sparse::{Csr, Validated};

use crate::engine::Plan;
use crate::micro::MicroSpec;
use crate::prefetch::{
    row_sum_prefetch_unchecked, row_sum_unrolled_prefetch_unchecked, PREFETCH_DIST,
};
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::SpmvKernel;
use crate::vectorized::row_sum_unrolled_unchecked;

/// Inner-loop flavor of a CSR-like kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerLoop {
    /// Scalar accumulation, one element at a time.
    Scalar,
    /// 4-way unrolled with independent accumulators (vectorizable).
    Unrolled,
    /// Scalar with software prefetch of `x[colind[j + dist]]`.
    Prefetch,
    /// Unrolled + prefetch.
    UnrolledPrefetch,
    /// Explicit microkernel from the menu (see [`crate::micro`]):
    /// either `core::arch` SIMD (proven available at spec
    /// construction) or its bitwise-identical scalar model.
    Micro(MicroSpec),
}

impl InnerLoop {
    /// Combines vectorization/prefetch flags into a flavor.
    pub fn from_flags(unroll: bool, prefetch: bool) -> InnerLoop {
        match (unroll, prefetch) {
            (false, false) => InnerLoop::Scalar,
            (true, false) => InnerLoop::Unrolled,
            (false, true) => InnerLoop::Prefetch,
            (true, true) => InnerLoop::UnrolledPrefetch,
        }
    }

    /// Computes the dot product of one sparse row with `x`, with
    /// per-element bounds checks elided.
    ///
    /// # Safety
    /// `cols.len() == vals.len()` and every entry of `cols` indexes in
    /// bounds of `x` — guaranteed when the row comes from a
    /// [`spmv_sparse::Validated`] CSR witness and `x.len() == ncols`.
    /// For a SIMD [`InnerLoop::Micro`] flavor, columns must
    /// additionally fit in `i32` (see [`crate::micro::gather_compatible`];
    /// enforced by [`CsrKernel::with_options`] at construction).
    #[inline(always)]
    pub unsafe fn row_sum_unchecked(self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        // SAFETY: each arm forwards the caller's contract unchanged.
        unsafe {
            match self {
                InnerLoop::Scalar => row_sum_scalar_unchecked(cols, vals, x),
                InnerLoop::Unrolled => row_sum_unrolled_unchecked(cols, vals, x),
                InnerLoop::Prefetch => row_sum_prefetch_unchecked(cols, vals, x, PREFETCH_DIST),
                InnerLoop::UnrolledPrefetch => {
                    row_sum_unrolled_prefetch_unchecked(cols, vals, x, PREFETCH_DIST)
                }
                InnerLoop::Micro(spec) => spec.row_sum_unchecked(cols, vals, x),
            }
        }
    }
}

/// Scalar row dot product (the paper's Fig. 2 inner loop) with the
/// gather bounds check elided.
///
/// # Safety
/// Every entry of `cols` must index in bounds of `x` — guaranteed
/// when the row comes from a [`spmv_sparse::Validated`] CSR witness
/// and `x.len() == ncols`.
#[inline(always)]
pub unsafe fn row_sum_scalar_unchecked(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (c, v) in cols.iter().zip(vals) {
        // SAFETY: the validated column is < x.len() (contract).
        sum += v * unsafe { *x.get_unchecked(*c as usize) };
    }
    sum
}

/// Parallel CSR SpMV kernel.
///
/// Holds a precomputed [`Plan`] (partition + persistent worker pool),
/// so repeated [`run`](SpmvKernel::run) calls pay neither thread
/// spawning nor partition recomputation. The matrix is shared, not
/// copied, and not re-checked: the kernel keeps a clone of the
/// caller's [`Validated`] witness (one `Arc` clone), which admits the
/// parallel unchecked fast path.
#[derive(Debug)]
pub struct CsrKernel {
    a: Validated<Arc<Csr>>,
    plan: Plan,
    flavor: InnerLoop,
    /// Dispatch label threaded into the engine's trace events:
    /// `micro:<id>` for the menu's row kernels, empty otherwise.
    label: String,
}

impl CsrKernel {
    /// Creates the paper's baseline: scalar inner loop, nnz-balanced
    /// static partitioning.
    pub fn baseline(a: &Validated<Arc<Csr>>, nthreads: usize) -> CsrKernel {
        CsrKernel::with_options(a, nthreads, Schedule::NnzBalanced, InnerLoop::Scalar)
    }

    /// Creates a kernel with explicit schedule and flavor.
    ///
    /// A SIMD [`InnerLoop::Micro`] spec whose gather cannot address
    /// the matrix's columns (`ncols > i32::MAX`) is downgraded to its
    /// bitwise-identical scalar fallback, preserving the unchecked
    /// contract of [`InnerLoop::row_sum_unchecked`].
    pub fn with_options(
        a: &Validated<Arc<Csr>>,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> CsrKernel {
        let (flavor, label) = match flavor {
            InnerLoop::Micro(spec) => {
                let spec = if crate::micro::gather_compatible(a.ncols()) {
                    spec
                } else {
                    spec.scalar_fallback()
                };
                (InnerLoop::Micro(spec), format!("micro:{}", spec.id()))
            }
            // The classic unrolled loop is the menu's `csr/unrolled`.
            InnerLoop::Unrolled => (flavor, "micro:csr/unrolled".to_string()),
            _ => (flavor, String::new()),
        };
        let plan = Plan::new(schedule, a.rowptr(), nthreads);
        CsrKernel { a: a.clone(), plan, flavor, label }
    }

    /// Creates a kernel running a menu microkernel (see
    /// [`crate::micro`]); shorthand for [`CsrKernel::with_options`]
    /// with [`InnerLoop::Micro`].
    pub fn micro(
        a: &Validated<Arc<Csr>>,
        nthreads: usize,
        schedule: Schedule,
        spec: MicroSpec,
    ) -> CsrKernel {
        CsrKernel::with_options(a, nthreads, schedule, InnerLoop::Micro(spec))
    }

    fn worker(&self, a: &Validated<Arc<Csr>>, range: Range<usize>, x: &[f64], y: YPtr) {
        let flavor = self.flavor;
        for i in range {
            let (cols, vals) = a.row(i);
            // SAFETY: `a` is a Validated witness and `run_timed`
            // asserted `x.len() == ncols` (row_sum_unchecked's contract);
            // `execute` hands each worker disjoint row ranges and `y`
            // points at a live buffer of `nrows` elements.
            unsafe { y.write(i, flavor.row_sum_unchecked(cols, vals, x)) };
        }
    }
}

impl SpmvKernel for CsrKernel {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        assert_eq!(x.len(), self.a.ncols(), "x length");
        assert_eq!(y.len(), self.a.nrows(), "y length");
        let yp = YPtr(y.as_mut_ptr());
        self.plan.execute_labeled(&self.label, |range| {
            self.worker(&self.a, range, x, yp);
        })
    }

    fn name(&self) -> String {
        format!("csr[{:?},{:?}]", self.flavor, self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn format_bytes(&self) -> usize {
        self.a.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;

    fn random_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    fn assert_matches_serial(a: &Csr, kernel: &dyn SpmvKernel) {
        let x = random_x(a.ncols(), 1);
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        kernel.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-10, "row {i}: {u} vs {v}");
        }
    }

    #[test]
    fn baseline_matches_serial_reference() {
        let a = Validated::new(Arc::new(gen::banded(500, 4, 0.8, 3).unwrap())).unwrap();
        for nthreads in [1, 2, 4, 7] {
            assert_matches_serial(&a, &CsrKernel::baseline(&a, nthreads));
        }
    }

    #[test]
    fn all_flavors_and_schedules_match() {
        let a = Validated::new(Arc::new(gen::powerlaw(800, 6, 2.0, 5).unwrap())).unwrap();
        for flavor in [
            InnerLoop::Scalar,
            InnerLoop::Unrolled,
            InnerLoop::Prefetch,
            InnerLoop::UnrolledPrefetch,
        ] {
            for schedule in [Schedule::NnzBalanced, Schedule::Guided] {
                let k = CsrKernel::with_options(&a, 4, schedule, flavor);
                assert_matches_serial(&a, &k);
            }
        }
    }

    #[test]
    fn run_timed_reports_all_threads() {
        let a = Validated::new(Arc::new(gen::banded(300, 2, 1.0, 9).unwrap())).unwrap();
        let k = CsrKernel::baseline(&a, 3);
        let x = vec![1.0; 300];
        let mut y = vec![0.0; 300];
        let t = k.run_timed(&x, &mut y);
        assert_eq!(t.seconds.len(), 3);
        assert!(t.seconds.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = Validated::new(Arc::new(
            Csr::from_raw(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![5.0, 7.0]).unwrap(),
        ))
        .unwrap();
        let k = CsrKernel::baseline(&a, 2);
        let mut y = vec![9.0; 3];
        k.run(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 0.0, 7.0]);
    }

    #[test]
    fn gflops_helper() {
        let a = Validated::new(Arc::new(Csr::identity(4))).unwrap();
        let k = CsrKernel::baseline(&a, 1);
        // 2*nnz flops in 1 second = 8 flops/s
        assert!((k.gflops(1.0, a.nnz()) - 8e-9).abs() < 1e-18);
    }
}
