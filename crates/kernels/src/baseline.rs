//! Baseline parallel CSR SpMV kernel.
//!
//! This is the paper's reference implementation: plain CSR traversal
//! (Fig. 2) with a static one-dimensional row partitioning where each
//! thread receives approximately equal nonzeros. All optimized
//! kernels are measured against it.

use std::ops::Range;

use spmv_sparse::{Csr, MaybeValidated};

use crate::engine::Plan;
use crate::micro::MicroSpec;
use crate::prefetch::PREFETCH_DIST;
use crate::prefetch::{
    row_sum_prefetch, row_sum_prefetch_unchecked, row_sum_unrolled_prefetch,
    row_sum_unrolled_prefetch_unchecked,
};
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::SpmvKernel;
use crate::vectorized::{row_sum_unrolled, row_sum_unrolled_unchecked};

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

    /// Computes the dot product of one sparse row with `x`.
    #[inline(always)]
    pub fn row_sum(self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        match self {
            InnerLoop::Scalar => row_sum_scalar(cols, vals, x),
            InnerLoop::Unrolled => row_sum_unrolled(cols, vals, x),
            InnerLoop::Prefetch => row_sum_prefetch(cols, vals, x, PREFETCH_DIST),
            InnerLoop::UnrolledPrefetch => row_sum_unrolled_prefetch(cols, vals, x, PREFETCH_DIST),
            InnerLoop::Micro(spec) => spec.row_sum(cols, vals, x),
        }
    }

    /// [`InnerLoop::row_sum`] with per-element bounds checks elided.
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

/// Scalar row dot product (the paper's Fig. 2 inner loop).
#[inline(always)]
pub fn row_sum_scalar(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (c, v) in cols.iter().zip(vals) {
        sum += v * x[*c as usize];
    }
    sum
}

/// [`row_sum_scalar`] with the gather bounds check elided.
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
/// spawning nor partition recomputation.
///
/// The matrix is structurally verified once at construction: a
/// [`spmv_sparse::Validated`] witness admits the parallel unchecked
/// fast path, while a matrix that fails verification silently falls
/// back to the serial fully-checked [`Csr::spmv`] (correct for any
/// in-bounds structure, and panics rather than corrupting memory on
/// anything worse).
#[derive(Debug)]
pub struct CsrKernel<'a> {
    a: MaybeValidated<&'a Csr>,
    plan: Plan,
    flavor: InnerLoop,
    /// Dispatch label threaded into the engine's trace events:
    /// `micro:<id>` for the menu's row kernels, empty otherwise.
    label: String,
}

impl<'a> CsrKernel<'a> {
    /// Creates the paper's baseline: scalar inner loop, nnz-balanced
    /// static partitioning.
    pub fn baseline(a: &'a Csr, nthreads: usize) -> CsrKernel<'a> {
        CsrKernel::with_options(a, nthreads, Schedule::NnzBalanced, InnerLoop::Scalar)
    }

    /// Creates a kernel with explicit schedule and flavor.
    ///
    /// A SIMD [`InnerLoop::Micro`] spec whose gather cannot address
    /// the matrix's columns (`ncols > i32::MAX`) is downgraded to its
    /// bitwise-identical scalar fallback, preserving the unchecked
    /// contract of [`InnerLoop::row_sum_unchecked`].
    pub fn with_options(
        a: &'a Csr,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> CsrKernel<'a> {
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
        let a = MaybeValidated::new(a);
        // An unvalidated matrix never reaches the parallel path, so its
        // plan partitions nothing (a possibly-corrupt rowptr must not
        // drive partitioning arithmetic either).
        let plan = match &a {
            MaybeValidated::Validated(v) => Plan::new(schedule, v.rowptr(), nthreads),
            MaybeValidated::Unvalidated(_) => Plan::new(schedule, &[0], nthreads),
        };
        CsrKernel { a, plan, flavor, label }
    }

    /// Creates a kernel running a menu microkernel (see
    /// [`crate::micro`]); shorthand for [`CsrKernel::with_options`]
    /// with [`InnerLoop::Micro`].
    pub fn micro(
        a: &'a Csr,
        nthreads: usize,
        schedule: Schedule,
        spec: MicroSpec,
    ) -> CsrKernel<'a> {
        CsrKernel::with_options(a, nthreads, schedule, InnerLoop::Micro(spec))
    }

    /// Scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.plan.schedule()
    }

    /// Worker thread count.
    pub fn nthreads(&self) -> usize {
        self.plan.nthreads()
    }

    /// Inner-loop flavor.
    pub fn flavor(&self) -> InnerLoop {
        self.flavor
    }

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        self.a.is_validated()
    }

    fn worker(&self, a: &Csr, range: Range<usize>, x: &[f64], y: YPtr) {
        let flavor = self.flavor;
        for i in range {
            let (cols, vals) = a.row(i);
            // SAFETY: this path is only reached with a Validated witness
            // (row_sum_unchecked's contract: columns < ncols == x.len());
            // `execute` hands each worker disjoint row ranges and `y`
            // points at a live buffer of `nrows` elements.
            unsafe { y.write(i, flavor.row_sum_unchecked(cols, vals, x)) };
        }
    }
}

impl SpmvKernel for CsrKernel<'_> {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        let a = *self.a.get();
        assert_eq!(x.len(), a.ncols(), "x length");
        assert_eq!(y.len(), a.nrows(), "y length");
        match &self.a {
            MaybeValidated::Validated(v) => {
                let a = *v.get();
                let yp = YPtr(y.as_mut_ptr());
                self.plan.execute_labeled(&self.label, |range| {
                    self.worker(a, range, x, yp);
                })
            }
            MaybeValidated::Unvalidated(a) => checked_fallback(self.plan.nthreads(), || {
                a.spmv(x, y);
            }),
        }
    }

    fn name(&self) -> String {
        format!("csr[{:?},{:?}]", self.flavor, self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.a.get().nrows()
    }

    fn ncols(&self) -> usize {
        self.a.get().ncols()
    }

    fn format_bytes(&self) -> usize {
        self.a.get().footprint_bytes()
    }
}

/// Runs a serial fully-checked kernel body and reports its wall time
/// as worker 0's busy time (the other workers stay idle). Shared by
/// every kernel's unvalidated fallback path.
pub(crate) fn checked_fallback(nthreads: usize, body: impl FnOnce()) -> ThreadTimes {
    let t0 = std::time::Instant::now();
    body();
    let mut seconds = vec![0.0; nthreads.max(1)];
    seconds[0] = t0.elapsed().as_secs_f64();
    ThreadTimes { seconds }
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
        let a = gen::banded(500, 4, 0.8, 3).unwrap();
        for nthreads in [1, 2, 4, 7] {
            assert_matches_serial(&a, &CsrKernel::baseline(&a, nthreads));
        }
    }

    #[test]
    fn all_flavors_and_schedules_match() {
        let a = gen::powerlaw(800, 6, 2.0, 5).unwrap();
        for flavor in [
            InnerLoop::Scalar,
            InnerLoop::Unrolled,
            InnerLoop::Prefetch,
            InnerLoop::UnrolledPrefetch,
        ] {
            for schedule in [
                Schedule::StaticRows,
                Schedule::NnzBalanced,
                Schedule::Dynamic { chunk: 16 },
                Schedule::Guided,
            ] {
                let k = CsrKernel::with_options(&a, 4, schedule, flavor);
                assert_matches_serial(&a, &k);
            }
        }
    }

    #[test]
    fn run_timed_reports_all_threads() {
        let a = gen::banded(300, 2, 1.0, 9).unwrap();
        let k = CsrKernel::baseline(&a, 3);
        let x = vec![1.0; 300];
        let mut y = vec![0.0; 300];
        let t = k.run_timed(&x, &mut y);
        assert_eq!(t.seconds.len(), 3);
        assert!(t.seconds.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = Csr::from_raw(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![5.0, 7.0]).unwrap();
        let k = CsrKernel::baseline(&a, 2);
        let mut y = vec![9.0; 3];
        k.run(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 0.0, 7.0]);
    }

    #[test]
    fn gflops_helper() {
        let a = Csr::identity(4);
        let k = CsrKernel::baseline(&a, 1);
        // 2*nnz flops in 1 second = 8 flops/s
        assert!((k.gflops(1.0, a.nnz()) - 8e-9).abs() < 1e-18);
    }
}
