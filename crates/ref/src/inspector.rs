//! Inspector-Executor autotuning proxy, standing in for MKL's
//! `mkl_sparse_d_mv()` with `mkl_sparse_optimize()`.
//!
//! The inspection phase examines row-length statistics and chooses an
//! execution plan:
//!
//! * regular row lengths (`nnz_sd < 0.5 * nnz_avg`) → convert to an
//!   ELL hybrid for vector-friendly traversal;
//! * irregular lengths → keep CSR but rebalance with nnz-balanced
//!   partitioning and an unrolled inner loop.
//!
//! Unlike the paper's optimizer it is *not* bottleneck-aware: it never
//! prefetches, never decomposes long rows, and pays its inspection +
//! conversion cost on every matrix — the two properties (decent
//! speedup over plain CSR, mid-range preprocessing cost) the paper
//! measures it by.

use std::sync::Arc;
use std::time::Instant;

use spmv_kernels::baseline::{CsrKernel, InnerLoop};
use spmv_kernels::schedule::{execute, Schedule, ThreadTimes, YPtr};
use spmv_kernels::variant::SpmvKernel;
use spmv_sparse::stats::RowStats;
use spmv_sparse::{Csr, EllHybrid};

/// Execution plan chosen by the inspector.
enum Plan {
    /// ELL hybrid with parallel slab traversal + serial tail.
    Ell(Box<EllHybrid>),
    /// Rebalanced CSR with an unrolled inner loop.
    Csr(CsrKernel),
}

/// Inspector-Executor reference implementation.
pub struct InspectorExecutor {
    plan: Plan,
    nthreads: usize,
    /// Seconds spent inspecting + converting (reported to the
    /// amortization study).
    pub prep_seconds: f64,
}

impl InspectorExecutor {
    /// Runs the inspection phase on `a` and builds the execution plan.
    pub fn inspect(a: &Arc<Csr>, nthreads: usize) -> InspectorExecutor {
        let t0 = Instant::now();
        let stats = RowStats::compute(a, 8);
        let s = stats.nnz_summary();
        let regular = s.avg > 0.0 && s.sd < 0.5 * s.avg;
        let plan = if regular {
            let width = EllHybrid::auto_width(a);
            Plan::Ell(Box::new(EllHybrid::from_csr(a, width)))
        } else {
            Plan::Csr(CsrKernel::with_options(
                a,
                nthreads,
                Schedule::NnzBalanced,
                InnerLoop::Unrolled,
            ))
        };
        InspectorExecutor { plan, nthreads, prep_seconds: t0.elapsed().as_secs_f64() }
    }

    /// Whether the inspector selected the ELL-hybrid plan.
    pub fn uses_ell(&self) -> bool {
        matches!(self.plan, Plan::Ell(_))
    }
}

impl SpmvKernel for InspectorExecutor {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        match &self.plan {
            Plan::Csr(k) => k.run_timed(x, y),
            Plan::Ell(h) => {
                assert_eq!(x.len(), h.ncols(), "x length");
                assert_eq!(y.len(), h.nrows(), "y length");
                // Equal-row partitioning is fine here: ELL rows are
                // uniform by construction.
                let uniform_rowptr: Vec<usize> = (0..=h.nrows()).collect();
                let yptr = YPtr(y.as_mut_ptr());
                let times =
                    execute(Schedule::StaticRows, &uniform_rowptr, self.nthreads, |range| {
                        if range.is_empty() {
                            return;
                        }
                        // SAFETY: `execute` yields disjoint ranges and
                        // the buffer outlives the dispatch.
                        let out = unsafe { yptr.subslice(range.start, range.len()) };
                        h.spmv_ell_rows_into(range, x, out);
                    });
                // Serial tail (few overflow entries by construction).
                for (r, c, v) in h.tail().iter() {
                    y[r] += v * x[c];
                }
                times
            }
        }
    }

    fn name(&self) -> String {
        match &self.plan {
            Plan::Ell(h) => format!("inspector-executor[ell w={}]", h.ell_width()),
            Plan::Csr(_) => "inspector-executor[csr unrolled]".into(),
        }
    }

    fn nrows(&self) -> usize {
        match &self.plan {
            Plan::Ell(h) => h.nrows(),
            Plan::Csr(k) => k.nrows(),
        }
    }

    fn ncols(&self) -> usize {
        match &self.plan {
            Plan::Ell(h) => h.ncols(),
            Plan::Csr(k) => k.ncols(),
        }
    }

    fn format_bytes(&self) -> usize {
        match &self.plan {
            Plan::Ell(h) => h.footprint_bytes(),
            Plan::Csr(k) => k.format_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn check(a: &Arc<Csr>, nthreads: usize) -> InspectorExecutor {
        let ie = InspectorExecutor::inspect(a, nthreads);
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        ie.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-9, "row {i}: {u} vs {v}");
        }
        ie
    }

    #[test]
    fn regular_matrix_selects_ell() {
        let a = Arc::new(gen::banded(2_000, 6, 1.0, 3).unwrap());
        let ie = check(&a, 4);
        assert!(ie.uses_ell(), "{}", ie.name());
        assert!(ie.prep_seconds >= 0.0);
    }

    #[test]
    fn skewed_matrix_keeps_csr() {
        let a = Arc::new(gen::circuit(3_000, 3, 0.4, 5, 7).unwrap());
        let ie = check(&a, 4);
        assert!(!ie.uses_ell(), "{}", ie.name());
    }

    #[test]
    fn powerlaw_matrix_correct_any_plan() {
        let a = Arc::new(gen::powerlaw(2_000, 7, 1.9, 5).unwrap());
        check(&a, 3);
    }

    #[test]
    fn single_thread_works() {
        let a = Arc::new(gen::banded(500, 3, 1.0, 9).unwrap());
        check(&a, 1);
    }
}
