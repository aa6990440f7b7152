//! Two-phase decomposed SpMV kernel — the paper's `IMB`-class
//! optimization for highly uneven row lengths (paper Fig. 6).
//!
//! Phase 1 runs the usual row-parallel SpMV over the short part
//! (long rows are present but empty, so their `y` entries are written
//! as 0 and then overwritten). Phase 2 computes every long row with
//! *all* threads: each thread takes an element chunk of each long
//! row, and the partial sums are reduced afterwards.

use std::ops::Range;
use std::sync::Mutex;

use spmv_sparse::{DecomposedCsr, Validated};

use crate::baseline::InnerLoop;
use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::SpmvKernel;

/// Parallel decomposed SpMV kernel. Owns the decomposition product
/// as a [`Validated`] witness and a precomputed [`Plan`] for the
/// short-part phase; the long phase dispatches raw per-worker tasks on
/// the same engine, so both phases share one warm thread team. The
/// witness covers the short part, the long-row chaining, and the
/// short/long disjointness both parallel unchecked phases rely on.
#[derive(Debug)]
pub struct DecomposedKernel {
    d: Validated<DecomposedCsr>,
    plan: Plan,
    flavor: InnerLoop,
}

impl DecomposedKernel {
    /// Wraps a verified decomposed matrix.
    pub fn new(
        d: Validated<DecomposedCsr>,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> DecomposedKernel {
        let plan = Plan::new(schedule, d.short().rowptr(), nthreads);
        DecomposedKernel { d, plan, flavor }
    }

    fn short_worker(&self, d: &Validated<DecomposedCsr>, range: Range<usize>, x: &[f64], y: YPtr) {
        let short = d.short();
        for i in range {
            let (cols, vals) = short.row(i);
            // SAFETY: `d` is a Validated witness (the short part's
            // columns are < ncols == x.len()); `execute` hands each
            // worker disjoint row ranges and the buffer is live.
            unsafe { y.write(i, self.flavor.row_sum_unchecked(cols, vals, x)) };
        }
    }

    /// Phase 2: computes all long rows with an all-threads split and
    /// returns per-thread busy seconds. Dispatches on the same
    /// persistent engine as the short phase (no scoped spawning).
    fn long_phase(&self, d: &Validated<DecomposedCsr>, x: &[f64], y: &mut [f64]) -> Vec<f64> {
        let long_rows = d.long_rows();
        let nthreads = self.plan.nthreads();
        if long_rows.is_empty() {
            return vec![0.0; nthreads];
        }
        let nlong = long_rows.len();
        // Each worker fills its own partial-sum vector; slot `t` keeps
        // the reduction order deterministic (t = 0..nthreads), so the
        // result is bitwise-stable across runs.
        let partials: Mutex<Vec<Option<Vec<f64>>>> = Mutex::new(vec![None; nthreads]);
        let times = self.plan.engine().run(&|t| {
            let mut local = vec![0.0f64; nlong];
            for (k, lr) in d.long_rows().iter().enumerate() {
                let len = lr.end - lr.start;
                let per = len.div_ceil(nthreads);
                let s = (t * per).min(len);
                let e = ((t + 1) * per).min(len);
                if s < e {
                    // SAFETY: `d` is a Validated witness (long rows
                    // chain inside the long arrays, long columns <
                    // ncols == x.len()) and `lr` comes from
                    // `d.long_rows()`.
                    local[k] = unsafe { d.long_row_partial_unchecked(lr, s..e, x) };
                }
            }
            partials.lock().expect("partials lock")[t] = Some(local);
        });
        // Reduction of partial sums (cheap: nthreads * nlong adds).
        let partials = partials.into_inner().expect("partials lock");
        for (k, lr) in long_rows.iter().enumerate() {
            let mut sum = 0.0;
            for slot in &partials {
                sum += slot.as_ref().expect("every worker deposited")[k];
            }
            y[lr.row as usize] = sum;
        }
        times.seconds
    }
}

impl SpmvKernel for DecomposedKernel {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        assert_eq!(x.len(), self.d.ncols(), "x length");
        assert_eq!(y.len(), self.d.nrows(), "y length");
        let yp = YPtr(y.as_mut_ptr());
        let mut times = self.plan.execute(|range| {
            self.short_worker(&self.d, range, x, yp);
        });
        let long_secs = self.long_phase(&self.d, x, y);
        for (a, b) in times.seconds.iter_mut().zip(long_secs) {
            *a += b;
        }
        times
    }

    fn name(&self) -> String {
        format!("decomposed[{} long rows,{:?}]", self.d.long_rows().len(), self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.d.nrows()
    }

    fn ncols(&self) -> usize {
        self.d.ncols()
    }

    fn format_bytes(&self) -> usize {
        let d = &self.d;
        d.short().footprint_bytes() + d.long_nnz() * (4 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;
    use spmv_sparse::Csr;

    fn check(a: &Csr, threshold: usize, nthreads: usize) {
        let d = Validated::new(DecomposedCsr::split(a, threshold).unwrap()).unwrap();
        let k = DecomposedKernel::new(d, nthreads, Schedule::NnzBalanced, InnerLoop::Scalar);
        let mut rng = SmallRng::seed_from_u64(1);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-9, "row {i}: {u} vs {v}");
        }
    }

    #[test]
    fn circuit_matrix_matches_serial() {
        let a = gen::circuit(2000, 3, 0.4, 5, 7).unwrap();
        for nthreads in [1, 2, 4] {
            check(&a, 50, nthreads);
        }
    }

    #[test]
    fn no_long_rows_degenerates_gracefully() {
        let a = gen::banded(300, 2, 1.0, 3).unwrap();
        check(&a, 100, 3); // threshold above all rows: long part empty
    }

    #[test]
    fn everything_long() {
        let a = gen::block_dense(64, 16, 0, 5).unwrap();
        check(&a, 1, 4); // all rows long
    }

    #[test]
    fn unrolled_flavor_matches() {
        let a = gen::circuit(1000, 2, 0.5, 4, 11).unwrap();
        let d = Validated::new(DecomposedCsr::split(&a, 32).unwrap()).unwrap();
        let k = DecomposedKernel::new(d, 4, Schedule::Guided, InnerLoop::Unrolled);
        let x: Vec<f64> = (0..1000).map(|i| (i as f64).cos()).collect();
        let mut y_ref = vec![0.0; 1000];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; 1000];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn timing_includes_both_phases() {
        let a = gen::circuit(1500, 2, 0.5, 4, 13).unwrap();
        let d = Validated::new(DecomposedCsr::split(&a, 32).unwrap()).unwrap();
        let k = DecomposedKernel::new(d, 2, Schedule::NnzBalanced, InnerLoop::Scalar);
        let x = vec![1.0; 1500];
        let mut y = vec![0.0; 1500];
        let t = k.run_timed(&x, &mut y);
        assert_eq!(t.seconds.len(), 2);
        assert!(t.max() > 0.0);
    }
}
