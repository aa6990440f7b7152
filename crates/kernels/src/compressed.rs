//! Parallel SpMV over delta-compressed CSR — the paper's `MB`-class
//! kernel ("column index compression through delta encoding +
//! vectorization").
//!
//! The format conversion happens in `variant::build_kernel` and its
//! cost is reported as preprocessing time; this module only executes.

use std::ops::Range;

use spmv_sparse::{DeltaCsr, Validated};

use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::SpmvKernel;

/// Parallel delta-compressed SpMV kernel. Owns its compressed matrix
/// (the conversion product) as a [`Validated`] witness, which admits
/// the parallel unchecked decode path, and a precomputed [`Plan`].
#[derive(Debug)]
pub struct DeltaKernel {
    d: Validated<DeltaCsr>,
    plan: Plan,
}

impl DeltaKernel {
    /// Wraps a verified compressed matrix.
    pub fn new(d: Validated<DeltaCsr>, nthreads: usize, schedule: Schedule) -> DeltaKernel {
        let plan = Plan::new(schedule, d.rowptr(), nthreads);
        DeltaKernel { d, plan }
    }

    fn worker(d: &Validated<DeltaCsr>, range: Range<usize>, x: &[f64], y: YPtr) {
        if range.is_empty() {
            return;
        }
        // SAFETY: ranges from the plan are disjoint, so this sub-slice
        // is exclusively owned by this worker; the buffer outlives the
        // dispatch (it is the caller's `&mut [f64]`).
        let out = unsafe { y.subslice(range.start, range.len()) };
        // SAFETY: `d` is a Validated witness (the delta streams decode
        // to in-bounds columns with exact exception-cursor positions)
        // and `x.len() == ncols` was asserted by `run_timed`.
        unsafe { d.spmv_rows_into_unchecked(range, x, out) };
    }
}

impl SpmvKernel for DeltaKernel {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        assert_eq!(x.len(), self.d.ncols(), "x length");
        assert_eq!(y.len(), self.d.nrows(), "y length");
        let yp = YPtr(y.as_mut_ptr());
        self.plan.execute(|range| Self::worker(&self.d, range, x, yp))
    }

    fn name(&self) -> String {
        format!("delta[{:?},{:?}]", self.d.width(), self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.d.nrows()
    }

    fn ncols(&self) -> usize {
        self.d.ncols()
    }

    fn format_bytes(&self) -> usize {
        self.d.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;

    #[test]
    fn matches_serial_csr() {
        let a = gen::banded(700, 6, 0.7, 2).unwrap();
        let d = Validated::new(DeltaCsr::from_csr(&a).unwrap()).unwrap();
        let k = DeltaKernel::new(d, 4, Schedule::NnzBalanced);
        let mut rng = SmallRng::seed_from_u64(8);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn works_with_escapes_and_guided_schedule() {
        let a = gen::random_uniform(400, 12, 3).unwrap(); // wide gaps -> escapes
        let d = Validated::new(DeltaCsr::from_csr(&a).unwrap()).unwrap();
        let k = DeltaKernel::new(d, 3, Schedule::Guided);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut y_ref = vec![0.0; 400];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; 400];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn reports_compressed_footprint() {
        let a = gen::banded(512, 8, 1.0, 1).unwrap();
        let d = Validated::new(DeltaCsr::from_csr(&a).unwrap()).unwrap();
        let k = DeltaKernel::new(d, 2, Schedule::NnzBalanced);
        assert!(k.format_bytes() < a.footprint_bytes());
        assert!(k.name().contains("delta"));
    }
}
