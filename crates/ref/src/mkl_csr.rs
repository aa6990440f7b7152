//! Plain parallel CSR kernel standing in for MKL's `mkl_dcsrmv()`.
//!
//! Library CSR kernels without an inspection phase split the row
//! space into equal-row-count blocks: they cannot know the nonzero
//! distribution, so skewed matrices imbalance badly — exactly the
//! behaviour the paper's optimizers exploit.

use std::sync::Arc;

use spmv_kernels::baseline::{CsrKernel, InnerLoop};
use spmv_kernels::schedule::{Schedule, ThreadTimes};
use spmv_kernels::variant::SpmvKernel;
use spmv_sparse::Csr;

/// MKL-CSR-like reference kernel.
#[derive(Debug)]
pub struct MklLikeCsr {
    inner: CsrKernel,
}

impl MklLikeCsr {
    /// Wraps `a` with `nthreads` workers.
    pub fn new(a: &Arc<Csr>, nthreads: usize) -> MklLikeCsr {
        MklLikeCsr {
            inner: CsrKernel::with_options(a, nthreads, Schedule::StaticRows, InnerLoop::Scalar),
        }
    }
}

impl SpmvKernel for MklLikeCsr {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        self.inner.run_timed(x, y)
    }

    fn name(&self) -> String {
        "mkl-like-csr".into()
    }

    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn format_bytes(&self) -> usize {
        self.inner.format_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn matches_serial_reference() {
        let a = Arc::new(gen::powerlaw(1_000, 8, 2.0, 3).unwrap());
        let k = MklLikeCsr::new(&a, 4);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn reports_identity() {
        let a = Arc::new(gen::banded(100, 2, 1.0, 1).unwrap());
        let k = MklLikeCsr::new(&a, 2);
        assert_eq!(k.name(), "mkl-like-csr");
        assert_eq!(k.nrows(), 100);
        assert_eq!(k.format_bytes(), a.footprint_bytes());
    }
}
