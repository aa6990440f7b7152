//! Operator abstraction and solver statistics.

use spmv_kernels::variant::SpmvKernel;
use spmv_sparse::Csr;

/// A linear operator `y = A x` — the only thing a Krylov solver needs.
pub trait LinOp {
    /// Output dimension.
    fn nrows(&self) -> usize;
    /// Input dimension.
    fn ncols(&self) -> usize;
    /// Computes `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinOp for Csr {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }

    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }
}

/// Every runnable SpMV kernel is an operator, so solvers can run on
/// tuned kernels directly. Kernels dispatch onto the persistent
/// worker pool of `spmv_kernels::engine`, so the per-iteration SpMV
/// inside a Krylov loop pays no thread-spawn or partitioning cost —
/// the team stays warm across all iterations of a solve.
impl<K: SpmvKernel + ?Sized> LinOp for &K {
    fn nrows(&self) -> usize {
        SpmvKernel::nrows(*self)
    }

    fn ncols(&self) -> usize {
        SpmvKernel::ncols(*self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.run(x, y);
    }
}

/// Convergence record of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
    /// Relative residual after every iteration.
    pub history: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_kernels::baseline::CsrKernel;
    use spmv_sparse::gen;

    #[test]
    fn csr_is_a_linop() {
        let a = gen::banded(50, 2, 1.0, 1).unwrap();
        let x = vec![1.0; 50];
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        LinOp::apply(&a, &x, &mut y1);
        a.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(LinOp::nrows(&a), 50);
    }

    /// Hammers one persistent pool with solver-style repeated applies
    /// and demands bitwise-identical results vs the serial reference:
    /// the nnz-balanced static partition accumulates each row in the
    /// same order as `Csr::spmv`, so equality must be exact, on every
    /// one of the iterations.
    #[test]
    fn repeated_solver_iterations_bitwise_match_serial() {
        let a = spmv_sparse::Validated::new(std::sync::Arc::new(
            gen::circuit(900, 3, 0.4, 5, 11).unwrap(),
        ))
        .unwrap();
        let k = CsrKernel::baseline(&a, 4);
        let kref: &CsrKernel = &k;
        let mut x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 17) as f64 * 0.25).collect();
        let mut y = vec![0.0; a.nrows()];
        let mut y_ref = vec![0.0; a.nrows()];
        for iter in 0..300 {
            kref.apply(&x, &mut y);
            a.spmv(&x, &mut y_ref);
            assert_eq!(y, y_ref, "iteration {iter} diverged from serial");
            // Feed the output back like a power/Krylov iteration,
            // normalized to keep values finite.
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = yi / norm;
            }
        }
    }

    #[test]
    fn kernels_are_linops() {
        let a =
            spmv_sparse::Validated::new(std::sync::Arc::new(gen::banded(50, 2, 1.0, 1).unwrap()))
                .unwrap();
        let k = CsrKernel::baseline(&a, 2);
        let kref: &CsrKernel = &k;
        let x = vec![0.5; 50];
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        kref.apply(&x, &mut y1);
        a.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
