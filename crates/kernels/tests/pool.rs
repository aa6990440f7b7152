//! Integration tests for the persistent execution engine as kernels
//! actually use it: one process-wide pool per thread count, reused
//! across matrices, kernels, and repeated calls.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spmv_kernels::baseline::{CsrKernel, InnerLoop};
use spmv_kernels::variant::{build_kernel, KernelVariant, SpmvKernel};
use spmv_kernels::{ExecEngine, Schedule};
use spmv_sparse::{gen, Csr, Validated};

fn random_x(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn assert_close_to_serial(a: &Csr, kernel: &dyn SpmvKernel, seed: u64) {
    let x = random_x(a.ncols(), seed);
    let mut y_ref = vec![0.0; a.nrows()];
    a.spmv(&x, &mut y_ref);
    let mut y = vec![0.0; a.nrows()];
    kernel.run(&x, &mut y);
    for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
        assert!((u - v).abs() < 1e-9, "{}: row {i}: {u} vs {v}", kernel.name());
    }
}

/// One global pool serves successive kernels over matrices of
/// completely different shapes — the partition lives in each kernel's
/// Plan, not in the pool, so nothing leaks between matrices.
#[test]
fn pool_reused_across_matrices_of_different_shapes() {
    let engine_before = ExecEngine::global(4);
    let matrices = [
        gen::banded(1_000, 4, 0.9, 1).unwrap(),
        gen::banded(37, 2, 1.0, 2).unwrap(),
        gen::powerlaw(2_500, 6, 2.0, 3).unwrap(),
        gen::circuit(800, 3, 0.4, 5, 4).unwrap(),
        gen::banded(1_000, 4, 0.9, 1).unwrap(), // same shape again
    ]
    .map(|m| Validated::new(Arc::new(m)).unwrap());
    for (n, a) in matrices.iter().enumerate() {
        let k = CsrKernel::baseline(a, 4);
        assert_close_to_serial(a, &k, n as u64 + 1);
    }
    // Still the same pool instance afterwards.
    assert!(Arc::ptr_eq(&engine_before, &ExecEngine::global(4)));
}

/// More workers than rows: trailing partitions are empty, every row
/// is still produced exactly once.
#[test]
fn more_threads_than_rows() {
    let a = Validated::new(Arc::new(gen::banded(5, 1, 1.0, 6).unwrap())).unwrap();
    for schedule in [Schedule::NnzBalanced, Schedule::Guided] {
        let k = CsrKernel::with_options(&a, 16, schedule, InnerLoop::Scalar);
        assert_close_to_serial(&a, &k, 7);
    }
}

/// Oversubscription beyond the machine: the pool happily time-shares.
#[test]
fn more_threads_than_available_parallelism() {
    let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let nthreads = 2 * hw + 1;
    let a = Validated::new(Arc::new(gen::powerlaw(3_000, 5, 1.8, 9).unwrap())).unwrap();
    let k = CsrKernel::baseline(&a, nthreads);
    let x = random_x(a.ncols(), 3);
    let mut y = vec![0.0; a.nrows()];
    let times = k.run_timed(&x, &mut y);
    assert_eq!(times.seconds.len(), nthreads);
    assert_close_to_serial(&a, &k, 3);
}

/// Every variant of the optimization pool, executed through the
/// pooled engine, matches the serial reference.
#[test]
fn every_variant_matches_serial_through_the_pool() {
    let a = Validated::new(Arc::new(gen::circuit(1_500, 2, 0.4, 5, 6).unwrap())).unwrap();
    for variant in KernelVariant::singles_and_pairs() {
        let built = build_kernel(&a, variant, 3);
        assert_close_to_serial(&a, built.kernel.as_ref(), 11);
    }
}

/// The baseline (nnz-balanced static, scalar inner loop) preserves
/// the serial per-row accumulation order, so pooled results are
/// bitwise identical — not merely close — across many repeats.
#[test]
fn baseline_is_bitwise_identical_to_serial() {
    let a = Validated::new(Arc::new(gen::powerlaw(1_200, 6, 1.9, 13).unwrap())).unwrap();
    let k = CsrKernel::baseline(&a, 4);
    for rep in 0..50 {
        let x = random_x(a.ncols(), 100 + rep);
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        assert_eq!(y, y_ref, "rep {rep} not bitwise identical");
    }
}

/// run_repeated reports a best wall time consistent with its
/// per-thread busy times (busy <= wall per thread, modulo clock
/// granularity) and leaves a correct y behind.
#[test]
fn run_repeated_times_and_computes() {
    let a = Validated::new(Arc::new(gen::banded(4_000, 8, 1.0, 2).unwrap())).unwrap();
    let k = CsrKernel::baseline(&a, 2);
    let x = random_x(a.ncols(), 5);
    let mut y = vec![0.0; a.nrows()];
    let (best, times) = k.run_repeated(&x, &mut y, 5);
    assert!(best > 0.0 && best.is_finite());
    assert_eq!(times.seconds.len(), 2);
    let mut y_ref = vec![0.0; a.nrows()];
    a.spmv(&x, &mut y_ref);
    assert_eq!(y, y_ref);
}
