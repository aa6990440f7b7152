//! Criterion: per-iteration solver cost with baseline vs tuned SpMV —
//! the quantity the amortization analysis divides overhead by.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use spmv_kernels::variant::{build_kernel, KernelVariant, Optimization};
use spmv_solvers::{cg, gmres, Jacobi};
use spmv_sparse::{gen, Validated};

fn bench_cg_iterations(c: &mut Criterion) {
    let a = Validated::new(Arc::new(gen::stencil_2d(120, 120).expect("valid grid"))).unwrap();
    let n = a.nrows();
    let b_rhs = vec![1.0f64; n];
    let precond = Jacobi::new(&a);

    c.bench_function("solvers/cg_20_iters_baseline", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0f64; n];
            black_box(cg(&**a, &b_rhs, &mut x, Some(&precond), 0.0, 20));
        });
    });

    let nthreads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let built = build_kernel(&a, KernelVariant::single(Optimization::Vectorize), nthreads);
    let kernel = &*built.kernel;
    c.bench_function("solvers/cg_20_iters_vectorized", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0f64; n];
            black_box(cg(&kernel, &b_rhs, &mut x, Some(&precond), 0.0, 20));
        });
    });
}

fn bench_gmres_restart(c: &mut Criterion) {
    let a = gen::circuit(20_000, 2, 0.2, 5, 4).expect("valid");
    let n = a.nrows();
    let b_rhs = vec![1.0f64; n];
    c.bench_function("solvers/gmres30_one_cycle", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0f64; n];
            black_box(gmres(&a, &b_rhs, &mut x, None, 30, 0.0, 30));
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cg_iterations, bench_gmres_restart
}
criterion_main!(benches);
