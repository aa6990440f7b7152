//! Criterion: spawn-per-call vs persistent-pool dispatch overhead.
//!
//! Measures the same nnz-balanced scalar CSR SpMV through the two
//! execution paths the kernels crate offers:
//!
//! * `spawn`  — the legacy `execute_spawn` strategy (scoped OS
//!   threads created on every call, partition recomputed);
//! * `pooled` — a `CsrKernel` holding a precomputed `Plan` dispatched
//!   on the persistent `ExecEngine` team.
//!
//! On the small matrix (~10k nnz) per-call overhead dominates, so the
//! gap *is* the dispatch cost; on the large matrix (~5M nnz) compute
//! dominates and the two paths must be indistinguishable. Besides the
//! criterion groups, `overhead_report` prints the measured per-call
//! overhead directly.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use spmv_kernels::baseline::{row_sum_scalar_unchecked, CsrKernel};
use spmv_kernels::schedule::{execute_spawn, Schedule, YPtr};
use spmv_kernels::variant::SpmvKernel;
use spmv_sparse::{gen, Csr, Validated};

/// One SpMV through the legacy spawn-per-call path (fresh scoped
/// threads, partition recomputed) — byte-for-byte the same inner loop
/// as the pooled baseline kernel.
fn spmv_spawn(a: &Csr, nthreads: usize, x: &[f64], y: &mut [f64]) {
    let yp = YPtr(y.as_mut_ptr());
    execute_spawn(Schedule::NnzBalanced, a.rowptr(), nthreads, |range| {
        for i in range {
            let (cols, vals) = a.row(i);
            // SAFETY: disjoint ranges from `execute_spawn`; the
            // generated matrix keeps every column < ncols == x.len().
            unsafe { yp.write(i, row_sum_scalar_unchecked(cols, vals, x)) };
        }
    });
}

fn cases() -> Vec<(&'static str, Validated<Arc<Csr>>)> {
    [
        // ~10k nnz: dispatch overhead dominates.
        ("small", gen::banded(2_000, 2, 1.0, 1)),
        // ~5M nnz: compute dominates; the paths must tie.
        ("large", gen::banded(250_000, 10, 1.0, 2)),
    ]
    .map(|(name, a)| (name, Validated::new(Arc::new(a.expect("valid"))).unwrap()))
    .into()
}

fn bench_dispatch(c: &mut Criterion) {
    for (name, a) in &cases() {
        let mut group = c.benchmark_group(format!("dispatch/{name}"));
        group.throughput(Throughput::Elements(a.nnz() as u64));
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        for &nthreads in &[1usize, 4, 8] {
            group.bench_with_input(BenchmarkId::new("spawn", nthreads), &nthreads, |b, &t| {
                b.iter(|| spmv_spawn(a, t, black_box(&x), black_box(&mut y)));
            });
            let pooled = CsrKernel::baseline(a, nthreads);
            group.bench_with_input(BenchmarkId::new("pooled", nthreads), &nthreads, |b, _| {
                b.iter(|| pooled.run(black_box(&x), black_box(&mut y)));
            });
        }
        group.finish();
    }
}

/// Times `calls` invocations and returns mean seconds per call.
fn mean_per_call<F: FnMut()>(mut f: F, calls: usize) -> f64 {
    f(); // warm-up (creates the pool for the pooled path)
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// Prints the measured per-call dispatch overhead: the small-matrix
/// gap between spawn and pooled execution, where SpMV compute is
/// negligible and dispatch is everything.
fn overhead_report(_c: &mut Criterion) {
    println!("\nper-call dispatch cost (nnz-balanced scalar CSR):");
    for (name, a) in &cases() {
        let calls = if a.nnz() < 100_000 { 300 } else { 20 };
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        for &nthreads in &[1usize, 4, 8] {
            let spawn = mean_per_call(|| spmv_spawn(a, nthreads, &x, &mut y), calls);
            let pooled_kernel = CsrKernel::baseline(a, nthreads);
            let pooled = mean_per_call(|| pooled_kernel.run(&x, &mut y), calls);
            println!(
                "  {name:>5} t={nthreads}: spawn {:>10.2} us  pooled {:>10.2} us  ratio {:.1}x",
                spawn * 1e6,
                pooled * 1e6,
                spawn / pooled.max(1e-12),
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dispatch, overhead_report
}
criterion_main!(benches);
