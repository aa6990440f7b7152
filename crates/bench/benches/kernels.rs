//! Criterion: real-host timing of every kernel variant on two
//! structurally opposite matrices (regular banded vs skewed circuit).
//! This is the host-measured counterpart of the simulated Fig. 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use spmv_kernels::variant::{build_kernel, KernelVariant, Optimization};
use spmv_sparse::{gen, Validated};

fn bench_variants(c: &mut Criterion) {
    let nthreads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let cases = [
        ("banded", gen::banded(60_000, 24, 0.9, 1)),
        ("circuit", gen::circuit(80_000, 4, 0.3, 6, 2)),
        ("powerlaw", gen::powerlaw(60_000, 8, 1.9, 3)),
    ]
    .map(|(name, a)| (name, Validated::new(Arc::new(a.expect("valid"))).unwrap()));
    for (name, a) in &cases {
        let mut group = c.benchmark_group(format!("spmv/{name}"));
        group.throughput(Throughput::Elements(a.nnz() as u64));
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];

        let mut variants = vec![KernelVariant::BASELINE];
        variants.extend(Optimization::ALL.map(KernelVariant::single));
        for variant in variants {
            let built = build_kernel(a, variant, nthreads);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{variant}")),
                &built,
                |b, built| {
                    b.iter(|| {
                        built.kernel.run(black_box(&x), black_box(&mut y));
                    });
                },
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_variants
}
criterion_main!(benches);
