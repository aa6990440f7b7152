//! Quickstart: generate a sparse matrix, let the adaptive optimizer
//! pick a kernel for it, and run SpMV through the tuned kernel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;

use std::sync::Arc;

use spmv_tune::prelude::*;

fn main() {
    // A mid-size FEM-like banded matrix (the paper's MB archetype).
    let a = Validated::new(Arc::new(
        spmv_tune::sparse::gen::banded(100_000, 24, 0.9, 42).expect("valid parameters"),
    ))
    .expect("verified");
    println!("matrix: {} x {}, {} nonzeros", a.nrows(), a.ncols(), a.nnz());

    // Describe the platform we care about. For the machine running
    // this example use `MachineModel::host()`; presets for the
    // paper's platforms (knc / knl / broadwell) are also available.
    let machine = MachineModel::host();

    // The feature-guided optimizer: extracts Table-2 structural
    // features, maps detected bottlenecks to optimizations and builds
    // that kernel for every hardware thread.
    let (plan, built) = search(&a, Policy::FeatureGuided, &machine, machine.total_threads(), 3);
    println!(
        "detected bottlenecks: {}  ->  kernel: {}  (setup {:.2} ms)",
        plan.classes,
        plan.spec.id(),
        plan.search_seconds * 1e3
    );

    // Run y = A x through the tuned kernel and the plain baseline.
    let x = vec![1.0f64; a.ncols()];
    let mut y = vec![0.0f64; a.nrows()];

    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        built.kernel.run(&x, &mut y);
    }
    let t_tuned = t0.elapsed().as_secs_f64() / reps as f64;

    let baseline = spmv_tune::kernels::baseline::CsrKernel::baseline(&a, 1);
    let mut y_ref = vec![0.0f64; a.nrows()];
    let t0 = Instant::now();
    for _ in 0..reps {
        spmv_tune::kernels::variant::SpmvKernel::run(&baseline, &x, &mut y_ref);
    }
    let t_base = t0.elapsed().as_secs_f64() / reps as f64;

    let flops = 2.0 * a.nnz() as f64;
    println!(
        "baseline: {:.2} GFLOP/s   tuned: {:.2} GFLOP/s",
        flops / t_base / 1e9,
        flops / t_tuned / 1e9
    );
    println!(
        "(the optimizations target bandwidth/latency/imbalance bottlenecks of wide\n\
         multicores; on a machine with very few cores the baseline may already be\n\
         optimal and the tuned kernel can tie or lose — that is the paper's point\n\
         about architecture-adaptivity)"
    );

    // Correctness check against the serial reference.
    let mut y_serial = vec![0.0f64; a.nrows()];
    a.spmv(&x, &mut y_serial);
    let max_err = y.iter().zip(&y_serial).map(|(u, v)| (u - v).abs()).fold(0.0f64, f64::max);
    println!("max |tuned - serial| = {max_err:.3e}");
    assert!(max_err < 1e-9);
}
