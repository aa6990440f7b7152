//! Scientific-computing scenario: solve a 2-D Poisson problem with
//! (preconditioned) Conjugate Gradient, driving SpMV through the
//! adaptive optimizer, and report how many solver iterations were
//! needed vs how many amortize the tuning overhead (the paper's
//! §IV-D argument).
//!
//! ```sh
//! cargo run --release --example cg_poisson
//! ```

use std::time::Instant;

use std::sync::Arc;

use spmv_tune::prelude::*;
use spmv_tune::solvers::{cg, Jacobi};
use spmv_tune::tuner::amortize::{min_iterations, Amortization};

fn main() {
    // -Δu = f on a 300x300 grid.
    let a =
        Validated::new(Arc::new(spmv_tune::sparse::gen::stencil_2d(300, 300).expect("valid grid")))
            .expect("verified");
    let n = a.nrows();
    println!("Poisson system: {} unknowns, {} nonzeros", n, a.nnz());

    // Manufactured solution so we can verify the solve.
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();
    let mut b = vec![0.0; n];
    a.spmv(&x_true, &mut b);

    // Tune SpMV for this matrix on the host.
    let machine = MachineModel::host();
    let optimizer = Optimizer::feature_guided(&machine);
    let tuned = optimizer.optimize(&a);
    println!(
        "optimizer: classes {}, optimizations {}, setup {:.2} ms",
        tuned.classes(),
        tuned.variant(),
        tuned.prep_seconds * 1e3
    );

    // Solve with the tuned kernel as the operator.
    let m = Jacobi::new(&a);
    let mut x = vec![0.0; n];
    let kernel = tuned.kernel();
    let t0 = Instant::now();
    let stats = cg(&kernel, &b, &mut x, Some(&m), 1e-10, 5_000);
    let t_tuned_solve = t0.elapsed().as_secs_f64();
    println!(
        "PCG(Jacobi): {} iterations, relative residual {:.2e}, {:.1} ms",
        stats.iterations,
        stats.residual,
        t_tuned_solve * 1e3
    );
    assert!(stats.converged, "solver failed to converge");

    let max_err = x.iter().zip(&x_true).map(|(u, v)| (u - v).abs()).fold(0.0f64, f64::max);
    println!("max |x - x_true| = {max_err:.3e}");

    // Amortization: time one baseline SpMV vs one tuned SpMV.
    let xv = vec![1.0; n];
    let mut yv = vec![0.0; n];
    let time_kernel = |k: &dyn spmv_tune::kernels::variant::SpmvKernel, yv: &mut Vec<f64>| {
        let reps = 10;
        let t0 = Instant::now();
        for _ in 0..reps {
            k.run(&xv, yv);
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let baseline = spmv_tune::kernels::baseline::CsrKernel::baseline(&a, 1);
    let t_base = time_kernel(&baseline, &mut yv);
    let t_tuned = time_kernel(tuned.kernel(), &mut yv);
    match min_iterations(tuned.prep_seconds, t_base, t_tuned) {
        Amortization::After(k) => println!(
            "tuning amortizes after {k} solver iterations (this solve used {})",
            stats.iterations
        ),
        Amortization::Never => println!(
            "tuned kernel not faster than baseline on this host; tuning does not amortize \
             (expected on machines with few cores, where the baseline is already optimal)"
        ),
    }
}
