//! Eigenvalue scenario: approximate the dominant eigenvalue of a
//! large sparse operator with the power method, running every
//! iteration's SpMV through the adaptive optimizer — the paper's
//! second motivating workload class next to linear solvers.
//!
//! ```sh
//! cargo run --release --example eigenvalues
//! ```

use std::sync::Arc;

use spmv_tune::prelude::*;
use spmv_tune::solvers::power_method;

fn main() {
    // Spectral analysis of a 2-D Laplacian: the continuous limit has
    // spectral radius 8 for the 5-point stencil, so the discrete
    // dominant eigenvalue must approach (and never exceed) 8.
    let (nx, ny) = (250, 250);
    let a =
        Validated::new(Arc::new(spmv_tune::sparse::gen::stencil_2d(nx, ny).expect("valid grid")))
            .expect("verified");
    println!("Laplacian on a {nx}x{ny} grid: {} unknowns, {} nonzeros", a.nrows(), a.nnz());

    let machine = MachineModel::host();
    let nthreads = machine.total_threads();
    let (plan, built) = search(&a, Policy::FeatureGuided, &machine, nthreads, 3);
    println!("optimizer: classes {}, kernel {}", plan.classes, plan.spec.id());

    let kernel = &*built.kernel;
    let result = power_method(&kernel, 1e-7, 50_000);
    println!(
        "power method: lambda_max ~= {:.6} after {} iterations (converged: {})",
        result.eigenvalue, result.iterations, result.converged
    );
    assert!(result.eigenvalue < 8.0, "5-point Laplacian spectrum is bounded by 8");
    assert!(result.eigenvalue > 7.9, "large grids approach the bound");

    // And a graph example: the spectral radius of a web-graph
    // adjacency matrix bounds its growth/epidemic threshold.
    let g = Validated::new(Arc::new(
        spmv_tune::sparse::gen::powerlaw(100_000, 8, 2.0, 5).expect("valid parameters"),
    ))
    .expect("verified");
    let (_, built_g) = search(&g, Policy::FeatureGuided, &machine, nthreads, 3);
    let kernel_g = &*built_g.kernel;
    let rg = power_method(&kernel_g, 1e-6, 20_000);
    println!(
        "web graph ({} nodes): spectral radius ~= {:.3} ({} iterations)",
        g.nrows(),
        rg.eigenvalue.abs(),
        rg.iterations
    );
}
