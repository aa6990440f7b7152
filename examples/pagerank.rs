//! Graph-analytics scenario: PageRank by power iteration on a
//! scale-free web graph. Power iteration is SpMV in a loop over a
//! matrix with power-law structure — exactly the `ML + IMB` territory
//! the paper's optimizer targets on many-core machines.
//!
//! ```sh
//! cargo run --release --example pagerank
//! ```

use std::sync::Arc;

use spmv_tune::prelude::*;

/// Builds the column-stochastic transition matrix `P^T` of a random
/// web graph (rows: destination, cols: source), so that one PageRank
/// step is `rank = d * P^T rank + (1-d)/n`.
fn transition_matrix(n: usize, avg_deg: usize, seed: u64) -> Csr {
    let adj = spmv_tune::sparse::gen::powerlaw(n, avg_deg, 2.0, seed).expect("valid parameters");
    // Normalise each column of adj^T = each row of adj by out-degree:
    // work on the transpose so the SpMV aggregates incoming ranks.
    let out_deg: Vec<f64> = (0..n).map(|i| adj.row_nnz(i) as f64).collect();
    let t = adj.transpose();
    let (nr, nc, rowptr, colind, mut values) = t.into_raw();
    for (k, &src) in colind.iter().enumerate() {
        let d = out_deg[src as usize];
        values[k] = if d > 0.0 { 1.0 / d } else { 0.0 };
    }
    Csr::from_raw(nr, nc, rowptr, colind, values).expect("structure unchanged")
}

fn main() {
    let n = 200_000;
    let pt = Validated::new(Arc::new(transition_matrix(n, 8, 7))).expect("verified");
    println!("web graph: {} pages, {} links", n, pt.nnz());

    // Tune SpMV for the transition matrix.
    let machine = MachineModel::host();
    let (plan, built) = search(&pt, Policy::FeatureGuided, &machine, machine.total_threads(), 3);
    println!("optimizer: classes {}, kernel {}", plan.classes, plan.spec.id());

    // Power iteration.
    let damping = 0.85;
    let teleport = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut iters = 0;
    loop {
        built.kernel.run(&rank, &mut next);
        let mut delta = 0.0;
        for v in next.iter_mut() {
            *v = damping * *v + teleport;
        }
        // Renormalise (absorbs dangling-node mass).
        let s: f64 = next.iter().sum();
        for v in next.iter_mut() {
            *v /= s;
        }
        for (a, b) in rank.iter().zip(&next) {
            delta += (a - b).abs();
        }
        std::mem::swap(&mut rank, &mut next);
        iters += 1;
        if delta < 1e-9 || iters >= 200 {
            println!("converged after {iters} iterations (L1 delta {delta:.2e})");
            break;
        }
    }

    // Report the top pages.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| rank[j].partial_cmp(&rank[i]).expect("finite ranks"));
    println!("top 5 pages by rank:");
    for &i in order.iter().take(5) {
        println!("  page {i:>8}  rank {:.3e}", rank[i]);
    }
    let sum: f64 = rank.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "rank vector must stay stochastic, sum {sum}");
}
