//! Cross-platform bottleneck report: classify a few representative
//! matrices on all three paper platforms (simulated) and show how the
//! same matrix hits different bottlenecks on different machines —
//! the paper's core motivation for architecture-adaptive tuning.
//!
//! ```sh
//! cargo run --release --example bottleneck_report
//! ```

use spmv_tune::prelude::*;
use spmv_tune::sim::bounds::collect_bounds;
use spmv_tune::sim::cost::CostModel;
use spmv_tune::sim::profile::MatrixProfile;
use spmv_tune::tuner::profile::ProfileClassifier;
use spmv_tune::tuner::OptimizationPool;

fn main() {
    // Three structurally different matrices (reduced sizes so the
    // example runs in seconds).
    let matrices = vec![
        ("fem-band (consph-like)", spmv_tune::sparse::gen::banded(60_000, 40, 0.9, 1).unwrap()),
        (
            "irregular (poisson3Db-like)",
            spmv_tune::sparse::gen::banded(80_000, 2_500, 0.006, 2).unwrap(),
        ),
        ("circuit (rajat30-like)", spmv_tune::sparse::gen::circuit(150_000, 5, 0.3, 8, 3).unwrap()),
        ("web graph (flickr-like)", spmv_tune::sparse::gen::powerlaw(120_000, 12, 1.7, 4).unwrap()),
    ];

    let classifier = ProfileClassifier::default();
    println!(
        "{:<28} {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}   classes -> optimizations",
        "matrix", "platform", "P_CSR", "P_ML", "P_IMB", "P_CMP", "P_MB"
    );
    for (name, a) in &matrices {
        for machine in MachineModel::paper_platforms() {
            let model = CostModel::new(machine.clone());
            let profile = MatrixProfile::analyze(a, &machine);
            let bounds = collect_bounds(&model, &profile);
            let classes = classifier.classify(&bounds);
            let features = FeatureVector::extract(a, machine.llc_bytes(), machine.line_elems());
            let variant = OptimizationPool::default().to_variant(classes, &features);
            println!(
                "{:<28} {:<12} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}   {} -> {}",
                name,
                machine.name,
                bounds.p_csr,
                bounds.p_ml,
                bounds.p_imb,
                bounds.p_cmp,
                bounds.p_mb,
                classes,
                variant
            );
        }
        println!();
    }
    println!(
        "note: numbers are simulated GFLOP/s from the spmv-sim cost model;\n\
         the point is the *diversity*: the same matrix lands in different\n\
         classes on different platforms, so one static optimization cannot win."
    );
}
