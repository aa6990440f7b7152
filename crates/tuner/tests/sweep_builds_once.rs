//! The trivial-single sweep builds the baseline and the five single
//! optimizations once each, and serves the fastest of those kernels
//! instead of building it again.
//!
//! The only test in its binary, because the build counter it reads
//! (`metrics::preprocessing`, which every `build_kernel` call
//! advances) is process-wide.

use std::sync::Arc;

use spmv_machine::MachineModel;
use spmv_sparse::{gen, Validated};
use spmv_telemetry::metrics;
use spmv_tuner::Optimizer;

#[test]
fn trivial_single_builds_six_kernels() {
    let a = Validated::new(Arc::new(gen::banded(2_000, 4, 1.0, 5).unwrap())).unwrap();
    let before = metrics::preprocessing().count();
    let tuned = Optimizer::trivial_single(&MachineModel::host()).with_threads(2).optimize(&a);
    assert_eq!(metrics::preprocessing().count() - before, 6);
    assert!(tuned.classes().is_empty());
}
