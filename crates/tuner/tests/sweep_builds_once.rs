//! The trivial-single sweep builds the baseline and the five single
//! optimizations once each, and serves the fastest of those kernels
//! instead of building it again; the feature-guided policy, with its
//! one candidate, builds one kernel and times none.
//!
//! The only test in its binary, because the build counter it reads
//! (`metrics::preprocessing`, which every `build_kernel` call
//! advances) is process-wide.

use std::sync::Arc;

use spmv_machine::MachineModel;
use spmv_sparse::{gen, Validated};
use spmv_telemetry::metrics;
use spmv_tuner::menu::{search, Policy};

#[test]
fn trivial_single_builds_six_kernels() {
    let a = Validated::new(Arc::new(gen::banded(2_000, 4, 1.0, 5).unwrap())).unwrap();
    let machine = MachineModel::host();
    let before = metrics::preprocessing().count();
    let (plan, _) = search(&a, Policy::TrivialSingle, &machine, 2, 3);
    assert_eq!(metrics::preprocessing().count() - before, 6);
    assert!(plan.classes.is_empty());

    let before = metrics::preprocessing().count();
    let (plan, _) = search(&a, Policy::FeatureGuided, &machine, 2, 3);
    assert_eq!(metrics::preprocessing().count() - before, 1);
    assert!(plan.timed.is_empty());
}
