//! The menu search builds each shortlisted kernel exactly once and
//! hands back the winner it timed instead of building it again.
//!
//! The only test in its binary, because the build counter it reads
//! (`metrics::preprocessing`, which every `build_kernel` call
//! advances) is process-wide.

use std::sync::Arc;

use spmv_machine::MachineModel;
use spmv_sparse::{gen, Validated};
use spmv_telemetry::metrics;
use spmv_tuner::menu;

#[test]
fn search_builds_each_timed_candidate_once() {
    let a = Validated::new(Arc::new(gen::circuit(3_000, 3, 0.4, 5, 7).unwrap())).unwrap();
    let before = metrics::preprocessing().count();
    let (plan, _) = menu::search(&a, &MachineModel::host(), 2, 1);
    let builds = metrics::preprocessing().count() - before;
    assert_eq!(builds, plan.timed.len() as u64, "{plan:?}");
}
