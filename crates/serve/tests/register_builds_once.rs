//! Registration builds every kernel it times exactly once: the tuned
//! kernel a registered matrix serves from is the one the menu search
//! built and timed, not a second build of the winner.
//!
//! The only test in its binary, because the build counter it reads
//! (`metrics::preprocessing`, which every `build_kernel` call
//! advances) is process-wide.

use spmv_serve::MatrixRegistry;
use spmv_sparse::gen;
use spmv_telemetry::metrics;

#[test]
fn register_builds_each_timed_candidate_once() {
    let registry = MatrixRegistry::new(2, 1);
    let before = metrics::preprocessing().count();
    let m = registry.register("band", gen::banded(4_000, 8, 1.0, 3).unwrap()).unwrap();
    let builds = metrics::preprocessing().count() - before;
    assert_eq!(builds, m.plan().timed.len() as u64, "{:?}", m.plan());
}
