//! Audit fixture: allocation *directly inside* a dispatch root.
//! Roots are checked like the code they reach: `hot-path-alloc` must
//! flag the `collect` in `run_labeled` itself (and nothing else).
//! Not compiled — scanned only by `cargo xtask audit`'s self-test.

fn run_labeled(ids: &[u64]) -> Vec<u64> {
    ids.iter().copied().collect()
}
