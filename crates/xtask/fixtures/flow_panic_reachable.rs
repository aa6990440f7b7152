//! Audit fixture: panic sinks *transitively* reachable from a
//! dispatch root. Scanned as crates/kernels/src/engine.rs,
//! `worker_loop` is a root and the helpers' `unwrap`/`expect`/
//! indexing must trigger only `panic-flow` (the root itself has no
//! direct sinks). Scanned as schedule.rs —
//! not a root file — the same source must be clean.
//! Not compiled — scanned only by `cargo xtask audit`'s self-test.

fn worker_loop(times: &[f64]) -> f64 {
    lane_sum(times) + deeper(times)
}

fn lane_sum(times: &[f64]) -> f64 {
    times.first().unwrap() + times.iter().next().expect("non-empty")
}

fn deeper(times: &[f64]) -> f64 {
    times[0]
}
