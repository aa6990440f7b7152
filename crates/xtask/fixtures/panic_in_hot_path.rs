//! Audit fixture: panic sources in (virtual) engine hot paths.
//! Scanned as crates/kernels/src/engine.rs this must trigger only
//! the `panic-flow` policy — the unmarked `unwrap`, `expect`, and
//! indexing in the root `worker_loop` — while the marked sites in
//! `traced_claim` and the whole of the cold function stay quiet.
//! Scanned as schedule.rs (no dispatch roots) it must be clean.
//! Not compiled — scanned only by `cargo xtask audit`'s self-test.

fn worker_loop(times: &[f64], tid: usize) -> f64 {
    let first = times.first().unwrap();
    let scale: f64 = "1.0".parse().expect("literal parses");
    first + scale + times[tid]
}

fn cold_setup(times: &[f64]) -> f64 {
    // Cold path: panicking on a malformed config here is fine.
    times.first().unwrap() + times[0]
}

fn traced_claim(seconds: &mut [f64], t: usize) {
    // indexing-ok: `t` is the lane id, always < seconds.len().
    seconds[t] += 1.0;
    let head = seconds.first().copied();
    // panic-ok: the engine guarantees at least one lane.
    let _ = head.unwrap();
}
