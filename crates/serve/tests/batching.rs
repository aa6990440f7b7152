//! Request batching, checked by counters and bits: the same request
//! stream goes through the scheduler with coalescing disabled
//! (`batch_max = 1`) and enabled (`batch_max = 8`), at equal kernel
//! thread count, on a matrix large enough that the per-request matrix
//! traversal is the dominant cost.
//!
//! Eight submitter lanes keep the queue ~8 deep. The unbatched run
//! must dispatch the kernel once per request; the batched run must
//! dispatch strictly fewer times than it has requests — each batch of
//! width `k` streams the matrix once instead of `k` times (the SpMM
//! amortization, DESIGN.md §12). Every returned vector must be
//! bitwise equal to the serial `Csr::spmv`, batched or not. The wall
//! clock ratio is printed for information only; the throughput
//! evidence is servebench's `throughput_rps` and
//! `scheduler.batched_frac`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spmv_kernels::ExecEngine;
use spmv_serve::{MatrixRegistry, Mode, Scheduler};
use spmv_sparse::gen;
use spmv_telemetry::metrics::engine_dispatch;
use spmv_telemetry::serve_stats;

/// Submitter lanes (and so the natural batch width under load).
const SUBMITTERS: usize = 8;
/// Requests per submitter lane per configuration.
const PER_LANE: usize = 16;
/// Requests per configuration.
const TOTAL: u64 = (SUBMITTERS * PER_LANE) as u64;

/// What one configuration's run did, from the process-wide counters.
struct Run {
    seconds: f64,
    /// Kernel dispatches: one per single request plus one per batch.
    dispatches: u64,
    /// Pooled engine dispatches, the submitter team's own included.
    engine_dispatches: u64,
    batches: u64,
    /// Results that were not bitwise equal to the serial product.
    mismatches: u64,
}

fn drive(
    scheduler: &Scheduler,
    matrix: &Arc<spmv_serve::RegisteredMatrix>,
    inputs: &[Vec<f64>],
    expected: &[Vec<f64>],
) -> Run {
    let stats = serve_stats();
    let (completed0, batches0, batched0) =
        (stats.completed(), stats.batches(), stats.batched_requests());
    let engine0 = engine_dispatch().snapshot().dispatches;
    let remaining = AtomicU64::new(SUBMITTERS as u64);
    let mismatches = AtomicU64::new(0);
    let engine = ExecEngine::new(SUBMITTERS + 1);
    let t0 = Instant::now();
    engine.run(&|lane| {
        if lane == 0 {
            scheduler.worker_loop();
            return;
        }
        for i in 0..PER_LANE {
            // Cloning a precomputed input is the whole per-request
            // client cost, so the measured wall clock is dominated by
            // the scheduler + kernel — the thing under test.
            let which = (lane + i) % inputs.len();
            let (_, y) = scheduler
                .submit(Arc::clone(matrix), Mode::Exact, inputs[which].clone())
                .expect("queue sized for all submitters");
            let bitwise = y.len() == expected[which].len()
                && y.iter().zip(&expected[which]).all(|(u, v)| u.to_bits() == v.to_bits());
            if !bitwise {
                mismatches.fetch_add(1, Ordering::SeqCst);
            }
        }
        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            scheduler.shutdown();
        }
    });
    let seconds = t0.elapsed().as_secs_f64();
    let completed = stats.completed() - completed0;
    assert_eq!(completed, TOTAL, "every request completes");
    let batches = stats.batches() - batches0;
    let batched = stats.batched_requests() - batched0;
    Run {
        seconds,
        dispatches: completed - batched + batches,
        engine_dispatches: engine_dispatch().snapshot().dispatches - engine0,
        batches,
        mismatches: mismatches.load(Ordering::SeqCst),
    }
}

#[test]
fn batching_saves_matrix_passes_and_stays_bitwise_serial() {
    // ~1M nnz / ~16 MB: big enough that streaming the matrix
    // dominates a request, which is the regime batching targets.
    let a = gen::banded(60_000, 9, 0.9, 33).unwrap();
    let serial = a.clone();
    let registry = MatrixRegistry::new(2, 1);
    let matrix = registry.register("batch-ab", a).expect("register");

    // Request inputs and their serial products are precomputed:
    // generating them is client-side work, not serving cost.
    let inputs: Vec<Vec<f64>> = (0..4)
        .map(|s| {
            (0..matrix.ncols()).map(|c| ((c * 31 + s * 7) % 101) as f64 * 0.25 - 12.0).collect()
        })
        .collect();
    let expected: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; serial.nrows()];
            serial.spmv(x, &mut y);
            y
        })
        .collect();

    // Warm the engine pools and page in the matrix once.
    let unbatched_scheduler = Scheduler::new(1024, 1);
    let batched_scheduler = Scheduler::new(1024, 8);
    let _ = matrix.run(&[&inputs[0]], Mode::Exact);

    let unbatched = drive(&unbatched_scheduler, &matrix, &inputs, &expected);
    assert_eq!(unbatched.batches, 0, "batch_max = 1 must never coalesce");
    assert_eq!(unbatched.dispatches, TOTAL, "unbatched serving dispatches once per request");
    // Each kernel dispatch is one pooled engine dispatch; the
    // submitter team's own dispatch is the one extra.
    assert_eq!(unbatched.engine_dispatches, unbatched.dispatches + 1);
    assert_eq!(unbatched.mismatches, 0, "unbatched results differ from serial Csr::spmv");

    let batched = drive(&batched_scheduler, &matrix, &inputs, &expected);
    assert!(batched.batches > 0, "no batches formed under {SUBMITTERS} concurrent submitters");
    assert!(
        batched.dispatches < TOTAL,
        "batched serving dispatched {} times for {TOTAL} requests",
        batched.dispatches
    );
    assert_eq!(batched.engine_dispatches, batched.dispatches + 1);
    assert_eq!(batched.mismatches, 0, "batched results differ from serial Csr::spmv");

    eprintln!(
        "batching A/B: {TOTAL} requests, unbatched {:.1} ms ({} dispatches), batched {:.1} ms \
         ({} dispatches, {} batches, {} matrix passes saved, ratio {:.2}x)",
        unbatched.seconds * 1e3,
        unbatched.dispatches,
        batched.seconds * 1e3,
        batched.dispatches,
        batched.batches,
        TOTAL - batched.dispatches,
        unbatched.seconds / batched.seconds
    );
}
