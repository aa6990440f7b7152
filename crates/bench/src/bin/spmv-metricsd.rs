//! `spmv-metricsd`: the standalone metrics endpoint and (in `serve`
//! mode) the SpMV serving daemon.
//!
//! ```text
//! spmv-metricsd [--addr HOST:PORT] [--requests N]
//!               [--load none|burst|loop|serve]
//!               [--lanes N] [--threads N] [--tune-reps N]
//!               [--queue-cap N] [--batch N]
//! ```
//!
//! Binds the Prometheus/trace HTTP endpoint from `spmv-telemetry` and
//! serves the process-wide counters:
//!
//! * `--addr`     bind address (default `127.0.0.1:9464`; port 0 picks
//!   a free port, printed on startup);
//! * `--requests` exit after serving N connections (default: forever;
//!   ignored by `serve` mode, which stops on `POST /control/stop`);
//! * `--load`     telemetry source: `burst` (default) runs a short
//!   pooled SpMV sweep once before serving, so scrapes and traces show
//!   real dispatch data; `loop` keeps re-running the sweep on a second
//!   engine lane while serving (requires `--requests` to terminate);
//!   `none` serves whatever the process has already recorded; `serve`
//!   mounts the full serving plane (below).
//!
//! # Serve mode (DESIGN.md §12)
//!
//! `--load serve` mounts `spmv-serve`'s [`SpmvService`] on the
//! endpoint: matrices are uploaded to `POST /v1/matrices/{name}`
//! (tuned once at registration), served via `POST /v1/spmv/{name}`,
//! and the daemon exits when a client posts `/control/stop` (which
//! `spmv-loadgen --stop` does). Knobs:
//!
//! * `--lanes`     concurrent HTTP serve lanes (default 2);
//! * `--threads`   kernel thread count per dispatch (default 2);
//! * `--tune-reps` profiling reps per menu-search candidate
//!   (default 3);
//! * `--queue-cap` admission bound — beyond this many queued requests
//!   the daemon sheds load with 503 (default 256);
//! * `--batch`     max same-matrix requests coalesced into one SpMM
//!   dispatch (default 8; `1` disables batching, for A/B runs).
//!
//! The global tracer is enabled for the lifetime of the daemon, so
//! `GET /trace` returns a Chrome trace of the most recent events —
//! open it at <https://ui.perfetto.dev>.
//!
//! The daemon itself creates no threads: serve lanes, the scheduler
//! worker and the load loop all run as lanes of one `ExecEngine`
//! dispatch, because thread creation is confined to the engine.

use std::sync::atomic::{AtomicBool, Ordering};

use spmv_bench::cli::{flag_parsed, flag_value, reject_unknown_flags, CliError};
use spmv_bench::load_suite;
use spmv_kernels::engine::ExecEngine;
use spmv_kernels::variant::{build_kernel, Format, KernelSpec};
use spmv_kernels::MAX_BATCH;
use spmv_serve::{SpmvService, DEFAULT_QUEUE_CAP};
use spmv_telemetry::MetricsServer;

/// Suite fraction used by the load generator: big enough to produce
/// visible imbalance, small enough to loop at a few Hz.
const LOAD_SCALE: f64 = 0.02;

const USAGE: &str = "usage: spmv-metricsd [--addr HOST:PORT] [--requests N] \
[--load none|burst|loop|serve] [--lanes N] [--threads N] [--tune-reps N] \
[--queue-cap N] [--batch N]";

const KNOWN_FLAGS: [&str; 8] = [
    "--addr",
    "--requests",
    "--load",
    "--lanes",
    "--threads",
    "--tune-reps",
    "--queue-cap",
    "--batch",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = run(&args) {
        eprintln!("spmv-metricsd: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    reject_unknown_flags(args, &KNOWN_FLAGS, &[])?;
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:9464".to_string());
    let requests = flag_parsed::<u64>(args, "--requests")?;
    let load = flag_value(args, "--load")?.unwrap_or_else(|| "burst".to_string());

    spmv_telemetry::tracer().set_enabled(true);

    let server = MetricsServer::bind(&addr)
        .unwrap_or_else(|e| panic!("spmv-metricsd: cannot bind {addr}: {e}"));
    let bound = server.local_addr().expect("bound address");
    eprintln!("spmv-metricsd: listening on http://{bound} (/metrics, /trace)");

    match load.as_str() {
        "none" => {
            let served = server.serve(requests).expect("serve");
            eprintln!("spmv-metricsd: served {served} connection(s), exiting");
        }
        "burst" => {
            run_sweep(2);
            eprintln!("spmv-metricsd: burst load complete, serving");
            let served = server.serve(requests).expect("serve");
            eprintln!("spmv-metricsd: served {served} connection(s), exiting");
        }
        "loop" => {
            if requests.is_none() {
                eprintln!("spmv-metricsd: --load loop without --requests never exits");
            }
            // Lane 0 serves; lane 1 regenerates telemetry until the
            // serve loop finishes.
            let done = AtomicBool::new(false);
            let engine = ExecEngine::new(2);
            engine.run(&|lane| {
                if lane == 0 {
                    let served = server.serve(requests).expect("serve");
                    eprintln!("spmv-metricsd: served {served} connection(s), exiting");
                    done.store(true, Ordering::SeqCst);
                } else {
                    while !done.load(Ordering::SeqCst) {
                        run_sweep(1);
                    }
                }
            });
        }
        "serve" => serve_mode(args, &server)?,
        other => {
            return Err(CliError(format!("unknown --load mode {other:?} (none|burst|loop|serve)")))
        }
    }
    Ok(())
}

/// The serving plane: scheduler worker on lane 0, HTTP serve lanes
/// after it, all inside one engine dispatch. Exits when a client
/// posts `/control/stop`.
fn serve_mode(args: &[String], server: &MetricsServer) -> Result<(), CliError> {
    let lanes = flag_parsed::<usize>(args, "--lanes")?.unwrap_or(2).max(1);
    let threads = flag_parsed::<usize>(args, "--threads")?.unwrap_or(2).max(1);
    let tune_reps = flag_parsed::<usize>(args, "--tune-reps")?.unwrap_or(3).max(1);
    let queue_cap = flag_parsed::<usize>(args, "--queue-cap")?.unwrap_or(DEFAULT_QUEUE_CAP);
    let batch = flag_parsed::<usize>(args, "--batch")?.unwrap_or(MAX_BATCH).clamp(1, MAX_BATCH);

    let svc = SpmvService::new(threads, tune_reps, queue_cap, batch);
    let stop = AtomicBool::new(false);
    eprintln!(
        "spmv-metricsd: serving plane up ({lanes} lane(s), {threads} thread(s), \
         queue cap {queue_cap}, batch {batch}); stop with POST /control/stop"
    );

    let engine = ExecEngine::new(lanes + 1);
    let svc_ref = &svc;
    engine.run(&|lane| {
        if lane == 0 {
            svc_ref.scheduler().worker_loop();
        } else {
            match server.serve_with(Some(svc_ref), Some(&stop), None) {
                Ok(served) => eprintln!("spmv-metricsd: lane {lane} served {served} request(s)"),
                Err(e) => eprintln!("spmv-metricsd: lane {lane} listener error: {e}"),
            }
            // First lane out drains the scheduler; idempotent.
            svc_ref.scheduler().shutdown();
        }
    });
    let stats = spmv_telemetry::serve_stats();
    eprintln!(
        "spmv-metricsd: done — admitted {} rejected {} completed {} batches {} ({} batched)",
        stats.admitted(),
        stats.rejected(),
        stats.completed(),
        stats.batches(),
        stats.batched_requests(),
    );
    Ok(())
}

/// One short pooled sweep over a few suite matrices: populates the
/// dispatch stats, preprocessing counters and the event trace.
fn run_sweep(nthreads: usize) {
    for nm in load_suite(LOAD_SCALE).iter().take(4) {
        let a = &nm.matrix;
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        let built = build_kernel(a, KernelSpec::of(Format::Csr), nthreads);
        for _ in 0..5 {
            built.kernel.run(&x, &mut y);
        }
    }
}
