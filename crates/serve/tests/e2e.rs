//! End-to-end serving test: a real daemon topology inside one test —
//! HTTP server lane, scheduler worker lane and client lanes all
//! running concurrently on one `ExecEngine` (the workspace bans
//! thread creation outside the engine, so the engine IS the test's
//! concurrency source, exactly as in the daemon).
//!
//! Two matrices are registered over HTTP, clients fire concurrent
//! mixed requests (both matrices, exact + tuned modes, full + digest
//! responses) so the scheduler sees interleaved traffic it can
//! coalesce, every full response is asserted to be exactly `17 ·
//! nrows` bytes of lowercase-hex lines and **bitwise-equal** to the
//! serial reference, and `/metrics` is asserted to export the serving
//! latency histogram and rejection counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use spmv_kernels::ExecEngine;
use spmv_serve::{service::build_x, Mode, Scheduler, SpmvService, SubmitError};
use spmv_sparse::{gen, mm, Csr};
use spmv_telemetry::{http_request, serve_stats, MetricsServer};

/// Requests per client lane (×2 lanes ×2 phases keeps the test fast
/// but still overlapping enough to form batches).
const REQUESTS_PER_CLIENT: usize = 30;

fn mm_bytes(a: &Csr) -> Vec<u8> {
    let mut out = Vec::new();
    mm::write_csr(&mut out, a).expect("serialize");
    out
}

/// Checks the full-vector wire format: exactly `nrows` lines of 16
/// lowercase hex digits and `\n`, 17 bytes each.
fn check_hex_lines(body: &[u8], nrows: usize) -> Result<(), String> {
    if body.len() != 17 * nrows {
        return Err(format!("reply is {} bytes, want 17 x {nrows}", body.len()));
    }
    for (row, line) in body.chunks_exact(17).enumerate() {
        let digits_ok = line[..16].iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        if !digits_ok || line[16] != b'\n' {
            return Err(format!("row {row} is not a [0-9a-f]{{16}} line: {line:?}"));
        }
    }
    Ok(())
}

fn hex_vector(body: &[u8]) -> Vec<f64> {
    String::from_utf8_lossy(body)
        .lines()
        .map(|l| f64::from_bits(u64::from_str_radix(l.trim(), 16).expect("hex f64")))
        .collect()
}

fn serial_reference(a: &Csr, spec: &str) -> Vec<f64> {
    let x = build_x(spec, a.ncols()).expect("spec");
    let mut y = vec![0.0; a.nrows()];
    a.spmv(&x, &mut y);
    y
}

#[test]
fn serving_plane_end_to_end() {
    let matrix_a = gen::banded(180, 4, 0.9, 21).unwrap();
    let matrix_b = gen::powerlaw(240, 5, 2.0, 22).unwrap();

    let svc = SpmvService::new(2, 1, 64, 4);
    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    server.set_read_timeout(std::time::Duration::from_millis(500));
    let addr = server.local_addr().expect("bound");
    let stop = AtomicBool::new(false);
    let clients_done = AtomicU64::new(0);
    let failures: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

    // Lane plan: 0 = scheduler worker, 1..=2 = HTTP server lanes
    // (two, so client requests genuinely overlap and the scheduler
    // can coalesce), 3..=4 = clients.
    let engine = ExecEngine::new(5);
    let svc_ref = &svc;
    let server_ref = &server;
    let stop_ref = &stop;
    let done_ref = &clients_done;
    let failures_ref = &failures;
    let a_ref = &matrix_a;
    let b_ref = &matrix_b;
    engine.run(&move |lane| match lane {
        0 => svc_ref.scheduler().worker_loop(),
        1 | 2 => {
            server_ref.serve_with(Some(svc_ref), Some(stop_ref), None).expect("serve lane");
            // Server stopped: drain the scheduler so lane 0 exits
            // (idempotent across the two serve lanes).
            svc_ref.scheduler().shutdown();
        }
        client => {
            let idx = client - 3;
            let (name, matrix) = if idx == 0 { ("mat-a", a_ref) } else { ("mat-b", b_ref) };
            let run = || -> Result<(), String> {
                // Register this client's matrix over HTTP.
                let (status, body) =
                    http_request(addr, "POST", &format!("/v1/matrices/{name}"), &mm_bytes(matrix))
                        .map_err(|e| format!("register io: {e}"))?;
                if status != 200 {
                    return Err(format!("register: {status} {}", String::from_utf8_lossy(&body)));
                }
                for i in 0..REQUESTS_PER_CLIENT {
                    let spec = format!("seed {}", i * 7 + idx);
                    let mode = if i % 3 == 0 { "?mode=tuned" } else { "" };
                    let target = format!("/v1/spmv/{name}{mode}");
                    let (status, body) = http_request(addr, "POST", &target, spec.as_bytes())
                        .map_err(|e| format!("spmv io: {e}"))?;
                    if status == 503 {
                        continue; // shed by backpressure: legal, counted server-side
                    }
                    if status != 200 {
                        return Err(format!("spmv: {status} {}", String::from_utf8_lossy(&body)));
                    }
                    check_hex_lines(&body, matrix.nrows())
                        .map_err(|e| format!("{name} wire format: {e}"))?;
                    let y = hex_vector(&body);
                    let y_ref = serial_reference(matrix, &spec);
                    if mode.is_empty() {
                        // Exact mode (incl. any batch it was coalesced
                        // into) must be bitwise-serial.
                        for (row, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                            if got.to_bits() != want.to_bits() {
                                return Err(format!("bitwise mismatch {name} row {row}"));
                            }
                        }
                    } else {
                        for (got, want) in y.iter().zip(&y_ref) {
                            if (got - want).abs() > 1e-10 * want.abs().max(1.0) {
                                return Err(format!("tuned tolerance exceeded on {name}"));
                            }
                        }
                    }
                }
                // One mid-flight /metrics scrape over HTTP.
                let (status, body) = http_request(addr, "GET", "/metrics", b"")
                    .map_err(|e| format!("metrics io: {e}"))?;
                if status != 200 || !String::from_utf8_lossy(&body).contains("spmv_serve_latency") {
                    return Err("metrics scrape missing serve histogram".to_string());
                }
                Ok(())
            };
            if let Err(e) = run() {
                eprintln!("client {idx} failed: {e}");
                failures_ref[idx].store(1, Ordering::SeqCst);
            }
            // Last client out stops the server.
            if done_ref.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                let _ = http_request(addr, "POST", "/control/stop", b"");
            }
        }
    });

    assert_eq!(failures[0].load(Ordering::SeqCst), 0, "client 0 failed");
    assert_eq!(failures[1].load(Ordering::SeqCst), 0, "client 1 failed");

    // The global serving counters saw this traffic (other tests in
    // this binary would share the statics, but e2e is the only test
    // here by design).
    let stats = serve_stats();
    assert!(stats.admitted() >= 2, "no requests admitted");
    assert!(stats.completed() >= 2, "no requests completed");

    // Rejection path: a capacity-0 scheduler sheds, and the rejection
    // shows up in the same global counters /metrics exports.
    let rejecting = Scheduler::rejecting();
    let m = svc.registry().get("mat-a").expect("registered");
    let err = rejecting.submit(Arc::clone(&m), Mode::Exact, vec![0.0; m.ncols()]).unwrap_err();
    assert_eq!(err, SubmitError::QueueFull);
    assert!(stats.rejected() >= 1);

    // Final exposition snapshot: histogram populated, counters exported.
    let text = spmv_telemetry::MetricsRegistry::gather().render();
    let count: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("spmv_serve_latency_seconds_count "))
        .expect("histogram count exported")
        .parse()
        .unwrap();
    assert!(count >= 2.0, "latency histogram empty:\n{text}");
    let p99: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("spmv_serve_latency_p99_seconds "))
        .expect("p99 exported")
        .parse()
        .unwrap();
    assert!(p99 > 0.0, "p99 not populated");
    assert!(text.contains("\nspmv_serve_rejected_total "), "rejection counter missing");
    assert!(text.contains("spmv_serve_latency_seconds_bucket{le=\"+Inf\"}"), "buckets missing");
}
