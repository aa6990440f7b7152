//! `spmv-loadgen`: replay a request stream against the serving
//! daemon and report latency.
//!
//! ```text
//! spmv-loadgen --addr HOST:PORT [--requests N] [--lanes K]
//!              [--mode exact|tuned|mixed] [--rows N] [--band W]
//!              [--report PATH] [--trace-sample K] [--stop]
//! ```
//!
//! The generator uploads one deterministic banded matrix (so the run
//! is self-contained against a fresh daemon; re-runs get 409 and
//! reuse the registration), then `--lanes` concurrent client lanes
//! drain a shared counter of `--requests` digest requests. Request
//! inputs are `seed i` specs with seeds cycling through a small
//! space, so every response digest is verified against a locally
//! precomputed serial reference — a wrong bit anywhere fails the run.
//!
//! Latency is measured around the whole HTTP round trip
//! (client-side histogram) and additionally scraped from the
//! daemon's `/metrics` (`spmv_serve_latency_*`, the queue-to-result
//! server-side view). The report prints both p50/p99 pairs plus
//! throughput, and `--report` writes the same numbers as JSON for CI
//! artifacts.
//!
//! * `--requests` total requests to replay (default 100000);
//! * `--lanes`    concurrent client lanes (default 4) — lanes are
//!   `ExecEngine` lanes, not threads, per the workspace containment
//!   policy;
//! * `--mode`     per-request kernel mode; `mixed` (default)
//!   alternates exact/tuned so the daemon sees heterogeneous traffic;
//! * `--rows`, `--band` shape of the generated matrix (defaults
//!   2000×7-band — small enough that HTTP dominates, so the daemon's
//!   scheduler is the thing under load);
//! * `--trace-sample K` print the K slowest requests (by client
//!   latency) with their server-side stage breakdowns, joined by
//!   RequestId against `GET /v1/observe/{name}` — the quick "why was
//!   that request slow?" view without opening a Chrome trace. The
//!   daemon keeps only a short ring of recent requests, so each lane
//!   fetches a request's breakdown the moment it enters that lane's
//!   K slowest;
//! * `--stop`     post `/control/stop` when done (shuts the daemon
//!   down, for bounded CI runs).
//!
//! Exit status: 0 on success, 1 on any verification or transport
//! failure, 2 on usage errors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spmv_bench::cli::{flag_parsed, flag_present, flag_value, reject_unknown_flags, CliError};
use spmv_kernels::engine::ExecEngine;
use spmv_serve::{digest, service::build_x};
use spmv_sparse::{gen, mm};
use spmv_telemetry::{http_request, JsonValue, LatencyHistogram};

/// Seeds cycle through this space so expected digests are
/// precomputed once, not per request.
const SEED_SPACE: u64 = 64;

const USAGE: &str = "usage: spmv-loadgen --addr HOST:PORT [--requests N] [--lanes K] \
[--mode exact|tuned|mixed] [--rows N] [--band W] [--report PATH] [--trace-sample K] [--stop]";

const KNOWN_FLAGS: [&str; 9] = [
    "--addr",
    "--requests",
    "--lanes",
    "--mode",
    "--rows",
    "--band",
    "--report",
    "--trace-sample",
    "--stop",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("spmv-loadgen: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<bool, CliError> {
    reject_unknown_flags(args, &KNOWN_FLAGS, &["--stop"])?;
    let addr =
        flag_value(args, "--addr")?.ok_or_else(|| CliError("--addr is required".to_string()))?;
    let requests = flag_parsed::<u64>(args, "--requests")?.unwrap_or(100_000);
    let lanes = flag_parsed::<usize>(args, "--lanes")?.unwrap_or(4).max(1);
    let mode = flag_value(args, "--mode")?.unwrap_or_else(|| "mixed".to_string());
    if !matches!(mode.as_str(), "exact" | "tuned" | "mixed") {
        return Err(CliError(format!("bad --mode {mode:?} (exact|tuned|mixed)")));
    }
    let rows = flag_parsed::<usize>(args, "--rows")?.unwrap_or(2000);
    let band = flag_parsed::<usize>(args, "--band")?.unwrap_or(7);
    let report_path = flag_value(args, "--report")?;
    let trace_sample = flag_parsed::<usize>(args, "--trace-sample")?.unwrap_or(0);
    let stop = flag_present(args, "--stop");

    // Deterministic workload matrix; name encodes the shape so
    // differently-shaped runs don't collide on one daemon.
    let a = gen::banded(rows, band, 0.9, 42).expect("generate matrix");
    let name = format!("loadgen-{rows}x{band}");
    let mut body = Vec::new();
    mm::write_csr(&mut body, &a).expect("serialize matrix");
    let (status, reply) = http_request(&addr, "POST", &format!("/v1/matrices/{name}"), &body)
        .map_err(|e| CliError(format!("cannot reach daemon at {addr}: {e}")))?;
    match status {
        200 => eprintln!("spmv-loadgen: registered {name} ({rows}x{rows}, {} nnz)", a.nnz()),
        409 => eprintln!("spmv-loadgen: reusing existing registration of {name}"),
        s => {
            return Err(CliError(format!(
                "registration failed ({s}): {}",
                String::from_utf8_lossy(&reply)
            )))
        }
    }

    // Expected digests for the whole seed space, from the serial
    // reference — the bitwise ground truth of the exact mode, and
    // what the batch path must reproduce in every mode.
    let expected: Vec<u64> = (0..SEED_SPACE)
        .map(|s| {
            let x = build_x(&format!("seed {s}"), a.ncols()).expect("spec");
            let mut y = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y);
            digest(&y)
        })
        .collect();

    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let hist = LatencyHistogram::new();
    // Each lane's `--trace-sample` slowest requests, merged at the end.
    let samples = std::sync::Mutex::new(Vec::<Slow>::new());

    eprintln!("spmv-loadgen: replaying {requests} request(s) over {lanes} lane(s), mode {mode}");
    let t0 = Instant::now();
    let engine = ExecEngine::new(lanes);
    engine.run(&|_lane| {
        let mut slowest = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= requests {
                break;
            }
            let seed = i % SEED_SPACE;
            let mode_q = match mode.as_str() {
                "exact" => "",
                "tuned" => "&mode=tuned",
                _ => {
                    if i.is_multiple_of(2) {
                        ""
                    } else {
                        "&mode=tuned"
                    }
                }
            };
            let target = format!("/v1/spmv/{name}?digest=1{mode_q}");
            let spec = format!("seed {seed}");
            let sent = Instant::now();
            match http_request(&addr, "POST", &target, spec.as_bytes()) {
                Ok((200, body)) => {
                    let latency = sent.elapsed().as_secs_f64();
                    hist.observe(latency);
                    completed.fetch_add(1, Ordering::Relaxed);
                    let text = String::from_utf8_lossy(&body);
                    // Response shape: `digest <hex> rid <n>`.
                    let mut tokens = text.split_whitespace();
                    let got = match (tokens.next(), tokens.next()) {
                        (Some("digest"), Some(h)) => u64::from_str_radix(h, 16).ok(),
                        _ => None,
                    };
                    let rid = match (tokens.next(), tokens.next()) {
                        (Some("rid"), Some(r)) => r.parse::<u64>().ok(),
                        _ => None,
                    };
                    // Exact mode is bitwise-reproducible, so its digest
                    // must equal the serial reference's. Tuned mode only
                    // promises tolerance-level agreement — its responses
                    // are checked for shape, not bits. A missing rid is a
                    // protocol break either way.
                    let verifiable = mode_q.is_empty();
                    if got.is_none()
                        || rid.is_none()
                        || (verifiable && got != Some(expected[seed as usize]))
                    {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    if trace_sample > 0 {
                        if let Some(rid) = rid {
                            let slow = Slow { latency, rid, seed, breakdown: None };
                            keep_if_slow(&mut slowest, trace_sample, slow, &addr, &name);
                        }
                    }
                }
                Ok((503, _)) => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                Ok((s, body)) => {
                    if errors.fetch_add(1, Ordering::Relaxed) < 5 {
                        eprintln!(
                            "spmv-loadgen: request {i} failed ({s}): {}",
                            String::from_utf8_lossy(&body).trim()
                        );
                    }
                }
                Err(e) => {
                    if errors.fetch_add(1, Ordering::Relaxed) < 5 {
                        eprintln!("spmv-loadgen: request {i} transport error: {e}");
                    }
                }
            }
        }
        samples.lock().unwrap().extend(slowest);
    });
    let elapsed = t0.elapsed().as_secs_f64();

    // Server-side view before stopping the daemon.
    let metrics = http_request(&addr, "GET", "/metrics", b"")
        .ok()
        .filter(|(s, _)| *s == 200)
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let slow = (trace_sample > 0)
        .then(|| slow_request_report(samples.into_inner().unwrap_or_default(), trace_sample));
    if stop {
        let _ = http_request(&addr, "POST", "/control/stop", b"");
    }

    let done = completed.load(Ordering::Relaxed);
    let snap = hist.snapshot();
    let client_p50 = snap.quantile(0.5).unwrap_or(0.0);
    let client_p99 = snap.quantile(0.99).unwrap_or(0.0);
    let server_p50 = scrape(&metrics, "spmv_serve_latency_p50_seconds").unwrap_or(0.0);
    let server_p99 = scrape(&metrics, "spmv_serve_latency_p99_seconds").unwrap_or(0.0);
    let batches = scrape(&metrics, "spmv_serve_batches_total").unwrap_or(0.0);
    let batched = scrape(&metrics, "spmv_serve_batched_requests_total").unwrap_or(0.0);
    let rejected = scrape(&metrics, "spmv_serve_rejected_total").unwrap_or(0.0);
    let rps = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };

    println!("spmv-loadgen report");
    println!(
        "  requests   {requests} ({done} completed, {} shed, {} errors, {} digest mismatches)",
        shed.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
        mismatches.load(Ordering::Relaxed)
    );
    println!("  wall       {elapsed:.3} s ({rps:.0} req/s over {lanes} lane(s))");
    println!("  client     p50 {:.1} us   p99 {:.1} us", client_p50 * 1e6, client_p99 * 1e6);
    println!("  server     p50 {:.1} us   p99 {:.1} us", server_p50 * 1e6, server_p99 * 1e6);
    println!("  batching   {batches:.0} batches carrying {batched:.0} request(s); {rejected:.0} rejected");
    if let Some(slow) = &slow {
        print!("{slow}");
    }

    if let Some(path) = report_path {
        let doc = JsonValue::obj()
            .with("requests", requests)
            .with("completed", done)
            .with("shed", shed.load(Ordering::Relaxed))
            .with("errors", errors.load(Ordering::Relaxed))
            .with("digest_mismatches", mismatches.load(Ordering::Relaxed))
            .with("lanes", lanes)
            .with("mode", mode.as_str())
            .with("wall_seconds", elapsed)
            .with("requests_per_second", rps)
            .with("client_p50_seconds", client_p50)
            .with("client_p99_seconds", client_p99)
            .with("server_p50_seconds", server_p50)
            .with("server_p99_seconds", server_p99)
            .with("server_batches", batches)
            .with("server_batched_requests", batched)
            .with("server_rejected", rejected);
        std::fs::write(&path, doc.render_pretty(2) + "\n")
            .unwrap_or_else(|e| panic!("spmv-loadgen: cannot write {path}: {e}"));
        eprintln!("spmv-loadgen: report written to {path}");
    }

    let ok =
        done > 0 && mismatches.load(Ordering::Relaxed) == 0 && errors.load(Ordering::Relaxed) == 0;
    if !ok {
        eprintln!("spmv-loadgen: FAILED (no completions, mismatches, or transport errors)");
    }
    Ok(ok)
}

/// One completed request, with its server-side stage breakdown once
/// fetched.
struct Slow {
    latency: f64,
    rid: u64,
    seed: u64,
    breakdown: Option<JsonValue>,
}

/// Keeps `slowest` as the `k` slowest requests a lane has completed,
/// slowest first. A request that enters it has its breakdown fetched
/// from `GET /v1/observe/{name}` right away: the daemon records a
/// request in its bounded ring before replying, and only the few
/// requests completed since then can have pushed it out.
fn keep_if_slow(slowest: &mut Vec<Slow>, k: usize, mut slow: Slow, addr: &str, name: &str) {
    if slowest.len() >= k && slowest.last().is_some_and(|s| s.latency >= slow.latency) {
        return;
    }
    slow.breakdown = http_request(addr, "GET", &format!("/v1/observe/{name}"), b"")
        .ok()
        .filter(|(s, _)| *s == 200)
        .and_then(|(_, b)| JsonValue::parse(&String::from_utf8_lossy(&b)).ok())
        .and_then(|doc| {
            doc.get("requests")?
                .as_array()?
                .iter()
                .find(|o| o.get("rid").and_then(JsonValue::as_u64) == Some(slow.rid))
                .cloned()
        });
    slowest.push(slow);
    slowest.sort_by(|a, b| b.latency.total_cmp(&a.latency));
    slowest.truncate(k);
}

/// The `--trace-sample` report: the `k` slowest completed requests by
/// client latency across all lanes, with the stage breakdowns their
/// lanes fetched.
fn slow_request_report(mut samples: Vec<Slow>, k: usize) -> String {
    samples.sort_by(|a, b| b.latency.total_cmp(&a.latency));
    samples.truncate(k);
    let mut out = format!("  slowest {} request(s) by client latency:\n", samples.len());
    for Slow { latency, rid, seed, breakdown } in &samples {
        match breakdown {
            Some(o) => {
                let get = |key: &str| o.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                    "    rid {rid} seed {seed}: client {:.1} us | server queue {:.1} us, \
kernel {:.1} us, total {:.1} us (batch of {})\n",
                    latency * 1e6,
                    get("queue_seconds") * 1e6,
                    get("kernel_seconds") * 1e6,
                    get("total_seconds") * 1e6,
                    o.get("batch").and_then(JsonValue::as_u64).unwrap_or(1),
                ));
            }
            None => out.push_str(&format!(
                "    rid {rid} seed {seed}: client {:.1} us | server breakdown already \
evicted from the observation ring\n",
                latency * 1e6
            )),
        }
    }
    out
}

/// Extracts the value of an unlabeled sample from Prometheus text.
fn scrape(metrics: &str, name: &str) -> Option<f64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}
