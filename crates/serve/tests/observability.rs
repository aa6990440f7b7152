//! End-to-end request-scoped observability test: a live daemon
//! topology (server lane, scheduler worker lane, client lanes on one
//! `ExecEngine`) serving real HTTP requests, with the process tracer
//! enabled — then the full observability surface is asserted:
//!
//! * every served request's six lifecycle stages (`admitted → queued
//!   → batched → dispatched → kernel → responded`) appear in the
//!   trace ring exactly once each, in causal order, keyed by the
//!   RequestId the response returned;
//! * `/metrics` exemplars reference RequestIds of actual requests
//!   from this run, and the roofline attainment gauges are live;
//! * `GET /v1/observe/{name}` reports the matrix's attainment and the
//!   recent requests' stage breakdowns;
//! * the `/trace` Chrome export carries the per-request track
//!   (pid-2 "requests" process);
//! * a request-tagged pooled dispatch on a traced engine records its
//!   caller-side Task and Dispatch events, each carrying the tag,
//!   while an untraced baseline engine records nothing. The
//!   instrumentation's overhead against that baseline is measured and
//!   printed, not asserted: a wall-clock bound races the scheduler on
//!   small hosts.
//!
//! One test function by design: the tracer, serve counters and
//! roofline monitor are process-global, so this binary owns them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spmv_kernels::engine::with_dispatch_tag;
use spmv_kernels::ExecEngine;
use spmv_serve::SpmvService;
use spmv_sparse::{gen, mm, Csr};
use spmv_telemetry::{
    http_request, serve_latency, tracer, EventKind, JsonValue, MetricsServer, TraceBuffer,
    TraceEvent,
};

const CLIENTS: u64 = 2;
const REQUESTS_PER_CLIENT: usize = 12;
const MATRIX: &str = "obs-e2e";

/// Stage names in causal order.
const STAGES: [&str; 6] = ["admitted", "queued", "batched", "dispatched", "kernel", "responded"];

fn mm_bytes(a: &Csr) -> Vec<u8> {
    let mut out = Vec::new();
    mm::write_csr(&mut out, a).expect("serialize");
    out
}

/// Parses `digest <hex> rid <n>` into the request id.
fn rid_of(body: &[u8]) -> Option<u64> {
    let text = String::from_utf8_lossy(body);
    let mut tokens = text.split_whitespace();
    match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
        (Some("digest"), Some(_), Some("rid"), Some(r)) => r.parse().ok(),
        _ => None,
    }
}

#[test]
fn request_scoped_observability_end_to_end() {
    let trace = tracer();
    trace.clear();
    trace.set_enabled(true);

    let matrix = gen::banded(200, 4, 0.9, 33).unwrap();
    let svc = SpmvService::new(2, 1, 64, 4);
    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    server.set_read_timeout(std::time::Duration::from_millis(500));
    let addr = server.local_addr().expect("bound");
    let stop = AtomicBool::new(false);
    let clients_done = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let rids: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    // Lane plan: 0 = scheduler worker, 1 = HTTP server, 2..=3 =
    // clients firing digest requests at one shared matrix.
    let engine = ExecEngine::new(4);
    let svc_ref = &svc;
    let server_ref = &server;
    let stop_ref = &stop;
    let done_ref = &clients_done;
    let failures_ref = &failures;
    let rids_ref = &rids;
    let matrix_ref = &matrix;
    engine.run(&move |lane| match lane {
        0 => svc_ref.scheduler().worker_loop(),
        1 => {
            server_ref.serve_with(Some(svc_ref), Some(stop_ref), None).expect("serve lane");
            svc_ref.scheduler().shutdown();
        }
        client => {
            let idx = client - 2;
            let run = || -> Result<(), String> {
                // Both clients race to register; 200 and 409 are both
                // "the matrix is there".
                let (status, body) = http_request(
                    addr,
                    "POST",
                    &format!("/v1/matrices/{MATRIX}"),
                    &mm_bytes(matrix_ref),
                )
                .map_err(|e| format!("register io: {e}"))?;
                if status != 200 && status != 409 {
                    return Err(format!("register: {status} {}", String::from_utf8_lossy(&body)));
                }
                for i in 0..REQUESTS_PER_CLIENT {
                    let spec = format!("seed {}", i * 3 + idx);
                    let target = format!("/v1/spmv/{MATRIX}?digest=1");
                    let (status, body) = http_request(addr, "POST", &target, spec.as_bytes())
                        .map_err(|e| format!("spmv io: {e}"))?;
                    if status == 503 {
                        continue; // shed: legal under backpressure
                    }
                    if status != 200 {
                        return Err(format!("spmv: {status} {}", String::from_utf8_lossy(&body)));
                    }
                    let rid = rid_of(&body).ok_or_else(|| {
                        format!("response missing rid: {}", String::from_utf8_lossy(&body))
                    })?;
                    rids_ref.lock().unwrap().push(rid);
                }
                Ok(())
            };
            if let Err(e) = run() {
                eprintln!("client {idx} failed: {e}");
                failures_ref.fetch_add(1, Ordering::SeqCst);
            }
            if done_ref.fetch_add(1, Ordering::SeqCst) + 1 == CLIENTS {
                // Last client: exercise the observability surfaces
                // over live HTTP before stopping the daemon.
                if let Err(e) = assert_http_surfaces(addr, rids_ref) {
                    eprintln!("observability surface failed: {e}");
                    failures_ref.fetch_add(1, Ordering::SeqCst);
                }
                let _ = http_request(addr, "POST", "/control/stop", b"");
            }
        }
    });

    assert_eq!(failures.load(Ordering::SeqCst), 0, "a client or surface check failed");
    let rids = rids.into_inner().unwrap();
    assert!(
        rids.len() >= REQUESTS_PER_CLIENT,
        "too few completions for a meaningful run: {}",
        rids.len()
    );

    // Every served request's span timeline is complete and causal.
    let stage_events: Vec<TraceEvent> =
        trace.snapshot().into_iter().filter(|e| e.kind == EventKind::Stage).collect();
    for &rid in &rids {
        let mine: Vec<&TraceEvent> = stage_events.iter().filter(|e| e.arg == rid).collect();
        let mut starts = Vec::with_capacity(STAGES.len());
        for stage in STAGES {
            let hits: Vec<&&TraceEvent> = mine.iter().filter(|e| e.name == stage).collect();
            assert_eq!(
                hits.len(),
                1,
                "request {rid}: stage {stage:?} emitted {} times (events: {mine:?})",
                hits.len()
            );
            starts.push(hits[0].start_ns);
        }
        for (i, pair) in starts.windows(2).enumerate() {
            assert!(
                pair[0] <= pair[1],
                "request {rid}: stage {:?} (t={}) starts after {:?} (t={})",
                STAGES[i],
                pair[0],
                STAGES[i + 1],
                pair[1]
            );
        }
    }

    // Exemplars point at real requests from this run.
    let exemplars: Vec<_> = serve_latency().snapshot().exemplars.into_iter().flatten().collect();
    assert!(!exemplars.is_empty(), "no exemplar recorded by {} completions", rids.len());
    for ex in &exemplars {
        assert!(
            rids.contains(&ex.rid),
            "exemplar rid {} is not a request of this run: {ex:?}",
            ex.rid
        );
        assert!(ex.kernel_seconds > 0.0, "exemplar missing kernel share: {ex:?}");
    }

    trace.set_enabled(false);

    let (base, instrumented) = tagged_dispatch_events();
    eprintln!(
        "pooled dispatch: baseline {:.1} us, instrumented {:.1} us ({:+.2}%)",
        base * 1e6,
        instrumented * 1e6,
        (instrumented / base - 1.0) * 100.0
    );
}

/// Scrapes `/metrics`, `/v1/observe/{name}` and `/trace` over live
/// HTTP and asserts the new observability surfaces are populated.
fn assert_http_surfaces(addr: std::net::SocketAddr, rids: &Mutex<Vec<u64>>) -> Result<(), String> {
    let fetch = |path: &str| -> Result<String, String> {
        let (status, body) =
            http_request(addr, "GET", path, b"").map_err(|e| format!("{path} io: {e}"))?;
        if status != 200 {
            return Err(format!("{path}: status {status}"));
        }
        Ok(String::from_utf8_lossy(&body).into_owned())
    };

    let metrics = fetch("/metrics")?;
    if !metrics.contains(&format!("spmv_roofline_attainment{{matrix=\"{MATRIX}\"}}")) {
        return Err(format!("roofline attainment gauge missing:\n{metrics}"));
    }
    if !metrics.contains(" # {request_id=\"") {
        return Err(format!("no exemplar on any latency bucket:\n{metrics}"));
    }

    let observe = fetch(&format!("/v1/observe/{MATRIX}"))?;
    let doc = JsonValue::parse(&observe).map_err(|e| format!("observe parse: {e:?}"))?;
    let attainment = doc
        .get("roofline")
        .and_then(|r| r.get("attainment"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("observe missing roofline attainment: {observe}"))?;
    if attainment <= 0.0 {
        return Err(format!("attainment not accumulating: {observe}"));
    }
    let known = rids.lock().unwrap();
    let requests = doc
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("observe missing requests: {observe}"))?;
    if requests.is_empty() {
        return Err("observe reports no recent requests".to_string());
    }
    for req in requests {
        let rid = req
            .get("rid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("observation missing rid: {observe}"))?;
        // The ring may already hold requests whose responses are
        // still in flight to the other client, so only rids we have
        // *collected* are checkable — but every checked one must be
        // ours (the registry serves only this test's matrix).
        if !known.contains(&rid) && known.len() >= CLIENTS as usize * REQUESTS_PER_CLIENT {
            return Err(format!("observation rid {rid} unknown to any client"));
        }
    }

    let chrome = fetch("/trace")?;
    if !chrome.contains("\"requests\"") || !chrome.contains("\"admitted\"") {
        return Err("Chrome export missing the per-request track".to_string());
    }
    Ok(())
}

/// Runs the serving plane's dispatch instrumentation (dispatch tag +
/// trace records) on two private engines: a baseline (tracer
/// disabled, no tag) and an instrumented one (tracer enabled, every
/// dispatch request-tagged). Asserts the events each one recorded and
/// returns their best-of-N wall times per dispatch
/// `(base, instrumented)`.
fn tagged_dispatch_events() -> (f64, f64) {
    const LANES: usize = 2;
    const REPS: u64 = 50;
    const WORK: u64 = 400_000;
    const FIRST_TAG: u64 = 7_000;

    let work = |lane: usize| {
        let mut acc = lane as f64;
        for i in 0..WORK {
            acc = acc.mul_add(1.000000001, (i & 7) as f64 * 1e-9);
        }
        std::hint::black_box(acc);
    };

    let base_trace: &'static TraceBuffer = Box::leak(Box::new(TraceBuffer::new(1024)));
    let instr_trace: &'static TraceBuffer = Box::leak(Box::new(TraceBuffer::new(1024)));
    instr_trace.set_enabled(true);
    let base_engine = ExecEngine::with_tracer(LANES, base_trace);
    let instr_engine = ExecEngine::with_tracer(LANES, instr_trace);

    let minimum = |engine: &ExecEngine, tagged: bool| -> f64 {
        let mut best = f64::INFINITY;
        for rep in 0..REPS {
            let t0 = Instant::now();
            if tagged {
                with_dispatch_tag(FIRST_TAG + rep, || engine.run_labeled("overhead-instr", &work));
            } else {
                engine.run_labeled("overhead-base", &work);
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    // Warm both pools before timing.
    for _ in 0..5 {
        base_engine.run_labeled("warmup", &work);
        instr_engine.run_labeled("warmup", &work);
    }
    let base = minimum(&base_engine, false);
    let instrumented = minimum(&instr_engine, true);

    assert_eq!(base_trace.recorded(), 0, "the disabled baseline tracer recorded events");
    assert_eq!(instr_trace.dropped(), 0, "the ring wrapped; the event counts below are partial");
    // Each tagged dispatch leaves exactly one caller-side (lane 0)
    // Task and one Dispatch event, and both carry that dispatch's tag.
    let caller: Vec<TraceEvent> = instr_trace
        .snapshot()
        .into_iter()
        .filter(|e| e.tid == 0 && e.name == "overhead-instr")
        .collect();
    let want: Vec<u64> = (FIRST_TAG..FIRST_TAG + REPS).collect();
    for kind in [EventKind::Task, EventKind::Dispatch] {
        let mut tags: Vec<u64> = caller.iter().filter(|e| e.kind == kind).map(|e| e.arg).collect();
        tags.sort_unstable();
        assert_eq!(tags, want, "{kind:?} events of the tagged dispatches");
    }
    (base, instrumented)
}
