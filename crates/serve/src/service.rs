//! HTTP service surface: routes the exposition server's requests
//! into the registry and scheduler.
//!
//! [`SpmvService`] implements [`HttpHandler`] and is mounted on a
//! [`spmv_telemetry::MetricsServer`] via `serve_with` — all socket
//! code stays inside the telemetry crate's exposition module (the
//! audit's socket-containment policy), and the service sees only
//! parsed requests.
//!
//! # Routes
//!
//! | route | body | effect |
//! |---|---|---|
//! | `POST /v1/matrices/{name}` | MatrixMarket text | stream into the parser + validate + tune + register; JSON summary |
//! | `GET /v1/matrices` | — | JSON list of registered matrices (kernel, classes, candidates timed, attainment) |
//! | `POST /v1/spmv/{name}[?mode=tuned][&digest=1]` | request spec | one SpMV via the scheduler |
//! | `GET /v1/observe/{name}` | — | JSON roofline attainment + recent request timelines |
//! | `GET /metrics` | — | the telemetry scrape plus each matrix's `spmv_roofline_*` families |
//! | `POST /control/stop` | — | stop the serve lanes (drain + exit) |
//!
//! Every per-matrix answer (`/v1/matrices`, `/v1/observe/{name}`, the
//! roofline families on `/metrics`) reads the [`RegisteredMatrix`]
//! itself, which owns its roofline cell and recent-request ring.
//!
//! The SpMV request body is a one-line *spec*, not the vector itself:
//! `fill <v>` (constant vector) or `seed <n>` (deterministic LCG
//! vector). The server generates `x` from the spec, so a 100k-request
//! load-generator run moves kilobytes, not gigabytes, and any client
//! can recompute the exact input for verification ([`build_x`]).
//!
//! The response is the result vector as IEEE-754 bit patterns, one
//! element per line: 16 lowercase hex digits and `\n`, so exactly 17
//! bytes per element ([`encode_hex`]). It is lossless, so clients can
//! assert bitwise equality against a serial reference. With
//! `digest=1` the response collapses to one line holding a 64-bit
//! hash of those bits ([`digest`], four independent multiply lanes),
//! which keeps loadgen response parsing off the latency path.
//! Encoding either body is timed into `spmv_serve_encode_*`.
//!
//! A registration reads its body as a stream
//! ([`HttpRequest::body_reader`]) straight into `mm::read_csr`, so the
//! upload text is never held whole; the bytes and wall time of that
//! receive-and-parse are counted into `spmv_serve_upload_*`, failed
//! parses included.

use std::time::Instant;

use spmv_sparse::mm;
use spmv_telemetry::metrics::{serve_encode, serve_upload};
use spmv_telemetry::{Handled, HttpHandler, HttpRequest, HttpResponse, JsonValue, MetricsRegistry};

use crate::registry::{MatrixRegistry, Mode, RegisterError, RegisteredMatrix};
use crate::scheduler::{Scheduler, SubmitError};

/// The serving plane behind one HTTP endpoint.
pub struct SpmvService {
    registry: MatrixRegistry,
    scheduler: Scheduler,
}

impl SpmvService {
    /// Creates a service whose kernels are planned for `nthreads`,
    /// tuned with `tune_reps` reps per candidate, admitting at most
    /// `queue_cap` queued requests and batching up to `batch_max`.
    pub fn new(
        nthreads: usize,
        tune_reps: usize,
        queue_cap: usize,
        batch_max: usize,
    ) -> SpmvService {
        SpmvService {
            registry: MatrixRegistry::new(nthreads, tune_reps),
            scheduler: Scheduler::new(queue_cap, batch_max),
        }
    }

    /// The matrix registry (direct registration in tests and the
    /// daemon's preload path).
    pub fn registry(&self) -> &MatrixRegistry {
        &self.registry
    }

    /// The request scheduler (a daemon lane donates itself to
    /// `scheduler().worker_loop()`).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// `POST /v1/matrices/{name}`: the body streams from the
    /// connection straight into the MatrixMarket reader, timed with
    /// its bytes into `spmv_serve_upload_*`.
    fn register(&self, name: &str, req: &HttpRequest) -> HttpResponse {
        let t0 = Instant::now();
        let mut body = req.body_reader();
        let parsed = mm::read_csr(&mut body);
        serve_upload().add_units(body.bytes_read(), t0.elapsed().as_secs_f64());
        let a = match parsed {
            Ok(a) => a,
            Err(e) => return HttpResponse::text(400, format!("matrix parse error: {e}\n")),
        };
        match self.registry.register(name, a) {
            Ok(m) => HttpResponse::json(200, matrix_summary(&m).render_pretty(2) + "\n"),
            Err(e @ RegisterError::Duplicate(_)) => HttpResponse::text(409, format!("{e}\n")),
            Err(e) => HttpResponse::text(400, format!("{e}\n")),
        }
    }

    fn list(&self) -> HttpResponse {
        let items: Vec<JsonValue> =
            self.registry.list().iter().map(|m| matrix_summary(m)).collect();
        let doc = JsonValue::obj().with("matrices", JsonValue::Arr(items));
        HttpResponse::json(200, doc.render_pretty(2) + "\n")
    }

    fn spmv(&self, name: &str, req: &HttpRequest) -> HttpResponse {
        let Some(matrix) = self.registry.get(name) else {
            return HttpResponse::text(404, format!("no matrix {name:?} registered\n"));
        };
        let mode = match Mode::parse(req.query_param("mode")) {
            Ok(mode) => mode,
            Err(e) => return HttpResponse::text(400, format!("{e}\n")),
        };
        let body = match req.body() {
            Ok(body) => body,
            Err(e) => return HttpResponse::text(400, format!("request body: {e}\n")),
        };
        let spec = String::from_utf8_lossy(&body);
        let x = match build_x(spec.trim(), matrix.ncols()) {
            Ok(x) => x,
            Err(e) => return HttpResponse::text(400, format!("{e}\n")),
        };
        match self.scheduler.submit(matrix, mode, x) {
            Ok((rid, y)) => {
                let t0 = Instant::now();
                let body = if req.query_param("digest") == Some("1") {
                    format!("digest {:016x} rid {rid}\n", digest(&y)).into_bytes()
                } else {
                    encode_hex(&y)
                };
                serve_encode().add(t0.elapsed().as_secs_f64());
                HttpResponse::text(200, body)
            }
            // Shed responses carry Retry-After so well-behaved
            // clients back off instead of hammering a full queue.
            Err(e @ SubmitError::QueueFull) | Err(e @ SubmitError::ShuttingDown) => {
                HttpResponse::text(503, format!("{e}\n")).with_header("Retry-After", "1")
            }
            Err(e @ SubmitError::KernelFailed) => HttpResponse::text(500, format!("{e}\n")),
        }
    }

    /// `GET /v1/observe/{name}`: the matrix's roofline attainment
    /// plus the stage breakdown of its most recent requests.
    fn observe(&self, name: &str) -> HttpResponse {
        let Some(matrix) = self.registry.get(name) else {
            return HttpResponse::text(404, format!("no matrix {name:?} registered\n"));
        };
        let mut doc = JsonValue::obj().with("matrix", name);
        doc = match matrix.roofline() {
            Some(r) => doc.with(
                "roofline",
                JsonValue::obj()
                    .with("bound_gflops", r.bound_gflops)
                    .with("achieved_gflops", r.achieved_gflops)
                    .with("attainment", r.attainment)
                    .with("samples", r.samples as i64)
                    .with("drift_total", r.drift_total as i64),
            ),
            None => doc.with("roofline", JsonValue::Null),
        };
        let requests: Vec<JsonValue> = matrix
            .recent()
            .iter()
            .map(|o| {
                JsonValue::obj()
                    .with("rid", o.rid as i64)
                    .with("batch", o.batch as i64)
                    .with("queue_seconds", o.queue_seconds)
                    .with("kernel_seconds", o.kernel_seconds)
                    .with("total_seconds", o.total_seconds)
                    .with("gflops", o.gflops)
                    .with("ok", o.ok)
            })
            .collect();
        doc = doc.with("requests", JsonValue::Arr(requests));
        HttpResponse::json(200, doc.render_pretty(2) + "\n")
    }

    /// `GET /metrics`: the process-wide scrape plus the roofline
    /// families of every registered matrix.
    fn metrics(&self) -> HttpResponse {
        let mut reg = MetricsRegistry::gather();
        for m in self.registry.list() {
            if let Some(r) = m.roofline() {
                reg.record_roofline(m.name(), &r);
            }
        }
        HttpResponse::prometheus(&reg)
    }
}

impl HttpHandler for SpmvService {
    fn handle(&self, req: &HttpRequest) -> Handled {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/control/stop") => {
                return Handled::Stop(HttpResponse::text(200, "stopping\n"))
            }
            ("GET", "/v1/matrices") => return Handled::Response(self.list()),
            ("GET", "/metrics") => return Handled::Response(self.metrics()),
            _ => {}
        }
        if let Some(name) = req.path.strip_prefix("/v1/matrices/") {
            return match req.method.as_str() {
                "POST" => Handled::Response(self.register(name, req)),
                _ => Handled::Response(HttpResponse::text(405, "method not allowed\n")),
            };
        }
        if let Some(name) = req.path.strip_prefix("/v1/spmv/") {
            return match req.method.as_str() {
                "POST" => Handled::Response(self.spmv(name, req)),
                _ => Handled::Response(HttpResponse::text(405, "method not allowed\n")),
            };
        }
        if let Some(name) = req.path.strip_prefix("/v1/observe/") {
            return match req.method.as_str() {
                "GET" => Handled::Response(self.observe(name)),
                _ => Handled::Response(HttpResponse::text(405, "method not allowed\n")),
            };
        }
        Handled::NotHandled
    }
}

/// JSON summary of one registered matrix: static shape and tuning
/// facts — the kernel, the bottleneck classes (paper notation, e.g.
/// `{IMB,CMP}`) that chose its shortlist and how many candidates were
/// timed — plus the live roofline attainment (`0.0` from registration
/// until the first dispatch lands; null only when the tuner's bound
/// is not a positive finite number), so `GET /v1/matrices` alone is
/// enough to spot a drifted matrix without scraping `/metrics` or
/// hitting `/v1/observe/{name}` per matrix.
fn matrix_summary(m: &RegisteredMatrix) -> JsonValue {
    let doc = JsonValue::obj()
        .with("name", m.name())
        .with("nrows", m.nrows())
        .with("ncols", m.ncols())
        .with("nnz", m.nnz())
        .with("kernel", m.plan().spec.id())
        .with("classes", m.plan().classes.to_string())
        .with("timed", m.plan().timed.len())
        .with("tuned_gflops", m.plan().gflops())
        .with("nthreads", m.nthreads());
    match m.roofline() {
        Some(r) => doc.with("attainment", r.attainment),
        None => doc.with("attainment", JsonValue::Null),
    }
}

/// Expands a request spec into the input vector. Public so tests and
/// the load generator can recompute the exact server-side input.
///
/// * `fill <v>` — every element is `v`;
/// * `seed <n>` — deterministic LCG sequence in `[-2, 2)`.
pub fn build_x(spec: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut tokens = spec.split_whitespace();
    match (tokens.next(), tokens.next(), tokens.next()) {
        (Some("fill"), Some(v), None) => {
            let v: f64 = v.parse().map_err(|_| format!("bad fill value {v:?}"))?;
            Ok(vec![v; n])
        }
        (Some("seed"), Some(s), None) => {
            let seed: u64 = s.parse().map_err(|_| format!("bad seed {s:?}"))?;
            Ok(seeded_x(n, seed))
        }
        _ => Err(format!("bad request spec {spec:?} (expected 'fill <v>' or 'seed <n>')")),
    }
}

/// The `seed <n>` vector: a 64-bit LCG mapped into `[-2, 2)`.
fn seeded_x(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

/// Two lowercase hex digits for every byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let digits = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [digits[i >> 4], digits[i & 15]];
        i += 1;
    }
    table
};

/// The full-vector reply body: each element's IEEE-754 bits as 16
/// lowercase hex digits and `\n` (the bytes of `{:016x}\n`), 17 bytes
/// per element, written into one allocation through the `HEX_PAIRS`
/// byte → digit-pair table.
pub fn encode_hex(y: &[f64]) -> Vec<u8> {
    let mut out = vec![0u8; y.len() * 17];
    for (line, v) in out.chunks_exact_mut(17).zip(y) {
        for (pair, byte) in line.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
            pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
        }
        line[16] = b'\n';
    }
    out
}

/// Multiplier of every [`digest`] step.
const DIGEST_K: u64 = 0xa076_1d64_78bd_642f;

/// Starting states of the four [`digest`] lanes, lane 0 first.
const DIGEST_LANES: [u64; 4] =
    [0xe703_7ed1_a0b4_28db, 0x8ebc_6af0_9c88_c6e3, 0x5899_65cc_7537_4cc3, 0x1d8e_4e27_c47d_124f];

/// wyhash's "mum": the full 128-bit product of `a` and `b`, its high
/// 64 bits xored with its low 64 bits.
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p >> 64) as u64 ^ p as u64
}

/// The `digest=1` reply hash over the result's IEEE-754 bit patterns:
/// order-, bit- and length-sensitive, one multiply per element. Public
/// so the load generator and tests verify digests offline.
///
/// With `bits(v)` = `v.to_bits()`, `fold(a, b)` = the 128-bit product
/// `a·b` with its high and low 64-bit halves xored, `K` =
/// `0xa0761d6478bd642f` and `n = y.len()`:
///
/// 1. Lane `l` (0..4) starts at `DIGEST_LANES[l]` = `0xe7037ed1a0b428db`,
///    `0x8ebc6af09c88c6e3`, `0x589965cc75374cc3`, `0x1d8e4e27c47d124f`
///    and takes elements `l, l+4, …` below `4·⌊n/4⌋`, each one as
///    `h = fold(h ^ bits(y[i]), K)`.
/// 2. `acc = n` (as `u64`); then for lanes 0, 1, 2, 3 in that order
///    `acc = fold(acc ^ lane, K)`; then for the `n % 4` tail elements in
///    order `acc = fold(acc ^ bits(y[i]), K)`.
/// 3. The digest is `fold(acc, K)`.
///
/// The four lanes are independent dependency chains, so the hash is
/// bound by multiply throughput, not by the latency of one serial
/// chain. Changing any of this changes the wire protocol.
pub fn digest(y: &[f64]) -> u64 {
    let mut lanes = DIGEST_LANES;
    let mut quads = y.chunks_exact(4);
    for quad in &mut quads {
        for (h, v) in lanes.iter_mut().zip(quad) {
            *h = fold(*h ^ v.to_bits(), DIGEST_K);
        }
    }
    let tail = quads.remainder().iter().map(|v| v.to_bits());
    let acc = lanes.into_iter().chain(tail).fold(y.len() as u64, |acc, w| fold(acc ^ w, DIGEST_K));
    fold(acc, DIGEST_K)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use proptest::prelude::*;
    use spmv_kernels::ExecEngine;
    use spmv_sparse::gen;

    fn service() -> SpmvService {
        SpmvService::new(2, 1, 8, 4)
    }

    fn post(path: &str, query: &str, body: &[u8]) -> HttpRequest {
        HttpRequest::new("POST", path, query, body)
    }

    fn get(path: &str) -> HttpRequest {
        HttpRequest::new("GET", path, "", Vec::new())
    }

    fn mm_bytes(a: &spmv_sparse::Csr) -> Vec<u8> {
        let mut out = Vec::new();
        mm::write_csr(&mut out, a).expect("serialize");
        out
    }

    fn response(h: Handled) -> HttpResponse {
        match h {
            Handled::Response(r) => r,
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn register_spmv_roundtrip_without_worker() {
        let svc = service();
        let a = gen::banded(80, 3, 0.9, 5).unwrap();
        let serial = a.clone();
        let reply = response(svc.handle(&post("/v1/matrices/m0", "", &mm_bytes(&a))));
        assert_eq!(reply.status, 200, "{}", String::from_utf8_lossy(&reply.body));
        let summary = JsonValue::parse(&String::from_utf8_lossy(&reply.body)).unwrap();
        assert_eq!(summary.get("nrows").and_then(JsonValue::as_f64), Some(80.0));

        // Serve one request by hand: run the submit on this thread
        // against a pre-drained scheduler is impossible (submit
        // blocks), so exercise the kernel path via the registry and
        // the spec/digest helpers the route is built from.
        let m = svc.registry().get("m0").unwrap();
        let x = build_x("seed 7", m.ncols()).unwrap();
        let (ys, _) = m.run(&[&x], Mode::Exact);
        let mut y_ref = vec![0.0; serial.nrows()];
        serial.spmv(&x, &mut y_ref);
        assert_eq!(digest(&ys[0]), digest(&y_ref));
    }

    #[test]
    fn unknown_matrix_is_404_and_bad_specs_400() {
        let svc = service();
        assert_eq!(response(svc.handle(&post("/v1/spmv/ghost", "", b"fill 1"))).status, 404);

        svc.registry().register("m", spmv_sparse::Csr::identity(4)).unwrap();
        let bad_spec = response(svc.handle(&post("/v1/spmv/m", "", b"vector 1 2 3")));
        assert_eq!(bad_spec.status, 400);
        let bad_mode = response(svc.handle(&post("/v1/spmv/m", "mode=warp", b"fill 1")));
        assert_eq!(bad_mode.status, 400);
        let bad_body = response(svc.handle(&post("/v1/matrices/x", "", b"not matrixmarket")));
        assert_eq!(bad_body.status, 400);
    }

    #[test]
    fn duplicate_registration_is_409() {
        let svc = service();
        let body = mm_bytes(&spmv_sparse::Csr::identity(6));
        assert_eq!(response(svc.handle(&post("/v1/matrices/dup", "", &body))).status, 200);
        assert_eq!(response(svc.handle(&post("/v1/matrices/dup", "", &body))).status, 409);
    }

    /// A service that sheds every admitted request, so `handle` runs
    /// the whole spec path without needing a worker. Its one matrix,
    /// `p`, is the 5×5 identity.
    fn shedding_service() -> SpmvService {
        let svc =
            SpmvService { registry: MatrixRegistry::new(1, 1), scheduler: Scheduler::rejecting() };
        svc.registry().register("p", spmv_sparse::Csr::identity(5)).unwrap();
        svc
    }

    #[test]
    fn queue_full_maps_to_503() {
        let svc = shedding_service();
        let reply = response(svc.handle(&post("/v1/spmv/p", "", b"fill 1")));
        assert_eq!(reply.status, 503);
        // Shed responses tell clients when to come back.
        assert!(
            reply.headers.iter().any(|(k, v)| *k == "Retry-After" && v == "1"),
            "{:?}",
            reply.headers
        );
    }

    #[test]
    fn shutdown_503_also_carries_retry_after() {
        let svc = service();
        svc.registry().register("m", spmv_sparse::Csr::identity(4)).unwrap();
        svc.scheduler().shutdown();
        let reply = response(svc.handle(&post("/v1/spmv/m", "", b"fill 1")));
        assert_eq!(reply.status, 503);
        assert!(reply.headers.iter().any(|(k, _)| *k == "Retry-After"));
    }

    #[test]
    fn observe_route_reports_roofline_and_recent_requests() {
        let svc = service();
        assert_eq!(response(svc.handle(&get("/v1/observe/ghost"))).status, 404);
        svc.registry().register("obs-m", gen::banded(60, 2, 0.9, 3).unwrap()).unwrap();
        let reply = response(svc.handle(&get("/v1/observe/obs-m")));
        assert_eq!(reply.status, 200);
        let doc = JsonValue::parse(&String::from_utf8_lossy(&reply.body)).unwrap();
        assert_eq!(doc.get("matrix").and_then(JsonValue::as_str), Some("obs-m"));
        // Registration alone wires the roofline bound; no requests yet.
        let roofline = doc.get("roofline").expect("roofline key");
        assert!(roofline.get("bound_gflops").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert!(matches!(doc.get("requests"), Some(JsonValue::Arr(items)) if items.is_empty()));
    }

    #[test]
    fn list_and_stop_routes() {
        let svc = service();
        svc.registry().register("zz", spmv_sparse::Csr::identity(3)).unwrap();
        svc.registry().register("aa", spmv_sparse::Csr::identity(3)).unwrap();
        let list = response(svc.handle(&get("/v1/matrices")));
        let text = String::from_utf8_lossy(&list.body).to_string();
        assert!(text.find("aa").unwrap() < text.find("zz").unwrap(), "{text}");
        // Each entry carries the selected menu kernel and the live
        // roofline attainment, so operators can spot drifted
        // matrices from the list alone.
        let doc = JsonValue::parse(&text).unwrap();
        let items = doc.get("matrices").and_then(JsonValue::as_array).expect("matrices array");
        assert_eq!(items.len(), 2);
        for m in items {
            assert!(m.get("kernel").and_then(JsonValue::as_str).is_some(), "{text}");
            // Why that kernel: the class set in paper notation and
            // the shortlist size (baseline and unrolled at least).
            let classes = m.get("classes").and_then(JsonValue::as_str).expect("classes");
            assert!(classes.starts_with('{') && classes.ends_with('}'), "{text}");
            assert!(m.get("timed").and_then(JsonValue::as_f64).unwrap() >= 2.0, "{text}");
            // Registration builds the roofline cell, so attainment is
            // numeric (0.0 before any dispatch), not null.
            assert!(m.get("attainment").and_then(JsonValue::as_f64).is_some(), "{text}");
        }

        assert!(matches!(svc.handle(&post("/control/stop", "", b"")), Handled::Stop(_)));
        // The service answers `/metrics` itself, adding each
        // matrix's roofline families to the telemetry scrape.
        let metrics = response(svc.handle(&get("/metrics")));
        assert_eq!(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
        let text = String::from_utf8_lossy(&metrics.body);
        for name in ["aa", "zz"] {
            let line = format!("spmv_roofline_attainment{{matrix=\"{name}\"}} 0\n");
            assert_eq!(text.matches(&line).count(), 1, "{text}");
        }
        assert!(text.contains("\nspmv_serve_admitted_total "), "{text}");
        // Unrelated paths fall through to the telemetry built-ins.
        assert!(matches!(svc.handle(&get("/trace")), Handled::NotHandled));
    }

    fn json_reply(h: Handled) -> JsonValue {
        let reply = response(h);
        let text = String::from_utf8_lossy(&reply.body).into_owned();
        assert_eq!(reply.status, 200, "{text}");
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("{e:?}: {text}"))
    }

    /// An object's keys, sorted.
    fn key_set(v: &JsonValue) -> Vec<&str> {
        let mut keys: Vec<&str> =
            v.entries().expect("JSON object").iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn json_surfaces_keep_their_key_sets() {
        let svc = service();
        let m = svc.registry().register("keys", gen::banded(50, 2, 0.9, 8).unwrap()).unwrap();
        // One request through the scheduler itself, not the
        // `/v1/spmv` route, so the process-wide encode counter stays
        // untouched for `encode_counter_counts_delivered_replies_only`.
        let served = Mutex::new(None);
        let (svc_ref, m_ref, served_ref) = (&svc, &m, &served);
        ExecEngine::new(2).run(&move |lane| {
            if lane == 0 {
                svc_ref.scheduler().worker_loop();
            } else {
                let r = svc_ref.scheduler().submit(
                    std::sync::Arc::clone(m_ref),
                    Mode::Exact,
                    vec![1.0; m_ref.ncols()],
                );
                *served_ref.lock().unwrap() = Some(r);
                svc_ref.scheduler().shutdown();
            }
        });
        served.into_inner().unwrap().expect("lane 1 ran").expect("request served");

        let observe = json_reply(svc.handle(&get("/v1/observe/keys")));
        assert_eq!(key_set(&observe), ["matrix", "requests", "roofline"]);
        assert_eq!(
            key_set(observe.get("roofline").unwrap()),
            ["achieved_gflops", "attainment", "bound_gflops", "drift_total", "samples"]
        );
        let requests = observe.get("requests").and_then(JsonValue::as_array).unwrap();
        assert_eq!(requests.len(), 1);
        assert_eq!(
            key_set(&requests[0]),
            ["batch", "gflops", "kernel_seconds", "ok", "queue_seconds", "rid", "total_seconds"]
        );

        let list = json_reply(svc.handle(&get("/v1/matrices")));
        assert_eq!(key_set(&list), ["matrices"]);
        let items = list.get("matrices").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(
            key_set(&items[0]),
            [
                "attainment",
                "classes",
                "kernel",
                "name",
                "ncols",
                "nnz",
                "nrows",
                "nthreads",
                "timed",
                "tuned_gflops"
            ]
        );
    }

    #[test]
    fn sixty_five_matrices_all_report_attainment() {
        let svc = service();
        for i in 0..65 {
            svc.registry()
                .register(&format!("many-{i:02}"), spmv_sparse::Csr::identity(4))
                .unwrap();
        }
        let list = json_reply(svc.handle(&get("/v1/matrices")));
        let items = list.get("matrices").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items.len(), 65);
        for m in items {
            assert!(
                m.get("attainment").and_then(JsonValue::as_f64).is_some(),
                "{} reports no attainment",
                m.get("name").and_then(JsonValue::as_str).unwrap_or("?")
            );
        }
    }

    #[test]
    fn non_positive_bound_reports_null_and_exports_no_roofline() {
        let svc = service();
        // No stored entries: zero flops, so the roofline bound is 0.
        let empty = b"%%MatrixMarket matrix coordinate real general\n4 4 0\n";
        let summary = json_reply(svc.handle(&post("/v1/matrices/no-bound", "", empty)));
        assert_eq!(summary.get("attainment"), Some(&JsonValue::Null));
        let list = json_reply(svc.handle(&get("/v1/matrices")));
        let items = list.get("matrices").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].get("attainment"), Some(&JsonValue::Null));
        let observe = json_reply(svc.handle(&get("/v1/observe/no-bound")));
        assert_eq!(observe.get("roofline"), Some(&JsonValue::Null));
        let metrics = response(svc.handle(&get("/metrics")));
        let metrics = String::from_utf8_lossy(&metrics.body);
        assert!(!metrics.contains("matrix=\"no-bound\""), "{metrics}");
    }

    #[test]
    fn spec_and_digest_are_deterministic() {
        assert_eq!(build_x("fill 2.5", 3).unwrap(), vec![2.5; 3]);
        assert_eq!(build_x("seed 9", 16).unwrap(), build_x("seed 9", 16).unwrap());
        assert_ne!(build_x("seed 9", 16).unwrap(), build_x("seed 10", 16).unwrap());
        assert!(build_x("", 4).is_err());
        assert!(build_x("fill x", 4).is_err());
        let y = [1.0, -2.0, 3.5];
        let y_vec: Vec<f64> = y.to_vec();
        assert_eq!(digest(&y), digest(&y_vec));
        assert_ne!(digest(&y), digest(&[1.0, -2.0, 3.50000001]));
    }

    /// `[1, -2, 3, -4, …]`: distinct, signed, exactly representable.
    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| if i % 2 == 0 { -(i as f64) } else { i as f64 }).collect()
    }

    #[test]
    fn digest_golden_values() {
        // Changing any of these is a wire-protocol change: clients
        // (spmv-loadgen, servebench, the CI oracle) recompute them.
        let golden = [
            (0, 0xdea6_6469_63cc_5ab4),
            (1, 0xc2d1_1ddf_343e_539a),
            (3, 0xdba3_c6ac_6902_a6dd),
            (4, 0x333c_1453_43f0_0a62),
            (5, 0xd803_4f26_a99b_199f),
            (9, 0x2be1_ec2a_9145_a461),
        ];
        for (n, want) in golden {
            assert_eq!(digest(&ramp(n)), want, "ramp({n}) = {:#018x}", digest(&ramp(n)));
        }
    }

    #[test]
    fn digest_detects_every_single_bit_flip() {
        // Lanes 0, 1, 3, lane 0's second and lane 1's second element,
        // and the tail (10 = 2·4 + 2).
        let y = ramp(10);
        let base = digest(&y);
        for i in [0, 1, 3, 4, 5, y.len() - 1] {
            for bit in 0..64 {
                let mut z = y.clone();
                z[i] = f64::from_bits(z[i].to_bits() ^ (1 << bit));
                assert_ne!(digest(&z), base, "bit {bit} of y[{i}]");
            }
        }
    }

    #[test]
    fn digest_detects_reordering_sign_pairs_length_and_signed_zero() {
        let y = ramp(10);
        let base = digest(&y);
        for i in 0..y.len() - 1 {
            let mut z = y.clone();
            z.swap(i, i + 1);
            assert_ne!(digest(&z), base, "swap y[{i}] and y[{}]", i + 1);
        }
        for i in 0..y.len() - 4 {
            // Same lane, so only the step order can tell them apart.
            let mut z = y.clone();
            z.swap(i, i + 4);
            assert_ne!(digest(&z), base, "swap y[{i}] and y[{}]", i + 4);
            // Under a step linear in the sign bit (xor, then multiply
            // mod 2^64) a bit-63 flip stays a bit-63 flip, so two in
            // one lane cancel; the fold's high half spreads it over
            // the whole lane state.
            let mut z = y.clone();
            z[i] = -z[i];
            z[i + 4] = -z[i + 4];
            assert_ne!(digest(&z), base, "negate y[{i}] and y[{}]", i + 4);
        }
        for n in 0..9 {
            let y = ramp(n);
            let mut longer = y.clone();
            longer.push(0.0);
            assert_ne!(digest(&longer), digest(&y), "append 0.0 to ramp({n})");
        }
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_ne!(digest(&[0.0; 4]), digest(&[0.0, 0.0, 0.0, -0.0]));
    }

    /// The `seed <n>` recurrence, written out independently of
    /// `seeded_x`: `s_0 = a·n + c`, `s_{k+1} = a·s_k + c` (mod 2^64),
    /// element `k` the top 53 bits of `s_{k+1}` mapped onto `[-2, 2)`.
    fn lcg_oracle(n: u64, len: usize) -> Vec<f64> {
        const A: u64 = 6364136223846793005;
        const C: u64 = 1442695040888963407;
        let mut s = A.wrapping_mul(n).wrapping_add(C);
        let mut x = Vec::with_capacity(len);
        for _ in 0..len {
            s = A.wrapping_mul(s).wrapping_add(C);
            x.push(4.0 * ((s >> 11) as f64 / 9007199254740992.0) - 2.0);
        }
        x
    }

    /// Asserts the spec parser's answer: 503 (shed) for a valid spec,
    /// 400 otherwise.
    fn assert_spec_status(svc: &SpmvService, body: &[u8], query: &str) {
        let status = response(svc.handle(&post("/v1/spmv/p", query, body))).status;
        let valid = build_x(String::from_utf8_lossy(body).trim(), 5).is_ok();
        assert_eq!(status, if valid { 503 } else { 400 }, "body {body:?}");
    }

    const SPEC_WORDS: [&[u8]; 8] =
        [b"fill", b"seed", b"FILL", b"", b"nan", b"-inf", b"\xff\xfe", b"\xe2\x82"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, non-UTF-8 included: 400 or 503, no panic.
        #[test]
        fn spec_parser_survives_arbitrary_bytes(
            body in proptest::collection::vec(0u8..=255, 0..48),
            digest_query in 0usize..2,
        ) {
            let svc = shedding_service();
            assert_spec_status(&svc, &body, ["", "digest=1"][digest_query]);
        }

        /// Near-miss specs: a keyword (or junk) plus a numeric-looking
        /// token up to 100 000 bytes long, extra tokens and odd
        /// whitespace. Long digit runs overflow `u64` (400) but still
        /// parse as `f64` (503).
        #[test]
        fn spec_parser_survives_oversized_tokens(
            word in 0usize..SPEC_WORDS.len(),
            digit in 0u8..10,
            len in 0usize..100_000,
            sign in 0usize..3,
            extra in 0usize..3,
        ) {
            let svc = shedding_service();
            let mut body = SPEC_WORDS[word].to_vec();
            body.extend_from_slice([&b" "[..], b"\t-", b"  +"][sign]);
            body.resize(body.len() + len, b'0' + digit);
            body.extend_from_slice([&b"\n"[..], b" 1", b" seed 2 "][extra]);
            assert_spec_status(&svc, &body, "");
        }

        /// `seed <n>` is the LCG recurrence for every `n` and length.
        #[test]
        fn seed_spec_matches_the_lcg_recurrence(n in 0u64..u64::MAX, len in 0usize..300) {
            let x = build_x(&format!("seed {n}"), len).unwrap();
            prop_assert_eq!(x, lcg_oracle(n, len));
        }
    }

    /// The wire format `encode_hex` must reproduce byte for byte.
    fn format_oracle(y: &[f64]) -> Vec<u8> {
        y.iter().flat_map(|v| format!("{:016x}\n", v.to_bits()).into_bytes()).collect()
    }

    #[test]
    fn encode_hex_matches_format_on_special_values() {
        let bits = [
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7ff8_0000_dead_beef, // quiet NaN with a payload
            0xfff8_0000_0000_0042, // negative quiet NaN with a payload
            0x7ff0_0000_0000_0001, // signalling NaN, smallest payload
            0x7ff4_0123_4567_89ab, // signalling NaN with a payload
            1,                     // smallest subnormal
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
            u64::MAX,
            0x0123_4567_89ab_cdef,
        ];
        for b in bits {
            assert_eq!(encode_hex(&[f64::from_bits(b)]), format!("{b:016x}\n").into_bytes());
        }
        let y: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(encode_hex(&y), format_oracle(&y));
        assert!(encode_hex(&[]).is_empty());
    }

    #[test]
    fn encode_hex_matches_format_on_a_seeded_sweep() {
        // splitmix64: every bit pattern is equally likely, NaNs and
        // subnormals included.
        let mut state = 0x5eed_u64;
        let y: Vec<f64> = (0..100_000)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                f64::from_bits(z ^ (z >> 31))
            })
            .collect();
        for n in [0, 1, 2, 17, 1000, y.len()] {
            let body = encode_hex(&y[..n]);
            assert_eq!(body.len(), 17 * n);
            assert_eq!(body, format_oracle(&y[..n]), "first {n} elements");
        }
    }

    #[test]
    fn encode_counter_counts_delivered_replies_only() {
        let svc = service();
        let a = gen::banded(40, 2, 0.9, 4).unwrap();
        svc.registry().register("enc", a.clone()).unwrap();
        // Only this test serves a successful SpMV in this binary, so
        // the process-wide counter moves only when it says so.
        let before = serve_encode().count();
        assert_eq!(response(svc.handle(&post("/v1/spmv/ghost", "", b"fill 1"))).status, 404);
        assert_eq!(response(svc.handle(&post("/v1/spmv/enc", "", b"bad spec"))).status, 400);
        assert_eq!(serve_encode().count(), before, "4xx replies encode nothing");

        // Lane 0 drains the scheduler; lane 1 submits a full-vector
        // and a digest request, one after the other, and then shuts
        // the scheduler down so lane 0 returns.
        let handled: Mutex<Vec<(Handled, u64)>> = Mutex::new(Vec::new());
        let (svc_ref, handled_ref) = (&svc, &handled);
        ExecEngine::new(2).run(&move |lane| {
            if lane == 0 {
                svc_ref.scheduler().worker_loop();
            } else {
                for query in ["", "digest=1"] {
                    let h = svc_ref.handle(&post("/v1/spmv/enc", query, b"seed 3"));
                    handled_ref.lock().unwrap().push((h, serve_encode().count()));
                }
                svc_ref.scheduler().shutdown();
            }
        });
        let mut handled = handled.into_inner().unwrap().into_iter();
        let x = build_x("seed 3", a.ncols()).unwrap();
        let mut y = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y);

        let (full, count) = handled.next().expect("lane 1 ran");
        let full = response(full);
        assert_eq!(full.status, 200);
        assert_eq!(full.body, encode_hex(&y));
        assert_eq!(count, before + 1, "one full-vector reply, one encode");

        // The digest is timed into the same counter.
        let (digested, count) = handled.next().expect("lane 1 sent the digest request");
        let digested = response(digested);
        assert_eq!(digested.status, 200);
        let line = String::from_utf8(digested.body).unwrap();
        let rid = line
            .strip_prefix(&format!("digest {:016x} rid ", digest(&y)))
            .and_then(|rest| rest.strip_suffix('\n'))
            .unwrap_or_else(|| panic!("digest reply {line:?}"));
        assert!(rid.parse::<u64>().is_ok(), "{line:?}");
        assert_eq!(count, before + 2, "one digest reply, one encode");

        // The scheduler is shut down now: the 503 encodes nothing.
        assert_eq!(response(svc.handle(&post("/v1/spmv/enc", "", b"seed 3"))).status, 503);
        assert_eq!(serve_encode().count(), before + 2, "503 replies encode nothing");
    }
}
