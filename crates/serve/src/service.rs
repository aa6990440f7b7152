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
//! | `POST /v1/matrices/{name}` | MatrixMarket text | validate + tune + register; JSON summary |
//! | `GET /v1/matrices` | — | JSON list of registered matrices |
//! | `POST /v1/spmv/{name}[?mode=tuned][&digest=1]` | request spec | one SpMV via the scheduler |
//! | `GET /v1/observe/{name}` | — | JSON roofline attainment + recent request timelines |
//! | `POST /control/stop` | — | stop the serve lanes (drain + exit) |
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
//! `digest=1` the response collapses to one FNV-1a line over those
//! bits, which keeps loadgen response parsing off the latency path.
//! Encoding either body is timed into `spmv_serve_encode_*`.

use std::time::Instant;

use spmv_sparse::mm;
use spmv_telemetry::metrics::serve_encode;
use spmv_telemetry::{Handled, HttpHandler, HttpRequest, HttpResponse, JsonValue};

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

    fn register(&self, name: &str, req: &HttpRequest) -> HttpResponse {
        let a = match mm::read_csr(req.body.as_slice()) {
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
        let spec = String::from_utf8_lossy(&req.body);
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
        if self.registry.get(name).is_none() {
            return HttpResponse::text(404, format!("no matrix {name:?} registered\n"));
        }
        let mut doc = JsonValue::obj().with("matrix", name);
        doc = match spmv_telemetry::monitor().get(name) {
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
        let requests: Vec<JsonValue> = self
            .scheduler
            .observations(name)
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
}

impl HttpHandler for SpmvService {
    fn handle(&self, req: &HttpRequest) -> Handled {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/control/stop") => {
                return Handled::Stop(HttpResponse::text(200, "stopping\n"))
            }
            ("GET", "/v1/matrices") => return Handled::Response(self.list()),
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
/// facts plus the live roofline attainment (null until the drift
/// monitor has seen at least one dispatch), so `GET /v1/matrices`
/// alone is enough to spot a drifted matrix without scraping
/// `/metrics` or hitting `/v1/observe/{name}` per matrix.
fn matrix_summary(m: &RegisteredMatrix) -> JsonValue {
    let doc = JsonValue::obj()
        .with("name", m.name())
        .with("nrows", m.nrows())
        .with("ncols", m.ncols())
        .with("nnz", m.nnz())
        .with("kernel", m.plan().spec.id())
        .with("tuned_gflops", m.plan().gflops)
        .with("nthreads", m.nthreads());
    match spmv_telemetry::monitor().get(m.name()) {
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

/// FNV-1a over the result's IEEE-754 bit patterns — order-sensitive,
/// bit-sensitive, cheap. Public so the load generator can verify
/// digests offline.
pub fn digest(y: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in y {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use spmv_kernels::ExecEngine;
    use spmv_sparse::gen;

    fn service() -> SpmvService {
        SpmvService::new(2, 1, 8, 4)
    }

    fn post(path: &str, query: &str, body: &[u8]) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: query.into(),
            body: body.to_vec(),
        }
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
        let y = m.spmv(&x, Mode::Exact);
        let mut y_ref = vec![0.0; serial.nrows()];
        serial.spmv(&x, &mut y_ref);
        assert_eq!(digest(&y), digest(&y_ref));
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

    #[test]
    fn queue_full_maps_to_503() {
        let svc =
            SpmvService { registry: MatrixRegistry::new(1, 1), scheduler: Scheduler::rejecting() };
        svc.registry().register("m", spmv_sparse::Csr::identity(4)).unwrap();
        let reply = response(svc.handle(&post("/v1/spmv/m", "", b"fill 1")));
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
        assert_eq!(
            response(svc.handle(&HttpRequest {
                method: "GET".into(),
                path: "/v1/observe/ghost".into(),
                query: String::new(),
                body: Vec::new(),
            }))
            .status,
            404
        );
        svc.registry().register("obs-m", gen::banded(60, 2, 0.9, 3).unwrap()).unwrap();
        let reply = response(svc.handle(&HttpRequest {
            method: "GET".into(),
            path: "/v1/observe/obs-m".into(),
            query: String::new(),
            body: Vec::new(),
        }));
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
        let list = response(svc.handle(&HttpRequest {
            method: "GET".into(),
            path: "/v1/matrices".into(),
            query: String::new(),
            body: Vec::new(),
        }));
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
            // Registration wires the drift monitor, so attainment is
            // numeric (0.0 before any dispatch), not null.
            assert!(m.get("attainment").and_then(JsonValue::as_f64).is_some(), "{text}");
        }

        assert!(matches!(svc.handle(&post("/control/stop", "", b"")), Handled::Stop(_)));
        // Unrelated paths fall through to the telemetry built-ins.
        assert!(matches!(
            svc.handle(&HttpRequest {
                method: "GET".into(),
                path: "/metrics".into(),
                query: String::new(),
                body: Vec::new(),
            }),
            Handled::NotHandled
        ));
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

        // Lane 0 drains the scheduler; lane 1 submits one request and
        // then shuts the scheduler down so lane 0 returns.
        let handled: Mutex<Option<Handled>> = Mutex::new(None);
        let (svc_ref, handled_ref) = (&svc, &handled);
        ExecEngine::new(2).run(&move |lane| {
            if lane == 0 {
                svc_ref.scheduler().worker_loop();
            } else {
                let h = svc_ref.handle(&post("/v1/spmv/enc", "", b"seed 3"));
                *handled_ref.lock().unwrap() = Some(h);
                svc_ref.scheduler().shutdown();
            }
        });
        let reply = response(handled.into_inner().unwrap().expect("lane 1 ran"));
        assert_eq!(reply.status, 200);
        let x = build_x("seed 3", a.ncols()).unwrap();
        let mut y = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y);
        assert_eq!(reply.body, encode_hex(&y));
        assert_eq!(serve_encode().count(), before + 1, "one reply, one encode");

        // The scheduler is shut down now: the 503 encodes nothing.
        assert_eq!(response(svc.handle(&post("/v1/spmv/enc", "", b"seed 3"))).status, 503);
        assert_eq!(serve_encode().count(), before + 1, "503 replies encode nothing");
    }
}
