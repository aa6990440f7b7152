//! Hosts the serving plane in-process, wired the way
//! `spmv-metricsd --load serve` wires it, and gives client lanes a
//! way to drive it over loopback TCP.
//!
//! One `ExecEngine` dispatch carries every lane: lane 0 is the
//! scheduler worker, the next `lanes` lanes run `serve_with` on one
//! `MetricsServer`, and the last `connections` lanes are the
//! closed-loop clients. The benchmark creates no other threads and
//! opens sockets only through `MetricsServer` and `http_request`.

use std::net::SocketAddr;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use spmv_kernels::engine::ExecEngine;
use spmv_serve::SpmvService;
use spmv_telemetry::metrics::{engine_dispatch, profiling_runs};
use spmv_telemetry::{
    http_request, serve_latency, serve_stats, DispatchSnapshot, Handled, HttpHandler, HttpRequest,
    MetricsServer,
};

use crate::workload::Workload;

/// Server and client settings. The defaults are the daemon's serve
/// defaults and the two-connection closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub lanes: usize,
    pub threads: usize,
    pub tune_reps: usize,
    pub queue_cap: usize,
    pub batch: usize,
    pub connections: usize,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            lanes: 2,
            threads: 2,
            tune_reps: 3,
            queue_cap: spmv_serve::DEFAULT_QUEUE_CAP,
            batch: spmv_kernels::MAX_BATCH,
            connections: 2,
        }
    }
}

/// An `HttpHandler` that times `SpmvService::handle` from outside.
/// Mounted only for the traced run; the end-to-end run mounts the
/// service itself.
pub struct TimedHandler<'a> {
    svc: &'a SpmvService,
    spmv_ns: AtomicU64,
    spmv_calls: AtomicU64,
    register_ns: AtomicU64,
}

impl HttpHandler for TimedHandler<'_> {
    fn handle(&self, req: &HttpRequest) -> Handled {
        let t = Instant::now();
        let handled = self.svc.handle(req);
        let ns = t.elapsed().as_nanos() as u64;
        if req.path.starts_with("/v1/spmv/") {
            self.spmv_ns.fetch_add(ns, SeqCst);
            self.spmv_calls.fetch_add(1, SeqCst);
        } else if req.path.starts_with("/v1/matrices/") {
            self.register_ns.fetch_add(ns, SeqCst);
        }
        handled
    }
}

/// The counters the benchmark reads, at one instant: what `/metrics`
/// renders from `spmv-telemetry`, plus the timing handler's sums.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub rejected: u64,
    pub completed: u64,
    pub batched: u64,
    /// Exact sum and count of the admission-to-delivery histogram.
    pub latency_sum_s: f64,
    pub latency_count: u64,
    pub dispatch: DispatchSnapshot,
    pub profiling_s: f64,
    pub profiling_runs: u64,
    pub handle_s: f64,
    pub handle_calls: u64,
    pub register_s: f64,
}

impl Counters {
    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        self.combine(before, |a, b| a - b, |a, b| a - b)
    }

    /// `self + other`, field by field: deltas of several planes summed.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.combine(other, |a, b| a + b, |a, b| a + b)
    }

    fn combine(&self, o: &Counters, n: fn(u64, u64) -> u64, f: fn(f64, f64) -> f64) -> Counters {
        let (d, e) = (self.dispatch, o.dispatch);
        Counters {
            rejected: n(self.rejected, o.rejected),
            completed: n(self.completed, o.completed),
            batched: n(self.batched, o.batched),
            latency_sum_s: f(self.latency_sum_s, o.latency_sum_s),
            latency_count: n(self.latency_count, o.latency_count),
            dispatch: DispatchSnapshot {
                dispatches: n(d.dispatches, e.dispatches),
                threads: n(d.threads, e.threads),
                wall_seconds: f(d.wall_seconds, e.wall_seconds),
                busy_seconds: f(d.busy_seconds, e.busy_seconds),
                max_busy_seconds: f(d.max_busy_seconds, e.max_busy_seconds),
            },
            profiling_s: f(self.profiling_s, o.profiling_s),
            profiling_runs: n(self.profiling_runs, o.profiling_runs),
            handle_s: f(self.handle_s, o.handle_s),
            handle_calls: n(self.handle_calls, o.handle_calls),
            register_s: f(self.register_s, o.register_s),
        }
    }
}

/// A phase rendezvous for the client lanes. It polls with sleeps
/// (backing off to 1 ms, so a lane waiting out a set-up does not
/// steal its CPU) so that a client that fails can release the others.
struct Rendezvous {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    abort: AtomicBool,
}

impl Rendezvous {
    fn wait(&self) {
        let generation = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.parties {
            self.arrived.store(0, SeqCst);
            self.generation.fetch_add(1, SeqCst);
            return;
        }
        let mut nap = Duration::from_micros(20);
        while self.generation.load(SeqCst) == generation && !self.abort.load(SeqCst) {
            std::thread::sleep(nap);
            nap = (nap * 2).min(Duration::from_millis(1));
        }
    }
}

/// The running plane as a client lane sees it.
pub struct Plane<'a> {
    pub addr: SocketAddr,
    /// When the listener was bound: the start of `setup_s`.
    pub bound_at: Instant,
    timed: Option<&'a TimedHandler<'a>>,
    phases: Rendezvous,
}

impl Plane<'_> {
    /// Blocks until every client lane has arrived.
    pub fn sync(&self) {
        self.phases.wait();
    }

    /// Microseconds since the bind (saturating).
    pub fn now_us(&self) -> u32 {
        u32::try_from(self.bound_at.elapsed().as_micros()).unwrap_or(u32::MAX)
    }

    /// Turns the global request tracer on or off.
    pub fn trace(&self, on: bool) {
        spmv_telemetry::tracer().set_enabled(on);
    }

    pub fn counters(&self) -> Counters {
        let stats = serve_stats();
        let hist = serve_latency().snapshot();
        let timed = |f: fn(&TimedHandler<'_>) -> u64| self.timed.map_or(0, f);
        Counters {
            rejected: stats.rejected(),
            completed: stats.completed(),
            batched: stats.batched_requests(),
            latency_sum_s: hist.sum_seconds,
            latency_count: hist.count(),
            dispatch: engine_dispatch().snapshot(),
            profiling_s: profiling_runs().seconds(),
            profiling_runs: profiling_runs().count(),
            handle_s: timed(|t| t.spmv_ns.load(SeqCst)) as f64 * 1e-9,
            handle_calls: timed(|t| t.spmv_calls.load(SeqCst)),
            register_s: timed(|t| t.register_ns.load(SeqCst)) as f64 * 1e-9,
        }
    }
}

/// Binds a fresh plane, runs `client(plane, c)` on each of the
/// `connections` client lanes, and tears the plane down once every
/// client has returned. `timed` mounts the [`TimedHandler`].
pub fn host(settings: &Settings, timed: bool, client: &(dyn Fn(&Plane<'_>, usize) + Sync)) {
    let bound_at = Instant::now();
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let svc =
        SpmvService::new(settings.threads, settings.tune_reps, settings.queue_cap, settings.batch);
    let timer = TimedHandler {
        svc: &svc,
        spmv_ns: AtomicU64::new(0),
        spmv_calls: AtomicU64::new(0),
        register_ns: AtomicU64::new(0),
    };
    let handler: &dyn HttpHandler = if timed { &timer } else { &svc };
    let plane = Plane {
        addr,
        bound_at,
        timed: timed.then_some(&timer),
        phases: Rendezvous {
            parties: settings.connections,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
        },
    };
    let stop = AtomicBool::new(false);
    let clients_left = AtomicUsize::new(settings.connections);
    let panicked = std::sync::Mutex::new(None);
    let engine = ExecEngine::new(1 + settings.lanes + settings.connections);
    engine.run(&|lane| {
        if lane == 0 {
            svc.scheduler().worker_loop();
        } else if lane <= settings.lanes {
            if let Err(e) = server.serve_with(Some(handler), Some(&stop), None) {
                eprintln!("servebench: serve lane {lane}: {e}");
            }
            svc.scheduler().shutdown();
        } else {
            let c = lane - 1 - settings.lanes;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| client(&plane, c))) {
                plane.phases.abort.store(true, SeqCst);
                *panicked.lock().unwrap_or_else(|p| p.into_inner()) = Some(payload);
            }
            if clients_left.fetch_sub(1, SeqCst) == 1 {
                server.request_stop(&stop);
            }
        }
    });
    spmv_telemetry::tracer().set_enabled(false);
    if let Some(payload) = panicked.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(payload);
    }
}

/// One request as the client saw it, kept small because a run holds
/// up to a few hundred thousand and they count in the peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client round trip in nanoseconds (saturating).
    pub rtt_ns: u32,
    /// When the reply had been read, in microseconds since the bind.
    pub done_us: u32,
    /// Which of the run's planes served it.
    pub plane: u8,
    pub tuned: bool,
    /// Whether a 200 reply arrived and verified.
    pub ok: bool,
}

impl Sample {
    /// Client round trip in seconds.
    pub fn rtt(&self) -> f64 {
        f64::from(self.rtt_ns) * 1e-9
    }
}

/// What one client lane saw in one phase.
#[derive(Debug, Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub transport: u64,
    pub status: u64,
    pub shed: u64,
    pub mismatch: u64,
    /// Response body bytes over verified requests.
    pub body_bytes: u64,
    /// Computed bytes of the matrix arrays and of `x` and `y`, over
    /// verified requests.
    pub matrix_bytes: f64,
    pub vector_bytes: f64,
    pub errors: Vec<String>,
}

impl Log {
    /// The requests whose replies verified.
    pub fn verified(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok)
    }

    pub fn failed(&self) -> u64 {
        self.transport + self.status + self.shed + self.mismatch
    }

    /// Adds `other`'s request and failure counts and errors.
    pub fn count(&mut self, other: &Log) {
        self.attempted += other.attempted;
        self.transport += other.transport;
        self.status += other.status;
        self.shed += other.shed;
        self.mismatch += other.mismatch;
        self.errors.extend(other.errors.iter().cloned());
        self.errors.truncate(5);
    }

    pub fn merge(&mut self, other: Log) {
        self.count(&other);
        self.samples.extend(other.samples);
        self.body_bytes += other.body_bytes;
        self.matrix_bytes += other.matrix_bytes;
        self.vector_bytes += other.vector_bytes;
    }
}

/// The closed loop of one connection: send request `next++` of the
/// seeded sequence, wait for and verify its reply, repeat until
/// `until`. `index` is the plane's number within the run.
pub fn drive(plane: &Plane<'_>, index: u8, wl: &Workload, next: &AtomicU64, until: Instant) -> Log {
    let mut log = Log::default();
    while Instant::now() < until && !plane.phases.abort.load(SeqCst) {
        let r = wl.request(next.fetch_add(1, SeqCst));
        let (target, body) = wl.target(r);
        log.attempted += 1;
        let sent = Instant::now();
        let reply = http_request(plane.addr, "POST", &target, body.as_bytes());
        let rtt_ns = u32::try_from(sent.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let done_us = plane.now_us();
        let ok = matches!(&reply, Ok((200, body)) if wl.check(r, body));
        log.samples.push(Sample { rtt_ns, done_us, plane: index, tuned: r.tuned, ok });
        let error = match reply {
            Ok((200, reply)) if ok => {
                let m = &wl.matrices[r.matrix];
                let vectors = (m.csr.nrows() + m.csr.ncols()) as f64 * 8.0;
                log.body_bytes += reply.len() as u64;
                log.matrix_bytes += m.computed_bytes() - vectors;
                log.vector_bytes += vectors;
                continue;
            }
            Ok((200, _)) => {
                log.mismatch += 1;
                format!("{target}: reply differs from the serial reference")
            }
            Ok((503, _)) => {
                log.shed += 1;
                format!("{target}: shed (503)")
            }
            Ok((status, reply)) => {
                log.status += 1;
                format!("{target}: {status} {}", String::from_utf8_lossy(&reply).trim())
            }
            Err(e) => {
                log.transport += 1;
                format!("{target}: transport error: {e}")
            }
        };
        if log.errors.len() < 5 {
            log.errors.push(error);
        }
    }
    log
}
