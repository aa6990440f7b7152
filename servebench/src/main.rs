//! `servebench`: the serving benchmark.
//!
//! ```text
//! servebench --workload small-digest|large-digest|large-fullvec
//!            --seed N --seconds S --trace 0|1
//!            [--lanes N] [--threads N] [--tune-reps N]
//!            [--queue-cap N] [--batch N] [--connections N]
//! ```
//!
//! Hosts the SpMV serving plane in-process and drives it over
//! loopback TCP from `--connections` closed-loop clients, each of
//! which sends its next request only after the previous reply has
//! arrived and been verified. The server settings default to the
//! daemon's serve defaults.
//!
//! With `--trace 0` the run prints the end-to-end metrics, measured
//! with tracing off. With `--trace 1` it prints the per-layer
//! metrics: it times calls into each layer from outside and reads
//! the counters `spmv-telemetry` exports, as deltas over a traced
//! phase. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it are the human-readable report.
//!
//! Exit status: 0 when the run completed (the JSON says whether every
//! reply verified), 1 when the plane could not be set up, 2 on usage
//! errors.

mod plane;
mod workload;

use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spmv_machine::stream::{measure_triad, TriadResult};
use spmv_serve::build_x;
use spmv_sparse::mm;
use spmv_telemetry::http_request;

use plane::{Counters, Log, Settings};
use workload::{Kind, Size, Workload};

/// Measured planes per run. Each is set up afresh (plan cache
/// cleared, matrices uploaded and tuned again, new allocations) and
/// measured for an equal share of `--seconds`, so state drawn once
/// per plane, such as the tuner's kernel choice or where the
/// matrices land in memory, is averaged over instead of deciding a
/// whole run.
const PLANES: usize = 3;

/// Set-ups per run: the measured planes', and more until they add
/// up to `SETUP_SECONDS`, at most `MAX_SETUPS`. `setup_s` is their
/// median.
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: servebench --workload small-digest|large-digest|large-fullvec \
--seed N --seconds S --trace 0|1 [--lanes N] [--threads N] [--tune-reps N] [--queue-cap N] \
[--batch N] [--connections N]";

/// Per-layer metrics: name, unit, and the end-to-end metric and
/// workload each one should move.
const LAYERS: [(&str, &str, &str); 21] = [
    ("exposition.self_ms", "ms", "latency_p50_ms, throughput_rps on small-digest, large-fullvec"),
    ("exposition.response_bytes", "bytes", "latency_p50_ms on large-fullvec"),
    ("service.self_ms", "ms", "latency_p50_ms on large-fullvec"),
    ("service.build_x_ms", "ms", "latency_p50_ms on large-digest, large-fullvec"),
    ("scheduler.self_ms", "ms", "latency_p50_ms on small-digest"),
    ("scheduler.batched_frac", "ratio", "throughput_rps on large-digest"),
    ("scheduler.rejected", "count", "failed/attempted on every workload"),
    ("kernel.busy_ms", "ms", "throughput_rps, latency_p50_ms on large-digest"),
    ("kernel.gbps", "GB/s", "throughput_rps on large-digest"),
    ("kernel.attainment", "ratio", "throughput_rps on large-digest"),
    ("engine.wake_us", "us", "latency_p50_ms on small-digest"),
    ("engine.imbalance", "ratio", "throughput_rps on large-digest (power-law matrix)"),
    ("client.exact_p50_ms", "ms", "latency_p50_ms on large-digest"),
    ("client.tuned_p50_ms", "ms", "latency_p50_ms on large-digest (tuned kernels)"),
    ("client.p99_ms", "ms", "none: the end-to-end p99, recorded here without a bound"),
    ("setup.parse_s", "s", "setup_s on every workload"),
    ("setup.register_s", "s", "setup_s on every workload"),
    ("tuner.profiling_s", "s", "setup_s on every workload"),
    ("tuner.profiling_runs", "count", "setup_s on every workload"),
    ("trace.overhead_frac", "ratio", "none: the cost of the traced run itself"),
    ("machine.triad_gbps", "GB/s", "none: the measured ceiling of kernel.attainment"),
];

#[derive(Debug, Clone, Copy)]
struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    settings: Settings,
}

/// One run's result.
struct Outcome {
    report: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // A failed run can leave a metric infinite; JSON has no
                // infinity, and the run is already marked incorrect.
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts, Size::FULL) {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            println!("{}", out.json());
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut s = Settings::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<usize>().map_err(|_| format!("bad {flag} value {value:?}"));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                let v = value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(v > 0.0 && v <= 120.0) {
                    return Err(format!("--seconds {v} is outside (0, 120]"));
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                })
            }
            "--lanes" => s.lanes = num()?.max(1),
            "--threads" => s.threads = num()?.max(1),
            "--tune-reps" => s.tune_reps = num()?.max(1),
            "--queue-cap" => s.queue_cap = num()?.max(1),
            "--batch" => s.batch = num()?.clamp(1, spmv_kernels::MAX_BATCH),
            "--connections" => s.connections = num()?.max(1),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        settings: s,
    })
}

/// Set-up outcome of one plane.
#[derive(Debug, Clone, Copy)]
struct Setup {
    seconds: f64,
    register_s: f64,
    profiling_s: f64,
    profiling_runs: u64,
}

/// One measured phase, over every plane: the clients' logs and the
/// counter deltas, summed.
struct Phase {
    log: Log,
    delta: Counters,
    /// Phase start and end per plane, in microseconds since that
    /// plane's bind.
    spans: Vec<(u32, u32)>,
}

impl Phase {
    /// Measured seconds, over every plane.
    fn seconds(&self) -> f64 {
        self.spans.iter().map(|&(start, end)| end.saturating_sub(start) as f64 * 1e-6).sum()
    }
}

fn run(opts: &Opts, size: Size) -> Result<Outcome, String> {
    let t_gen = Instant::now();
    let wl = Workload::generate(opts.kind, opts.seed, size);
    let s = &opts.settings;
    let mut report = vec![
        format!("servebench: workload {} seed {}", opts.kind.name(), opts.seed),
        format!("  why        {}", opts.kind.why()),
        format!(
            "  server     SpmvService on MetricsServer: {} serve lanes, {} kernel threads, \
             tune-reps {}, queue cap {}, batch {}",
            s.lanes, s.threads, s.tune_reps, s.queue_cap, s.batch
        ),
        format!(
            "  client     closed loop, {} connections over loopback TCP, {} s measured, tracing {}",
            s.connections,
            opts.seconds,
            if opts.trace { "on (per-layer run)" } else { "off (end-to-end run)" }
        ),
    ];
    for m in &wl.matrices {
        report.push(format!(
            "  matrix     {}: {}x{}, {} nnz, {:.1} MB computed working set, {:.1} MB upload",
            m.name,
            m.csr.nrows(),
            m.csr.ncols(),
            m.csr.nnz(),
            m.computed_bytes() / 1e6,
            m.upload.len() as f64 / 1e6
        ));
    }
    report.push(
        "  note       a DRAM-resident matrix (at least 4x the L3) does not fit the 64 MiB \
         upload limit, so no workload has one"
            .into(),
    );
    report.push(format!(
        "  inputs     generated in {:.2} s (not part of setup_s)",
        t_gen.elapsed().as_secs_f64()
    ));

    let triad = opts.trace.then(|| {
        let n = ((wl.max_computed_bytes() / 24.0).ceil() as usize).max(1 << 16);
        measure_triad(n, 20)
    });
    let Measured { setups, phases, all, peak_rss_mib: rss } = measure(opts, &wl)?;

    let failed = all.failed();
    report.push(format!(
        "  requests   {} attempted, {failed} failed (failed_frac {}): {} transport, \
         {} non-200, {} shed (503), {} verification mismatches",
        all.attempted,
        failed as f64 / all.attempted.max(1) as f64,
        all.transport,
        all.status,
        all.shed,
        all.mismatch
    ));
    for e in &all.errors {
        report.push(format!("  error      {e}"));
    }
    report.push(format!(
        "  verify     exact replies bitwise against the serial Csr::spmv reference; tuned full \
         vectors within {:e} x max(|A||x|); tuned digests by shape",
        workload::TUNED_RTOL
    ));
    let setup_times: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
    report.push(format!("  setup      {} set-ups: {setup_times:?} s", setups.len()));
    let mut correct = failed == 0;

    let metrics = if let Some(triad) = triad {
        let (values, violations) = layers(&wl, &phases[0], &phases[1], &setups, triad);
        report.push(format!(
            "  ceiling    STREAM triad {:.2} GB/s on a {:.1} MB working set; largest matrix \
             working set {:.1} MB (computed)",
            triad.gbps,
            triad.working_set_bytes as f64 / 1e6,
            wl.max_computed_bytes() / 1e6
        ));
        let d = &phases[1].delta;
        report.push(format!(
            "  dispatch   {} kernel dispatches for {} completed requests in the traced phase",
            d.dispatch.dispatches, d.completed
        ));
        let value =
            |name: &str| values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v);
        for (name, unit, moves) in LAYERS {
            report.push(format!(
                "  layer      {name:<26} {:>12.4} {unit:<6} -> {moves}",
                value(name)
            ));
        }
        for v in &violations {
            report.push(format!("  VIOLATION  {v}"));
        }
        correct &= violations.is_empty();
        LAYERS.iter().map(|(name, unit, _)| (*name, value(name), *unit)).collect()
    } else {
        let base = &phases[0];
        let sum = summarize(&base.log, &base.spans);
        report.push(format!(
            "  latency    p50 {:.3} ms, p99 {:.3} ms from {} samples over {:.2} s on {PLANES} \
             planes in {} block(s) of at least {} in completion order; p99 is the median of the \
             blocks' p99s, each with at least {} samples beyond it",
            sum.p50 * 1e3,
            sum.p99 * 1e3,
            base.log.samples.len(),
            base.seconds(),
            sum.blocks,
            sum.block_len,
            sum.block_len - (sum.block_len as f64 * 0.99).ceil() as usize,
        ));
        report.push(
            "  tail       the p99 is not a BENCHMARK.json end-to-end metric: host CPU steal on a \
             shared 2-vCPU host moves it past any allowed bound; traced runs record it as \
             client.p99_ms"
                .into(),
        );
        report.push(format!(
            "  memory     peak RSS {rss:.1} MiB after the first measured plane, including \
             the client's reference copies of the inputs and results"
        ));
        vec![
            ("throughput_rps", sum.rps, "1/s"),
            ("latency_p50_ms", sum.p50 * 1e3, "ms"),
            ("setup_s", median(&setup_times), "s"),
            ("peak_rss_mb", rss, "MiB"),
        ]
    };
    Ok(Outcome { report, correct, attempted: all.attempted, failed, metrics })
}

/// What [`measure`] returns.
struct Measured {
    setups: Vec<Setup>,
    phases: Vec<Phase>,
    /// Every request the clients sent, warm-up included.
    all: Log,
    /// `VmHWM` after the first measured plane.
    peak_rss_mib: f64,
}

/// Measures [`PLANES`] planes one after another, each set up afresh:
/// a warm-up, then one untraced phase, and for a traced run a second,
/// traced phase. Then sets up further planes, until the set-ups add
/// up to [`SETUP_SECONDS`], for the median `setup_s`. The peak RSS is
/// read after the first plane, so that it holds one set-up: the
/// allocator keeps some of each torn-down plane's memory.
fn measure(opts: &Opts, wl: &Workload) -> Result<Measured, String> {
    let traced: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let share = opts.seconds / PLANES as f64;
    let warmup = Duration::from_secs_f64((share * 0.1).clamp(0.2, 1.0));
    let phase_len = Duration::from_secs_f64(share / traced.len() as f64);
    let next = AtomicU64::new(0);
    let mut setups = Vec::new();
    let mut phases: Vec<Phase> = Vec::new();
    let mut all = Log::default();
    let mut peak_rss = f64::NAN;
    for index in 0..PLANES as u8 {
        let setup = Mutex::new(Err("set-up did not run".to_string()));
        let logs = Mutex::new(Vec::<(Option<usize>, Log)>::new());
        let marks = Mutex::new(Vec::<(Counters, u32)>::new());
        spmv_tuner::menu::clear_plan_cache();
        plane::host(&opts.settings, opts.trace, &|p, c| {
            if c == 0 {
                *setup.lock().expect("setup cell") = register(p, wl);
            }
            p.sync();
            if setup.lock().expect("setup cell").is_err() {
                return;
            }
            let warm = plane::drive(p, index, wl, &next, Instant::now() + warmup);
            logs.lock().expect("log cell").push((None, warm));
            for (k, &on) in traced.iter().enumerate() {
                p.sync();
                if c == 0 {
                    p.trace(on);
                    marks.lock().expect("mark cell").push((p.counters(), p.now_us()));
                }
                p.sync();
                let log = plane::drive(p, index, wl, &next, Instant::now() + phase_len);
                p.sync();
                if c == 0 {
                    marks.lock().expect("mark cell").push((p.counters(), p.now_us()));
                    p.trace(false);
                }
                logs.lock().expect("log cell").push((Some(k), log));
            }
        });
        setups.push(setup.into_inner().expect("setup cell")?);
        let marks = marks.into_inner().expect("mark cell");
        for (k, pair) in marks.chunks(2).enumerate() {
            let (delta, span) = (pair[1].0.since(&pair[0].0), (pair[0].1, pair[1].1));
            match phases.get_mut(k) {
                Some(phase) => {
                    phase.delta = phase.delta.plus(&delta);
                    phase.spans.push(span);
                }
                None => phases.push(Phase { log: Log::default(), delta, spans: vec![span] }),
            }
        }
        for (k, log) in logs.into_inner().expect("log cell") {
            all.count(&log);
            if let Some(k) = k {
                phases[k].log.merge(log);
            }
        }
        if index == 0 {
            peak_rss = peak_rss_mib();
        }
    }

    while setups.iter().map(|s| s.seconds).sum::<f64>() < SETUP_SECONDS && setups.len() < MAX_SETUPS
    {
        spmv_tuner::menu::clear_plan_cache();
        let setup = Mutex::new(Err("set-up did not run".to_string()));
        plane::host(&opts.settings, opts.trace, &|p, c| {
            if c == 0 {
                *setup.lock().expect("setup cell") = register(p, wl);
            }
        });
        setups.push(setup.into_inner().expect("setup cell")?);
    }
    Ok(Measured { setups, phases, all, peak_rss_mib: peak_rss })
}

/// Uploads every workload matrix over `POST /v1/matrices/{name}`.
/// `setup_s` runs from the bind to the last successful upload.
fn register(p: &plane::Plane<'_>, wl: &Workload) -> Result<Setup, String> {
    let before = p.counters();
    for m in &wl.matrices {
        match http_request(p.addr, "POST", &format!("/v1/matrices/{}", m.name), &m.upload) {
            Ok((200, _)) => {}
            Ok((status, body)) => {
                return Err(format!(
                    "registering {} failed ({status}): {}",
                    m.name,
                    String::from_utf8_lossy(&body).trim()
                ))
            }
            Err(e) => return Err(format!("registering {} failed: {e}", m.name)),
        }
    }
    let seconds = p.bound_at.elapsed().as_secs_f64();
    let d = p.counters().since(&before);
    Ok(Setup {
        seconds,
        register_s: d.register_s,
        profiling_s: d.profiling_s,
        profiling_runs: d.profiling_runs,
    })
}

/// The per-layer metrics from the untraced (`u`) and traced (`t`)
/// phases, and the self-check violations: a negative self time, or
/// kernel time above admission-to-delivery time, means two layers'
/// clocks disagree.
fn layers(
    wl: &Workload,
    u: &Phase,
    t: &Phase,
    setups: &[Setup],
    triad: TriadResult,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let d = &t.delta;
    let verified = t.log.verified().count().max(1) as f64;
    let rtt_ms = mean(t.log.verified().map(|r| r.rtt())) * 1e3;
    let handle_ms = d.handle_s / d.handle_calls.max(1) as f64 * 1e3;
    let admit_ms = d.latency_sum_s / d.latency_count.max(1) as f64 * 1e3;
    let disp = &d.dispatch;
    let per_dispatch = |s: f64| s / disp.dispatches.max(1) as f64;
    let busy_ms = per_dispatch(disp.max_busy_seconds) * 1e3;
    // Computed bytes per dispatch: the matrix arrays once, plus the x
    // and y of every request the dispatch served.
    let bytes = t.log.matrix_bytes / verified + per_dispatch(t.log.vector_bytes);
    let gbps = bytes / (busy_ms * 1e-3) / 1e9;
    let mean_busy = disp.busy_seconds / disp.threads.max(1) as f64;
    let p50 = |tuned: bool| {
        let mut v: Vec<f64> =
            u.log.verified().filter(|r| r.tuned == tuned).map(|r| r.rtt()).collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.5) * 1e3
    };
    let build_x_ms = mean(wl.matrices.iter().map(|m| {
        let mut v: Vec<f64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                let x = build_x("seed 7", m.csr.ncols()).expect("request spec");
                let s = t0.elapsed().as_secs_f64();
                std::hint::black_box(x);
                s
            })
            .collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.5) * 1e3
    }));
    let parse_s: f64 = wl
        .matrices
        .iter()
        .map(|m| {
            let t0 = Instant::now();
            let a = mm::read_csr(m.upload.as_slice()).expect("upload parses");
            let s = t0.elapsed().as_secs_f64();
            std::hint::black_box(a);
            s
        })
        .sum();
    let setup_median = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let values = vec![
        ("exposition.self_ms", rtt_ms - handle_ms),
        ("exposition.response_bytes", t.log.body_bytes as f64 / verified),
        ("service.self_ms", handle_ms - admit_ms),
        ("service.build_x_ms", build_x_ms),
        ("scheduler.self_ms", admit_ms - busy_ms),
        ("scheduler.batched_frac", d.batched as f64 / d.completed.max(1) as f64),
        ("scheduler.rejected", d.rejected as f64),
        ("kernel.busy_ms", busy_ms),
        ("kernel.gbps", gbps),
        ("kernel.attainment", gbps / triad.gbps),
        (
            "engine.wake_us",
            per_dispatch((disp.wall_seconds - disp.max_busy_seconds).max(0.0)) * 1e6,
        ),
        (
            "engine.imbalance",
            per_dispatch(disp.max_busy_seconds) / mean_busy.max(f64::MIN_POSITIVE),
        ),
        ("client.exact_p50_ms", p50(false)),
        ("client.tuned_p50_ms", p50(true)),
        ("client.p99_ms", summarize(&u.log, &u.spans).p99 * 1e3),
        ("setup.parse_s", parse_s),
        ("setup.register_s", setup_median(|s| s.register_s)),
        ("tuner.profiling_s", setup_median(|s| s.profiling_s)),
        ("tuner.profiling_runs", setup_median(|s| s.profiling_runs as f64)),
        ("trace.overhead_frac", rtt_ms / (mean(u.log.verified().map(|r| r.rtt())) * 1e3) - 1.0),
        ("machine.triad_gbps", triad.gbps),
    ];
    // A negative scheduler self time is kernel busy time above the
    // admission-to-delivery time.
    let mut violations = Vec::new();
    for (layer, self_ms) in [
        ("exposition", rtt_ms - handle_ms),
        ("service", handle_ms - admit_ms),
        ("scheduler", admit_ms - busy_ms),
    ] {
        if self_ms < 0.0 {
            violations.push(format!("{layer}.self_ms is negative ({self_ms} ms)"));
        }
    }
    if d.handle_calls == 0 || d.latency_count == 0 || disp.dispatches == 0 {
        violations.push("the traced phase recorded no requests".into());
    }
    (values, violations)
}

/// Requests per latency block: the p99 of 1000 samples has ten
/// samples beyond it.
const BLOCK: usize = 1000;

/// End-to-end throughput and latency of one phase, in seconds.
struct Summary {
    rps: f64,
    p50: f64,
    p99: f64,
    blocks: usize,
    block_len: usize,
}

/// Summarises a phase from its raw samples, never from histogram
/// buckets. The planes' phases (`spans`, one per plane) are laid end
/// to end, and the samples, in completion order, are cut into equal
/// blocks of at least [`BLOCK`] requests (one block of all of them
/// when there are fewer). Throughput is the median over blocks of
/// verified replies per second of the block's span, p99 the median
/// of the blocks' p99s, and p50 the median of all samples, so that
/// one burst of interference from outside the process moves one
/// block, not the result. A failed request counts as missing every
/// latency limit: it sorts above every round trip.
fn summarize(log: &Log, spans: &[(u32, u32)]) -> Summary {
    // Where each plane's phase starts on the end-to-end timeline.
    let mut at = Vec::new();
    let mut total = 0u64;
    for &(start, end) in spans {
        at.push(total);
        total += u64::from(end.saturating_sub(start));
    }
    let mut samples: Vec<(u64, &plane::Sample)> = log
        .samples
        .iter()
        .map(|s| {
            let p = usize::from(s.plane);
            (at[p] + u64::from(s.done_us.saturating_sub(spans[p].0)), s)
        })
        .collect();
    samples.sort_by_key(|&(t, _)| t);
    let latency = |s: &plane::Sample| if s.ok { s.rtt() } else { f64::INFINITY };
    let sorted = |v: &[(u64, &plane::Sample)]| {
        let mut v: Vec<f64> = v.iter().map(|&(_, s)| latency(s)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let n = samples.len();
    let blocks = (n / BLOCK).max(1);
    let mut from = 0;
    let mut rates = Vec::new();
    let mut p99s = Vec::new();
    for b in 0..blocks {
        let block = &samples[b * n / blocks..(b + 1) * n / blocks];
        let end = block.last().map_or(from, |&(t, _)| t);
        let span = end.saturating_sub(from) as f64 * 1e-6;
        rates.push(block.iter().filter(|(_, s)| s.ok).count() as f64 / span);
        p99s.push(quantile(&sorted(block), 0.99));
        from = end;
    }
    Summary {
        rps: median(&rates),
        p50: quantile(&sorted(&samples), 0.5),
        p99: median(&p99s),
        blocks,
        block_len: n / blocks,
    }
}

/// Linear-interpolated quantile of sorted samples (`NaN` when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
    // Equal neighbours need no interpolation (and two failures,
    // both infinite, must not interpolate to NaN).
    if lo == hi {
        lo
    } else {
        lo + (hi - lo) * rank.fract()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric name and unit pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = spmv_telemetry::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(spmv_telemetry::JsonValue::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(spmv_telemetry::JsonValue::as_str);
                (field("name").expect("name").to_string(), field("unit").expect("unit").to_string())
            })
            .collect()
    }

    /// Every workload at tiny size, both runs: each declared metric is
    /// emitted with its unit, every reply verifies, and the result
    /// line parses.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        for kind in Kind::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let opts =
                    Opts { kind, seed: 3, seconds: 0.4, trace, settings: Settings::default() };
                let out = run(&opts, Size::TINY).expect("tiny run");
                let line = out.json();
                assert!(out.correct, "{}: {}\n{}", kind.name(), line, out.report.join("\n"));
                assert!(out.attempted > 0 && out.failed == 0, "{line}");
                let doc = spmv_telemetry::JsonValue::parse(&line).expect("result line parses");
                let metrics = doc.get("metrics").expect("metrics");
                let declared = declared(section);
                assert_eq!(out.metrics.len(), declared.len(), "{line}");
                for (name, unit) in declared {
                    let m = metrics.get(&name).unwrap_or_else(|| panic!("{name} missing: {line}"));
                    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit.as_str()));
                    let v = m.get("value").and_then(|v| v.as_f64());
                    assert!(v.is_some_and(f64::is_finite), "{name}: {line}");
                }
            }
        }
    }

    #[test]
    fn quantiles_come_from_raw_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.5);
        assert!((quantile(&v, 0.99) - 99.01).abs() < 1e-9);

        // 2000 requests one millisecond apart; 1% of them fail.
        let samples = (0..2000u32)
            .map(|i| plane::Sample {
                rtt_ns: i % 100 * 1_000_000,
                done_us: 5_000 + (i + 1) * 1000,
                plane: 0,
                tuned: false,
                ok: i % 100 != 7,
            })
            .collect();
        let s = summarize(&Log { samples, ..Log::default() }, &[(5_000, 2_005_000)]);
        assert_eq!((s.blocks, s.block_len), (2, 1000));
        // 990 verified replies per second in each block.
        assert!((s.rps - 990.0).abs() < 1e-6, "{}", s.rps);
        assert!(s.p50 > 0.04 && s.p50 < 0.06, "{}", s.p50);
        // The failures sort above every round trip and reach p99.
        assert_eq!(s.p99, f64::INFINITY);
    }

    #[test]
    fn request_sequence_is_seeded() {
        let a = Workload::generate(Kind::LargeDigest, 11, Size::TINY);
        let b = Workload::generate(Kind::LargeDigest, 11, Size::TINY);
        let c = Workload::generate(Kind::LargeDigest, 12, Size::TINY);
        let seq = |w: &Workload| (0..64).map(|i| w.target(w.request(i))).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c));
        assert_eq!(a.matrices[1].upload, b.matrices[1].upload);
        let modes = (0..1000).filter(|&i| a.request(i).tuned).count();
        assert!((400..600).contains(&modes), "{modes}");
    }
}
