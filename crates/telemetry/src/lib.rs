//! # spmv-telemetry
//!
//! Dependency-free observability layer for the SpMV workspace. The
//! paper's whole method is measurement-driven — bottleneck classes
//! are assigned from measured per-thread times and performance bounds
//! — so the measurements themselves need first-class plumbing:
//!
//! * [`metrics`] — lock-free atomic counters for the **hot** paths
//!   (engine dispatch, preprocessing, profiling runs). These are the
//!   only primitives legal inside kernel dispatch;
//! * [`span`] — named wall-clock span timers for the **cold** paths
//!   (bound collection, format conversion, experiment phases);
//! * [`stats`] — the single shared median/imbalance implementation
//!   behind every `P_IMB = 2·NNZ / t_median` computation, measured or
//!   simulated;
//! * [`json`] — a hand-rolled JSON writer/parser serializing
//!   telemetry into the `BENCH_spmv.json` benchmark-trajectory record
//!   (schema in DESIGN.md) and reading it back for regression gating;
//! * [`trace`] — a lock-free fixed-capacity ring buffer of per-thread
//!   dispatch events with a Chrome trace-event (Perfetto) exporter;
//! * [`roofline`] — the live attainment cell one served matrix owns,
//!   folding measured kernel throughput into an EWMA against the
//!   tuner's simulated roofline bound, with a drift counter for
//!   re-tuning;
//! * [`registry`] — one labeled metrics namespace over the counters,
//!   spans and tracer, plus the `spmv_roofline_*` families a caller
//!   records per matrix, rendered as Prometheus text exposition;
//! * [`exposition`] — the `std::net` HTTP endpoint serving
//!   `/metrics` and `/trace` (the only socket code in the workspace).
//!
//! # Hot-path rules (enforced by `cargo xtask audit`)
//!
//! This crate must never create threads and must never take locks on
//! the kernel hot path: no `std::thread`, no `Mutex`/`RwLock`, and
//! every non-SeqCst atomic ordering carries its `relaxed-ok`-style
//! justification marker. The workspace safety analyzer scans
//! `crates/telemetry` under the same thread-containment and
//! ordering-justification rules as the execution engine, plus a
//! telemetry-wide lock-freedom rule. Only the exposition module may
//! touch sockets. The trace and histogram emit paths and the roofline
//! cell's `observe` are dispatch roots: nothing in them, or in what
//! they call, may panic or allocate without a
//! `panic-ok`/`indexing-ok`/`alloc-ok` marker.

pub mod exposition;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod roofline;
pub mod span;
pub mod stats;
pub mod trace;

pub use exposition::{
    http_request, Handled, HttpHandler, HttpRequest, HttpResponse, MetricsServer,
};
pub use hist::{
    serve_latency, serve_stats, Exemplar, HistogramSnapshot, LatencyHistogram, ServeStats,
};
pub use json::{JsonParseError, JsonValue};
pub use metrics::{DispatchSnapshot, DispatchStats, TimeCounter};
pub use registry::{MetricKind, MetricsRegistry};
pub use roofline::{Roofline, RooflineSample};
pub use span::{Span, SpanSet};
pub use stats::{imbalance, median};
pub use trace::{chrome_trace, tracer, EventKind, TraceBuffer, TraceEvent};
