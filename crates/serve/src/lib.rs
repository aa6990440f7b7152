//! # spmv-serve
//!
//! SpMV-as-a-service: the serving plane that turns the workspace's
//! tune-once pipeline into a serve-many daemon (DESIGN.md §12).
//!
//! The paper's profile → classify → optimize method front-loads cost
//! (profiling runs, format conversion, menu search) that only pays
//! off when the tuned kernel is reused — Elafrou's lightweight
//! selection argument. This crate is that reuse loop as a service:
//!
//! * [`registry`] — upload/register → validate ([`Validated`]
//!   witnesses) → tune once (PR 6 menu search) → serve many. Kernels
//!   are built once per matrix and pinned for the process lifetime.
//!   A [`RegisteredMatrix`] owns everything about its matrix: the
//!   kernels behind its one `run` entry point, its live roofline
//!   cell and its recent-request ring;
//! * [`scheduler`] — admission control with bounded-queue
//!   backpressure (overload sheds with HTTP 503 instead of growing
//!   latency), plus same-matrix request coalescing onto the
//!   multi-vector SpMM kernel (one matrix traversal per batch, after
//!   Nagasaka & Azad's KNL sparse products). Its producer/consumer
//!   handshake is model-checked as the `admission` protocol in
//!   `crates/check`;
//! * [`service`] — the HTTP routes, mounted on the telemetry crate's
//!   exposition server so this crate contains no socket code.
//!
//! The crate creates no threads: the daemon (`spmv-metricsd
//! --serve`) donates `ExecEngine` lanes to the serve loops and the
//! scheduler worker, and kernel dispatches nest onto the
//! process-global engine pools. Serving latency and admission
//! outcomes are exported through `spmv-telemetry`'s registry
//! (`spmv_serve_*` metrics, including the p50/p99 latency histogram
//! the load generator reports). Every admitted request additionally
//! carries a RequestId through a six-stage span timeline in the trace
//! ring (`admitted → queued → batched → dispatched → kernel →
//! responded`), surfaces as a latency-bucket exemplar on `/metrics`,
//! and feeds its matrix's roofline-attainment cell and request ring,
//! queried via `GET /v1/observe/{name}` (DESIGN.md §13).
//!
//! [`Validated`]: spmv_sparse::Validated

pub mod registry;
pub mod scheduler;
pub mod service;

pub use registry::{MatrixRegistry, Mode, Observation, RegisterError, RegisteredMatrix};
pub use scheduler::{Scheduler, SubmitError, DEFAULT_QUEUE_CAP};
pub use service::{build_x, digest, SpmvService};
