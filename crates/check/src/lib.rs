//! `spmv-check`: an in-tree, dependency-free concurrency model
//! checker for the repository's lock-free core.
//!
//! The crate is a miniature stateless model checker in the spirit of
//! `loom`: protocols are *extracted* into small state-machine models
//! over shadow atomics ([`mem`]), a controlled scheduler replays and
//! enumerates interleavings ([`exec`]), and a depth-first explorer
//! with a bounded-preemption cut walks the whole space
//! ([`explore`](mod@explore)).
//! The three modeled protocols — the `TraceRing` seqlock, the
//! `ExecEngine` dispatch handshake with its guided claim loop, and
//! the `publish_ns = 0` disabled-tracer fast path — live in
//! [`models`], each alongside seeded mutants the checker must flag.
//!
//! # Memory model
//!
//! [`mem`] implements a view-based operational model of the
//! promise-free release/acquire fragment of C11 (the fragment the
//! modeled code uses): per-location modification-order store
//! histories carrying message views, per-thread current/acquire/
//! release views, release/acquire fences, and RMWs that extend
//! release sequences. It admits store buffering and stale reads —
//! the reorderings Relaxed permits — but not load buffering or
//! out-of-thin-air values, and `SeqCst` is deliberately absent
//! (nothing in the modeled core uses it). See `DESIGN.md` §10 for
//! the coverage argument.
//!
//! # Entry point
//!
//! `cargo xtask check` drives [`models::protocols`] through
//! [`explore::explore`]; each real model must exhaust its space
//! cleanly and each mutant must produce a [`explore::Failure`] whose
//! rendered interleaving is the counterexample shown to the
//! developer.

pub mod exec;
pub mod explore;
pub mod mem;
pub mod models;

pub use exec::{Ctx, Instance, ModelThread, Step, World};
pub use explore::{explore, Config, Failure, FailureKind, Outcome, Stats};
pub use mem::{Loc, MOrd};
