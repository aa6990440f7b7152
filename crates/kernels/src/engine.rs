//! Persistent worker-pool execution engine and precomputed schedule
//! plans.
//!
//! Every parallel kernel in this crate used to spawn fresh OS threads
//! (`std::thread::scope`) and recompute its row partition on *every*
//! SpMV call. For iterative solvers and the profiler — which invoke
//! the kernel thousands of times on the same matrix — that per-call
//! overhead dominates small and medium problems. This module
//! amortizes both costs:
//!
//! * [`ExecEngine`] owns a team of worker threads created **once**
//!   and parked on a condvar between calls, mirroring the warm
//!   OpenMP thread team of the paper's baseline;
//! * [`Plan`] caches the partition for a (schedule, row pointer,
//!   thread count) triple, so [`Schedule::NnzBalanced`] stops calling
//!   `partition_rows_by_nnz` per invocation.
//!
//! Per-thread busy times are measured by each worker **around its
//! task only** — wake-up and park latency never enter the reported
//! [`ThreadTimes`], keeping the `P_IMB = 2·NNZ / t_median` bound
//! faithful to pure compute time.
//!
//! # Dispatch protocol
//!
//! A call to [`ExecEngine::run`] publishes one type-erased job (a
//! `Fn(usize)` receiving the worker index) under the engine's mutex,
//! bumps an epoch counter and wakes the team. The calling thread
//! participates as worker `0`, then blocks until every pool worker
//! has decremented the pending counter. Because the caller never
//! returns before `pending == 0`, the job closure and the per-thread
//! time buffer — both borrowed from the caller's stack — stay valid
//! for exactly as long as any worker can touch them; that is the
//! entire safety argument for the lifetime transmute in `run`.
//! Worker panics are caught so the pool survives; the caller re-raises
//! a panic after the barrier.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use spmv_sparse::csr::partition_rows_by_nnz;
use spmv_telemetry::{EventKind, TraceBuffer};

use crate::schedule::{claim_guided, Schedule, ThreadTimes};

/// Converts busy seconds to trace-event nanoseconds; at least 1 so a
/// completed phase never renders as an instant.
fn dur_ns(seconds: f64) -> u64 {
    ((seconds * 1e9) as u64).max(1)
}

thread_local! {
    /// Caller-context tag for dispatch trace events — the serving
    /// plane's RequestId while a request's kernel runs, `0` (meaning
    /// "untagged", fall back to the dispatch epoch) otherwise. A
    /// thread-local `Cell` keeps the hot path at one TLS read: no
    /// locks, no allocation, no signature change for kernels.
    static DISPATCH_TAG: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with dispatch trace events tagged by `tag`: any
/// [`ExecEngine::run`]/[`run_labeled`](ExecEngine::run_labeled) call
/// inside `f` records its caller-side Task/Dispatch events with
/// `arg = tag` instead of the dispatch epoch, linking the kernel
/// execution back to the request that caused it. The previous tag is
/// restored on exit, panics included, so nesting and pooled reuse of
/// the thread stay correct.
pub fn with_dispatch_tag<R>(tag: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            // callgraph-ok: `LocalKey::with`, the std thread-local
            // accessor — not a workspace method named `with`.
            DISPATCH_TAG.with(|c| c.set(self.0));
        }
    }
    // callgraph-ok: `LocalKey::with` again (see above).
    let _restore = Restore(DISPATCH_TAG.with(|c| c.replace(tag)));
    f()
}

/// The current thread's dispatch tag (`0` when untagged).
fn dispatch_tag() -> u64 {
    // callgraph-ok: `LocalKey::with`, the std thread-local accessor —
    // not a workspace method named `with`.
    DISPATCH_TAG.with(Cell::get)
}

/// One dispatched job: a borrowed task and the buffer receiving each
/// worker's busy seconds. Lifetimes are erased; see the module-level
/// dispatch-protocol notes for why the borrow stays valid.
#[derive(Clone, Copy)]
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    times: *mut f64,
    /// Trace-clock timestamp of job publication, or `0` when the
    /// tracer was disabled at publish time (workers then skip all
    /// event recording for this dispatch).
    publish_ns: u64,
}

// SAFETY: the job travels to pool workers while the dispatching
// caller blocks; the pointee buffers outlive every access (the caller
// waits for `pending == 0` before returning) and `times` slots are
// written by exactly one worker each.
unsafe impl Send for Job {}

struct State {
    /// Incremented per dispatch; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Pool workers that have not yet finished the current epoch.
    pending: usize,
    /// Set when a pool worker's task panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between dispatches.
    work: Condvar,
    /// The dispatching caller parks here until `pending == 0`.
    done: Condvar,
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it (the engine's state stays consistent across caught panics).
///
/// lock-id: caller — a generic pass-through: the receiver identity
/// (and the blocking effect) belongs to each call site, not to this
/// helper.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A persistent team of worker threads dispatching closures without
/// per-call spawning.
///
/// An engine for `nthreads` holds `nthreads - 1` parked OS threads;
/// the thread calling [`run`](ExecEngine::run) acts as worker `0`.
/// With `nthreads == 1` no threads exist at all and `run` executes
/// inline. Dropping the engine shuts the team down and joins it.
pub struct ExecEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes dispatches: one job owns the team at a time.
    dispatch: Mutex<()>,
    nthreads: usize,
    /// Event sink for per-thread dispatch traces; the process-wide
    /// tracer unless a test injected its own via
    /// [`with_tracer`](ExecEngine::with_tracer).
    tracer: &'static TraceBuffer,
}

impl std::fmt::Debug for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEngine").field("nthreads", &self.nthreads).finish()
    }
}

impl ExecEngine {
    /// Creates an engine with a team of `nthreads` workers
    /// (`nthreads - 1` threads plus the caller). Counts above the
    /// machine's parallelism are allowed; the extra workers simply
    /// time-share.
    pub fn new(nthreads: usize) -> ExecEngine {
        ExecEngine::with_tracer(nthreads, spmv_telemetry::tracer())
    }

    /// Creates an engine whose dispatch events go to `tracer` instead
    /// of the process-wide one. Production code uses [`new`]
    /// (ExecEngine::new); tests inject a private buffer here so
    /// concurrent tests cannot pollute each other's captures.
    pub fn with_tracer(nthreads: usize, tracer: &'static TraceBuffer) -> ExecEngine {
        let nthreads = nthreads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..nthreads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spmv-exec-{tid}"))
                    .spawn(move || worker_loop(&shared, tid, tracer))
                    .expect("spawn pool worker")
            })
            .collect();
        ExecEngine { shared, workers, dispatch: Mutex::new(()), nthreads, tracer }
    }

    /// The trace buffer this engine's dispatch events go to.
    pub fn tracer(&self) -> &'static TraceBuffer {
        self.tracer
    }

    /// The team size this engine dispatches to.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Runs `task(t)` for every worker index `t in 0..nthreads` and
    /// returns each worker's busy seconds, measured around the task
    /// call only (no wake-up or park latency).
    ///
    /// The calling thread executes `task(0)` itself. Concurrent `run`
    /// calls on one engine are serialized. If any worker's task
    /// panics, the panic is re-raised here after the whole team has
    /// finished — the pool itself survives.
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) -> ThreadTimes {
        self.run_labeled("", task)
    }

    /// [`ExecEngine::run`] with a dispatch label: the caller-side
    /// Task/Dispatch trace events carry `label` as their name, so a
    /// capture shows *which* kernel (e.g. the tuner-selected
    /// `micro:<id>`) each dispatch executed. The label stays out of
    /// the worker-side hot path — workers record their events
    /// unnamed, exactly as before.
    ///
    /// blocking-ok: the dispatch handshake itself — `dispatch`
    /// serializes concurrent `run` calls (uncontended in the
    /// steady state), `state` publishes the job, and the `done`
    /// wait is the barrier the API contract promises; the per-row
    /// kernel loops under it never touch any of them.
    ///
    /// condvar-ok: the `done` wait intentionally holds `dispatch` —
    /// it is the serialization lock for the whole dispatch, and the
    /// workers that notify `done` only ever take `state` (the
    /// `handshake` model in crates/check proves the pairing).
    pub fn run_labeled(&self, label: &str, task: &(dyn Fn(usize) + Sync)) -> ThreadTimes {
        let n = self.nthreads;
        let mut seconds = vec![0.0f64; n];
        // Dispatch telemetry: wall time of the whole run (publish →
        // barrier) against the per-thread busy times. The recording
        // itself is a handful of relaxed atomic adds — the only
        // telemetry primitive allowed on this hot path. Trace events
        // cost one relaxed load when disabled (`publish_ns == 0`).
        let trace = self.tracer;
        let publish_ns = if trace.enabled() { trace.now_ns() } else { 0 };
        // Request context (serving plane): only read once tracing is
        // known to be on, keeping the disabled cost at one relaxed
        // load.
        let tag = if publish_ns != 0 { dispatch_tag() } else { 0 };
        let t_wall = Instant::now();
        if n == 1 {
            // The inline path catches panics like the pooled one so a
            // panicking task still leaves balanced telemetry behind
            // (closing Task/Dispatch events, stats recorded) before
            // the payload is re-raised.
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| task(0)));
            // indexing-ok: the constructor clamps `nthreads` to ≥ 1,
            // so the `seconds` vec always has a lane 0.
            seconds[0] = t0.elapsed().as_secs_f64();
            let wall = t_wall.elapsed().as_secs_f64();
            if publish_ns != 0 {
                // indexing-ok: lane 0 exists (see above).
                trace.record(EventKind::Task, 0, label, publish_ns, dur_ns(seconds[0]), tag);
                trace.record(EventKind::Dispatch, 0, label, publish_ns, dur_ns(wall), tag);
            }
            spmv_telemetry::metrics::engine_dispatch().record(wall, &seconds);
            if let Err(payload) = outcome {
                std::panic::resume_unwind(payload);
            }
            return ThreadTimes { seconds };
        }

        let _dispatch = lock(&self.dispatch);
        // SAFETY: `run` blocks until every pool worker finished the
        // epoch (`pending == 0`), so the erased borrows in `Job`
        // cannot outlive `task` or `seconds`. The caller's own panic
        // is caught and re-raised only after that barrier.
        let task_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let epoch = {
            let mut st = lock(&self.shared.state);
            st.job = Some(Job { task: task_erased, times: seconds.as_mut_ptr(), publish_ns });
            st.pending = n - 1;
            st.panicked = false;
            st.epoch += 1;
            self.shared.work.notify_all();
            st.epoch
        };

        let caller_start_ns = if publish_ns != 0 { trace.now_ns() } else { 0 };
        let t0 = Instant::now();
        let caller = catch_unwind(AssertUnwindSafe(|| task(0)));
        let caller_seconds = t0.elapsed().as_secs_f64();

        let pool_panicked = {
            let mut st = lock(&self.shared.state);
            while st.pending > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            st.job = None;
            st.panicked
        };
        // indexing-ok: lane 0 exists — `nthreads` is clamped to ≥ 1.
        seconds[0] = caller_seconds;

        // Telemetry lands before any panic is re-raised, so every exit
        // path — normal return, caller panic, pool-worker panic —
        // leaves balanced trace events and recorded dispatch stats.
        let wall = t_wall.elapsed().as_secs_f64();
        if publish_ns != 0 {
            // A request tag (serving plane) wins over the dispatch
            // epoch so the trace links the kernel to its request.
            let arg = if tag != 0 { tag } else { epoch };
            trace.record(EventKind::Task, 0, label, caller_start_ns, dur_ns(caller_seconds), arg);
            trace.record(EventKind::Dispatch, 0, label, publish_ns, dur_ns(wall), arg);
        }
        spmv_telemetry::metrics::engine_dispatch().record(wall, &seconds);

        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        assert!(!pool_panicked, "worker panicked");
        ThreadTimes { seconds }
    }

    /// The process-wide shared engine for `nthreads`, created on
    /// first use and kept alive for the process lifetime. Kernels
    /// resolve their engine here, so every kernel with the same
    /// thread count shares one warm team.
    pub fn global(nthreads: usize) -> Arc<ExecEngine> {
        static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<ExecEngine>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(Mutex::default);
        Arc::clone(
            lock(registry)
                .entry(nthreads.max(1))
                .or_insert_with(|| Arc::new(ExecEngine::new(nthreads))),
        )
    }
}

impl Drop for ExecEngine {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The persistent worker body: park, claim the published job, run it,
/// report the busy time into the dispatcher's slot.
///
/// witness-ok: the one unsafe write goes to per-thread slot `tid` of
/// the dispatcher's times buffer — governed by the dispatch handshake
/// (`tid < nthreads` by construction, buffer alive while the
/// dispatcher blocks), not by matrix validation.
///
/// blocking-ok: parking between dispatches is this function's job —
/// the `state` lock and `work` wait bracket the epoch claim, and the
/// claimed task runs outside both; only the claim/report edges block.
fn worker_loop(shared: &Shared, tid: usize, trace: &'static TraceBuffer) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if st.epoch != seen_epoch => {
                        seen_epoch = st.epoch;
                        break job;
                    }
                    _ => st = shared.work.wait(st).unwrap_or_else(|p| p.into_inner()),
                }
            }
        };
        // Busy time starts after the wake-up completes: parked and
        // scheduling latency stay out of the reported ThreadTimes.
        let wake_ns = if job.publish_ns != 0 { trace.now_ns() } else { 0 };
        let t0 = Instant::now();
        let ok = catch_unwind(AssertUnwindSafe(|| (job.task)(tid))).is_ok();
        let busy = t0.elapsed().as_secs_f64();
        if wake_ns != 0 {
            // Recorded whether or not the task panicked, so a capture
            // never ends with an unbalanced wake/task pair.
            let lane = tid as u32;
            let latency = wake_ns.saturating_sub(job.publish_ns).max(1);
            trace.record(EventKind::Wake, lane, "", job.publish_ns, latency, seen_epoch);
            trace.record(EventKind::Task, lane, "", wake_ns, dur_ns(busy), seen_epoch);
            trace.record(EventKind::Park, lane, "", trace.now_ns(), 0, seen_epoch);
        }
        // SAFETY: slot `tid` is written by this worker alone and the
        // buffer is kept alive by the blocked dispatcher.
        unsafe { *job.times.add(tid) = busy };
        let mut st = lock(&shared.state);
        if !ok {
            st.panicked = true;
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }
}

/// A precomputed execution plan: the row partition (or claiming
/// configuration) for one (schedule, row pointer, thread count)
/// triple, bound to a persistent [`ExecEngine`].
///
/// Kernels build their `Plan` once at construction; every subsequent
/// [`execute`](Plan::execute) reuses the cached partition, so the
/// per-call cost of [`Schedule::NnzBalanced`] drops from a
/// binary-search partition pass to a pointer dispatch.
#[derive(Debug)]
pub struct Plan {
    schedule: Schedule,
    nrows: usize,
    /// Cached per-thread ranges of the nnz-balanced schedule; `None`
    /// for the guided schedule, which needs a fresh shared counter per
    /// run.
    parts: Option<Vec<Range<usize>>>,
    engine: Arc<ExecEngine>,
}

impl Plan {
    /// Builds a plan for scheduling `rowptr.len() - 1` rows over the
    /// process-wide engine for `nthreads`.
    pub fn new(schedule: Schedule, rowptr: &[usize], nthreads: usize) -> Plan {
        Plan::with_engine(schedule, rowptr, ExecEngine::global(nthreads))
    }

    /// Builds a plan bound to a caller-owned engine (tests use this
    /// to exercise engine shutdown; production code shares the global
    /// registry via [`Plan::new`]).
    pub fn with_engine(schedule: Schedule, rowptr: &[usize], engine: Arc<ExecEngine>) -> Plan {
        assert!(!rowptr.is_empty(), "row pointer must have at least one entry");
        let nrows = rowptr.len() - 1;
        let nthreads = engine.nthreads();
        let parts = match schedule {
            Schedule::NnzBalanced => Some(partition_rows_by_nnz(rowptr, nthreads)),
            Schedule::Guided => None,
        };
        if let Some(parts) = &parts {
            // The kernels' unsafe YPtr writes rely on the partition
            // handing every row to exactly one worker; a malformed
            // partition would alias those writes. Enforce contiguous
            // exactly-once coverage of 0..nrows before the plan can
            // ever dispatch.
            let mut next = 0usize;
            for (t, part) in parts.iter().enumerate() {
                assert!(
                    part.start == next && part.end >= part.start && part.end <= nrows,
                    "partition {t} is {part:?}, expected to start at {next} within 0..{nrows}"
                );
                next = part.end;
            }
            assert_eq!(next, nrows, "partition must cover every row exactly once");
        }
        Plan { schedule, nrows, parts, engine }
    }

    /// The schedule this plan was built for.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The team size this plan dispatches to.
    pub fn nthreads(&self) -> usize {
        self.engine.nthreads()
    }

    /// Rows covered by the plan.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The engine the plan dispatches to (for callers that need raw
    /// per-worker tasks, like the decomposed kernel's long phase).
    pub fn engine(&self) -> &ExecEngine {
        &self.engine
    }

    /// Runs `worker(range)` over `0..nrows` split according to the
    /// plan's schedule and returns per-thread busy times.
    ///
    /// `worker` must tolerate being called with any sub-range of
    /// `0..nrows` and must only touch state it owns for that range.
    pub fn execute<F>(&self, worker: F) -> ThreadTimes
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.execute_labeled("", worker)
    }

    /// [`Plan::execute`] with a dispatch label forwarded to
    /// [`ExecEngine::run_labeled`] — the name under which this
    /// dispatch appears in trace captures (empty = unnamed).
    pub fn execute_labeled<F>(&self, label: &str, worker: F) -> ThreadTimes
    where
        F: Fn(Range<usize>) + Sync,
    {
        match &self.parts {
            Some(parts) => self.engine.run_labeled(label, &|t| {
                if let Some(part) = parts.get(t) {
                    if !part.is_empty() {
                        worker(part.clone());
                    }
                }
            }),
            None => {
                let (nrows, nthreads) = (self.nrows, self.engine.nthreads());
                let next = AtomicUsize::new(0);
                // Hoisted so an idle tracer costs one branch per
                // claim; a capture toggled mid-run waits a dispatch.
                let trace = self.engine.tracer;
                let tracing = trace.enabled();
                self.engine.run_labeled(label, &|t| {
                    while let Some(range) = claim_guided(&next, nrows, nthreads) {
                        traced_claim(trace, tracing, t, range, &worker);
                    }
                })
            }
        }
    }
}

/// Runs one claimed range through `worker`, recording a Claim trace
/// event (arg = rows claimed) on lane `t` when a capture is active.
fn traced_claim<F>(trace: &TraceBuffer, tracing: bool, t: usize, range: Range<usize>, worker: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    if !tracing {
        worker(range);
        return;
    }
    let rows = range.len() as u64;
    let t0 = trace.now_ns();
    worker(range);
    trace.record(
        EventKind::Claim,
        t as u32,
        "",
        t0,
        trace.now_ns().saturating_sub(t0).max(1),
        rows,
    );
}

/// Legacy spawn-per-call execution: scoped OS threads created on
/// every invocation, the strategy all kernels used before the
/// persistent engine existed.
///
/// Kept (a) as an independent reference implementation for
/// correctness tests and (b) so the dispatch bench can measure the
/// pool's per-call saving against it. Not used by any kernel. Lives
/// here (re-exported through [`crate::schedule`]) because `engine.rs`
/// is the one module allowed to create threads — all parallelism goes
/// through the engine or this documented comparison baseline.
pub fn execute_spawn<F>(
    schedule: Schedule,
    rowptr: &[usize],
    nthreads: usize,
    worker: F,
) -> ThreadTimes
where
    F: Fn(Range<usize>) + Sync,
{
    let nrows = rowptr.len() - 1;
    let nthreads = nthreads.max(1);
    let mut seconds = vec![0.0f64; nthreads];

    let parts = match schedule {
        Schedule::NnzBalanced => Some(partition_rows_by_nnz(rowptr, nthreads)),
        Schedule::Guided => None,
    };
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let (parts, next, worker) = (&parts, &next, &worker);
                scope.spawn(move || {
                    let t0 = Instant::now();
                    match parts {
                        Some(parts) => {
                            if let Some(part) = parts.get(t).filter(|p| !p.is_empty()) {
                                worker(part.clone());
                            }
                        }
                        None => {
                            while let Some(range) = claim_guided(next, nrows, nthreads) {
                                worker(range);
                            }
                        }
                    }
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            seconds[t] = h.join().expect("worker panicked");
        }
    });
    ThreadTimes { seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::GUIDED_DECAY;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_every_worker_exactly_once() {
        let engine = ExecEngine::new(4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let times = engine.run(&|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(times.seconds.len(), 4);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_engine_runs_inline() {
        let engine = ExecEngine::new(1);
        let caller = std::thread::current().id();
        let seen = Mutex::new(None);
        engine.run(&|t| {
            *seen.lock().unwrap() = Some((t, std::thread::current().id()));
        });
        assert_eq!(*seen.lock().unwrap(), Some((0, caller)));
    }

    #[test]
    fn reuse_across_many_dispatches() {
        let engine = ExecEngine::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            engine.run(&|_t| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn drop_joins_the_team() {
        let engine = ExecEngine::new(8);
        let count = AtomicU64::new(0);
        engine.run(&|_t| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
        drop(engine); // must not hang or leak threads
    }

    #[test]
    fn survives_worker_panic() {
        let engine = ExecEngine::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.run(&|t| {
                if t == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The team is still alive and dispatches again.
        let count = AtomicU64::new(0);
        engine.run(&|_t| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn global_registry_shares_engines() {
        let a = ExecEngine::global(3);
        let b = ExecEngine::global(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.nthreads(), 3);
        let c = ExecEngine::global(2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn oversubscribed_engine_works() {
        let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let n = 2 * hw + 3;
        let engine = ExecEngine::new(n);
        let count = AtomicU64::new(0);
        let times = engine.run(&|_t| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed) as usize, n);
        assert_eq!(times.seconds.len(), n);
    }

    #[test]
    fn static_plan_keeps_its_partition() {
        let rowptr: Vec<usize> = (0..=100).map(|i| i * 2).collect();
        let plan = Plan::new(Schedule::NnzBalanced, &rowptr, 4);
        assert_eq!(plan.nrows(), 100);
        assert_eq!(plan.nthreads(), 4);
        assert!(plan.parts.is_some());
        let covered = Mutex::new(vec![0u32; 100]);
        for _ in 0..3 {
            plan.execute(|range| {
                let mut v = covered.lock().unwrap();
                for i in range {
                    v[i] += 1;
                }
            });
        }
        assert!(covered.lock().unwrap().iter().all(|&c| c == 3));
    }

    #[test]
    fn claiming_plan_covers_rows_repeatedly() {
        let rowptr: Vec<usize> = (0..=57).collect();
        let plan = Plan::new(Schedule::Guided, &rowptr, 3);
        for _ in 0..2 {
            let covered = Mutex::new(vec![0u32; 57]);
            plan.execute(|range| {
                let mut v = covered.lock().unwrap();
                for i in range {
                    v[i] += 1;
                }
            });
            assert!(covered.lock().unwrap().iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn idle_workers_report_near_zero_busy_time() {
        // Worker 0 sleeps; the rest get no work. Their reported times
        // must reflect only the (empty) task call — park/wake latency
        // excluded — so they come out orders of magnitude below the
        // sleeper.
        let engine = ExecEngine::new(4);
        let times = engine.run(&|t| {
            if t == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        assert!(times.seconds[0] >= 0.050);
        for &idle in &times.seconds[1..] {
            assert!(idle < 0.010, "idle worker reported {idle}s of busy time");
        }
    }

    #[test]
    fn dispatch_telemetry_advances_on_run() {
        // The global dispatch counter is shared across parallel
        // tests, so assert on deltas with >= instead of exact counts.
        let stats = spmv_telemetry::metrics::engine_dispatch();
        let before = stats.snapshot();
        let engine = ExecEngine::new(3);
        for _ in 0..5 {
            engine.run(&|_| {});
        }
        let after = stats.snapshot();
        assert!(after.dispatches >= before.dispatches + 5);
        assert!(after.threads >= before.threads + 15);
        assert!(after.wall_seconds > before.wall_seconds);
        assert!(after.wake_latency_seconds() >= 0.0);
        assert!(after.imbalance_ratio() >= 1.0);
        // Single-thread inline dispatches are recorded too.
        let solo = ExecEngine::new(1);
        let solo_before = stats.snapshot();
        solo.run(&|_| {});
        assert!(stats.snapshot().dispatches > solo_before.dispatches);
    }

    fn leaked_tracer(capacity: usize) -> &'static TraceBuffer {
        let buf = Box::leak(Box::new(TraceBuffer::new(capacity)));
        buf.set_enabled(true);
        buf
    }

    #[test]
    fn traced_run_emits_per_thread_timeline() {
        let trace = leaked_tracer(1024);
        let engine = Arc::new(ExecEngine::with_tracer(3, trace));
        assert!(std::ptr::eq(engine.tracer(), trace));
        engine.run(&|_t| {});
        let events = trace.snapshot();
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Dispatch).count(), 1);
        // One Task per lane (caller = lane 0, workers 1..3).
        let mut task_lanes: Vec<u32> =
            events.iter().filter(|e| e.kind == EventKind::Task).map(|e| e.tid).collect();
        task_lanes.sort_unstable();
        assert_eq!(task_lanes, [0, 1, 2]);
        // Pool workers report wake latency and a park instant.
        for kind in [EventKind::Wake, EventKind::Park] {
            let mut lanes: Vec<u32> =
                events.iter().filter(|e| e.kind == kind).map(|e| e.tid).collect();
            lanes.sort_unstable();
            assert_eq!(lanes, [1, 2], "{kind:?}");
        }
        assert!(events.iter().all(|e| e.start_ns > 0));
        assert!(events.iter().filter(|e| e.kind != EventKind::Park).all(|e| e.dur_ns > 0));

        // The guided schedule adds one Claim event per chunk; the args
        // (rows claimed) sum to the full row count. A claim's size
        // depends only on where it starts, so the chunk count is the
        // GUIDED_DECAY sequence's whatever the interleaving.
        trace.clear();
        let rowptr: Vec<usize> = (0..=57).collect();
        let plan = Plan::with_engine(Schedule::Guided, &rowptr, Arc::clone(&engine));
        plan.execute(|_range| {});
        let claims: Vec<_> =
            trace.snapshot().into_iter().filter(|e| e.kind == EventKind::Claim).collect();
        let mut want = 0;
        let mut start = 0;
        while start < 57 {
            start += ((57 - start) / (GUIDED_DECAY * 3)).max(1);
            want += 1;
        }
        assert_eq!(claims.len(), want);
        assert_eq!(claims.iter().map(|e| e.arg).sum::<u64>(), 57);
    }

    #[test]
    fn dispatch_tag_flows_into_caller_side_events() {
        let trace = leaked_tracer(1024);
        let engine = ExecEngine::with_tracer(2, trace);
        with_dispatch_tag(41, || {
            engine.run(&|_t| {});
        });
        let events = trace.snapshot();
        for kind in [EventKind::Dispatch, EventKind::Task] {
            let caller: Vec<_> = events.iter().filter(|e| e.kind == kind && e.tid == 0).collect();
            assert_eq!(caller.len(), 1, "{kind:?}");
            assert_eq!(caller[0].arg, 41, "{kind:?} carries the RequestId tag");
        }
        // Outside the closure the tag is restored: events fall back
        // to the dispatch epoch.
        trace.clear();
        engine.run(&|_t| {});
        let dispatch: Vec<_> =
            trace.snapshot().into_iter().filter(|e| e.kind == EventKind::Dispatch).collect();
        assert_eq!(dispatch.len(), 1);
        assert_ne!(dispatch[0].arg, 41, "tag must not leak past its scope");

        // The tag is restored even when the tagged task panics, and
        // the inline (single-thread) path carries it too.
        trace.clear();
        let solo = ExecEngine::with_tracer(1, trace);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_dispatch_tag(77, || solo.run(&|_t| panic!("tagged boom")))
        }));
        assert!(caught.is_err());
        let events = trace.snapshot();
        assert!(events
            .iter()
            .filter(|e| e.kind == EventKind::Dispatch || e.kind == EventKind::Task)
            .all(|e| e.arg == 77));
        assert_eq!(super::dispatch_tag(), 0, "panic unwound the tag scope");
    }

    #[test]
    fn disabled_tracer_records_nothing_from_runs() {
        let trace: &'static TraceBuffer = Box::leak(Box::new(TraceBuffer::new(64)));
        let engine = ExecEngine::with_tracer(2, trace);
        engine.run(&|_t| {});
        assert_eq!(trace.recorded(), 0);
    }

    #[test]
    fn panicking_task_leaves_tracer_balanced() {
        let trace = leaked_tracer(1024);
        let engine = ExecEngine::with_tracer(3, trace);
        let stats = spmv_telemetry::metrics::engine_dispatch();

        // Pool-worker panic: caller re-raises after the barrier.
        let before = stats.snapshot().dispatches;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.run(&|t| {
                if t == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(caught.is_err());
        let events = trace.snapshot();
        // The dispatch still closed: one Dispatch event, one Task per
        // lane (the panicking worker's included), wake/park balanced.
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Dispatch).count(), 1);
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Task).count(), 3);
        assert_eq!(
            events.iter().filter(|e| e.kind == EventKind::Wake).count(),
            events.iter().filter(|e| e.kind == EventKind::Park).count()
        );
        assert!(stats.snapshot().dispatches > before, "stats recorded despite panic");

        // Caller panic (lane 0).
        trace.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.run(&|t| {
                if t == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(caught.is_err());
        let events = trace.snapshot();
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Dispatch).count(), 1);
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Task).count(), 3);

        // Inline single-thread panic.
        trace.clear();
        let solo = ExecEngine::with_tracer(1, trace);
        let before = stats.snapshot().dispatches;
        let caught = catch_unwind(AssertUnwindSafe(|| solo.run(&|_t| panic!("solo boom"))));
        assert!(caught.is_err());
        let events = trace.snapshot();
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Dispatch).count(), 1);
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Task).count(), 1);
        assert!(stats.snapshot().dispatches > before);
    }

    #[test]
    fn more_threads_than_rows() {
        let rowptr: Vec<usize> = (0..=3).collect();
        let plan = Plan::new(Schedule::NnzBalanced, &rowptr, 8);
        let covered = Mutex::new(vec![0u32; 3]);
        let times = plan.execute(|range| {
            let mut v = covered.lock().unwrap();
            for i in range {
                v[i] += 1;
            }
        });
        assert_eq!(times.seconds.len(), 8);
        assert!(covered.lock().unwrap().iter().all(|&c| c == 1));
    }
}
