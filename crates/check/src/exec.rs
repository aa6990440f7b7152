//! One controlled execution: model threads stepped one shared
//! operation at a time under a replayed choice string.
//!
//! The explorer ([`crate::explore`](mod@crate::explore)) owns a stack
//! of *choice points* (which thread to step next; which store a load
//! observes). A [`Controller`] replays that prefix deterministically
//! and, past its end, defaults every new choice to option 0 while
//! recording how many alternatives existed — the explorer then
//! backtracks through the recorded stack, depth-first, until no
//! untried option remains.
//!
//! Blocking primitives (the shadow [`MutexId`]/[`CondvarId`] pair
//! mirroring the engine's dispatch handshake) are *scheduler-level*:
//! lock, unlock, wait and notify are sequentially consistent, exactly
//! as `std::sync::Mutex`/`Condvar` are, and a blocked thread is
//! simply not offered to the scheduler until the primitive frees it.
//! Condition variables have **no spurious wakeups** in the model:
//! a waiter runs again only after a notify, so a protocol that relies
//! on re-checking its predicate in a loop still passes, while one
//! that can miss a wakeup deadlocks — and the checker reports it.
//!
//! Besides shadow atomics, models get *oracle cells*
//! ([`Ctx::oracle_add`] etc.): plain sequentially-consistent
//! counters invisible to the modeled protocol, used only to state
//! properties ("each row claimed exactly once", "events balanced").

use crate::mem::{Loc, MOrd, Memory, View};

/// Outcome of stepping a model thread once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread performed (at most) one shared operation and can be
    /// stepped again.
    Ready,
    /// The thread is blocked on a mutex or condvar; the step made no
    /// progress and will be retried when the primitive frees it.
    Blocked,
    /// The thread finished.
    Done,
}

/// A model thread: a hand-rolled state machine whose `step` performs
/// at most one shared-memory or synchronization operation per call,
/// so the scheduler can interleave at every point that matters.
pub trait ModelThread {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step;
}

/// Handle to a shadow mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutexId(usize);

/// Handle to a shadow condition variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondvarId(usize);

/// Handle to an oracle cell (property-checking state, not protocol
/// state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleId(usize);

#[derive(Debug, Clone)]
struct MutexState {
    /// Holding thread, if any.
    owner: Option<usize>,
    /// View released by the last unlock; acquired by the next lock.
    msg: View,
}

/// One recorded choice point.
#[derive(Debug, Clone, Copy)]
pub struct Choice {
    pub taken: usize,
    pub total: usize,
}

/// Replays a prefix of choices, then defaults to option 0, recording
/// every decision.
#[derive(Debug, Default)]
pub struct Controller {
    pub choices: Vec<Choice>,
    cursor: usize,
}

impl Controller {
    pub fn replay(prefix: Vec<Choice>) -> Controller {
        Controller { choices: prefix, cursor: 0 }
    }

    /// Picks one of `total` options: the replayed value inside the
    /// prefix, option 0 (recorded) past its end.
    fn choose(&mut self, total: usize) -> usize {
        debug_assert!(total >= 1);
        if self.cursor < self.choices.len() {
            let c = self.choices[self.cursor];
            debug_assert_eq!(c.total, total, "divergent replay");
            self.cursor += 1;
            c.taken
        } else {
            self.choices.push(Choice { taken: 0, total });
            self.cursor += 1;
            0
        }
    }
}

/// Why an execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEnd {
    /// Every thread ran to completion and the final check passed.
    Completed,
    /// A property failed (message carries the details).
    Violation(String),
    /// No thread is runnable but not all are done.
    Deadlock,
    /// The per-execution step budget ran out (livelock or an
    /// under-provisioned bound).
    StepBudget,
}

/// The world one execution runs in. Models allocate their locations
/// and primitives in their factory, then threads operate through
/// [`Ctx`].
#[derive(Debug, Default)]
pub struct World {
    pub mem: Memory,
    mutexes: Vec<MutexState>,
    condvar_count: usize,
    oracle: Vec<i64>,
    oracle_names: Vec<&'static str>,
}

impl World {
    pub fn alloc(&mut self, name: &'static str, init: u64) -> Loc {
        self.mem.alloc(name, init)
    }

    pub fn mutex(&mut self) -> MutexId {
        self.mutexes.push(MutexState { owner: None, msg: Vec::new() });
        MutexId(self.mutexes.len() - 1)
    }

    pub fn condvar(&mut self) -> CondvarId {
        self.condvar_count += 1;
        CondvarId(self.condvar_count - 1)
    }

    pub fn oracle(&mut self, name: &'static str) -> OracleId {
        self.oracle.push(0);
        self.oracle_names.push(name);
        OracleId(self.oracle.len() - 1)
    }

    pub fn oracle_value(&self, id: OracleId) -> i64 {
        self.oracle[id.0]
    }

    pub fn oracle_name(&self, id: OracleId) -> &'static str {
        self.oracle_names[id.0]
    }
}

/// What a thread is currently able to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    Runnable,
    BlockedMutex(usize),
    BlockedCondvar(usize),
    Done,
}

/// Per-step context handed to a model thread. All shared operations
/// go through here so the execution can record a human-readable trace
/// and branch on load values.
pub struct Ctx<'a> {
    world: &'a mut World,
    controller: &'a mut Controller,
    tid: usize,
    trace: &'a mut Vec<String>,
    violation: &'a mut Option<String>,
    /// Status changes requested by the step (blocking, wakeups).
    status: &'a mut Vec<ThreadStatus>,
}

impl Ctx<'_> {
    /// This thread's index.
    pub fn tid(&self) -> usize {
        self.tid
    }

    fn log(&mut self, msg: String) {
        self.trace.push(format!("t{}: {msg}", self.tid));
    }

    /// Atomic load; branches over every store the memory model lets
    /// this thread observe.
    pub fn load(&mut self, loc: Loc, ord: MOrd) -> u64 {
        let range = self.world.mem.readable(self.tid, loc);
        let options = range.len();
        let pick = range.start + self.controller.choose(options);
        let v = self.world.mem.load_at(self.tid, loc, pick, ord);
        let name = self.world.mem.name(loc);
        self.log(format!("load {name} -> {v} ({ord:?}, mo {pick}, {options} readable)"));
        v
    }

    /// Atomic store.
    pub fn store(&mut self, loc: Loc, value: u64, ord: MOrd) {
        self.world.mem.store(self.tid, loc, value, ord);
        let name = self.world.mem.name(loc);
        self.log(format!("store {name} = {value} ({ord:?})"));
    }

    /// Atomic read-modify-write (`fetch_update` shape): `f` maps the
    /// current value to `Some(new)` or `None` (no write). Returns
    /// `(old, updated)`.
    pub fn rmw(&mut self, loc: Loc, ord: MOrd, f: impl FnOnce(u64) -> Option<u64>) -> (u64, bool) {
        let (old, updated) = self.world.mem.rmw(self.tid, loc, ord, f);
        let name = self.world.mem.name(loc);
        self.log(format!("rmw {name}: read {old}, updated={updated} ({ord:?})"));
        (old, updated)
    }

    /// Memory fence.
    pub fn fence(&mut self, ord: MOrd) {
        self.world.mem.fence(self.tid, ord);
        self.log(format!("fence ({ord:?})"));
    }

    /// Tries to acquire the shadow mutex. On success the last
    /// unlocker's view transfers (the SC edge a real mutex provides).
    /// On failure the thread blocks; retry the same step when woken.
    #[must_use]
    pub fn lock(&mut self, m: MutexId) -> bool {
        match self.world.mutexes[m.0].owner {
            None => {
                self.world.mutexes[m.0].owner = Some(self.tid);
                let msg = self.world.mutexes[m.0].msg.clone();
                self.world.mem.acquire_view(self.tid, &msg);
                self.log(format!("lock m{}", m.0));
                true
            }
            Some(_) => {
                self.status[self.tid] = ThreadStatus::BlockedMutex(m.0);
                false
            }
        }
    }

    /// Releases the shadow mutex and wakes its blocked acquirers.
    pub fn unlock(&mut self, m: MutexId) {
        assert_eq!(self.world.mutexes[m.0].owner, Some(self.tid), "unlock by non-owner");
        self.world.mutexes[m.0].owner = None;
        self.world.mutexes[m.0].msg = self.world.mem.release_view(self.tid);
        for st in self.status.iter_mut() {
            if *st == ThreadStatus::BlockedMutex(m.0) {
                *st = ThreadStatus::Runnable;
            }
        }
        self.log(format!("unlock m{}", m.0));
    }

    /// Atomically releases `m` and blocks on `c` (the first half of
    /// `Condvar::wait`). The caller's state machine must re-acquire
    /// `m` in its next state once woken; the model has **no spurious
    /// wakeups**, so a missed notify is a deadlock the checker sees.
    pub fn cond_wait(&mut self, c: CondvarId, m: MutexId) {
        assert_eq!(self.world.mutexes[m.0].owner, Some(self.tid), "wait without the lock");
        self.world.mutexes[m.0].owner = None;
        self.world.mutexes[m.0].msg = self.world.mem.release_view(self.tid);
        for st in self.status.iter_mut() {
            if *st == ThreadStatus::BlockedMutex(m.0) {
                *st = ThreadStatus::Runnable;
            }
        }
        self.status[self.tid] = ThreadStatus::BlockedCondvar(c.0);
        self.log(format!("wait c{} (released m{})", c.0, m.0));
    }

    /// Wakes every thread blocked on `c` (they re-contend for their
    /// mutex in their next step).
    pub fn notify_all(&mut self, c: CondvarId) {
        let mut woke = 0;
        for st in self.status.iter_mut() {
            if *st == ThreadStatus::BlockedCondvar(c.0) {
                *st = ThreadStatus::Runnable;
                woke += 1;
            }
        }
        self.log(format!("notify_all c{} (woke {woke})", c.0));
    }

    /// Adds to an oracle cell (property state; sequentially
    /// consistent and invisible to the modeled protocol).
    pub fn oracle_add(&mut self, id: OracleId, delta: i64) {
        self.world.oracle[id.0] += delta;
    }

    /// Reads an oracle cell.
    pub fn oracle_get(&self, id: OracleId) -> i64 {
        self.world.oracle[id.0]
    }

    /// Reports a property violation; the execution stops after this
    /// step and the explorer surfaces the interleaving trace.
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        self.log(format!("VIOLATION: {msg}"));
        if self.violation.is_none() {
            *self.violation = Some(msg);
        }
    }
}

/// Post-execution property over the oracle state, run after all
/// threads complete.
pub type FinalCheck = Box<dyn Fn(&World) -> Result<(), String>>;

/// A freshly constructed model instance: its threads plus a final
/// property check over the oracle state, run after all threads
/// complete.
pub struct Instance {
    pub threads: Vec<Box<dyn ModelThread>>,
    pub final_check: FinalCheck,
}

/// Result of one execution.
pub struct ExecResult {
    pub end: ExecEnd,
    pub steps: usize,
    pub trace: Vec<String>,
    pub choices: Vec<Choice>,
}

/// Runs one execution of `make`'s instance under `controller`,
/// bounding context switches at `max_preemptions` and total steps at
/// `max_steps`.
pub fn run_once(
    make: &dyn Fn(&mut World) -> Instance,
    mut controller: Controller,
    max_preemptions: usize,
    max_steps: usize,
) -> ExecResult {
    let mut world = World::default();
    let mut instance = make(&mut world);
    let n = instance.threads.len();
    world.mem.set_threads(n);

    let mut status = vec![ThreadStatus::Runnable; n];
    let mut trace = Vec::new();
    let mut violation: Option<String> = None;
    let mut steps = 0usize;
    let mut last: Option<usize> = None;
    let mut preemptions = 0usize;

    let end = loop {
        let runnable: Vec<usize> =
            (0..n).filter(|&t| status[t] == ThreadStatus::Runnable).collect();
        if runnable.is_empty() {
            if status.iter().all(|s| *s == ThreadStatus::Done) {
                match (instance.final_check)(&world) {
                    Ok(()) => break ExecEnd::Completed,
                    Err(msg) => {
                        trace.push(format!("final check: VIOLATION: {msg}"));
                        break ExecEnd::Violation(msg);
                    }
                }
            }
            break ExecEnd::Deadlock;
        }
        if steps >= max_steps {
            break ExecEnd::StepBudget;
        }

        // Scheduling choice, preemption-bounded: once the budget is
        // spent, a thread that can keep running keeps running.
        let options: Vec<usize> = match last {
            Some(prev) if runnable.contains(&prev) && preemptions >= max_preemptions => {
                vec![prev]
            }
            _ => runnable.clone(),
        };
        let tid = options[controller.choose(options.len())];
        if let Some(prev) = last {
            if prev != tid && runnable.contains(&prev) {
                preemptions += 1;
            }
        }

        let step = {
            let mut ctx = Ctx {
                world: &mut world,
                controller: &mut controller,
                tid,
                trace: &mut trace,
                violation: &mut violation,
                status: &mut status,
            };
            instance.threads[tid].step(&mut ctx)
        };
        steps += 1;
        match step {
            Step::Done => {
                status[tid] = ThreadStatus::Done;
                last = None;
            }
            Step::Blocked => {
                // The step set its own blocked status via Ctx.
                last = None;
            }
            Step::Ready => last = Some(tid),
        }
        if let Some(msg) = violation.take() {
            break ExecEnd::Violation(msg);
        }
    };

    ExecResult { end, steps, trace, choices: controller.choices }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each do one relaxed store to a distinct location.
    struct OneStore {
        loc: Loc,
        val: u64,
        done: bool,
    }
    impl ModelThread for OneStore {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if self.done {
                return Step::Done;
            }
            ctx.store(self.loc, self.val, MOrd::Relaxed);
            self.done = true;
            Step::Done
        }
    }

    #[test]
    fn trivial_model_completes() {
        let make = |w: &mut World| {
            let a = w.alloc("a", 0);
            Instance {
                threads: vec![
                    Box::new(OneStore { loc: a, val: 1, done: false }),
                    Box::new(OneStore { loc: a, val: 2, done: false }),
                ],
                final_check: Box::new(|_| Ok(())),
            }
        };
        let r = run_once(&make, Controller::default(), 4, 100);
        assert_eq!(r.end, ExecEnd::Completed);
        assert!(r.steps >= 2);
    }

    /// A thread that locks a mutex another thread never releases.
    struct LockForever {
        m: MutexId,
        pc: u8,
    }
    impl ModelThread for LockForever {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            match self.pc {
                0 => {
                    if !ctx.lock(self.m) {
                        return Step::Blocked;
                    }
                    self.pc = 1;
                    Step::Ready
                }
                // Holds the lock and waits on a condvar nobody
                // notifies.
                _ => {
                    ctx.cond_wait(CondvarId(0), self.m);
                    Step::Blocked
                }
            }
        }
    }

    #[test]
    fn missed_wakeup_is_a_deadlock() {
        let make = |w: &mut World| {
            let m = w.mutex();
            let _c = w.condvar();
            Instance {
                threads: vec![
                    Box::new(LockForever { m, pc: 0 }),
                    Box::new(LockForever { m, pc: 0 }),
                ],
                final_check: Box::new(|_| Ok(())),
            }
        };
        let r = run_once(&make, Controller::default(), 4, 100);
        assert_eq!(r.end, ExecEnd::Deadlock);
    }
}
