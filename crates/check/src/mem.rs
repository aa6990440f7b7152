//! Shadow atomics: an operational weak-memory model for the checker.
//!
//! Real atomics give the hardware (and the compiler) freedom the
//! type system cannot see; the checker replaces every atomic cell
//! with a *shadow location* that keeps the *whole modification
//! history* of the cell, and replaces every load with a
//! nondeterministic choice among the stores that the C11 coherence
//! and release/acquire rules still allow the loading thread to
//! observe. The exploration layer
//! ([`crate::explore`](mod@crate::explore)) then branches on those
//! choices exactly as it branches on thread scheduling.
//!
//! # The model (view-based release/acquire + relaxed)
//!
//! This is the promise-free operational fragment used by Loom and
//! CDSChecker-style checkers:
//!
//! * Every location carries its stores in **modification order**
//!   (`mo`), each tagged with the *message view* the store published.
//! * Every thread carries three views — maps from location to the
//!   newest mo-position it is aware of:
//!   * `cur` — what the thread has definitely observed; a load may
//!     never return a store older than `cur[loc]` (**coherence**).
//!   * `acq` — everything carried by messages the thread has read,
//!     released into `cur` by an **acquire fence**.
//!   * `rel` — a snapshot of `cur` taken at the last **release
//!     fence**; attached to subsequent *relaxed* stores so a later
//!     reader that synchronizes on such a store inherits it.
//! * A **release store** publishes the thread's full `cur` view; an
//!   **acquire load** joins the read store's message view into
//!   `cur`; a *relaxed* load joins it only into `acq` (visible after
//!   an acquire fence, not before).
//! * An RMW reads the mo-maximal store (atomicity: its write is
//!   mo-adjacent to the store it read) and its message additionally
//!   carries the read store's message (release-sequence behaviour).
//!
//! # What this does and does not cover
//!
//! Covered: store buffering (stale relaxed reads), message passing
//! via release/acquire, fence-based publication (the seqlock
//! pattern), coherence per location, RMW atomicity.
//!
//! Not covered: load buffering / out-of-thin-air shapes (po-earlier
//! loads never see po-later stores — same cut as Loom), `SeqCst`
//! total-order distinctions (the protocols under test use none), and
//! compiler transformations on the surrounding non-atomic code. See
//! DESIGN.md §10 for the fidelity discussion.

/// Memory ordering of a shadow operation. `SeqCst` is intentionally
/// absent: the modeled protocols never use it, and modeling it as
/// `AcqRel` would silently weaken any model that did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MOrd {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire` (loads, RMW read half).
    Acquire,
    /// `Ordering::Release` (stores, RMW write half).
    Release,
    /// `Ordering::AcqRel` (RMWs).
    AcqRel,
}

impl MOrd {
    fn acquires(self) -> bool {
        matches!(self, MOrd::Acquire | MOrd::AcqRel)
    }
    fn releases(self) -> bool {
        matches!(self, MOrd::Release | MOrd::AcqRel)
    }
}

/// A thread view: for each location (by id), one past the newest
/// modification-order position the thread knows about.
pub type View = Vec<usize>;

fn join(into: &mut View, from: &View) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

/// One store in a location's modification order.
#[derive(Debug, Clone)]
struct StoreMsg {
    value: u64,
    /// The view this store's message carries to acquiring readers.
    msg: View,
}

/// Handle to a shadow atomic location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc(pub(crate) usize);

/// Per-thread view state.
#[derive(Debug, Clone, Default)]
pub struct ThreadView {
    cur: View,
    acq: View,
    rel: View,
}

/// All shadow locations of one execution.
#[derive(Debug, Default)]
pub struct Memory {
    names: Vec<&'static str>,
    stores: Vec<Vec<StoreMsg>>,
    threads: Vec<ThreadView>,
}

impl Memory {
    /// Allocates a location initialized to `init`. The initial store
    /// carries an empty message and is visible to every thread.
    pub fn alloc(&mut self, name: &'static str, init: u64) -> Loc {
        let id = self.names.len();
        self.names.push(name);
        self.stores.push(vec![StoreMsg { value: init, msg: Vec::new() }]);
        for t in &mut self.threads {
            t.cur.push(0);
            t.acq.push(0);
            t.rel.push(0);
        }
        Loc(id)
    }

    /// Registers `n` thread view states (call once, after allocs may
    /// still happen — views auto-extend on alloc).
    pub fn set_threads(&mut self, n: usize) {
        let nlocs = self.names.len();
        self.threads = (0..n)
            .map(|_| ThreadView { cur: vec![0; nlocs], acq: vec![0; nlocs], rel: vec![0; nlocs] })
            .collect();
    }

    pub fn name(&self, loc: Loc) -> &'static str {
        self.names[loc.0]
    }

    /// Modification-order positions thread `tid` is allowed to read
    /// at `loc`: everything from its coherence floor to the newest
    /// store. Always non-empty.
    pub fn readable(&self, tid: usize, loc: Loc) -> std::ops::Range<usize> {
        let newest = self.stores[loc.0].len();
        let floor = self.threads[tid].cur[loc.0].min(newest - 1);
        floor..newest
    }

    /// Completes a load of mo-position `pos` (must come from
    /// [`readable`](Memory::readable)) with ordering `ord`; returns
    /// the value read.
    pub fn load_at(&mut self, tid: usize, loc: Loc, pos: usize, ord: MOrd) -> u64 {
        let store = self.stores[loc.0][pos].clone();
        let t = &mut self.threads[tid];
        t.cur[loc.0] = t.cur[loc.0].max(pos);
        join(&mut t.acq, &store.msg);
        t.acq[loc.0] = t.acq[loc.0].max(pos);
        if ord.acquires() {
            join(&mut t.cur, &store.msg);
        }
        store.value
    }

    /// Stores `value` with ordering `ord`; appends to modification
    /// order and advances the writer past its own store.
    pub fn store(&mut self, tid: usize, loc: Loc, value: u64, ord: MOrd) {
        let pos = self.stores[loc.0].len();
        let t = &mut self.threads[tid];
        t.cur[loc.0] = pos;
        t.acq[loc.0] = t.acq[loc.0].max(pos);
        let mut msg = if ord.releases() { t.cur.clone() } else { t.rel.clone() };
        if msg.len() < self.names.len() {
            msg.resize(self.names.len(), 0);
        }
        msg[loc.0] = pos;
        self.stores[loc.0].push(StoreMsg { value, msg });
    }

    /// Atomic read-modify-write: reads the mo-maximal store (RMW
    /// atomicity), applies `f`, and — if `f` returns a new value —
    /// appends it with a message that also carries the read store's
    /// message (release-sequence behaviour). Returns `(old, updated)`.
    pub fn rmw(
        &mut self,
        tid: usize,
        loc: Loc,
        ord: MOrd,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> (u64, bool) {
        let read_pos = self.stores[loc.0].len() - 1;
        let read = self.stores[loc.0][read_pos].clone();
        {
            let t = &mut self.threads[tid];
            t.cur[loc.0] = read_pos;
            join(&mut t.acq, &read.msg);
            t.acq[loc.0] = t.acq[loc.0].max(read_pos);
            if ord.acquires() {
                join(&mut t.cur, &read.msg);
            }
        }
        match f(read.value) {
            Some(new) => {
                let pos = self.stores[loc.0].len();
                let t = &mut self.threads[tid];
                t.cur[loc.0] = pos;
                t.acq[loc.0] = t.acq[loc.0].max(pos);
                let mut msg = if ord.releases() { t.cur.clone() } else { t.rel.clone() };
                if msg.len() < self.names.len() {
                    msg.resize(self.names.len(), 0);
                }
                msg[loc.0] = pos;
                join(&mut msg, &read.msg);
                self.stores[loc.0].push(StoreMsg { value: new, msg });
                (read.value, true)
            }
            None => (read.value, false),
        }
    }

    /// A memory fence with ordering `ord` on thread `tid`.
    pub fn fence(&mut self, tid: usize, ord: MOrd) {
        let t = &mut self.threads[tid];
        if ord.acquires() {
            let acq = t.acq.clone();
            join(&mut t.cur, &acq);
        }
        if ord.releases() {
            let cur = t.cur.clone();
            join(&mut t.rel, &cur);
        }
    }

    /// Joins `view` into thread `tid`'s current view (used by the
    /// shadow mutex, whose lock/unlock pair is sequentially
    /// consistent by construction).
    pub fn acquire_view(&mut self, tid: usize, view: &View) {
        join(&mut self.threads[tid].cur, view);
    }

    /// Snapshot of thread `tid`'s current view (for the shadow
    /// mutex's release edge).
    pub fn release_view(&mut self, tid: usize) -> View {
        let mut v = self.threads[tid].cur.clone();
        v.resize(self.names.len(), 0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(nthreads: usize) -> Memory {
        let mut m = Memory::default();
        m.set_threads(nthreads);
        m
    }

    #[test]
    fn relaxed_load_may_read_stale_then_coherence_pins_it() {
        let mut m = world(2);
        let x = m.alloc("x", 0);
        m.store(0, x, 1, MOrd::Relaxed);
        // Thread 1 has not synchronized: both the initial 0 and the 1
        // are readable.
        assert_eq!(m.readable(1, x), 0..2);
        assert_eq!(m.load_at(1, x, 1, MOrd::Relaxed), 1);
        // Having read the newer store, the older one is gone forever.
        assert_eq!(m.readable(1, x), 1..2);
    }

    #[test]
    fn release_acquire_publishes_payload() {
        let mut m = world(2);
        let data = m.alloc("data", 0);
        let flag = m.alloc("flag", 0);
        m.store(0, data, 42, MOrd::Relaxed);
        m.store(0, flag, 1, MOrd::Release);
        // Acquire-read the flag's new store: the data store becomes
        // the only readable one.
        assert_eq!(m.load_at(1, flag, 1, MOrd::Acquire), 1);
        assert_eq!(m.readable(1, data), 1..2);
        assert_eq!(m.load_at(1, data, 1, MOrd::Relaxed), 42);
    }

    #[test]
    fn relaxed_publication_leaves_payload_stale() {
        let mut m = world(2);
        let data = m.alloc("data", 0);
        let flag = m.alloc("flag", 0);
        m.store(0, data, 42, MOrd::Relaxed);
        m.store(0, flag, 1, MOrd::Relaxed); // no release: broken publish
        assert_eq!(m.load_at(1, flag, 1, MOrd::Acquire), 1);
        // The stale data value is still readable — the bug a model
        // built on this cell would have to catch.
        assert_eq!(m.readable(1, data), 0..2);
    }

    #[test]
    fn fence_pair_publishes_like_release_acquire() {
        let mut m = world(2);
        let data = m.alloc("data", 0);
        let flag = m.alloc("flag", 0);
        m.store(0, data, 7, MOrd::Relaxed);
        m.fence(0, MOrd::Release);
        m.store(0, flag, 1, MOrd::Relaxed);
        // Reader: relaxed flag load + acquire fence.
        assert_eq!(m.load_at(1, flag, 1, MOrd::Relaxed), 1);
        // Before the fence the data store is not pinned...
        assert_eq!(m.readable(1, data), 0..2);
        m.fence(1, MOrd::Acquire);
        // ...after it, it is.
        assert_eq!(m.readable(1, data), 1..2);
    }

    #[test]
    fn rmw_reads_mo_maximal_and_chains_messages() {
        let mut m = world(3);
        let c = m.alloc("c", 0);
        let (old, ok) = m.rmw(0, c, MOrd::Relaxed, |v| Some(v + 1));
        assert_eq!((old, ok), (0, true));
        let (old, ok) = m.rmw(1, c, MOrd::Relaxed, |v| Some(v + 1));
        assert_eq!((old, ok), (1, true));
        // A failed update still reads the newest value.
        let (old, ok) = m.rmw(2, c, MOrd::Relaxed, |_| None);
        assert_eq!((old, ok), (2, false));
    }

    #[test]
    fn mutex_views_transfer_everything() {
        let mut m = world(2);
        let data = m.alloc("data", 0);
        m.store(0, data, 9, MOrd::Relaxed);
        let released = m.release_view(0);
        m.acquire_view(1, &released);
        assert_eq!(m.readable(1, data), 1..2);
    }
}
