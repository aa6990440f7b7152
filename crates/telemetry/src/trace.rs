//! Lock-free event tracer: a fixed-capacity ring buffer of per-thread
//! dispatch events, exported as Chrome trace-event JSON
//! (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev)).
//!
//! The paper's IMB bottleneck class is defined by *per-thread* timing
//! skew; a scalar imbalance ratio says that skew exists, a timeline
//! shows where. The execution engine records one event per worker per
//! dispatch (wake latency, task phase, park) plus claim events for
//! the claiming schedules, and the tuner's micro-benchmark spans ride
//! along — all into this buffer, all without locks, so recording is
//! legal on the kernel hot path.
//!
//! # Ring protocol (multi-writer, multi-reader, drop-oldest)
//!
//! Writers claim a monotonically increasing global index with one
//! `fetch_add` and overwrite slot `index % capacity` — when the
//! buffer is full the **oldest** events are overwritten first, and
//! the exact number of overwritten events is `head - capacity`.
//! Each slot is a seqlock: the payload lives in relaxed atomic cells
//! (never raw memory, so a torn read is stale data, not UB) guarded
//! by a sequence word that is odd while a write is in flight and
//! carries the slot's global index when complete. Readers accept a
//! slot only if the sequence word reads `complete(i)` both before and
//! after the payload loads (with an acquire fence between), so a
//! half-written or concurrently overwritten event can never surface
//! in a snapshot.
//!
//! Recording is gated on an `enabled` flag (default **off**): a
//! disabled tracer costs one relaxed load per would-be event, keeping
//! the engine's ≤2% dispatch-overhead budget intact when nobody is
//! capturing.

use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::JsonValue;

/// Maximum event-name bytes stored inline in a slot (longer names are
/// truncated at a char boundary).
pub const NAME_BYTES: usize = 24;

/// Capacity of the process-wide tracer returned by [`tracer`].
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What a trace event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// One whole `ExecEngine::run` (publish → barrier), caller side.
    Dispatch = 0,
    /// One worker's task execution within a dispatch.
    Task = 1,
    /// Wake latency: job publication → worker starts its task.
    Wake = 2,
    /// Worker finished its task and returns to the condvar (instant).
    Park = 3,
    /// One claimed row range in a dynamic/guided schedule.
    Claim = 4,
    /// A cold-path span (micro-benchmark bound, preprocessing phase).
    Span = 5,
    /// One request-lifecycle stage (admitted → queued → batched →
    /// dispatched → kernel → responded); `arg` carries the RequestId.
    Stage = 6,
}

impl EventKind {
    /// Stable category string used in the Chrome trace `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Dispatch => "dispatch",
            EventKind::Task => "task",
            EventKind::Wake => "wake",
            EventKind::Park => "park",
            EventKind::Claim => "claim",
            EventKind::Span => "span",
            EventKind::Stage => "stage",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::Dispatch,
            1 => EventKind::Task,
            2 => EventKind::Wake,
            3 => EventKind::Park,
            4 => EventKind::Claim,
            6 => EventKind::Stage,
            _ => EventKind::Span,
        }
    }
}

/// One decoded trace event, as returned by [`TraceBuffer::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Worker index (engine lane); cold-path spans use lane 0.
    pub tid: u32,
    /// Event category.
    pub kind: EventKind,
    /// Event name (e.g. `"task"`, `"bound:P_CSR"`); possibly
    /// truncated to [`NAME_BYTES`].
    pub name: String,
    /// Start, in nanoseconds since the owning buffer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (`0` renders as an instant event).
    pub dur_ns: u64,
    /// Free-form argument (dispatch epoch, claimed rows, …).
    pub arg: u64,
}

/// Slot sequence states: `0` = never written, odd = write in flight,
/// `2 * index + 2` = event `index` complete. Indices are globally
/// unique, so a sequence value can never repeat (no ABA).
const fn seq_writing(index: u64) -> u64 {
    2 * index + 1
}
const fn seq_complete(index: u64) -> u64 {
    2 * index + 2
}

/// One ring slot: the seqlock word plus the payload in atomic cells.
struct Slot {
    seq: AtomicU64,
    /// `tid << 32 | kind` packed.
    word: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
    name: [AtomicU64; NAME_BYTES / 8],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            word: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            name: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// Packs up to [`NAME_BYTES`] of `name` (truncated at a char
/// boundary) into little-endian words, so a trace slot stores its
/// event name in atomics without locking or allocating.
fn pack_name(name: &str) -> [u64; NAME_BYTES / 8] {
    let mut cut = name.len().min(NAME_BYTES);
    while !name.is_char_boundary(cut) {
        cut -= 1;
    }
    let mut bytes = [0u8; NAME_BYTES];
    // indexing-ok: `cut <= NAME_BYTES` and `cut <= name.len()` by
    // construction above, so both slices are in bounds.
    bytes[..cut].copy_from_slice(&name.as_bytes()[..cut]);
    let mut words = [0u64; NAME_BYTES / 8];
    for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        // panic-ok: `chunks_exact(8)` yields 8-byte chunks only, so
        // the conversion to `[u8; 8]` cannot fail.
        *w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    words
}

/// Decodes a packed name, trimming the zero padding.
fn unpack_name(words: &[u64; NAME_BYTES / 8]) -> String {
    let mut bytes = [0u8; NAME_BYTES];
    for (chunk, w) in bytes.chunks_exact_mut(8).zip(words.iter()) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    let len = bytes.iter().position(|&b| b == 0).unwrap_or(NAME_BYTES);
    String::from_utf8_lossy(&bytes[..len]).into_owned()
}

/// A fixed-capacity, lock-free, drop-oldest trace ring buffer.
///
/// Create one per capture ([`TraceBuffer::new`]) or share the
/// process-wide instance ([`tracer`]). All methods take `&self` and
/// are safe to call from any number of threads concurrently.
pub struct TraceBuffer {
    slots: Box<[Slot]>,
    /// Total events ever claimed; `head % capacity` is the next slot.
    head: AtomicU64,
    /// Events dropped at claim time because the target slot was owned
    /// by a concurrent writer (see [`TraceBuffer::record`]).
    shed: AtomicU64,
    enabled: AtomicBool,
    /// Zero point of every `*_ns` timestamp in this buffer.
    epoch: Instant,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl TraceBuffer {
    /// Creates a disabled buffer holding up to `capacity` events
    /// (at least 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
        }
    }

    /// Event capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether [`record`](TraceBuffer::record) currently stores
    /// events.
    pub fn enabled(&self) -> bool {
        // relaxed-ok: a stale enabled read only delays the first or
        // last event of a capture by one dispatch; no other state is
        // ordered against the flag.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts (`true`) or stops (`false`) event capture.
    pub fn set_enabled(&self, on: bool) {
        // relaxed-ok: see `enabled`.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this buffer's epoch — the clock every
    /// recorded `start_ns` must come from. Never returns 0, so
    /// callers can use 0 as a "not traced" sentinel.
    pub fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Total events claimed so far (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        // relaxed-ok: aggregate read, no ordering dependency.
        self.head.load(Ordering::Relaxed)
    }

    /// Exact number of events lost to overwriting, oldest-first: a
    /// ring of capacity `C` retains the newest `C` claims, so
    /// everything before them is gone.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Events dropped at claim time because their slot was owned by a
    /// concurrent writer — the ring sheds an event rather than let
    /// two writers interleave payload stores in one slot. Bounded by
    /// the number of times a writer lapped a full capacity behind the
    /// head mid-record; 0 in any single-threaded use.
    pub fn shed(&self) -> u64 {
        // relaxed-ok: monotonic loss counter, read for reporting.
        self.shed.load(Ordering::Relaxed)
    }

    /// Records one event if the tracer is enabled. Lock-free: one
    /// `fetch_add`, one slot-claim CAS, and a handful of relaxed
    /// stores; if the claimed slot is still owned by a writer that
    /// lagged a full capacity behind, the event is shed (counted by
    /// [`TraceBuffer::shed`]) instead of torn.
    pub fn record(
        &self,
        kind: EventKind,
        tid: u32,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        if !self.enabled() {
            return;
        }
        // relaxed-ok: the claim counter only hands out unique
        // indices; publication ordering is the seqlock's job.
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        // indexing-ok: the index is reduced modulo `slots.len()`,
        // which `new` clamps to ≥ 1.
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];

        // Claim the slot or drop the event. A plain `seq_writing`
        // store here has two torn-read holes, both found by the
        // `seqlock` model in `spmv-check` (see DESIGN.md §10): a
        // wrapping writer's marker can be masked by the previous
        // writer's later `seq_complete` store, and a straggling old
        // writer's late payload store can land modification-order
        // after the new writer's payload — in either case a reader
        // validates q1 == q2 while holding a mix of two writers'
        // cells. The CAS makes same-slot payload episodes mutually
        // exclusive: only one writer owns a slot between its claim
        // and its `seq_complete` publication, and a writer that
        // finds the slot odd (owned) or loses the race drops the
        // event instead of corrupting the ring.
        //
        // relaxed-ok: the pre-check is advisory; the CAS decides.
        let cur = slot.seq.load(Ordering::Relaxed);
        if cur & 1 == 1
            || slot
                .seq
                .compare_exchange(
                    cur,
                    seq_writing(index),
                    // acquire-ok (success): synchronizes with the
                    // previous owner's `seq_complete` release store
                    // so that episode's payload stores happen-before
                    // ours, keeping each cell's modification order
                    // aligned with episode order — the q1 acquire
                    // load then excludes stale cells entirely.
                    Ordering::Acquire,
                    // relaxed-ok (failure): a lost race only drops
                    // the event.
                    Ordering::Relaxed,
                )
                .is_err()
        {
            // relaxed-ok: monotonic loss counter, read for reporting.
            self.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // release-ok: pairs with the reader's acquire fence before
        // its q2 recheck — any reader that observes a payload store
        // below also observes at least `seq_writing(index)`, so a
        // mid-write slot never validates.
        fence(Ordering::Release);
        let name_words = pack_name(name);
        // relaxed-ok (all payload stores): published by the final
        // release store of the sequence word; readers re-validate the
        // sequence after an acquire fence, so a torn mix of two
        // writers' payloads is detected and discarded.
        slot.word.store(u64::from(tid) << 32 | kind as u64, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed); // relaxed-ok: as above.
        slot.dur_ns.store(dur_ns, Ordering::Relaxed); // relaxed-ok: as above.
        slot.arg.store(arg, Ordering::Relaxed); // relaxed-ok: as above.
        for (cell, w) in slot.name.iter().zip(name_words) {
            cell.store(w, Ordering::Relaxed); // relaxed-ok: as above.
        }
        // release-ok: publishes the payload stores above to the q1
        // acquire load of any reader that sees this sequence value.
        slot.seq.store(seq_complete(index), Ordering::Release);
    }

    /// Seqlock-validated read of global event `index`; `None` if the
    /// slot was overwritten, is mid-write, or was never written.
    fn read_slot(&self, index: u64) -> Option<TraceEvent> {
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        // acquire-ok: synchronizes with the writer's `seq_complete`
        // release store, ordering the payload loads below after the
        // writer's payload stores.
        let q1 = slot.seq.load(Ordering::Acquire);
        if q1 != seq_complete(index) {
            return None;
        }
        // relaxed-ok (all payload loads): guarded by the seqlock
        // pair — q1's acquire load orders them after the writer's
        // release publication, and the acquire fence below orders
        // them before the q2 recheck.
        let word = slot.word.load(Ordering::Relaxed);
        let start_ns = slot.start_ns.load(Ordering::Relaxed); // relaxed-ok: as above.
        let dur_ns = slot.dur_ns.load(Ordering::Relaxed); // relaxed-ok: as above.
        let arg = slot.arg.load(Ordering::Relaxed); // relaxed-ok: as above.
        let mut name_words = [0u64; NAME_BYTES / 8];
        for (w, cell) in name_words.iter_mut().zip(slot.name.iter()) {
            *w = cell.load(Ordering::Relaxed); // relaxed-ok: as above.
        }
        // acquire-ok: pairs with the writer's release fence after its
        // slot claim — if any payload load above saw a later
        // episode's store, the q2 recheck below sees that episode's
        // odd sequence word and discards the read.
        fence(Ordering::Acquire);
        // relaxed-ok: the acquire fence above orders the payload
        // loads before this recheck; a changed sequence means a
        // concurrent overwrite and the read is discarded.
        if slot.seq.load(Ordering::Relaxed) != q1 {
            return None;
        }
        Some(TraceEvent {
            tid: (word >> 32) as u32,
            kind: EventKind::from_u8(word as u8),
            name: unpack_name(&name_words),
            start_ns,
            dur_ns,
            arg,
        })
    }

    /// A consistent copy of the currently retained events, oldest
    /// first. Events being overwritten while the snapshot runs are
    /// skipped, never returned torn.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        // relaxed-ok: a slightly stale head only narrows the window;
        // per-slot validity is established by the seqlock reads.
        let head = self.head.load(Ordering::Relaxed);
        let lo = head.saturating_sub(self.slots.len() as u64);
        (lo..head).filter_map(|i| self.read_slot(i)).collect()
    }

    /// Zeroes the ring (test/bench affordance; never call while
    /// writers are active — concurrent records may be lost or
    /// retained arbitrarily, though never torn).
    pub fn clear(&self) {
        // relaxed-ok: reset is a quiescent-state affordance.
        self.head.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        }
    }

    /// Exports the retained events as a Chrome trace-event JSON
    /// document (the `chrome://tracing` / Perfetto "JSON Array
    /// Format" with a `traceEvents` wrapper). Zero-duration events
    /// become thread-scoped instants; everything else is a complete
    /// (`"X"`) event. Timestamps are microseconds, as the format
    /// requires.
    ///
    /// The document header carries the ring's exact loss accounting
    /// (`recorded`, `dropped`, `shed`, `capacity`) so consumers can
    /// detect a truncated timeline instead of mistaking wraparound
    /// for a quiet service.
    pub fn to_chrome_trace(&self) -> JsonValue {
        // Read the counters *before* the snapshot: a concurrent
        // writer between the two can only make the snapshot newer
        // than the header, never claim events the header missed.
        let (recorded, dropped, shed) = (self.recorded(), self.dropped(), self.shed());
        chrome_trace(&self.snapshot())
            .with("recorded", recorded)
            .with("dropped", dropped)
            .with("shed", shed)
            .with("capacity", self.capacity() as u64)
    }
}

/// Builds the Chrome trace-event document for `events` (see
/// [`TraceBuffer::to_chrome_trace`]). Thread-name metadata is emitted
/// for every lane present, so Perfetto labels tracks `worker-N`.
///
/// Request-lifecycle events ([`EventKind::Stage`]) render under a
/// second process (`pid 2`, "requests") with one track per RequestId
/// (`tid` = the event's `arg`), so a capture shows every request's
/// admitted → … → responded timeline as its own swim lane next to the
/// worker lanes that executed it.
pub fn chrome_trace(events: &[TraceEvent]) -> JsonValue {
    let mut out = Vec::with_capacity(events.len() + 4);
    out.push(
        JsonValue::obj()
            .with("name", "process_name")
            .with("ph", "M")
            .with("pid", 1u64)
            .with("tid", 0u64)
            .with("args", JsonValue::obj().with("name", "spmv")),
    );
    let mut tids: Vec<u32> =
        events.iter().filter(|e| e.kind != EventKind::Stage).map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        out.push(
            JsonValue::obj()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("tid", u64::from(tid))
                .with("args", JsonValue::obj().with("name", format!("worker-{tid}"))),
        );
    }
    let mut rids: Vec<u64> =
        events.iter().filter(|e| e.kind == EventKind::Stage).map(|e| e.arg).collect();
    rids.sort_unstable();
    rids.dedup();
    if !rids.is_empty() {
        out.push(
            JsonValue::obj()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", 2u64)
                .with("tid", 0u64)
                .with("args", JsonValue::obj().with("name", "requests")),
        );
        for rid in rids {
            out.push(
                JsonValue::obj()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 2u64)
                    .with("tid", rid)
                    .with("args", JsonValue::obj().with("name", format!("request-{rid}"))),
            );
        }
    }
    for e in events {
        let name: &str = if e.name.is_empty() { e.kind.as_str() } else { &e.name };
        let stage = e.kind == EventKind::Stage;
        let mut ev = JsonValue::obj()
            .with("name", name)
            .with("cat", e.kind.as_str())
            .with("pid", if stage { 2u64 } else { 1u64 })
            .with("tid", if stage { e.arg } else { u64::from(e.tid) })
            .with("ts", e.start_ns as f64 / 1e3);
        if e.dur_ns == 0 {
            ev.set("ph", "i");
            ev.set("s", "t");
        } else {
            ev.set("ph", "X");
            ev.set("dur", e.dur_ns as f64 / 1e3);
        }
        ev.set("args", JsonValue::obj().with("arg", e.arg));
        out.push(ev);
    }
    JsonValue::obj().with("traceEvents", JsonValue::Arr(out)).with("displayTimeUnit", "ns")
}

/// The process-wide tracer (capacity [`DEFAULT_CAPACITY`], disabled
/// until someone calls `set_enabled(true)`). Lazily created with a
/// lock-free compare-exchange so the accessor is legal on the hot
/// path.
pub fn tracer() -> &'static TraceBuffer {
    static TRACER: AtomicPtr<TraceBuffer> = AtomicPtr::new(std::ptr::null_mut());
    // acquire-ok: synchronizes with the publishing CAS below so the
    // buffer's construction happens-before any use through `p`.
    let p = TRACER.load(Ordering::Acquire);
    if !p.is_null() {
        // SAFETY: a non-null pointer was published exactly once below
        // from `Box::into_raw` and is intentionally leaked, so it is
        // valid for the process lifetime.
        return unsafe { &*p };
    }
    let fresh = Box::into_raw(Box::new(TraceBuffer::new(DEFAULT_CAPACITY)));
    // acqrel-ok: release publishes the freshly built buffer to other
    // threads' acquire loads; the acquire half (and the acquire-ok
    // failure ordering) makes the winner's construction visible when
    // this thread loses and returns the winning pointer.
    match TRACER.compare_exchange(std::ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
    {
        // SAFETY: we won the publication race; `fresh` is leaked and
        // therefore valid for the process lifetime.
        Ok(_) => unsafe { &*fresh },
        Err(winner) => {
            // SAFETY: `fresh` came from `Box::into_raw` above and
            // lost the race unpublished — this thread still uniquely
            // owns it.
            drop(unsafe { Box::from_raw(fresh) });
            // SAFETY: `winner` was published from `Box::into_raw` by
            // the winning thread and is leaked (process lifetime).
            unsafe { &*winner }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> (EventKind, u32, String, u64, u64, u64) {
        (EventKind::Task, (i % 7) as u32, format!("ev-{i}"), 10 * i + 1, i + 1, i)
    }

    fn record_n(buf: &TraceBuffer, n: u64) {
        for i in 0..n {
            let (kind, tid, name, start, dur, arg) = ev(i);
            buf.record(kind, tid, &name, start, dur, arg);
        }
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let buf = TraceBuffer::new(8);
        record_n(&buf, 5);
        assert_eq!(buf.recorded(), 0);
        assert!(buf.snapshot().is_empty());
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let buf = TraceBuffer::new(16);
        buf.set_enabled(true);
        record_n(&buf, 5);
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(buf.dropped(), 0);
        for (i, e) in snap.iter().enumerate() {
            let (kind, tid, name, start, dur, arg) = ev(i as u64);
            assert_eq!((e.kind, e.tid, e.start_ns, e.dur_ns, e.arg), (kind, tid, start, dur, arg));
            assert_eq!(e.name, name);
        }
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        record_n(&buf, 11);
        assert_eq!(buf.recorded(), 11);
        assert_eq!(buf.dropped(), 7);
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 4);
        let args: Vec<u64> = snap.iter().map(|e| e.arg).collect();
        assert_eq!(args, [7, 8, 9, 10], "oldest events dropped first");
    }

    #[test]
    fn clear_resets() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        record_n(&buf, 9);
        buf.clear();
        assert_eq!(buf.recorded(), 0);
        assert_eq!(buf.dropped(), 0);
        assert!(buf.snapshot().is_empty());
        record_n(&buf, 2);
        assert_eq!(buf.snapshot().len(), 2);
    }

    #[test]
    fn long_names_truncate_at_char_boundary() {
        let buf = TraceBuffer::new(2);
        buf.set_enabled(true);
        // 22 ASCII bytes then a 3-byte char: must truncate before it.
        let name = format!("{}✓end", "x".repeat(22));
        buf.record(EventKind::Span, 0, &name, 1, 1, 0);
        let snap = buf.snapshot();
        assert_eq!(snap[0].name, "x".repeat(22));
        // Exactly NAME_BYTES survives whole.
        buf.record(EventKind::Span, 0, &"y".repeat(NAME_BYTES), 1, 1, 0);
        assert_eq!(buf.snapshot().last().unwrap().name, "y".repeat(NAME_BYTES));
    }

    #[test]
    fn now_ns_is_monotonic_and_nonzero() {
        let buf = TraceBuffer::new(1);
        let a = buf.now_ns();
        let b = buf.now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn chrome_trace_shape() {
        let buf = TraceBuffer::new(8);
        buf.set_enabled(true);
        buf.record(EventKind::Task, 3, "task", 2_000, 1_500, 9);
        buf.record(EventKind::Park, 3, "park", 4_000, 0, 9);
        let doc = buf.to_chrome_trace().render();
        assert!(doc.contains("\"traceEvents\":["), "{doc}");
        assert!(doc.contains("\"name\":\"thread_name\""), "{doc}");
        assert!(doc.contains("\"name\":\"worker-3\""), "{doc}");
        // Complete event: microsecond timestamps.
        assert!(doc.contains("\"ph\":\"X\""), "{doc}");
        assert!(doc.contains("\"ts\":2,\"ph\":\"X\",\"dur\":1.5"), "{doc}");
        // Instant event for dur 0.
        assert!(doc.contains("\"ph\":\"i\",\"s\":\"t\""), "{doc}");
    }

    #[test]
    fn chrome_trace_escapes_pathological_names() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        buf.record(EventKind::Span, 0, "we\"ird\\n{m}", 1, 2, 0);
        let doc = buf.to_chrome_trace().render();
        assert!(doc.contains(r#""name":"we\"ird\\n{m}""#), "{doc}");
        // The document still parses as JSON.
        assert!(JsonValue::parse(&doc).is_ok());
    }

    #[test]
    fn global_tracer_is_shared_and_starts_disabled_by_default() {
        let a = tracer() as *const _ as usize;
        let b = tracer() as *const _ as usize;
        assert_eq!(a, b);
        assert_eq!(tracer().capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn chrome_trace_header_reports_exact_loss_counters() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        record_n(&buf, 9); // 5 dropped by wraparound
        let doc = buf.to_chrome_trace();
        assert_eq!(doc.get("recorded").and_then(JsonValue::as_f64), Some(9.0));
        assert_eq!(doc.get("dropped").and_then(JsonValue::as_f64), Some(5.0));
        assert_eq!(doc.get("shed").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(doc.get("capacity").and_then(JsonValue::as_f64), Some(4.0));
        // Still a parseable trace document.
        assert!(JsonValue::parse(&doc.render()).is_ok());
    }

    #[test]
    fn stage_events_get_their_own_request_tracks() {
        let buf = TraceBuffer::new(8);
        buf.set_enabled(true);
        buf.record(EventKind::Task, 1, "kernel", 1_000, 500, 3);
        buf.record(EventKind::Stage, 0, "queued", 2_000, 700, 41);
        buf.record(EventKind::Stage, 0, "responded", 3_000, 0, 41);
        buf.record(EventKind::Stage, 0, "queued", 2_500, 100, 42);
        let doc = buf.to_chrome_trace().render();
        // Second process groups the per-request tracks.
        assert!(doc.contains("\"name\":\"requests\""), "{doc}");
        assert!(doc.contains("\"name\":\"request-41\""), "{doc}");
        assert!(doc.contains("\"name\":\"request-42\""), "{doc}");
        // Stage events live on pid 2 with tid = RequestId.
        assert!(doc.contains("\"cat\":\"stage\",\"pid\":2,\"tid\":41"), "{doc}");
        // Worker events stay on pid 1 untouched.
        assert!(doc.contains("\"cat\":\"task\",\"pid\":1,\"tid\":1"), "{doc}");
    }

    #[test]
    fn stage_kind_roundtrips_through_a_slot() {
        let buf = TraceBuffer::new(2);
        buf.set_enabled(true);
        buf.record(EventKind::Stage, 0, "admitted", 5, 0, 7);
        let snap = buf.snapshot();
        assert_eq!(snap[0].kind, EventKind::Stage);
        assert_eq!(snap[0].kind.as_str(), "stage");
        assert_eq!(snap[0].arg, 7);
    }

    #[test]
    fn empty_name_falls_back_to_kind_in_chrome_trace() {
        let buf = TraceBuffer::new(2);
        buf.set_enabled(true);
        buf.record(EventKind::Wake, 1, "", 5, 5, 0);
        let doc = buf.to_chrome_trace().render();
        assert!(doc.contains("\"name\":\"wake\""), "{doc}");
    }
}
