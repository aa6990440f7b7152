//! Hot-path counters.
//!
//! These are the only telemetry primitives legal on the kernel
//! dispatch path, and they are deliberately austere: fixed-size
//! atomic cells, relaxed ordering, no locks, no allocation, no
//! threads. Everything richer (spans, JSON assembly) belongs to the
//! cold paths and lives in [`crate::span`] / [`crate::json`].
//!
//! Durations accumulate as integer nanoseconds in `u64` cells —
//! `fetch_add` composes correctly under concurrency, which a
//! compare-exchange loop over `f64` bits would only match at higher
//! cost. At nanosecond resolution a `u64` holds ~584 years of
//! accumulated busy time, so saturation is not a practical concern.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::JsonValue;

/// Converts seconds to the integer-nanosecond cell representation.
fn to_ns(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        0
    } else {
        (seconds * 1e9) as u64
    }
}

/// A monotonically increasing event counter paired with accumulated
/// duration (e.g. "N format conversions totalling T seconds").
#[derive(Debug, Default)]
pub struct TimeCounter {
    count: AtomicU64,
    ns: AtomicU64,
}

impl TimeCounter {
    /// Creates a zeroed counter (const, so it can back a `static`).
    pub const fn new() -> TimeCounter {
        TimeCounter { count: AtomicU64::new(0), ns: AtomicU64::new(0) }
    }

    /// Adds one event of `seconds` duration to the totals.
    pub fn add(&self, seconds: f64) {
        // relaxed-ok: independent monotonic totals; no other memory
        // access is ordered against these cells and readers only ever
        // see aggregate sums.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(to_ns(seconds), Ordering::Relaxed); // relaxed-ok: as above.
    }

    /// Events added so far.
    pub fn count(&self) -> u64 {
        // relaxed-ok: aggregate read, no ordering dependency.
        self.count.load(Ordering::Relaxed)
    }

    /// Total accumulated seconds.
    pub fn seconds(&self) -> f64 {
        // relaxed-ok: aggregate read, no ordering dependency.
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Zeroes the counter (tests and bench isolation).
    pub fn reset(&self) {
        // relaxed-ok: reset is a test/bench affordance, never raced
        // against hot-path writers in production flows.
        self.count.store(0, Ordering::Relaxed);
        self.ns.store(0, Ordering::Relaxed); // relaxed-ok: as above.
    }
}

/// Aggregate statistics of the engine's pooled dispatch path.
///
/// [`record`](DispatchStats::record) is called once per dispatch by
/// `ExecEngine::run` — a handful of relaxed `fetch_add`s against a
/// dispatch that costs microseconds, keeping the instrumented path
/// within the ≤2% overhead budget.
#[derive(Debug, Default)]
pub struct DispatchStats {
    dispatches: AtomicU64,
    /// Sum of team sizes over all dispatches.
    threads: AtomicU64,
    /// Wall-clock time of the dispatches (publish → all workers done).
    wall_ns: AtomicU64,
    /// Per-thread busy time summed over all workers and dispatches.
    busy_ns: AtomicU64,
    /// Per-dispatch maximum busy time, summed over dispatches.
    max_busy_ns: AtomicU64,
}

impl DispatchStats {
    /// Creates zeroed stats (const, so it can back a `static`).
    pub const fn new() -> DispatchStats {
        DispatchStats {
            dispatches: AtomicU64::new(0),
            threads: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            max_busy_ns: AtomicU64::new(0),
        }
    }

    /// Records one dispatch: its wall-clock seconds and the
    /// per-thread busy seconds the engine measured.
    pub fn record(&self, wall_seconds: f64, busy_seconds: &[f64]) {
        let busy: f64 = busy_seconds.iter().sum();
        let max = busy_seconds.iter().copied().fold(0.0, f64::max);
        // relaxed-ok: independent monotonic totals; snapshots read
        // aggregates only and tolerate tearing between cells.
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.threads.fetch_add(busy_seconds.len() as u64, Ordering::Relaxed); // relaxed-ok: as above.
        self.wall_ns.fetch_add(to_ns(wall_seconds), Ordering::Relaxed); // relaxed-ok: as above.
        self.busy_ns.fetch_add(to_ns(busy), Ordering::Relaxed); // relaxed-ok: as above.
        self.max_busy_ns.fetch_add(to_ns(max), Ordering::Relaxed); // relaxed-ok: as above.
    }

    /// A coherent-enough copy of the totals (individual cells are read
    /// relaxed; exactness across cells is not required for telemetry).
    pub fn snapshot(&self) -> DispatchSnapshot {
        // relaxed-ok: aggregate reads, no ordering dependency.
        DispatchSnapshot {
            dispatches: self.dispatches.load(Ordering::Relaxed), // relaxed-ok: as above.
            threads: self.threads.load(Ordering::Relaxed),       // relaxed-ok: as above.
            wall_seconds: self.wall_ns.load(Ordering::Relaxed) as f64 * 1e-9, // relaxed-ok: as above.
            busy_seconds: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9, // relaxed-ok: as above.
            max_busy_seconds: self.max_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9, // relaxed-ok: as above.
        }
    }

    /// Zeroes the stats (tests and bench isolation).
    pub fn reset(&self) {
        // relaxed-ok: reset is a test/bench affordance.
        self.dispatches.store(0, Ordering::Relaxed);
        self.threads.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        self.wall_ns.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        self.busy_ns.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        self.max_busy_ns.store(0, Ordering::Relaxed); // relaxed-ok: as above.
    }
}

/// Immutable dispatch totals with the derived per-dispatch figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchSnapshot {
    /// Dispatches recorded.
    pub dispatches: u64,
    /// Sum of team sizes over all dispatches.
    pub threads: u64,
    /// Total wall-clock seconds inside `ExecEngine::run`.
    pub wall_seconds: f64,
    /// Total per-thread busy seconds.
    pub busy_seconds: f64,
    /// Sum of each dispatch's maximum busy time.
    pub max_busy_seconds: f64,
}

impl DispatchSnapshot {
    /// Mean wake + synchronization latency per dispatch: the wall
    /// time not covered by the longest-running worker.
    pub fn wake_latency_seconds(&self) -> f64 {
        if self.dispatches == 0 {
            return 0.0;
        }
        (self.wall_seconds - self.max_busy_seconds).max(0.0) / self.dispatches as f64
    }

    /// Mean imbalance ratio: per-dispatch max busy time over the mean
    /// per-thread busy time (`1.0` = perfectly balanced).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.threads == 0 || self.busy_seconds <= 0.0 {
            return 1.0;
        }
        let mean_busy = self.busy_seconds / self.threads as f64;
        let mean_max = self.max_busy_seconds / self.dispatches.max(1) as f64;
        (mean_max / mean_busy).max(1.0)
    }

    /// Serializes the snapshot (totals plus derived figures).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with("dispatches", self.dispatches)
            .with("threads", self.threads)
            .with("wall_seconds", self.wall_seconds)
            .with("busy_seconds", self.busy_seconds)
            .with("max_busy_seconds", self.max_busy_seconds)
            .with("wake_latency_seconds", self.wake_latency_seconds())
            .with("imbalance_ratio", self.imbalance_ratio())
    }
}

/// The tuner's menu-selection gauge: which microkernel the menu
/// search last picked, plus search/cache-hit counts.
///
/// The selected id is packed into two atomic `u64` words (16 ASCII
/// bytes, NUL-padded; longer ids truncate) so recording stays within
/// the hot-path telemetry rules — no locks, no allocation. The two
/// words are written independently, so a reader racing a writer can
/// observe a torn id; that is acceptable for a diagnostic gauge with
/// a single writer in practice (the tuner's search path), and the
/// counters themselves never tear.
#[derive(Debug, Default)]
pub struct SelectionGauge {
    words: [AtomicU64; 2],
    searches: AtomicU64,
    cache_hits: AtomicU64,
}

impl SelectionGauge {
    /// Creates an empty gauge (const, so it can back a `static`).
    pub const fn new() -> SelectionGauge {
        SelectionGauge {
            words: [AtomicU64::new(0), AtomicU64::new(0)],
            searches: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    fn store_id(&self, id: &str) {
        let bytes = id.as_bytes();
        let mut packed = [0u64; 2];
        for (i, &b) in bytes.iter().take(16).enumerate() {
            packed[i / 8] |= (b as u64) << ((i % 8) * 8);
        }
        // relaxed-ok: diagnostic gauge; the two words are independent
        // and tearing between them is documented and tolerated.
        self.words[0].store(packed[0], Ordering::Relaxed);
        self.words[1].store(packed[1], Ordering::Relaxed); // relaxed-ok: as above.
    }

    /// Records a full menu search that selected `id`.
    pub fn record_search(&self, id: &str) {
        // relaxed-ok: independent monotonic total.
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.store_id(id);
    }

    /// Records a plan-cache hit whose cached plan selected `id`.
    pub fn record_cache_hit(&self, id: &str) {
        // relaxed-ok: independent monotonic total.
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.store_id(id);
    }

    /// The last selected microkernel id (empty before any search).
    pub fn selected(&self) -> String {
        // relaxed-ok: aggregate read, tearing documented above.
        let packed = [self.words[0].load(Ordering::Relaxed), self.words[1].load(Ordering::Relaxed)]; // relaxed-ok: as above.
        let mut out = String::new();
        for i in 0..16 {
            let b = ((packed[i / 8] >> ((i % 8) * 8)) & 0xff) as u8;
            if b == 0 {
                break;
            }
            out.push(b as char);
        }
        out
    }

    /// Menu searches recorded.
    pub fn searches(&self) -> u64 {
        // relaxed-ok: aggregate read, no ordering dependency.
        self.searches.load(Ordering::Relaxed)
    }

    /// Plan-cache hits recorded.
    pub fn cache_hits(&self) -> u64 {
        // relaxed-ok: aggregate read, no ordering dependency.
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge (tests and bench isolation).
    pub fn reset(&self) {
        // relaxed-ok: reset is a test/bench affordance.
        self.words[0].store(0, Ordering::Relaxed);
        self.words[1].store(0, Ordering::Relaxed); // relaxed-ok: as above.
        self.searches.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        self.cache_hits.store(0, Ordering::Relaxed); // relaxed-ok: as above.
    }
}

/// Process-wide menu-selection gauge (fed by the tuner's menu
/// search, exported by the metrics registry).
pub fn menu_selection() -> &'static SelectionGauge {
    static GAUGE: SelectionGauge = SelectionGauge::new();
    &GAUGE
}

/// Process-wide stats of the engine's pooled dispatch path.
pub fn engine_dispatch() -> &'static DispatchStats {
    static STATS: DispatchStats = DispatchStats::new();
    &STATS
}

/// Process-wide format-conversion/preprocessing totals.
pub fn preprocessing() -> &'static TimeCounter {
    static PREP: TimeCounter = TimeCounter::new();
    &PREP
}

/// Process-wide micro-benchmark profiling-run totals (the tuner's
/// bound-collection kernels).
pub fn profiling_runs() -> &'static TimeCounter {
    static RUNS: TimeCounter = TimeCounter::new();
    &RUNS
}

/// Process-wide reply-encoding totals: one event per delivered SpMV
/// result turned into its reply body (hex lines or the digest line).
pub fn serve_encode() -> &'static TimeCounter {
    static ENCODE: TimeCounter = TimeCounter::new();
    &ENCODE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_counter_accumulates() {
        let c = TimeCounter::new();
        c.add(0.5);
        c.add(1.5);
        assert_eq!(c.count(), 2);
        assert!((c.seconds() - 2.0).abs() < 1e-6);
        c.reset();
        assert_eq!(c.count(), 0);
        assert_eq!(c.seconds(), 0.0);
    }

    #[test]
    fn negative_and_zero_durations_clamp() {
        let c = TimeCounter::new();
        c.add(-1.0);
        c.add(0.0);
        assert_eq!(c.count(), 2);
        assert_eq!(c.seconds(), 0.0);
    }

    #[test]
    fn dispatch_stats_derive_wake_and_imbalance() {
        let s = DispatchStats::new();
        // Two dispatches of 4 threads; worker 0 is the straggler.
        s.record(1.0, &[0.9, 0.3, 0.3, 0.3]);
        s.record(1.0, &[0.9, 0.3, 0.3, 0.3]);
        let snap = s.snapshot();
        assert_eq!(snap.dispatches, 2);
        assert_eq!(snap.threads, 8);
        // Wake latency: (2.0 - 1.8) / 2 = 0.1 s per dispatch.
        assert!((snap.wake_latency_seconds() - 0.1).abs() < 1e-6);
        // Imbalance: 0.9 / 0.45 = 2.0.
        assert!((snap.imbalance_ratio() - 2.0).abs() < 1e-6);
        s.reset();
        assert_eq!(s.snapshot().dispatches, 0);
    }

    #[test]
    fn empty_snapshot_is_neutral() {
        let snap = DispatchStats::new().snapshot();
        assert_eq!(snap.wake_latency_seconds(), 0.0);
        assert_eq!(snap.imbalance_ratio(), 1.0);
    }

    #[test]
    fn snapshot_serializes() {
        let s = DispatchStats::new();
        s.record(2.0, &[1.0, 1.0]);
        let json = s.snapshot().to_json().render();
        for key in ["dispatches", "wake_latency_seconds", "imbalance_ratio"] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn globals_are_distinct() {
        let a = engine_dispatch() as *const _ as usize;
        let b = preprocessing() as *const _ as usize;
        let c = profiling_runs() as *const _ as usize;
        let d = serve_encode() as *const _ as usize;
        assert!(a != b && b != c && c != d);
    }

    #[test]
    fn selection_gauge_round_trips_ids() {
        let g = SelectionGauge::new();
        assert_eq!(g.selected(), "");
        g.record_search("csr/avx512-a4");
        assert_eq!(g.selected(), "csr/avx512-a4");
        assert_eq!(g.searches(), 1);
        assert_eq!(g.cache_hits(), 0);
        g.record_cache_hit("sell/c8");
        assert_eq!(g.selected(), "sell/c8");
        assert_eq!(g.cache_hits(), 1);
        // Longer than 16 bytes truncates rather than corrupting.
        g.record_search("a-very-long-kernel-identifier");
        assert_eq!(g.selected(), "a-very-long-kern");
        g.reset();
        assert_eq!(g.selected(), "");
        assert_eq!(g.searches(), 0);
    }
}
