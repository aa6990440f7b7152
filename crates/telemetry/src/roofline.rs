//! Live roofline attainment for one served matrix.
//!
//! The tuner classifies every registered matrix against a simulated
//! roofline bound (the best GFLOP/s its memory traffic permits, per
//! the paper's bottleneck taxonomy). A [`Roofline`] cell folds
//! *measured* per-dispatch kernel throughput into an EWMA and
//! compares it against that bound, live: the ratio is exported as
//! `spmv_roofline_attainment{matrix}` and a drift counter increments
//! whenever attainment stays below [`DRIFT_THRESHOLD`] for
//! [`DRIFT_WINDOWS`] consecutive [`WINDOW`]-sample windows — the
//! trigger signal a future online re-tuner will consume.
//!
//! The serving registry owns one cell per registered matrix, so a
//! matrix's roofline state is created with it and dies with it. The
//! observation path runs on scheduler workers between kernel
//! dispatches, so it follows the same hot-path rules as
//! [`crate::metrics`]: atomic cells, no locks, no allocation, no
//! panics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Samples per attainment-evaluation window.
pub const WINDOW: u64 = 32;

/// Attainment below this fraction of the roofline bound counts a
/// window as "low".
pub const DRIFT_THRESHOLD: f64 = 0.5;

/// Consecutive low windows before the drift counter fires.
pub const DRIFT_WINDOWS: u64 = 3;

/// EWMA smoothing factor (weight of the newest sample).
pub const ALPHA: f64 = 0.125;

/// One matrix's point-in-time attainment summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineSample {
    /// The tuner's simulated roofline bound, GFLOP/s.
    pub bound_gflops: f64,
    /// EWMA of measured kernel throughput, GFLOP/s (`0.0` until the
    /// first dispatch lands).
    pub achieved_gflops: f64,
    /// `achieved / bound` (`0.0` until the first dispatch lands).
    pub attainment: f64,
    /// Dispatches folded into the EWMA so far.
    pub samples: u64,
    /// Drift episodes: times attainment stayed below
    /// [`DRIFT_THRESHOLD`] for [`DRIFT_WINDOWS`] consecutive windows.
    pub drift_total: u64,
}

/// One matrix's attainment cell. The bound is fixed at construction;
/// the other fields are independent relaxed atomics.
#[derive(Debug)]
pub struct Roofline {
    bound: f64,
    /// EWMA of achieved GFLOP/s as `f64` bits; `0` means "no sample
    /// yet" (observations of non-positive throughput are discarded,
    /// so a real EWMA never encodes to the zero bit pattern).
    ewma_bits: AtomicU64,
    samples: AtomicU64,
    low_streak: AtomicU64,
    drift: AtomicU64,
}

impl Roofline {
    /// A cell measuring against the simulated roofline `bound`
    /// (GFLOP/s), or `None` when the bound is not a positive finite
    /// number (such a matrix goes unmonitored).
    pub fn new(bound: f64) -> Option<Roofline> {
        (bound.is_finite() && bound > 0.0).then(|| Roofline {
            bound,
            ewma_bits: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            low_streak: AtomicU64::new(0),
            drift: AtomicU64::new(0),
        })
    }

    /// Folds one dispatch's measured throughput (GFLOP/s) into the
    /// EWMA; every [`WINDOW`]-th sample evaluates attainment against
    /// the bound and advances the drift state machine. Runs on the
    /// scheduler worker between dispatches: lock-free,
    /// allocation-free, panic-free. Non-positive or non-finite
    /// throughput (e.g. a timer returning zero) is discarded.
    pub fn observe(&self, gflops: f64) {
        if !gflops.is_finite() || gflops <= 0.0 {
            return;
        }
        // EWMA update via CAS loop: lost races retry on the newest
        // value, so concurrent workers fold in without locking.
        // relaxed-ok: the EWMA cell is independent; observers only
        // ever take aggregate snapshots.
        let mut cur = self.ewma_bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == 0 {
                gflops
            } else {
                (1.0 - ALPHA) * f64::from_bits(cur) + ALPHA * gflops
            };
            match self.ewma_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                // relaxed-ok (both): pure read-modify-write of one
                // independent cell, no payload published through it.
                Ordering::Relaxed,
                Ordering::Relaxed, // relaxed-ok: as above.
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        // relaxed-ok: monotonic counter, aggregate reads.
        let n = self.samples.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(WINDOW) {
            return;
        }
        // Window boundary: evaluate attainment. Racing workers may
        // both evaluate adjacent windows — the streak is advisory
        // (a re-tune trigger), not an exact count, so relaxed
        // read-modify-writes suffice.
        if self.ewma() / self.bound < DRIFT_THRESHOLD {
            // relaxed-ok: advisory streak counter, see above.
            let streak = self.low_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= DRIFT_WINDOWS {
                self.drift.fetch_add(1, Ordering::Relaxed); // relaxed-ok: as above.
                self.low_streak.store(0, Ordering::Relaxed); // relaxed-ok: as above.
            }
        } else {
            self.low_streak.store(0, Ordering::Relaxed); // relaxed-ok: as above.
        }
    }

    /// The current attainment summary.
    pub fn sample(&self) -> RooflineSample {
        let achieved = self.ewma();
        RooflineSample {
            bound_gflops: self.bound,
            achieved_gflops: achieved,
            attainment: achieved / self.bound,
            // relaxed-ok (both loads): aggregate snapshot of
            // independently advancing cells; cross-cell tears are
            // tolerated exactly as in histogram snapshots.
            samples: self.samples.load(Ordering::Relaxed),
            drift_total: self.drift.load(Ordering::Relaxed), // relaxed-ok: as above.
        }
    }

    /// The EWMA in GFLOP/s, `0.0` before the first sample.
    fn ewma(&self) -> f64 {
        // relaxed-ok: independent cell, aggregate read.
        let bits = self.ewma_bits.load(Ordering::Relaxed);
        if bits == 0 {
            0.0
        } else {
            f64::from_bits(bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bound: f64) -> Roofline {
        Roofline::new(bound).expect("positive finite bound")
    }

    #[test]
    fn observe_builds_an_ewma() {
        let r = cell(10.0);
        r.observe(4.0);
        let s = r.sample();
        assert_eq!(s.bound_gflops, 10.0);
        assert_eq!(s.achieved_gflops, 4.0, "first sample seeds the EWMA");
        assert!((s.attainment - 0.4).abs() < 1e-12);
        assert_eq!(s.samples, 1);
        // Subsequent samples blend with weight ALPHA.
        r.observe(8.0);
        let want = (1.0 - ALPHA) * 4.0 + ALPHA * 8.0;
        assert!((r.sample().achieved_gflops - want).abs() < 1e-12);
    }

    #[test]
    fn drift_counter_fires_after_consecutive_low_windows() {
        let r = cell(100.0);
        // Attainment 0.01 — every window is low. The counter fires
        // once per DRIFT_WINDOWS low windows.
        for _ in 0..WINDOW * DRIFT_WINDOWS {
            r.observe(1.0);
        }
        assert_eq!(r.sample().drift_total, 1);
        for _ in 0..WINDOW * DRIFT_WINDOWS {
            r.observe(1.0);
        }
        assert_eq!(r.sample().drift_total, 2);
    }

    #[test]
    fn healthy_windows_reset_the_streak() {
        let r = cell(10.0);
        // Two low windows, then a healthy one, then two more low:
        // the streak never reaches DRIFT_WINDOWS.
        for _ in 0..WINDOW * 2 {
            r.observe(1.0);
        }
        for _ in 0..WINDOW * 8 {
            r.observe(50.0); // pulls the EWMA well above threshold
        }
        for _ in 0..WINDOW * 2 {
            r.observe(1.0); // EWMA decays but two windows isn't enough
        }
        assert_eq!(r.sample().drift_total, 0);
    }

    #[test]
    fn bad_inputs_are_discarded() {
        assert!(Roofline::new(0.0).is_none());
        assert!(Roofline::new(-1.0).is_none());
        assert!(Roofline::new(f64::NAN).is_none());
        assert!(Roofline::new(f64::INFINITY).is_none());
        let r = cell(10.0);
        r.observe(0.0);
        r.observe(-3.0);
        r.observe(f64::INFINITY);
        let s = r.sample();
        assert_eq!(s.samples, 0);
        assert_eq!((s.achieved_gflops, s.attainment), (0.0, 0.0));
    }
}
