//! Amortization analysis (paper §IV-D, Table 4).
//!
//! In an iterative solver the optimizer's one-off preprocessing cost
//! `t_pre` pays off after
//!
//! ```text
//! N_iters,min = t_pre / (t_MKL − t_optimizer)
//! ```
//!
//! iterations (derivation in the paper; `t_MKL` and `t_optimizer`
//! are per-SpMV times of the reference and the tuned kernel). When
//! the tuned kernel is not faster the optimization never amortizes.

/// Amortization verdict for one matrix × optimizer pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Amortization {
    /// Pays off after this many solver iterations (rounded up).
    After(u64),
    /// The optimized kernel is no faster; the overhead never
    /// amortizes.
    Never,
}

impl Amortization {
    /// The iteration count, or `None` for [`Amortization::Never`].
    pub fn iterations(self) -> Option<u64> {
        match self {
            Amortization::After(n) => Some(n),
            Amortization::Never => None,
        }
    }
}

/// Computes `N_iters,min` from the three time components (seconds).
///
/// # Panics
/// Panics on negative inputs.
pub fn min_iterations(t_pre: f64, t_reference: f64, t_optimized: f64) -> Amortization {
    assert!(t_pre >= 0.0 && t_reference >= 0.0 && t_optimized >= 0.0, "negative times");
    let gain = t_reference - t_optimized;
    if gain <= 0.0 {
        return Amortization::Never;
    }
    Amortization::After((t_pre / gain).ceil().max(1.0) as u64)
}

/// Summary statistics over a suite: best / average / worst
/// amortization counts, ignoring `Never` entries but reporting how
/// many there were (the paper reports best/avg/worst columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmortizationSummary {
    /// Minimum iterations over the suite.
    pub best: u64,
    /// Mean iterations over amortizing matrices.
    pub avg: f64,
    /// Maximum iterations over the suite.
    pub worst: u64,
    /// Matrices whose overhead never amortizes.
    pub never_count: usize,
}

/// Aggregates per-matrix amortization results.
///
/// Returns `None` when no matrix amortizes at all.
pub fn summarize(results: &[Amortization]) -> Option<AmortizationSummary> {
    let iters: Vec<u64> = results.iter().filter_map(|r| r.iterations()).collect();
    if iters.is_empty() {
        return None;
    }
    Some(AmortizationSummary {
        best: *iters.iter().min().expect("non-empty"),
        avg: iters.iter().sum::<u64>() as f64 / iters.len() as f64,
        worst: *iters.iter().max().expect("non-empty"),
        never_count: results.len() - iters.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_formula() {
        // 10 ms prep, 1 ms vs 0.5 ms per SpMV -> 20 iterations.
        assert_eq!(min_iterations(0.010, 0.001, 0.0005), Amortization::After(20));
    }

    #[test]
    fn rounding_up_and_floor_of_one() {
        assert_eq!(min_iterations(0.0011, 0.002, 0.001), Amortization::After(2));
        assert_eq!(min_iterations(0.0, 0.002, 0.001), Amortization::After(1));
    }

    #[test]
    fn never_when_no_gain() {
        assert_eq!(min_iterations(0.01, 0.001, 0.001), Amortization::Never);
        assert_eq!(min_iterations(0.01, 0.001, 0.002), Amortization::Never);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_times_rejected() {
        min_iterations(-1.0, 1.0, 0.5);
    }

    #[test]
    fn summary_statistics() {
        let rows = vec![
            Amortization::After(10),
            Amortization::After(100),
            Amortization::Never,
            Amortization::After(40),
        ];
        let s = summarize(&rows).unwrap();
        assert_eq!(s.best, 10);
        assert_eq!(s.worst, 100);
        assert_eq!(s.never_count, 1);
        assert!((s.avg - 50.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_all_never_is_none() {
        assert!(summarize(&[Amortization::Never]).is_none());
        assert!(summarize(&[]).is_none());
    }
}
