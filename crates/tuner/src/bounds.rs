//! Host bound collection (paper §III-B).
//!
//! The profile-guided classifier consumes a [`Bounds`] record.
//! [`HostSource`] produces it by actually running the §III-B
//! micro-benchmark kernels on the machine executing this code: the
//! baseline CSR kernel, the regularised-`x` kernel (`colind[j] = i`)
//! for `P_ML`, and the no-indirection kernel for `P_CMP`, with
//! `P_IMB` derived from the baseline's per-thread times and `P_MB` /
//! `P_peak` computed analytically from the machine's bandwidth. The
//! paper's platforms, which this host is not, take their bounds from
//! the `spmv-sim` cost model instead (`spmv_sim::bounds::collect_bounds`).

use std::sync::Arc;

use spmv_kernels::baseline::CsrKernel;
use spmv_kernels::schedule::{execute, Schedule, YPtr};
use spmv_kernels::variant::SpmvKernel;
use spmv_machine::MachineModel;
use spmv_sim::bounds::Bounds;
use spmv_sim::cost::SimResult;
use spmv_sparse::features::working_set_bytes;
use spmv_sparse::{Csr, Validated};
use spmv_telemetry::SpanSet;

/// Bounds measured by real micro-benchmark runs on the host.
#[derive(Debug, Clone)]
pub struct HostSource {
    machine: MachineModel,
    nthreads: usize,
    reps: usize,
}

impl HostSource {
    /// Creates a host prober running each micro-benchmark `reps`
    /// times on `nthreads` threads; `machine` supplies `B_max` for
    /// the analytic bounds (calibrate it with
    /// `spmv_machine::stream::measure_triad` for accuracy).
    pub fn new(machine: MachineModel, nthreads: usize, reps: usize) -> HostSource {
        HostSource { machine, nthreads, reps: reps.max(1) }
    }

    /// Runs `kernel` `reps` times on the persistent pool; returns
    /// (best seconds, per-thread seconds of the best run).
    fn time_kernel(&self, kernel: &dyn SpmvKernel, x: &[f64], y: &mut [f64]) -> (f64, Vec<f64>) {
        let (best, times) = kernel.run_repeated(x, y, self.reps);
        (best, times.seconds)
    }

    /// Collects the §III-B bounds for `a`. Each timed micro-benchmark
    /// is a span (`bound:P_CSR`, `bound:P_ML`, `bound:P_CMP`) on the
    /// trace plane, and their summed wall-clock cost is fed, as one
    /// event, into the process-wide
    /// [`spmv_telemetry::metrics::profiling_runs`] counter: the raw
    /// material of the paper's profiling-overhead accounting.
    pub fn collect(&self, a: &Validated<Arc<Csr>>) -> Bounds {
        let mut spans = SpanSet::new();
        let flops = 2.0 * a.nnz() as f64;
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];

        // Baseline CSR.
        let base_kernel = CsrKernel::baseline(a, self.nthreads);
        // Warm-up (paper: warm cache measurements).
        base_kernel.run(&x, &mut y);
        let (t_csr, thread_secs) =
            spans.time("bound:P_CSR", || self.time_kernel(&base_kernel, &x, &mut y));
        let p_csr = flops / t_csr / 1e9;

        // P_IMB: median thread time of the baseline, via the shared
        // helper so host-measured and simulated medians cannot drift.
        let t_median =
            if thread_secs.is_empty() { t_csr } else { spmv_telemetry::median(&thread_secs) };
        let p_imb = flops / t_median.max(1e-12) / 1e9;

        // P_ML: regularised x accesses (colind[j] = i).
        let ml_matrix = Validated::new(Arc::new(regularized_x_matrix(a)))
            .expect("a regularized verified matrix verifies");
        let ml_kernel = CsrKernel::baseline(&ml_matrix, self.nthreads);
        ml_kernel.run(&x, &mut y);
        let (t_ml, _) = spans.time("bound:P_ML", || self.time_kernel(&ml_kernel, &x, &mut y));
        let p_ml = flops / t_ml / 1e9;

        // P_CMP: no indirect references at all.
        let (t_cmp, _) = spans
            .time("bound:P_CMP", || time_no_index_kernel(a, &x, &mut y, self.nthreads, self.reps));
        let p_cmp = flops / t_cmp / 1e9;

        spmv_telemetry::metrics::profiling_runs().add(spans.total_seconds("bound:"));

        // Analytic bounds.
        let ws = working_set_bytes(a);
        let bw = self.machine.bandwidth_for_working_set(ws) * 1e9;
        let xy = ((a.ncols() + a.nrows()) * 8) as f64;
        let p_mb = flops / ((a.footprint_bytes() as f64 + xy) / bw) / 1e9;
        let p_peak = flops / ((a.values_bytes() as f64 + xy) / bw) / 1e9;

        let baseline = SimResult {
            seconds: t_csr,
            gflops: p_csr,
            thread_seconds: thread_secs,
            traffic_bytes: a.footprint_bytes() as f64 + xy,
        };
        Bounds { p_csr, p_mb, p_ml, p_imb, p_cmp, p_peak, baseline }
    }
}

/// Builds the `P_ML` micro-benchmark input: same structure, but every
/// column index of row `i` replaced by `i` (regular accesses).
pub fn regularized_x_matrix(a: &Csr) -> Csr {
    let mut colind = Vec::with_capacity(a.nnz());
    let ncols = a.ncols();
    for i in 0..a.nrows() {
        let c = (i.min(ncols.saturating_sub(1))) as u32;
        colind.extend(std::iter::repeat_n(c, a.row_nnz(i)));
    }
    Csr::from_raw_unchecked(a.nrows(), ncols, a.rowptr().to_vec(), colind, a.values().to_vec())
}

/// Times the `P_CMP` kernel: `y[i] = sum_j vals[j] * x[i]` — unit
/// stride, no `colind` loads.
fn time_no_index_kernel(
    a: &Csr,
    x: &[f64],
    y: &mut [f64],
    nthreads: usize,
    reps: usize,
) -> (f64, Vec<f64>) {
    struct NoIndexKernel<'a> {
        a: &'a Csr,
        nthreads: usize,
    }
    impl SpmvKernel for NoIndexKernel<'_> {
        fn run_timed(&self, x: &[f64], y: &mut [f64]) -> spmv_kernels::schedule::ThreadTimes {
            assert_eq!(y.len(), self.a.nrows());
            // The kernels crate's shared YPtr carries the disjoint-write
            // contract; this module used to duplicate it locally.
            let yp = YPtr(y.as_mut_ptr());
            let rowptr = self.a.rowptr();
            let values = self.a.values();
            execute(Schedule::NnzBalanced, rowptr, self.nthreads, |range| {
                for i in range {
                    let xi = x[i.min(x.len() - 1)];
                    let mut sum = 0.0;
                    for v in &values[rowptr[i]..rowptr[i + 1]] {
                        sum += v * xi;
                    }
                    // SAFETY: disjoint ranges from `execute`.
                    unsafe { yp.write(i, sum) };
                }
            })
        }
        fn name(&self) -> String {
            "no-index".into()
        }
        fn nrows(&self) -> usize {
            self.a.nrows()
        }
        fn ncols(&self) -> usize {
            self.a.ncols()
        }
        fn format_bytes(&self) -> usize {
            self.a.values_bytes()
        }
    }
    let k = NoIndexKernel { a, nthreads };
    k.run(x, y); // warm-up
    let (best, times) = k.run_repeated(x, y, reps);
    (best, times.seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn regularized_matrix_has_row_index_columns() {
        // Square, and more rows than columns (row indices past the
        // last column clamp to it): `HostSource` verifies the result.
        let tall =
            Csr::from_raw(4, 2, vec![0, 1, 2, 3, 5], vec![0, 1, 0, 0, 1], vec![1.0; 5]).unwrap();
        for a in [gen::powerlaw(200, 5, 2.0, 1).unwrap(), tall] {
            let m = regularized_x_matrix(&a);
            assert_eq!(m.nnz(), a.nnz());
            for (i, cols, _) in m.rows() {
                for &c in cols {
                    assert_eq!(c as usize, i.min(m.ncols() - 1));
                }
            }
            assert!(Validated::new(&m).is_ok());
        }
    }

    #[test]
    fn host_source_produces_positive_bounds() {
        let a = Validated::new(Arc::new(gen::banded(3_000, 6, 1.0, 3).unwrap())).unwrap();
        let src = HostSource::new(MachineModel::host(), 2, 2);
        let b = src.collect(&a);
        for v in [b.p_csr, b.p_mb, b.p_ml, b.p_imb, b.p_cmp, b.p_peak] {
            assert!(v > 0.0 && v.is_finite());
        }
        assert!(b.p_peak >= b.p_mb);
    }

    #[test]
    fn host_source_feeds_the_profiling_counter() {
        let a = Validated::new(Arc::new(gen::banded(2_000, 5, 1.0, 9).unwrap())).unwrap();
        let src = HostSource::new(MachineModel::host(), 2, 1);
        let counter = spmv_telemetry::metrics::profiling_runs();
        let (before, before_seconds) = (counter.count(), counter.seconds());
        let b = src.collect(&a);
        assert!(b.p_csr > 0.0);
        // The process-wide profiling counter advanced, in events and
        // in seconds (> rather than an exact step because other tests
        // share the global).
        assert!(counter.count() > before);
        assert!(counter.seconds() > before_seconds);
    }

    #[test]
    fn no_index_kernel_computes_unit_stride_product() {
        // Verified indirectly through bound positivity; check the
        // arithmetic with a tiny matrix where x is constant.
        let a = gen::banded(100, 3, 1.0, 7).unwrap();
        let x = vec![1.0; 100];
        let mut y = vec![0.0; 100];
        let (t, threads) = time_no_index_kernel(&a, &x, &mut y, 2, 1);
        assert!(t > 0.0);
        assert_eq!(threads.len(), 2);
        // y[i] = sum of row values * x[i] = row sum
        let (_, vals) = a.row(10);
        let expect: f64 = vals.iter().sum();
        assert!((y[10] - expect).abs() < 1e-12);
    }
}
