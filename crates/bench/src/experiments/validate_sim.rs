//! Simulator validation: does the `spmv-sim` cost model rank kernel
//! variants the way real execution on *this* machine does?
//!
//! The paper's platforms are unavailable, so the multi-platform
//! experiments rest on the cost model. This experiment grounds it:
//! it calibrates a host machine model with a real STREAM triad,
//! simulates a set of (matrix, variant) pairs, times the *actual*
//! kernels, and reports per-pair ratios plus a rank correlation
//! between simulated and measured variant speedups. The model does
//! not need to predict absolute milliseconds — the optimizer only
//! consumes *orderings* — so rank agreement is the relevant score.

use std::sync::Arc;

use spmv_kernels::variant::{KernelVariant, Optimization};
use spmv_machine::stream::calibrated_host_model;
use spmv_sim::cost::{CostModel, SimSpec};
use spmv_sim::profile::MatrixProfile;
use spmv_sparse::{gen, Csr, Validated};
use spmv_tuner::menu::measure;

use crate::table::{f, Table};

/// One validation case.
struct Case {
    name: &'static str,
    matrix: Validated<Arc<Csr>>,
}

fn cases(scale: f64) -> Vec<Case> {
    let s = |v: usize| ((v as f64 * scale) as usize).max(64);
    [
        ("banded", gen::banded(s(60_000), 24, 0.9, 1)),
        ("stencil", gen::stencil_2d(s(300), 300.max((300.0 * scale) as usize))),
        ("powerlaw", gen::powerlaw(s(60_000), 8, 1.9, 2)),
        ("circuit", gen::circuit(s(80_000), 4, 0.3, 6, 3)),
    ]
    .map(|(name, m)| Case {
        name,
        matrix: m.and_then(|a| Validated::new(Arc::new(a))).expect("valid"),
    })
    .into()
}

/// Times `reps` runs of a built kernel, returning the best seconds.
fn time_real(a: &Validated<Arc<Csr>>, variant: KernelVariant, nthreads: usize, reps: usize) -> f64 {
    let (_, gflops, _) = measure(a, variant.into(), nthreads, reps);
    2.0 * a.nnz() as f64 / (gflops * 1e9)
}

/// Spearman rank correlation of two equal-length samples. Ties are
/// broken by input order (no average ranks) — adequate for the
/// continuous timing data scored here.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).expect("finite"));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let ra = rank(a);
    let rb = rank(b);
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = ra[i] - mean;
        let xb = rb[i] - mean;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

/// Runs the validation at a case scale; `reps` real timings per pair.
pub fn run(scale: f64, reps: usize) -> String {
    let machine = calibrated_host_model();
    let nthreads = machine.total_threads();
    let model = CostModel::new(machine.clone());
    let variants = [
        KernelVariant::BASELINE,
        KernelVariant::single(Optimization::Vectorize),
        KernelVariant::single(Optimization::Compress),
        KernelVariant::single(Optimization::Decompose),
        KernelVariant::single(Optimization::AutoSchedule),
    ];

    let mut table = Table::new(
        &format!(
            "Simulator validation on host '{}' ({} threads, STREAM {:.1} GB/s)",
            machine.name, nthreads, machine.bw_main_gbps
        ),
        &["matrix", "variant", "real ms", "sim ms", "sim/real", "real speedup", "sim speedup"],
    );
    let mut real_speedups = Vec::new();
    let mut sim_speedups = Vec::new();
    for case in cases(scale) {
        let profile = MatrixProfile::analyze(&case.matrix, &machine);
        let real_base = time_real(&case.matrix, KernelVariant::BASELINE, nthreads, reps);
        let sim_base = model.simulate(&profile, SimSpec::baseline()).seconds;
        for &v in &variants {
            let real = time_real(&case.matrix, v, nthreads, reps);
            let sim = model.simulate(&profile, SimSpec::variant(v)).seconds;
            let rs = real_base / real;
            let ss = sim_base / sim;
            if !v.is_baseline() {
                real_speedups.push(rs);
                sim_speedups.push(ss);
            }
            table.row(vec![
                case.name.to_string(),
                v.to_string(),
                f(real * 1e3),
                f(sim * 1e3),
                f(sim / real),
                f(rs),
                f(ss),
            ]);
        }
    }
    let rho = spearman(&real_speedups, &sim_speedups);
    let mut out = table.render();
    out.push_str(&format!(
        "\nSpearman rank correlation of variant speedups (sim vs real): {rho:.2}\n\
         note: absolute times differ by design (the model is calibrated for\n\
         relative comparisons); on very small hosts (1-2 cores) parallel\n\
         optimizations cannot show real gains and correlation degrades.\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_known_values() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0], &[5.0]), 1.0);
        // Ties break by input order: ranks align, correlation 1.
        assert_eq!(spearman(&[1.0, 1.0], &[1.0, 2.0]), 1.0);
        // Anti-correlated with a middle point.
        let rho = spearman(&[1.0, 2.0, 3.0, 4.0], &[4.0, 3.0, 2.0, 1.0]);
        assert!((rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_report_renders() {
        let report = run(0.02, 1);
        assert!(report.contains("Spearman rank correlation"));
        assert!(report.contains("banded"));
        assert!(report.contains("circuit"));
        // 4 matrices x 5 variants rows
        assert!(report.lines().filter(|l| l.contains("x") || l.contains(".")).count() >= 20);
    }
}
