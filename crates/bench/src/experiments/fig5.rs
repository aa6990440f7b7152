//! Fig. 6(a-c) in the paper's numbering ("Fig. 5" block in the text)
//! — the SpMV performance landscape on KNC, KNL and Broadwell: MKL
//! CSR, MKL Inspector-Executor, baseline CSR, the feature-guided and
//! profile-guided optimizers, and the oracle, with per-matrix class
//! annotations and per-platform average speedups.

use spmv_ref::simulate::{simulate_inspector, simulate_mkl_csr};
use spmv_tuner::profile::ProfileClassifier;
use spmv_tuner::OptimizationPool;

use crate::context::{analyze, load_suite, train_feature_classifier, Platform};
use crate::table::{f, speedup, Table};

/// Per-platform landscape rows plus summary.
fn platform_landscape(
    platform: &Platform,
    suite: &[crate::context::NamedMatrix],
    corpus_size: usize,
    corpus_factor: f64,
) -> String {
    let name = &platform.machine.name;
    let has_ie = name != "KNC"; // paper: "MKL Inspector-Executor is not available on KNC"
    let feat_clf = train_feature_classifier(platform, corpus_size, corpus_factor, 2024);
    let prof_clf = ProfileClassifier::default();

    let mut headers = vec!["matrix", "mkl"];
    if has_ie {
        headers.push("mkl-ie");
    }
    headers.extend(["baseline", "feat", "prof", "oracle", "classes"]);
    let mut table = Table::new(&format!("SpMV landscape on {name} (GFLOP/s)"), &headers);

    let mut sum = SpeedupAccumulator::default();
    let pool = OptimizationPool::default();
    for nm in suite {
        let an = analyze(platform, &nm.matrix);
        let profile = &an.profile;
        let mkl = simulate_mkl_csr(&platform.model, profile).gflops;
        let base = an.bounds.p_csr;

        let prof_classes = prof_clf.classify(&an.bounds);
        let prof_variant = pool.to_variant(prof_classes, &an.features);
        let prof = platform.gflops(profile, prof_variant);

        let feat_classes = feat_clf.predict(&an.features);
        let feat_variant = pool.to_variant(feat_classes, &an.features);
        let feat = platform.gflops(profile, feat_variant);

        let (_, oracle) = platform.oracle(profile);

        let mut row = vec![nm.name.to_string(), f(mkl)];
        if has_ie {
            let (ie, _) = simulate_inspector(&platform.model, &platform.prep, profile);
            row.push(f(ie.gflops));
            sum.ie += ie.gflops / mkl;
        }
        row.extend([f(base), f(feat), f(prof), f(oracle), prof_classes.to_string()]);
        table.row(row);

        sum.n += 1;
        sum.base += base / mkl;
        sum.feat += feat / mkl;
        sum.prof += prof / mkl;
        sum.oracle += oracle / mkl;
    }

    let n = sum.n as f64;
    let mut out = table.render();
    out.push_str(&format!(
        "\naverage speedup over MKL CSR on {name}: baseline {}, feat {}, prof {}, oracle {}{}\n",
        speedup(sum.base / n),
        speedup(sum.feat / n),
        speedup(sum.prof / n),
        speedup(sum.oracle / n),
        if has_ie { format!(", mkl-ie {}", speedup(sum.ie / n)) } else { String::new() },
    ));
    out
}

#[derive(Default)]
struct SpeedupAccumulator {
    n: usize,
    base: f64,
    feat: f64,
    prof: f64,
    oracle: f64,
    ie: f64,
}

/// Runs the full three-platform landscape.
pub fn run(scale: f64, corpus_size: usize, corpus_factor: f64) -> String {
    let suite = load_suite(scale);
    let mut out = String::new();
    for platform in Platform::paper_platforms() {
        out.push_str(&platform_landscape(&platform, &suite, corpus_size, corpus_factor));
        out.push('\n');
    }
    out
}

/// Sanity probe used by tests: the average prof-guided speedup over
/// MKL on one platform.
pub fn prof_speedup_on(platform: &Platform, scale: f64) -> f64 {
    let suite = load_suite(scale);
    let clf = ProfileClassifier::default();
    let mut total = 0.0;
    for nm in &suite {
        let an = analyze(platform, &nm.matrix);
        let mkl = simulate_mkl_csr(&platform.model, &an.profile).gflops;
        let variant =
            OptimizationPool::default().to_variant(clf.classify(&an.bounds), &an.features);
        total += platform.gflops(&an.profile, variant) / mkl;
    }
    total / suite.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_machine::MachineModel;

    #[test]
    fn landscape_renders_all_platforms() {
        let report = run(0.03, 18, 0.1);
        for p in ["KNC", "KNL", "Broadwell"] {
            assert!(report.contains(p), "{p} missing");
        }
        assert!(report.contains("average speedup over MKL CSR"));
        // KNC row has no mkl-ie column.
        assert!(!report.contains("mkl-ie 0.00x"));
    }

    #[test]
    fn optimizers_beat_mkl_on_average_on_knc() {
        let p = Platform::new(MachineModel::knc());
        let s = prof_speedup_on(&p, 0.05);
        assert!(s > 1.1, "prof speedup over MKL only {s}");
    }

    #[test]
    fn profile_never_simulated_below_baseline_dramatically() {
        // The prof optimizer may occasionally pick a slightly losing
        // variant (paper: flickr), but on a small suite the mean must
        // stay above 0.9x of baseline.
        let p = Platform::new(MachineModel::broadwell());
        let suite = load_suite(0.03);
        let clf = ProfileClassifier::default();
        let mut ratio = 0.0;
        for nm in &suite {
            let an = analyze(&p, &nm.matrix);
            let variant =
                OptimizationPool::default().to_variant(clf.classify(&an.bounds), &an.features);
            ratio += p.gflops(&an.profile, variant) / an.bounds.p_csr;
        }
        ratio /= suite.len() as f64;
        assert!(ratio > 0.9, "prof/baseline ratio {ratio}");
    }

    #[test]
    fn oracle_dominates_everyone() {
        let p = Platform::new(MachineModel::knl());
        let suite = load_suite(0.02);
        let clf = ProfileClassifier::default();
        for nm in &suite {
            let an = analyze(&p, &nm.matrix);
            let (_, oracle) = p.oracle(&an.profile);
            let variant =
                OptimizationPool::default().to_variant(clf.classify(&an.bounds), &an.features);
            let prof = p.gflops(&an.profile, variant);
            assert!(oracle + 1e-9 >= prof, "{}: oracle {} < prof {}", nm.name, oracle, prof);
            assert!(oracle + 1e-9 >= an.bounds.p_csr);
        }
    }

    #[test]
    fn landscape_uses_profile_classes_column() {
        let report = run(0.02, 12, 0.08);
        assert!(report.contains("classes"));
        assert!(report.contains('{'));
    }
}
