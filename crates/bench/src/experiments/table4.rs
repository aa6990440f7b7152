//! Table 4 — minimum solver iterations required to amortize each
//! optimizer's runtime overhead over MKL CSR on KNL.
//!
//! `N_iters,min = t_pre / (t_MKL − t_optimizer)` per matrix; the
//! report aggregates best / average / worst over the suite, matching
//! the paper's columns.

use spmv_kernels::variant::KernelVariant;
use spmv_machine::MachineModel;
use spmv_ref::simulate::{simulate_inspector, simulate_mkl_csr};
use spmv_sim::cost::SimSpec;
use spmv_tuner::amortize::{min_iterations, summarize, Amortization};
use spmv_tuner::profile::ProfileClassifier;
use spmv_tuner::OptimizationPool;

use crate::context::{analyze, load_suite, train_feature_classifier, Platform};
use crate::table::Table;

/// Sweep repetitions charged to the trivial optimizers (the paper
/// runs 64 SpMV iterations per candidate "to get valid timing
/// measurements").
const SWEEP_REPS: usize = 64;

/// Per-optimizer amortization rows over the suite.
pub fn run(scale: f64, corpus_size: usize, corpus_factor: f64) -> String {
    let platform = Platform::new(MachineModel::knl());
    let suite = load_suite(scale);
    let feat_clf = train_feature_classifier(&platform, corpus_size, corpus_factor, 4242);
    let prof_clf = ProfileClassifier::default();

    let names = [
        "trivial-single",
        "trivial-combined",
        "profile-guided",
        "feature-guided",
        "mkl-inspector-executor",
    ];
    let mut rows: Vec<Vec<Amortization>> = vec![Vec::new(); names.len()];
    let pool = OptimizationPool::default();

    for nm in &suite {
        let an = analyze(&platform, &nm.matrix);
        let profile = &an.profile;
        let t_mkl = simulate_mkl_csr(&platform.model, profile).seconds;

        // Trivial sweeps: pay for building + timing every candidate,
        // then run the best of the candidate set.
        for (slot, candidates) in
            [(0usize, KernelVariant::all_singles()), (1usize, KernelVariant::singles_and_pairs())]
        {
            let t_pre = platform.prep.trivial_sweep_seconds(
                &platform.model,
                profile,
                &candidates,
                SWEEP_REPS,
            );
            let t_best = candidates
                .iter()
                .map(|&v| platform.model.simulate(profile, SimSpec::variant(v)).seconds)
                .fold(f64::INFINITY, f64::min);
            rows[slot].push(min_iterations(t_pre, t_mkl, t_best));
        }

        // Profile-guided: micro-benchmarks + selected conversions.
        let prof_variant = pool.to_variant(prof_clf.classify(&an.bounds), &an.features);
        let t_pre_prof = platform.prep.profiling_seconds(&platform.model, profile)
            + platform.prep.variant_seconds(profile, prof_variant);
        let t_prof = platform.model.simulate(profile, SimSpec::variant(prof_variant)).seconds;
        rows[2].push(min_iterations(t_pre_prof, t_mkl, t_prof));

        // Feature-guided: one feature sweep + selected conversions.
        let feat_variant = pool.to_variant(feat_clf.predict(&an.features), &an.features);
        let t_pre_feat = platform.prep.feature_extract_seconds(profile, true)
            + platform.prep.variant_seconds(profile, feat_variant);
        let t_feat = platform.model.simulate(profile, SimSpec::variant(feat_variant)).seconds;
        rows[3].push(min_iterations(t_pre_feat, t_mkl, t_feat));

        // MKL Inspector-Executor.
        let (ie, t_pre_ie) = simulate_inspector(&platform.model, &platform.prep, profile);
        rows[4].push(min_iterations(t_pre_ie, t_mkl, ie.seconds));
    }

    let mut table = Table::new(
        &format!(
            "Table 4 — min solver iterations to amortize optimizer overhead vs MKL CSR on KNL \
             (scale {scale})"
        ),
        &["optimizer", "N_iters best", "N_iters avg", "N_iters worst", "never amortizes"],
    );
    for (name, results) in names.iter().zip(&rows) {
        match summarize(results) {
            Some(s) => table.row(vec![
                name.to_string(),
                s.best.to_string(),
                format!("{:.0}", s.avg),
                s.worst.to_string(),
                s.never_count.to_string(),
            ]),
            None => table.row(vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                results.len().to_string(),
            ]),
        }
    }
    let mut out = table.render();
    out.push_str(
        "\npaper reference (KNL): trivial-single 455/910/8016, trivial-combined\n\
         1992/3782/37111, profile-guided 145/267/3145, feature-guided 27/60/567,\n\
         MKL Inspector-Executor 28/336/1229.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_of(report: &str, name: &str) -> f64 {
        report
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .and_then(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                // name may contain no spaces; columns from the end:
                // [.., best, avg, worst, never]
                cols[cols.len() - 3].parse().ok()
            })
            .unwrap_or(f64::NAN)
    }

    #[test]
    fn ordering_matches_paper() {
        let report = run(0.05, 18, 0.1);
        let single = avg_of(&report, "trivial-single");
        let combined = avg_of(&report, "trivial-combined");
        let prof = avg_of(&report, "profile-guided");
        let feat = avg_of(&report, "feature-guided");
        assert!(
            feat < prof && prof < single && single < combined,
            "ordering violated: feat {feat}, prof {prof}, single {single}, combined {combined}\n{report}"
        );
    }

    #[test]
    fn all_optimizers_reported() {
        let report = run(0.03, 12, 0.08);
        for name in [
            "trivial-single",
            "trivial-combined",
            "profile-guided",
            "feature-guided",
            "mkl-inspector-executor",
        ] {
            assert!(report.contains(name), "{name} missing");
        }
    }
}
