//! Reproduction-shape assertions: the qualitative claims of the
//! paper's evaluation, checked end-to-end through the simulator at a
//! reduced suite scale. These are the automated counterpart of
//! EXPERIMENTS.md.

use spmv_bench::context::{analyze, load_suite, Platform};
use spmv_bench::experiments;
use spmv_tune::machine::MachineModel;
use spmv_tune::tuner::class::Bottleneck;
use spmv_tune::tuner::profile::ProfileClassifier;
use spmv_tune::tuner::OptimizationPool;

const SCALE: f64 = 0.05;

#[test]
fn knc_shows_bottleneck_diversity_beyond_mb() {
    // Paper §IV-C: "there are many matrices that fall out of the
    // standard MB class" on the Phis. The ML class only appears once
    // `x` outgrows the per-core cache slice, so this test runs at a
    // larger scale than the rest.
    let platform = Platform::new(MachineModel::knc());
    let suite = load_suite(0.3);
    let clf = ProfileClassifier::default();
    let mut non_mb = 0;
    let mut distinct = std::collections::BTreeSet::new();
    for nm in &suite {
        let an = analyze(&platform, &nm.matrix);
        let set = clf.classify(&an.bounds);
        distinct.insert(set.to_string());
        if set.iter().any(|c| c != Bottleneck::MB) {
            non_mb += 1;
        }
    }
    assert!(non_mb >= suite.len() / 3, "only {non_mb} matrices beyond MB");
    assert!(distinct.len() >= 4, "class sets not diverse: {distinct:?}");
}

#[test]
fn circuit_matrices_are_imbalanced_and_fixed_by_decomposition() {
    // Paper: ASIC_680k / rajat30 / degme gain most from the IMB+CMP
    // treatment.
    let platform = Platform::new(MachineModel::knl());
    let suite = load_suite(SCALE);
    let clf = ProfileClassifier::default();
    for name in ["rajat30", "ASIC_680k", "degme"] {
        let nm = suite.iter().find(|m| m.name == name).expect("suite member");
        let an = analyze(&platform, &nm.matrix);
        let classes = clf.classify(&an.bounds);
        assert!(classes.contains(Bottleneck::IMB), "{name}: {classes}");
        let variant = OptimizationPool::default().to_variant(classes, &an.features);
        let tuned = platform.gflops(&an.profile, variant);
        assert!(
            tuned > 1.5 * an.bounds.p_csr,
            "{name}: tuned {tuned} vs baseline {}",
            an.bounds.p_csr
        );
    }
}

#[test]
fn platform_dependence_of_classes() {
    // Paper: "some matrices present different or additional
    // bottlenecks compared to KNC" — class sets must differ across
    // platforms for at least a few matrices.
    let suite = load_suite(SCALE);
    let clf = ProfileClassifier::default();
    let knc = Platform::new(MachineModel::knc());
    let bdw = Platform::new(MachineModel::broadwell());
    let mut differing = 0;
    for nm in &suite {
        let c1 = clf.classify(&analyze(&knc, &nm.matrix).bounds);
        let c2 = clf.classify(&analyze(&bdw, &nm.matrix).bounds);
        if c1 != c2 {
            differing += 1;
        }
    }
    assert!(differing >= 3, "only {differing} matrices change class across platforms");
}

#[test]
fn average_optimizer_speedups_have_paper_ordering() {
    // KNL speedups over MKL exceed KNC speedups (HBM exposes more
    // headroom), and both exceed 1.
    let knc = Platform::new(MachineModel::knc());
    let knl = Platform::new(MachineModel::knl());
    let s_knc = experiments::fig5::prof_speedup_on(&knc, SCALE);
    let s_knl = experiments::fig5::prof_speedup_on(&knl, SCALE);
    assert!(s_knc > 1.2, "KNC prof speedup {s_knc}");
    assert!(s_knl > 1.2, "KNL prof speedup {s_knl}");
}

#[test]
fn table4_report_orders_optimizers_like_the_paper() {
    let report = experiments::table4::run(SCALE, 15, 0.08);
    // feature-guided has the smallest average; trivial-combined the
    // largest (already asserted numerically inside the experiment's
    // own tests; here we check the rendered artifact mentions all
    // five optimizers in the paper's order).
    let pos = |name: &str| report.find(name).unwrap_or(usize::MAX);
    assert!(pos("trivial-single") < pos("trivial-combined"));
    assert!(pos("trivial-combined") < pos("profile-guided"));
    assert!(pos("profile-guided") < pos("feature-guided"));
    assert!(report.contains("paper reference"));
}

#[test]
fn fig1_shows_help_and_harm() {
    // The motivation figure: at least one optimization must hurt at
    // least one matrix while helping others.
    let report = experiments::fig1::run(SCALE);
    let hurts: Vec<u32> = report
        .lines()
        .filter(|l| l.contains("helped"))
        .filter_map(|l| l.split("hurt").nth(1)?.trim().parse().ok())
        .collect();
    assert!(!hurts.is_empty());
    assert!(hurts.iter().any(|&h| h > 0), "no optimization ever hurts: {report}");
    let helps: Vec<u32> = report
        .lines()
        .filter(|l| l.contains("helped"))
        .filter_map(|l| l.split("helped").nth(1)?.trim().split(',').next()?.trim().parse().ok())
        .collect();
    assert!(helps.iter().any(|&h| h > 0), "no optimization ever helps: {report}");
}
