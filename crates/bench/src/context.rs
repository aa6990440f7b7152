//! Shared experiment context: platforms, suite loading and per-matrix
//! analysis pipelines.

use std::sync::Arc;

use spmv_kernels::variant::KernelVariant;
use spmv_machine::MachineModel;
use spmv_sim::bounds::{collect_bounds, Bounds};
use spmv_sim::cost::{CostModel, SimSpec};
use spmv_sim::prep::PrepModel;
use spmv_sim::profile::MatrixProfile;
use spmv_sparse::features::FeatureVector;
use spmv_sparse::gen::suite::{corpus, SUITE};
use spmv_sparse::{Csr, Validated};
use spmv_tuner::class::ClassSet;
use spmv_tuner::dtree::TreeParams;
use spmv_tuner::featclf::FeatureGuidedClassifier;
use spmv_tuner::profile::{ProfileClassifier, Thresholds};

/// One simulated target platform (machine + cost/prep models).
#[derive(Debug, Clone)]
pub struct Platform {
    /// Architectural description.
    pub machine: MachineModel,
    /// Execution cost model.
    pub model: CostModel,
    /// Preprocessing cost model.
    pub prep: PrepModel,
}

impl Platform {
    /// Wraps a machine model.
    pub fn new(machine: MachineModel) -> Platform {
        Platform {
            model: CostModel::new(machine.clone()),
            prep: PrepModel::new(machine.clone()),
            machine,
        }
    }

    /// The paper's three platforms.
    pub fn paper_platforms() -> Vec<Platform> {
        MachineModel::paper_platforms().into_iter().map(Platform::new).collect()
    }

    /// Simulated GFLOP/s of one variant.
    pub fn gflops(&self, profile: &MatrixProfile, variant: KernelVariant) -> f64 {
        self.model.simulate(profile, SimSpec::variant(variant)).gflops
    }

    /// Best variant (and its GFLOP/s) over **every** subset of the
    /// paper's optimization pool (32 candidates incl. the baseline) —
    /// "the perfect optimizer that always selects the best
    /// optimization available".
    pub fn oracle(&self, profile: &MatrixProfile) -> (KernelVariant, f64) {
        use spmv_kernels::variant::Optimization;
        let mut best = (KernelVariant::BASELINE, self.gflops(profile, KernelVariant::BASELINE));
        for bits in 1u32..(1 << Optimization::ALL.len()) {
            let mut v = KernelVariant::BASELINE;
            for (k, &o) in Optimization::ALL.iter().enumerate() {
                if bits & (1 << k) != 0 {
                    v = v.with(o);
                }
            }
            let g = self.gflops(profile, v);
            if g > best.1 {
                best = (v, g);
            }
        }
        best
    }
}

/// A named suite matrix.
pub struct NamedMatrix {
    /// Name of the UF matrix the preset stands in for.
    pub name: &'static str,
    /// The generated matrix, verified once here.
    pub matrix: Validated<Arc<Csr>>,
}

/// Generates (and verifies) the full representative suite at `scale`.
pub fn load_suite(scale: f64) -> Vec<NamedMatrix> {
    SUITE
        .iter()
        .map(|m| NamedMatrix {
            name: m.name,
            matrix: m
                .generate(scale)
                .and_then(|a| Validated::new(Arc::new(a)))
                .unwrap_or_else(|e| panic!("suite preset {} failed: {e}", m.name)),
        })
        .collect()
}

/// Full per-matrix analysis on one platform.
pub struct Analysis {
    /// Structural + cache profile.
    pub profile: MatrixProfile,
    /// §III-B bound set.
    pub bounds: Bounds,
    /// Table 2 features (with the platform's LLC / line size).
    pub features: FeatureVector,
    /// Profile-guided classification at default thresholds.
    pub classes: ClassSet,
}

/// Runs the analysis pipeline for `a` on `platform`.
pub fn analyze(platform: &Platform, a: &Csr) -> Analysis {
    let profile = MatrixProfile::analyze(a, &platform.machine);
    let bounds = collect_bounds(&platform.model, &profile);
    let features =
        FeatureVector::extract(a, platform.machine.llc_bytes(), platform.machine.line_elems());
    let classes = ProfileClassifier::default().classify(&bounds);
    Analysis { profile, bounds, features, classes }
}

/// Trains the feature-guided classifier for one platform exactly as
/// the paper does: generate a training corpus, label it with the
/// profile-guided classifier (simulated bounds), extract features,
/// fit the CART tree.
pub fn train_feature_classifier(
    platform: &Platform,
    corpus_size: usize,
    size_factor: f64,
    seed: u64,
) -> FeatureGuidedClassifier {
    let samples = labeled_corpus(platform, corpus_size, size_factor, seed, Thresholds::default());
    FeatureGuidedClassifier::train(
        &samples,
        spmv_sparse::features::FeatureSet::Full,
        TreeParams::default(),
    )
}

/// Generates and labels a training corpus on `platform`.
pub fn labeled_corpus(
    platform: &Platform,
    corpus_size: usize,
    size_factor: f64,
    seed: u64,
    thresholds: Thresholds,
) -> Vec<(FeatureVector, ClassSet)> {
    let clf = ProfileClassifier::new(thresholds);
    corpus(corpus_size, size_factor, seed)
        .into_iter()
        .map(|entry| {
            let profile = MatrixProfile::analyze(&entry.matrix, &platform.machine);
            let bounds = collect_bounds(&platform.model, &profile);
            let features = FeatureVector::extract(
                &entry.matrix,
                platform.machine.llc_bytes(),
                platform.machine.line_elems(),
            );
            (features, clf.classify(&bounds))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn platforms_materialize() {
        let ps = Platform::paper_platforms();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].machine.name, "KNC");
        assert_eq!(ps[2].machine.name, "Broadwell");
    }

    #[test]
    fn tiny_suite_loads() {
        let suite = load_suite(0.01);
        assert_eq!(suite.len(), 17);
        assert!(suite.iter().all(|m| m.matrix.nnz() > 0));
    }

    #[test]
    fn analysis_pipeline_runs() {
        let p = Platform::new(MachineModel::knc());
        let a = gen::circuit(20_000, 3, 0.4, 5, 3).unwrap();
        let an = analyze(&p, &a);
        assert_eq!(an.profile.nnz, a.nnz());
        assert!(an.bounds.p_csr > 0.0);
        assert!(!an.classes.is_empty(), "skewed circuit should classify: {}", an.classes);
    }

    #[test]
    fn oracle_at_least_matches_baseline() {
        let p = Platform::new(MachineModel::knl());
        let a = gen::powerlaw(20_000, 8, 1.9, 5).unwrap();
        let profile = MatrixProfile::analyze(&a, &p.machine);
        let base = p.gflops(&profile, KernelVariant::BASELINE);
        let (_, best) = p.oracle(&profile);
        assert!(best >= base);
    }

    #[test]
    fn trained_classifier_predicts_reasonably() {
        let p = Platform::new(MachineModel::knc());
        let clf = train_feature_classifier(&p, 36, 0.12, 42);
        // A skewed circuit should not be classified as pure MB.
        let a = gen::circuit(20_000, 3, 0.4, 5, 7).unwrap();
        let f = FeatureVector::extract(&a, p.machine.llc_bytes(), p.machine.line_elems());
        let set = clf.predict(&f);
        let _ = set; // any prediction is acceptable; the call must not panic
    }
}
