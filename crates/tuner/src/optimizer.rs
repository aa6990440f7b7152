//! End-to-end adaptive optimizers.
//!
//! An [`Optimizer`] bundles a classification strategy with the
//! class→optimization mapping ([`OptimizationPool::default`]) and
//! kernel construction, producing a ready-to-run [`TunedSpmv`]. The
//! strategies mirror the paper's evaluation:
//!
//! * **profile-guided** — run the §III-B micro-benchmarks on the host
//!   and apply the Fig. 4 rules (the menu search's step 1,
//!   `menu::classify`);
//! * **feature-guided** — extract Table 2 features and apply the
//!   built-in heuristic approximation of the trained decision tree
//!   (`featclf::heuristic_classify`);
//! * **trivial-single / trivial-combined** — the sweeps the paper
//!   uses as overhead baselines in Table 4: build and time the
//!   baseline plus every single (or every single and pair)
//!   optimization and keep the fastest kernel, the one timed
//!   (`menu::fastest`). Over the 15 singles and pairs this
//!   is the "perfect optimizer" selection, paid for in full.

use std::sync::Arc;
use std::time::Instant;

use spmv_kernels::variant::{build_kernel, BuiltKernel, KernelVariant, SpmvKernel};
use spmv_machine::MachineModel;
use spmv_sparse::{Csr, FeatureVector};

use crate::class::ClassSet;
use crate::featclf::heuristic_classify;
use crate::pool::OptimizationPool;

/// Classification strategy of an [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Online micro-benchmark profiling + Fig. 4 rules.
    ProfileGuided,
    /// Structural features + the heuristic decision rules.
    FeatureGuided,
    /// Time the 5 single-optimization variants, keep the best.
    TrivialSingle,
    /// Time all 15 singles + pairs, keep the best.
    TrivialCombined,
}

/// A matrix- and architecture-adaptive SpMV optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    machine: MachineModel,
    strategy: Strategy,
    nthreads: usize,
    profiling_reps: usize,
}

impl Optimizer {
    fn base(machine: &MachineModel, strategy: Strategy) -> Optimizer {
        let host_threads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        Optimizer { machine: machine.clone(), strategy, nthreads: host_threads, profiling_reps: 3 }
    }

    /// Profile-guided optimizer (paper `prof`).
    pub fn profile_guided(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::ProfileGuided)
    }

    /// Feature-guided optimizer (paper `feat`) using the built-in
    /// heuristic rules ([`crate::featclf::heuristic_classify`]), a
    /// hand-written approximation of the trained tree that
    /// [`crate::featclf::FeatureGuidedClassifier`] fits.
    pub fn feature_guided(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::FeatureGuided)
    }

    /// Trivial sweep over single optimizations.
    pub fn trivial_single(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::TrivialSingle)
    }

    /// Trivial sweep over singles and pairs.
    pub fn trivial_combined(machine: &MachineModel) -> Optimizer {
        Self::base(machine, Strategy::TrivialCombined)
    }

    /// Overrides the worker thread count of built kernels.
    #[must_use]
    pub fn with_threads(mut self, nthreads: usize) -> Optimizer {
        self.nthreads = nthreads.max(1);
        self
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Classifies the matrix (empty set for sweep strategies, which
    /// do not reason in terms of bottlenecks).
    pub fn classify(&self, a: &Arc<Csr>) -> ClassSet {
        match self.strategy {
            Strategy::ProfileGuided => {
                crate::menu::classify(a, &self.machine, self.nthreads, self.profiling_reps)
            }
            Strategy::FeatureGuided => {
                heuristic_classify(&self.features(a), self.machine.total_threads() >= 64)
            }
            Strategy::TrivialSingle | Strategy::TrivialCombined => ClassSet::EMPTY,
        }
    }

    fn features(&self, a: &Csr) -> FeatureVector {
        FeatureVector::extract(a, self.machine.llc_bytes(), self.machine.line_elems())
    }

    /// Runs the full pipeline: classify, map classes to
    /// optimizations, build the kernel — or, for the sweeps, keep the
    /// fastest kernel timed. All decision and conversion time is
    /// accumulated in [`TunedSpmv::prep_seconds`]. The tuned kernel
    /// shares `a` rather than borrowing it, so it may outlive the
    /// caller's handle.
    pub fn optimize(&self, a: &Arc<Csr>) -> TunedSpmv {
        let t0 = Instant::now();
        let (classes, variant, built) = match self.strategy {
            Strategy::TrivialSingle | Strategy::TrivialCombined => {
                let mut candidates = vec![KernelVariant::BASELINE];
                candidates.extend(match self.strategy {
                    Strategy::TrivialSingle => KernelVariant::all_singles(),
                    _ => KernelVariant::singles_and_pairs(),
                });
                let (_, variant, built) =
                    crate::menu::fastest(a, &candidates, self.nthreads, self.profiling_reps);
                (ClassSet::EMPTY, variant, built)
            }
            Strategy::ProfileGuided | Strategy::FeatureGuided => {
                let classes = self.classify(a);
                let variant = OptimizationPool::default().to_variant(classes, &self.features(a));
                (classes, variant, build_kernel(a, variant, self.nthreads))
            }
        };
        TunedSpmv { classes, variant, built, prep_seconds: t0.elapsed().as_secs_f64() }
    }
}

/// The product of [`Optimizer::optimize`]: a runnable tuned kernel
/// plus provenance.
pub struct TunedSpmv {
    classes: ClassSet,
    variant: KernelVariant,
    built: BuiltKernel,
    /// Seconds spent deciding and building (classification,
    /// profiling or sweeping, format conversion): the one-off `t_pre`
    /// that [`crate::amortize::min_iterations`] charges.
    pub prep_seconds: f64,
}

impl TunedSpmv {
    /// The runnable kernel.
    pub fn kernel(&self) -> &dyn SpmvKernel {
        &*self.built.kernel
    }

    /// Detected bottleneck classes (empty for sweep strategies).
    pub fn classes(&self) -> ClassSet {
        self.classes
    }

    /// The optimization set that was applied.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_kernels::variant::Optimization;
    use spmv_sparse::gen;

    fn check_correct(tuned: &TunedSpmv, a: &Csr) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        tuned.kernel().run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn feature_guided_optimizes_skewed_matrix_with_decomposition() {
        let a = Arc::new(gen::circuit(30_000, 3, 0.4, 5, 3).unwrap());
        let opt = Optimizer::feature_guided(&MachineModel::knl()).with_threads(3);
        let tuned = opt.optimize(&a);
        assert!(tuned.variant().contains(Optimization::Decompose), "{}", tuned.variant());
        assert!(!tuned.classes().is_empty());
        assert!(tuned.prep_seconds > 0.0);
        check_correct(&tuned, &a);
    }

    #[test]
    fn feature_guided_compresses_regular_matrix() {
        let a = Arc::new(gen::banded(40_000, 40, 0.9, 3).unwrap());
        let opt = Optimizer::feature_guided(&MachineModel::knl()).with_threads(2);
        let tuned = opt.optimize(&a);
        assert!(tuned.variant().contains(Optimization::Compress), "{}", tuned.variant());
        check_correct(&tuned, &a);
    }

    #[test]
    fn profile_guided_produces_correct_kernel() {
        let a = Arc::new(gen::powerlaw(5_000, 8, 2.0, 5).unwrap());
        let opt = Optimizer::profile_guided(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
    }

    #[test]
    fn trivial_combined_never_picks_a_broken_kernel() {
        let a = Arc::new(gen::circuit(4_000, 2, 0.3, 5, 7).unwrap());
        let opt = Optimizer::trivial_combined(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
    }

    #[test]
    fn trivial_single_considers_five_variants() {
        let a = Arc::new(gen::banded(2_000, 4, 1.0, 5).unwrap());
        let opt = Optimizer::trivial_single(&MachineModel::host()).with_threads(2);
        let tuned = opt.optimize(&a);
        check_correct(&tuned, &a);
        // Sweep strategies report no classes.
        assert!(tuned.classes().is_empty());
    }

    #[test]
    fn strategies_report_identity() {
        let m = MachineModel::host();
        assert_eq!(Optimizer::profile_guided(&m).strategy(), Strategy::ProfileGuided);
        assert_eq!(Optimizer::trivial_combined(&m).strategy(), Strategy::TrivialCombined);
    }
}
