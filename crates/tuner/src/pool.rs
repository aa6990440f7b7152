//! Configurable class→optimization pool.
//!
//! The paper's central architectural claim: "by decoupling bottleneck
//! identification from the application of optimizations, one can
//! build a classifier once and optimizations can be henceforth added
//! or replaced in a plug-and-play fashion." This module makes the
//! mapping a first-class value: [`OptimizationPool`] holds the
//! treatment for each bottleneck class, defaults to the paper's
//! Table "classes to optimizations", and can swap in alternatives
//! (e.g. BCSR register blocking for the `MB` class) without touching
//! either classifier.

use spmv_kernels::variant::{KernelVariant, Optimization};
use spmv_sparse::FeatureVector;

use crate::class::{Bottleneck, ClassSet};

/// The `IMB` class has two treatments selected by structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbTreatment {
    /// Used when `nnz_max > skew_factor * nnz_avg` (dense rows).
    pub for_long_rows: Optimization,
    /// Used otherwise (computational unevenness).
    pub for_unevenness: Optimization,
    /// Skew threshold on `nnz_max / nnz_avg`.
    pub skew_factor: f64,
}

/// A class→optimizations mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationPool {
    /// Treatment for memory-bandwidth-bound matrices.
    pub mb: Vec<Optimization>,
    /// Treatment for memory-latency-bound matrices.
    pub ml: Vec<Optimization>,
    /// Treatment for imbalanced matrices.
    pub imb: ImbTreatment,
    /// Treatment for compute-bound matrices.
    pub cmp: Vec<Optimization>,
}

impl Default for OptimizationPool {
    /// The paper's mapping: MB → compression + vectorization,
    /// ML → prefetch, IMB → decomposition / auto scheduling,
    /// CMP → unroll + vectorization.
    fn default() -> Self {
        OptimizationPool {
            mb: vec![Optimization::Compress, Optimization::Vectorize],
            ml: vec![Optimization::Prefetch],
            imb: ImbTreatment {
                for_long_rows: Optimization::Decompose,
                for_unevenness: Optimization::AutoSchedule,
                skew_factor: 16.0,
            },
            cmp: vec![Optimization::Vectorize],
        }
    }
}

impl OptimizationPool {
    /// A post-paper pool that treats the `MB` class with register
    /// blocking (BCSR) instead of delta compression — the
    /// plug-and-play extension scenario.
    pub fn with_register_blocking() -> OptimizationPool {
        OptimizationPool {
            mb: vec![Optimization::RegisterBlock, Optimization::Vectorize],
            ..Default::default()
        }
    }

    /// A post-paper pool that treats computational unevenness (the
    /// `IMB` sub-case the paper handles with `auto` scheduling) with
    /// SELL-C-σ instead: σ-window sorting groups similar row lengths
    /// into lockstep chunks.
    pub fn with_sliced_ell() -> OptimizationPool {
        let mut pool = OptimizationPool::default();
        pool.imb.for_unevenness = Optimization::SlicedEll;
        pool
    }

    /// Maps a detected class set to the joint optimization variant.
    pub fn to_variant(&self, classes: ClassSet, features: &FeatureVector) -> KernelVariant {
        let mut v = KernelVariant::BASELINE;
        if classes.contains(Bottleneck::MB) {
            for &o in &self.mb {
                v = v.with(o);
            }
        }
        if classes.contains(Bottleneck::ML) {
            for &o in &self.ml {
                v = v.with(o);
            }
        }
        if classes.contains(Bottleneck::IMB) {
            let skewed = features.nnz_max > self.imb.skew_factor * features.nnz_avg.max(1.0);
            v = v.with(if skewed { self.imb.for_long_rows } else { self.imb.for_unevenness });
        }
        if classes.contains(Bottleneck::CMP) {
            for &o in &self.cmp {
                v = v.with(o);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn features(a: &spmv_sparse::Csr) -> FeatureVector {
        FeatureVector::extract(a, 30 << 20, 8)
    }

    #[test]
    fn default_pool_matches_class_set_mapping() {
        // The legacy ClassSet::to_variant must agree with the default
        // pool for every class combination on a fixed feature vector.
        let a = gen::banded(1_000, 8, 1.0, 1).unwrap();
        let f = features(&a);
        let pool = OptimizationPool::default();
        for bits in 0u8..16 {
            let set = ClassSet::from_bits(bits);
            assert_eq!(pool.to_variant(set, &f), set.to_variant(&f), "bits {bits:#06b}");
        }
    }

    #[test]
    fn swapping_mb_treatment_changes_only_mb_variants() {
        let a = gen::banded(1_000, 8, 1.0, 1).unwrap();
        let f = features(&a);
        let paper = OptimizationPool::default();
        let blocked = OptimizationPool::with_register_blocking();
        let mb = ClassSet::of(&[Bottleneck::MB]);
        assert!(blocked.to_variant(mb, &f).contains(Optimization::RegisterBlock));
        assert!(!blocked.to_variant(mb, &f).contains(Optimization::Compress));
        // Non-MB classes are untouched by the swap.
        for set in [
            ClassSet::of(&[Bottleneck::ML]),
            ClassSet::of(&[Bottleneck::IMB]),
            ClassSet::of(&[Bottleneck::CMP]),
        ] {
            assert_eq!(blocked.to_variant(set, &f), paper.to_variant(set, &f));
        }
    }

    #[test]
    fn extended_pool_builds_runnable_kernels() {
        // End-to-end: classify (any classifier), map through the
        // extended pool, build, execute — without retraining anything.
        use spmv_kernels::variant::build_kernel;
        let a = std::sync::Arc::new(gen::block_dense(600, 20, 1, 3).unwrap());
        let f = features(&a);
        let pool = OptimizationPool::with_register_blocking();
        let variant = pool.to_variant(ClassSet::of(&[Bottleneck::MB]), &f);
        let built = build_kernel(&a, variant, 2);
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        built.kernel.run(&x, &mut y);
        let mut expect = vec![0.0; a.nrows()];
        a.spmv(&x, &mut expect);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-9);
        }
        assert!(built.kernel.name().starts_with("bcsr"), "{}", built.kernel.name());
    }

    #[test]
    fn sliced_ell_pool_builds_sell_kernels_for_uneven_matrices() {
        use spmv_kernels::variant::build_kernel;
        let a = std::sync::Arc::new(gen::powerlaw(4_000, 8, 2.2, 5).unwrap());
        let f = features(&a);
        // Force the unevenness branch (no dense-row skew).
        if f.nnz_max <= 16.0 * f.nnz_avg {
            let pool = OptimizationPool::with_sliced_ell();
            let v = pool.to_variant(ClassSet::of(&[Bottleneck::IMB]), &f);
            assert!(v.contains(Optimization::SlicedEll));
            let built = build_kernel(&a, v, 2);
            assert!(built.kernel.name().starts_with("sell"), "{}", built.kernel.name());
            let x = vec![1.0; a.ncols()];
            let mut y = vec![0.0; a.nrows()];
            built.kernel.run(&x, &mut y);
            let mut expect = vec![0.0; a.nrows()];
            a.spmv(&x, &mut expect);
            for (u, v) in y.iter().zip(&expect) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn imb_skew_factor_is_tunable() {
        let skewed = gen::circuit(5_000, 3, 0.5, 4, 3).unwrap();
        let f = features(&skewed);
        let mut pool = OptimizationPool::default();
        pool.imb.skew_factor = 1e9; // effectively never "long rows"
        let v = pool.to_variant(ClassSet::of(&[Bottleneck::IMB]), &f);
        assert!(v.contains(Optimization::AutoSchedule));
    }
}
