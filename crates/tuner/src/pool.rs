//! The class→optimization pool: the tuner's one class→treatment
//! table.
//!
//! The paper's central architectural claim: "by decoupling bottleneck
//! identification from the application of optimizations, one can
//! build a classifier once and optimizations can be henceforth added
//! or replaced in a plug-and-play fashion." This module makes the
//! mapping a first-class value: [`OptimizationPool`] holds the
//! treatment for each bottleneck class, defaults to the paper's
//! Table "classes to optimizations", and can swap in alternatives
//! (e.g. SELL-C-σ for the uneven-rows `IMB` case, see
//! [`OptimizationPool::with_sliced_ell`]) without touching either
//! classifier. Every path that maps classes to optimizations — the
//! [`crate::Optimizer`], the menu search's shortlist, `spmvtune` and
//! the paper experiments — goes through
//! [`OptimizationPool::to_variant`], so no other copy of the table
//! exists to drift from it.

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
    /// ML → prefetch, CMP → vectorization, and IMB → decomposition
    /// when `nnz_max > 16 · max(nnz_avg, 1)` (dense rows), guided
    /// scheduling ([`Optimization::AutoSchedule`]) otherwise.
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
    /// A post-paper pool that treats computational unevenness (the
    /// `IMB` sub-case the paper handles with `auto` scheduling) with
    /// SELL-C-σ instead: σ-window sorting groups similar row lengths
    /// into lockstep chunks — the plug-and-play extension scenario.
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

    /// A matrix with uneven row lengths but no dense rows, so `IMB`
    /// takes the unevenness branch of the pool.
    fn uneven() -> spmv_sparse::Csr {
        gen::powerlaw(4_000, 8, 4.0, 5).unwrap()
    }

    /// A matrix with a few dense rows, so `IMB` takes the long-rows
    /// branch of the pool.
    fn skewed() -> spmv_sparse::Csr {
        gen::circuit(5_000, 3, 0.5, 4, 3).unwrap()
    }

    #[test]
    fn default_pool_maps_classes_like_the_paper() {
        let f = features(&gen::banded(1_000, 8, 1.0, 1).unwrap());
        let paper = OptimizationPool::default();
        let map = |classes: &[Bottleneck]| paper.to_variant(ClassSet::of(classes), &f);
        use Optimization::{Compress, Prefetch, Vectorize};
        assert_eq!(map(&[Bottleneck::MB]), KernelVariant::of(&[Compress, Vectorize]));
        // Joint classes apply their treatments jointly.
        assert_eq!(
            map(&[Bottleneck::ML, Bottleneck::CMP]),
            KernelVariant::of(&[Prefetch, Vectorize])
        );
        assert!(map(&[]).is_baseline());
    }

    #[test]
    fn swapping_the_uneven_imb_treatment_changes_only_that_variant() {
        let uneven = features(&uneven());
        let skewed = features(&skewed());
        assert!(
            uneven.nnz_max <= 16.0 * uneven.nnz_avg,
            "{} vs {}",
            uneven.nnz_max,
            uneven.nnz_avg
        );
        assert!(skewed.nnz_max > 16.0 * skewed.nnz_avg, "{} vs {}", skewed.nnz_max, skewed.nnz_avg);
        let paper = OptimizationPool::default();
        let sell = OptimizationPool::with_sliced_ell();
        let imb = ClassSet::of(&[Bottleneck::IMB]);
        assert_eq!(sell.to_variant(imb, &uneven), KernelVariant::single(Optimization::SlicedEll));
        assert_eq!(
            paper.to_variant(imb, &uneven),
            KernelVariant::single(Optimization::AutoSchedule)
        );
        // Long-row IMB and the other classes are untouched by the swap.
        let decompose = KernelVariant::single(Optimization::Decompose);
        assert_eq!(sell.to_variant(imb, &skewed), decompose);
        assert_eq!(paper.to_variant(imb, &skewed), decompose);
        for f in [&uneven, &skewed] {
            for set in [
                ClassSet::of(&[Bottleneck::MB]),
                ClassSet::of(&[Bottleneck::ML]),
                ClassSet::of(&[Bottleneck::CMP]),
            ] {
                assert_eq!(sell.to_variant(set, f), paper.to_variant(set, f));
            }
        }
    }

    #[test]
    fn sliced_ell_pool_builds_sell_kernels_for_uneven_matrices() {
        // End-to-end: classify (any classifier), map through the
        // extended pool, build, execute — without retraining anything.
        use spmv_kernels::variant::build_kernel;
        let a = spmv_sparse::Validated::new(std::sync::Arc::new(uneven())).unwrap();
        let f = features(&a);
        assert!(f.nnz_max <= 16.0 * f.nnz_avg, "{} vs {}", f.nnz_max, f.nnz_avg);
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

    #[test]
    fn imb_skew_factor_is_tunable() {
        let f = features(&skewed());
        let mut pool = OptimizationPool::default();
        pool.imb.skew_factor = 1e9; // effectively never "long rows"
        let v = pool.to_variant(ClassSet::of(&[Bottleneck::IMB]), &f);
        assert!(v.contains(Optimization::AutoSchedule));
    }
}
