//! Property-based tests (proptest) on the core invariants:
//! format conversions are exact structural roundtrips, every kernel
//! variant computes the same product as the serial reference, and
//! partitioning covers the row space.

use std::sync::Arc;

use proptest::prelude::*;

use spmv_tune::kernels::variant::{build_kernel, KernelVariant};
use spmv_tune::sparse::csr::partition_rows_by_nnz;
use spmv_tune::sparse::gen::{jittered_permutation, permute_symmetric};
use spmv_tune::sparse::{Coo, Csr, DecomposedCsr, DeltaCsr, SellCs, Validated};

/// Strategy: a random sparse matrix as triplets (duplicates allowed;
/// they are summed by the COO->CSR conversion).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..40, 1usize..40).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows, 0..ncols, -5.0f64..5.0);
        proptest::collection::vec(entry, 0..200).prop_map(move |entries| (nrows, ncols, entries))
    })
}

fn build(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(nrows, ncols).expect("valid shape");
    for &(r, c, v) in entries {
        coo.push(r, c, v).expect("in bounds");
    }
    Csr::from_coo(&coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrips_through_coo((nrows, ncols, entries) in arb_matrix()) {
        let a = build(nrows, ncols, &entries);
        let back = Csr::from_coo(&a.to_coo());
        prop_assert_eq!(&a, &back);
    }

    #[test]
    fn delta_compression_is_lossless((nrows, ncols, entries) in arb_matrix()) {
        let a = build(nrows, ncols, &entries);
        for width in [spmv_tune::sparse::DeltaWidth::U8, spmv_tune::sparse::DeltaWidth::U16] {
            let d = DeltaCsr::with_width(&a, width).expect("encodable");
            prop_assert_eq!(&d.to_csr().expect("roundtrip"), &a);
        }
        let auto = DeltaCsr::from_csr(&a).expect("encodable");
        auto.validate().expect("internal invariants");
        prop_assert_eq!(&auto.to_csr().expect("roundtrip"), &a);
    }

    #[test]
    fn decomposition_preserves_the_product(
        (nrows, ncols, entries) in arb_matrix(),
        threshold in 1usize..10,
    ) {
        let a = build(nrows, ncols, &entries);
        let d = DecomposedCsr::split(&a, threshold).expect("threshold >= 1");
        prop_assert_eq!(d.nnz(), a.nnz());
        let x: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y1 = vec![0.0; nrows];
        let mut y2 = vec![0.0; nrows];
        a.spmv(&x, &mut y1);
        d.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn every_variant_matches_serial(
        (nrows, ncols, entries) in arb_matrix(),
        nthreads in 1usize..5,
        variant_idx in 0usize..16,
    ) {
        let a = Validated::new(Arc::new(build(nrows, ncols, &entries))).unwrap();
        let x: Vec<f64> = (0..ncols).map(|i| 1.0 - (i % 7) as f64 * 0.3).collect();
        let mut expect = vec![0.0; nrows];
        a.spmv(&x, &mut expect);

        let mut variants = KernelVariant::singles_and_pairs();
        variants.push(KernelVariant::BASELINE);
        let variant = variants[variant_idx % variants.len()];
        let built = build_kernel(&a, variant, nthreads);
        let mut y = vec![0.0; nrows];
        built.kernel.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&expect).enumerate() {
            prop_assert!((u - v).abs() < 1e-9, "{} row {}: {} vs {}", variant, i, u, v);
        }
    }

    #[test]
    fn sellcs_preserves_the_product(
        (nrows, ncols, entries) in arb_matrix(),
        chunk in 1usize..9,
        sigma_mult in 1usize..5,
    ) {
        let a = build(nrows, ncols, &entries);
        let s = SellCs::from_csr(&a, chunk, chunk * sigma_mult).expect("sigma >= chunk");
        prop_assert_eq!(s.nnz(), a.nnz());
        let x: Vec<f64> = (0..ncols).map(|i| 1.0 - (i % 5) as f64 * 0.4).collect();
        let mut y1 = vec![0.0; nrows];
        let mut y2 = vec![0.0; nrows];
        a.spmv(&x, &mut y1);
        s.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_permutation_is_similarity(
        n in 2usize..40,
        window in 0usize..60,
        seed in 0u64..20,
    ) {
        // Build a small random square matrix.
        let a = spmv_tune::sparse::gen::random_uniform(n, 3.min(n), seed).expect("valid");
        let p = jittered_permutation(n, window, seed);
        let b = permute_symmetric(&a, &p).expect("square");
        prop_assert_eq!(b.nnz(), a.nnz());
        // B[p(i)][p(j)] == A[i][j] for every stored entry.
        for (i, cols, vals) in a.rows() {
            for (k, &cj) in cols.iter().enumerate() {
                let bv = b.get(p[i] as usize, p[cj as usize] as usize);
                prop_assert!((bv - vals[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn partitions_tile_the_row_space(
        row_lens in proptest::collection::vec(0usize..50, 1..100),
        nparts in 1usize..12,
    ) {
        let mut rowptr = vec![0usize];
        for len in &row_lens {
            rowptr.push(rowptr.last().unwrap() + len);
        }
        let parts = partition_rows_by_nnz(&rowptr, nparts);
        prop_assert_eq!(parts.len(), nparts);
        let mut next = 0usize;
        for p in &parts {
            prop_assert_eq!(p.start, next);
            prop_assert!(p.end >= p.start);
            next = p.end;
        }
        prop_assert_eq!(next, row_lens.len());
    }

    #[test]
    fn features_are_finite_and_consistent((nrows, ncols, entries) in arb_matrix()) {
        let a = build(nrows, ncols, &entries);
        let f = spmv_tune::sparse::FeatureVector::extract(&a, 1 << 20, 8);
        for v in f.select(spmv_tune::sparse::features::FeatureSet::Full) {
            prop_assert!(v.is_finite());
        }
        prop_assert!(f.nnz_min <= f.nnz_avg + 1e-12);
        prop_assert!(f.nnz_avg <= f.nnz_max + 1e-12);
        prop_assert!(f.bw_min <= f.bw_max + 1e-12);
        prop_assert_eq!(f.nnz as usize, a.nnz());
    }

    #[test]
    fn matrixmarket_roundtrip((nrows, ncols, entries) in arb_matrix()) {
        let a = build(nrows, ncols, &entries);
        let mut buf = Vec::new();
        spmv_tune::sparse::mm::write_csr(&mut buf, &a).expect("write");
        let b = spmv_tune::sparse::mm::read_csr(buf.as_slice()).expect("read");
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simulator_is_deterministic_and_positive(
        n in 200usize..2_000,
        k in 1usize..12,
        seed in 0u64..50,
    ) {
        use spmv_tune::sim::cost::{CostModel, SimSpec};
        use spmv_tune::sim::profile::MatrixProfile;
        let a = spmv_tune::sparse::gen::random_uniform(n, k, seed).expect("valid");
        let model = CostModel::new(spmv_tune::machine::MachineModel::knc());
        let p1 = MatrixProfile::analyze(&a, model.machine());
        let p2 = MatrixProfile::analyze(&a, model.machine());
        let r1 = model.simulate(&p1, SimSpec::baseline());
        let r2 = model.simulate(&p2, SimSpec::baseline());
        prop_assert!(r1.gflops > 0.0);
        prop_assert!((r1.gflops - r2.gflops).abs() < 1e-12);
        prop_assert!(r1.seconds >= r1.median_thread_seconds());
    }

    #[test]
    fn bounds_dominate_baseline_structurally(
        n in 500usize..3_000,
        hb in 2usize..20,
        seed in 0u64..20,
    ) {
        use spmv_tune::sim::bounds::collect_bounds;
        use spmv_tune::sim::cost::CostModel;
        use spmv_tune::sim::profile::MatrixProfile;
        let a = spmv_tune::sparse::gen::banded(n, hb, 0.9, seed).expect("valid");
        let model = CostModel::new(spmv_tune::machine::MachineModel::knl());
        let p = MatrixProfile::analyze(&a, model.machine());
        let b = collect_bounds(&model, &p);
        // P_peak >= P_MB always; P_IMB >= P_CSR by construction
        // (median <= max).
        prop_assert!(b.p_peak + 1e-9 >= b.p_mb);
        prop_assert!(b.p_imb + 1e-9 >= b.p_csr);
    }
}
