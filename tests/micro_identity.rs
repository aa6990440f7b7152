//! Bitwise-identity property tests for the explicit-SIMD microkernel
//! menu (DESIGN.md §11): every SIMD row kernel must produce exactly
//! the bits of its scalar twin — same accumulator split, same lane
//! reduction tree, same fused multiply-adds — across remainder rows
//! (len % lanes != 0), empty rows, and whole-matrix products. The
//! menu's format entries (SELL-C-σ slice heights with tail padding,
//! delta-compressed indices) are exercised through the same
//! `build_kernel` path the tuner uses.
//!
//! On hosts without AVX2/AVX-512 (or under `SPMV_FORCE_SCALAR=1`)
//! `specs_for` returns no SIMD specs and the identity tests reduce to
//! scalar-vs-scalar, which still pins the model kernels down.

use proptest::prelude::*;

use spmv_tune::kernels::baseline::CsrKernel;
use spmv_tune::kernels::micro::{menu, specs_for};
use spmv_tune::kernels::variant::build_kernel;
use spmv_tune::kernels::{Schedule, SpmvKernel};
use spmv_tune::sparse::{Coo, Csr};

/// Strategy: one sparse row as (cols, vals) plus a dense x, with the
/// row length drawn so lane remainders (1..7 past a multiple of 8)
/// and the empty row all occur.
fn arb_row() -> impl Strategy<Value = (Vec<u32>, Vec<f64>, Vec<f64>)> {
    (0usize..67, 1usize..80).prop_flat_map(|(len, ncols)| {
        let cols = proptest::collection::vec(0u32..ncols as u32, len..len + 1);
        let vals = proptest::collection::vec(-5.0f64..5.0, len..len + 1);
        let x = proptest::collection::vec(-5.0f64..5.0, ncols..ncols + 1);
        (cols, vals, x)
    })
}

/// Strategy: a random sparse matrix as triplets (duplicates summed by
/// the COO->CSR conversion; rows with no entries stay empty).
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

/// Serial reference product, one row at a time in column order.
fn reference(a: &Csr, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            cols.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-row identity: each available SIMD spec against its scalar
    /// twin, compared bit-for-bit via `to_bits`. Row lengths cover
    /// empty rows and every remainder class of the widest lane count.
    #[test]
    fn simd_row_kernels_match_scalar_twins_bitwise((cols, vals, x) in arb_row()) {
        for spec in specs_for(x.len()) {
            let simd = spec.row_sum(&cols, &vals, &x);
            let scalar = spec.scalar_fallback().row_sum(&cols, &vals, &x);
            prop_assert_eq!(
                simd.to_bits(),
                scalar.to_bits(),
                "spec {} diverged: simd {:e} vs scalar {:e} (len {})",
                spec.id(), simd, scalar, cols.len()
            );
        }
    }

    /// Whole-matrix identity through the threaded kernel: the micro
    /// CSR kernel with a SIMD spec must emit the same bits as the
    /// same kernel downgraded to the scalar twin, across schedules
    /// and thread counts (row partitioning never splits a row, so
    /// per-row bits are preserved).
    #[test]
    fn micro_csr_kernels_match_scalar_kernels_bitwise(
        (nrows, ncols, entries) in arb_matrix(),
        nthreads in 1usize..4,
    ) {
        let a = build(nrows, ncols, &entries);
        let x: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.37).sin()).collect();
        for spec in specs_for(ncols) {
            let mut y_simd = vec![0.0f64; nrows];
            let mut y_scalar = vec![0.0f64; nrows];
            CsrKernel::micro(&a, nthreads, Schedule::NnzBalanced, spec)
                .run(&x, &mut y_simd);
            CsrKernel::micro(&a, nthreads, Schedule::NnzBalanced, spec.scalar_fallback())
                .run(&x, &mut y_scalar);
            for r in 0..nrows {
                prop_assert_eq!(
                    y_simd[r].to_bits(),
                    y_scalar[r].to_bits(),
                    "spec {} row {} diverged: {:e} vs {:e}",
                    spec.id(), r, y_simd[r], y_scalar[r]
                );
            }
        }
    }

    /// Every menu entry — CSR microkernels, SELL-C-σ slice heights
    /// (whose last slice is zero-padded when nrows % chunk != 0), and
    /// delta-compressed indices — computes the reference product
    /// through the same `build_kernel` path the tuner times.
    #[test]
    fn menu_formats_compute_the_reference_product(
        (nrows, ncols, entries) in arb_matrix(),
    ) {
        let a = build(nrows, ncols, &entries);
        let x: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.73).cos()).collect();
        let want = reference(&a, &x);
        for entry in menu(ncols) {
            let built = build_kernel(&a, entry, 2);
            let mut y = vec![0.0f64; nrows];
            built.kernel.run(&x, &mut y);
            for r in 0..nrows {
                let tol = 1e-10 * want[r].abs().max(1.0);
                prop_assert!(
                    (y[r] - want[r]).abs() <= tol,
                    "menu entry {} row {}: {:e} vs reference {:e}",
                    entry.id(), r, y[r], want[r]
                );
            }
        }
    }
}
