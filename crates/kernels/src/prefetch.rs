//! Software prefetching of the right-hand-side vector — the paper's
//! `ML`-class optimization.
//!
//! Per the paper: "A single prefetch instruction was inserted in the
//! inner loop of SpMV, with a fixed prefetch distance equal to the
//! number of elements that fit in a single cache line of the hardware
//! platform. Data are prefetched into the L1 cache."
//!
//! Each loop exists once, with its bounds checks elided: kernels reach
//! them only through a `spmv_sparse::Validated` CSR witness, and an
//! unvalidated matrix runs the serial checked `Csr::spmv` instead
//! (see [`crate::baseline::CsrKernel`]).

/// Fixed prefetch distance: elements per 64-byte cache line of f64.
pub const PREFETCH_DIST: usize = 8;

/// Issues a prefetch-to-L1 hint for `x[col]` on x86-64; a no-op on
/// other architectures.
///
/// simd-ok: a bare cache hint with no lane arithmetic — there is no
/// scalar twin for the micro/ identity tests to compare against, so
/// the intrinsic stays with the traversal it serves.
///
/// witness-ok: the `col < x.len()` guard below re-establishes the
/// pointer bound locally; no witness is needed for a hint that never
/// dereferences.
#[inline(always)]
pub fn prefetch_x(x: &[f64], col: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if col < x.len() {
            // SAFETY: the pointer is in (or one past) bounds of `x`;
            // prefetch has no architectural side effects either way.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    x.as_ptr().add(col).cast::<i8>(),
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (x, col);
    }
}

/// Scalar sparse dot product with one prefetch per element at a fixed
/// distance `dist` ahead in the column stream, with bounds checks
/// elided on the compute stream (the prefetch hint keeps its cheap
/// guard — a misdirected hint is harmless but a wild one is not worth
/// reasoning about).
///
/// indexing-ok: the only checked indexing left is `cols[j + dist]`
/// behind its explicit `j + dist < n` guard.
///
/// # Safety
/// `cols.len() == vals.len()` and every entry of `cols` indexes in
/// bounds of `x` — guaranteed when the row comes from a
/// `spmv_sparse::Validated` CSR witness and `x.len() == ncols`.
#[inline(always)]
pub unsafe fn row_sum_prefetch_unchecked(
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    dist: usize,
) -> f64 {
    let n = cols.len();
    let mut sum = 0.0;
    for j in 0..n {
        if j + dist < n {
            prefetch_x(x, cols[j + dist] as usize);
        }
        // SAFETY: j < n == cols.len() == vals.len(); the validated
        // column is < x.len() (contract).
        sum +=
            unsafe { *vals.get_unchecked(j) * *x.get_unchecked(*cols.get_unchecked(j) as usize) };
    }
    sum
}

/// Unrolled (4-way) sparse dot product with prefetching — the joint
/// `ML + CMP` form — with bounds checks elided on the compute stream.
///
/// indexing-ok: `cols[b + dist]` sits behind its `b + dist < n`
/// guard; `acc` is a fixed `[f64; 4]`.
///
/// # Safety
/// Same contract as [`row_sum_prefetch_unchecked`].
#[inline(always)]
pub unsafe fn row_sum_unrolled_prefetch_unchecked(
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    dist: usize,
) -> f64 {
    let n = cols.len();
    let mut acc = [0.0f64; 4];
    let chunks = n / 4;
    for k in 0..chunks {
        let b = 4 * k;
        if b + dist < n {
            prefetch_x(x, cols[b + dist] as usize);
        }
        for (lane, a) in acc.iter_mut().enumerate() {
            // SAFETY: b + lane < 4 * chunks <= n == cols.len() ==
            // vals.len(); the validated column is < x.len() (contract).
            *a += unsafe {
                *vals.get_unchecked(b + lane)
                    * *x.get_unchecked(*cols.get_unchecked(b + lane) as usize)
            };
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for k in 4 * chunks..n {
        // SAFETY: k < n; the validated column is < x.len() (contract).
        sum +=
            unsafe { *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize) };
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn scalar(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        cols.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum()
    }

    /// Checks the shared contract of the prefetch loops.
    fn assert_in_bounds(cols: &[u32], vals: &[f64], x: &[f64]) {
        assert_eq!(cols.len(), vals.len());
        assert!(cols.iter().all(|&c| (c as usize) < x.len()));
    }

    #[test]
    fn prefetch_variants_match_scalar() {
        let mut rng = SmallRng::seed_from_u64(4);
        for len in [0usize, 1, 3, 7, 8, 9, 31, 100] {
            let cols: Vec<u32> = (0..len).map(|_| rng.gen_range(0..512) as u32).collect();
            let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x: Vec<f64> = (0..512).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let s = scalar(&cols, &vals, &x);
            assert_in_bounds(&cols, &vals, &x);
            // SAFETY: the contract was checked just above.
            let (pu, upu) = unsafe {
                (
                    row_sum_prefetch_unchecked(&cols, &vals, &x, PREFETCH_DIST),
                    row_sum_unrolled_prefetch_unchecked(&cols, &vals, &x, PREFETCH_DIST),
                )
            };
            assert!((pu - s).abs() < 1e-12);
            assert!((upu - s).abs() < 1e-10);
        }
    }

    #[test]
    fn prefetch_hint_is_side_effect_free() {
        let x = [1.0, 2.0, 3.0];
        prefetch_x(&x, 0);
        prefetch_x(&x, 2);
        prefetch_x(&x, 100); // out of range: guarded, no-op
        assert_eq!(x, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_distance_still_correct() {
        let cols = [0u32, 1, 2];
        let vals = [1.0, 2.0, 3.0];
        let x = [1.0, 10.0, 100.0];
        assert_in_bounds(&cols, &vals, &x);
        // SAFETY: the contract was checked just above.
        let (pu, upu) = unsafe {
            (
                row_sum_prefetch_unchecked(&cols, &vals, &x, 0),
                row_sum_unrolled_prefetch_unchecked(&cols, &vals, &x, 0),
            )
        };
        assert_eq!(pu, 321.0);
        assert_eq!(upu, 321.0);
    }
}
