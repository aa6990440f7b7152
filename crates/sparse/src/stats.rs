//! Per-row structural statistics of a sparse matrix.
//!
//! These are the raw ingredients of the paper's Table 2 features
//! (`nnz_i`, `bw_i`, `scatter_i`, `clustering_i`, `misses_i`) plus
//! their per-quantity summaries.

use crate::csr::Csr;
use crate::index_u32;

/// Summary statistics (min/max/mean/standard deviation) of a per-row
/// quantity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Minimum over all rows.
    pub min: f64,
    /// Maximum over all rows.
    pub max: f64,
    /// Arithmetic mean over all rows.
    pub avg: f64,
    /// Population standard deviation over all rows.
    pub sd: f64,
}

impl Summary {
    /// Computes a summary over an iterator of row quantities.
    /// Returns the all-zero summary for an empty iterator.
    #[allow(clippy::should_implement_trait)] // not the trait: not fallible-generic
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Summary {
        let mut n = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for v in iter {
            n += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
            sumsq += v * v;
        }
        if n == 0 {
            return Summary::default();
        }
        let avg = sum / n as f64;
        let var = (sumsq / n as f64 - avg * avg).max(0.0);
        Summary { min, max, avg, sd: var.sqrt() }
    }
}

/// Per-row structural statistics of a CSR matrix.
///
/// Definitions follow the paper exactly:
/// * `nnz_i` — nonzeros in row `i`;
/// * `bw_i` — column distance between the first and last nonzero of
///   row `i` (0 for rows with fewer than 2 nonzeros);
/// * `scatter_i = nnz_i / bw_i` (1.0 for degenerate rows — the densest
///   possible packing);
/// * `clustering_i = ngroups_i / nnz_i` where `ngroups_i` counts runs
///   of consecutive column indices (0 for empty rows);
/// * `misses_i` — nonzeros whose column distance from the previous
///   nonzero in the row exceeds the number of elements per cache line
///   (naive cache-miss estimate of the paper).
#[derive(Debug, Clone)]
pub struct RowStats {
    /// Nonzeros per row.
    pub nnz: Vec<u32>,
    /// Column span per row.
    pub bw: Vec<u32>,
    /// `nnz_i / bw_i` per row.
    pub scatter: Vec<f64>,
    /// `ngroups_i / nnz_i` per row.
    pub clustering: Vec<f64>,
    /// Estimated cache-miss-generating elements per row.
    pub misses: Vec<u32>,
}

impl RowStats {
    /// Computes all per-row statistics in a single `O(NNZ)` sweep.
    ///
    /// `line_elems` is the number of matrix elements that fit in one
    /// cache line of the target platform (8 for 64-byte lines of f64),
    /// used by the `misses_i` estimate.
    pub fn compute(a: &Csr, line_elems: u32) -> RowStats {
        let n = a.nrows();
        let mut nnz = Vec::with_capacity(n);
        let mut bw = Vec::with_capacity(n);
        let mut scatter = Vec::with_capacity(n);
        let mut clustering = Vec::with_capacity(n);
        let mut misses = Vec::with_capacity(n);
        for (_, cols, _) in a.rows() {
            let k = index_u32(cols.len());
            nnz.push(k);
            if cols.is_empty() {
                bw.push(0);
                scatter.push(1.0);
                clustering.push(0.0);
                misses.push(0);
                continue;
            }
            let span = cols[cols.len() - 1] - cols[0];
            bw.push(span);
            scatter.push(if span == 0 { 1.0 } else { f64::from(k) / f64::from(span) });
            let mut groups = 1u32;
            let mut m = 0u32;
            for w in cols.windows(2) {
                let dist = w[1] - w[0];
                if dist > 1 {
                    groups += 1;
                }
                if dist > line_elems {
                    m += 1;
                }
            }
            clustering.push(f64::from(groups) / f64::from(k));
            misses.push(m);
        }
        RowStats { nnz, bw, scatter, clustering, misses }
    }

    /// Summary of the `nnz_i` sequence.
    pub fn nnz_summary(&self) -> Summary {
        Summary::from_iter(self.nnz.iter().map(|&v| f64::from(v)))
    }

    /// Summary of the `bw_i` sequence.
    pub fn bw_summary(&self) -> Summary {
        Summary::from_iter(self.bw.iter().map(|&v| f64::from(v)))
    }

    /// Summary of the `scatter_i` sequence.
    pub fn scatter_summary(&self) -> Summary {
        Summary::from_iter(self.scatter.iter().copied())
    }

    /// Mean of the `clustering_i` sequence.
    pub fn clustering_avg(&self) -> f64 {
        mean(&self.clustering)
    }

    /// Mean of the `misses_i` sequence.
    pub fn misses_avg(&self) -> f64 {
        if self.misses.is_empty() {
            0.0
        } else {
            self.misses.iter().map(|&v| f64::from(v)).sum::<f64>() / self.misses.len() as f64
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn from_rows(ncols: usize, rows: &[&[usize]]) -> Csr {
        let mut coo = Coo::new(rows.len(), ncols).unwrap();
        for (i, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(i, c, 1.0).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn summary_of_constant_sequence() {
        let s = Summary::from_iter([3.0, 3.0, 3.0]);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.avg, 3.0);
        assert_eq!(s.sd, 0.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        assert_eq!(Summary::from_iter(std::iter::empty()), Summary::default());
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.avg, 2.5);
        assert!((s.sd - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn row_stats_basic() {
        // row 0: cols 0,1,2 (one contiguous group, span 2)
        // row 1: cols 0, 100 (two groups, span 100, one "miss" at dist 100)
        // row 2: empty
        let a = from_rows(128, &[&[0, 1, 2], &[0, 100], &[]]);
        let st = RowStats::compute(&a, 8);
        assert_eq!(st.nnz, vec![3, 2, 0]);
        assert_eq!(st.bw, vec![2, 100, 0]);
        assert!((st.scatter[0] - 1.5).abs() < 1e-12);
        assert!((st.scatter[1] - 0.02).abs() < 1e-12);
        assert_eq!(st.scatter[2], 1.0);
        assert!((st.clustering[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((st.clustering[1] - 1.0).abs() < 1e-12);
        assert_eq!(st.misses, vec![0, 1, 0]);
    }

    #[test]
    fn dense_row_has_no_misses_and_unit_clustering_fraction() {
        let cols: Vec<usize> = (0..64).collect();
        let a = from_rows(64, &[&cols]);
        let st = RowStats::compute(&a, 8);
        assert_eq!(st.misses, vec![0]);
        assert!((st.clustering[0] - 1.0 / 64.0).abs() < 1e-12);
        assert_eq!(st.bw, vec![63]);
    }

    #[test]
    fn scattered_row_generates_misses() {
        let cols: Vec<usize> = (0..10).map(|k| k * 100).collect();
        let a = from_rows(1000, &[&cols]);
        let st = RowStats::compute(&a, 8);
        assert_eq!(st.misses, vec![9]);
        assert!((st.clustering[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_element_row() {
        let a = from_rows(10, &[&[4]]);
        let st = RowStats::compute(&a, 8);
        assert_eq!(st.nnz, vec![1]);
        assert_eq!(st.bw, vec![0]);
        assert_eq!(st.scatter, vec![1.0]);
        assert_eq!(st.misses, vec![0]);
    }

    #[test]
    fn summaries_aggregate() {
        let a = from_rows(16, &[&[0], &[0, 1], &[0, 1, 2]]);
        let st = RowStats::compute(&a, 8);
        let s = st.nnz_summary();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.avg, 2.0);
        assert!(st.misses_avg() < 1e-12);
    }
}
