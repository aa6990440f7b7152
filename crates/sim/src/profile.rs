//! Structural + cache profile of a matrix on a machine.
//!
//! Computed once per (matrix, machine) pair and shared by every
//! simulated kernel variant and bound.
//!
//! The `x[colind[j]]` stream is driven through a **two-level** cache
//! simulation:
//!
//! * a per-core **private** cache (the per-core L2, or the per-core
//!   slice of the Phi's distributed L2) — misses here cost latency;
//! * the aggregate **LLC** — private misses that also miss here go to
//!   main memory (full latency + bandwidth traffic), while LLC hits
//!   cost the remote-L2/L3 latency only.
//!
//! Each private miss is further classified as *sequential*
//! (next-line stride, coverable by a hardware stream prefetcher) or
//! *random* (the latency-exposed misses that define the `ML` class).

use spmv_machine::cache::{Cache, CacheConfig};
use spmv_machine::MachineModel;
use spmv_sparse::features::working_set_bytes;
use spmv_sparse::{Csr, DeltaWidth};

/// Per-row miss counters of the `x` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowMisses {
    /// Sequential-stride private misses satisfied by the LLC.
    pub seq_llc: u32,
    /// Sequential-stride private misses going to memory.
    pub seq_mem: u32,
    /// Random private misses satisfied by the LLC.
    pub rand_llc: u32,
    /// Random private misses going to memory.
    pub rand_mem: u32,
}

impl RowMisses {
    /// All private-cache misses of the row.
    #[inline]
    pub fn total(&self) -> u32 {
        self.seq_llc + self.seq_mem + self.rand_llc + self.rand_mem
    }

    /// Misses that consume main-memory bandwidth.
    #[inline]
    pub fn mem(&self) -> u32 {
        self.seq_mem + self.rand_mem
    }

    /// Random (non-prefetchable) misses.
    #[inline]
    pub fn rand(&self) -> u32 {
        self.rand_llc + self.rand_mem
    }
}

/// Per-row structure plus simulated cache behaviour of the
/// `x[colind[j]]` stream on a specific machine.
#[derive(Debug, Clone)]
pub struct MatrixProfile {
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Nonzeros per row.
    pub row_nnz: Vec<u32>,
    /// Warm `x`-stream miss counters per row.
    pub row_misses: Vec<RowMisses>,
    /// CSR footprint in bytes (`S_CSR`).
    pub csr_bytes: usize,
    /// Bytes of the values array alone (`S_values`, for `P_peak`).
    pub values_bytes: usize,
    /// Footprint if delta-compressed at the auto-chosen width.
    pub delta_bytes: usize,
    /// Index-stream bytes per nonzero under delta compression
    /// (CSR uses 4).
    pub delta_idx_bytes_per_nnz: f64,
    /// SpMV working-set bytes (`S_CSR + S_x + S_y`).
    pub working_set_bytes: usize,
    /// Copy of the row pointer (for partitioning in the cost model).
    pub rowptr: Vec<usize>,
    /// Stored slots (incl. padding) of a SELL-8-256 conversion (for
    /// the `SlicedEll` extension optimization).
    pub sell_slots: usize,
}

impl MatrixProfile {
    /// Analyzes `a` for execution on `machine`.
    ///
    /// Runs two passes over the column indices and counts misses in
    /// the second (warm) pass, matching the paper's warm-cache
    /// measurement methodology. When the working set exceeds the LLC,
    /// the LLC capacity available to `x` is halved to account for the
    /// streaming matrix data competing for it.
    pub fn analyze(a: &Csr, machine: &MachineModel) -> MatrixProfile {
        let nrows = a.nrows();
        // `working_set_bytes` already includes the x and y vectors
        // (`S_CSR + S_x + S_y`); adding them again here used to
        // inflate the working set by 8·(nrows+ncols) bytes and flip
        // cache-residency decisions near the LLC boundary.
        let ws = working_set_bytes(a);
        let llc_for_x =
            if ws <= machine.llc_bytes() { machine.llc_bytes() } else { machine.llc_bytes() / 2 };
        let priv_cfg = CacheConfig {
            capacity_bytes: machine.private_cache_bytes(),
            line_bytes: machine.line_bytes,
            assoc: 8,
        };
        let llc_cfg = CacheConfig {
            capacity_bytes: llc_for_x.max(priv_cfg.capacity_bytes),
            line_bytes: machine.line_bytes,
            assoc: 8,
        };
        let mut private = Cache::new(priv_cfg);
        let mut llc = Cache::new(llc_cfg);
        // Pass 1: warm-up both levels.
        for &c in a.colind() {
            let addr = u64::from(c) * 8;
            if !private.access(addr) {
                llc.access(addr);
            }
        }
        // Pass 2: measured, classifying each private miss.
        let line_words = (machine.line_bytes / 8) as u64;
        let mut row_nnz = Vec::with_capacity(nrows);
        let mut row_misses = Vec::with_capacity(nrows);
        for (_, cols, _) in a.rows() {
            row_nnz.push(cols.len() as u32);
            let mut m = RowMisses::default();
            let mut prev_line = u64::MAX - 1;
            for &c in cols {
                let addr = u64::from(c) * 8;
                let line = u64::from(c) / line_words;
                if !private.access(addr) {
                    let in_llc = llc.access(addr);
                    let sequential = line == prev_line + 1 || line == prev_line;
                    match (sequential, in_llc) {
                        (true, true) => m.seq_llc += 1,
                        (true, false) => m.seq_mem += 1,
                        (false, true) => m.rand_llc += 1,
                        (false, false) => m.rand_mem += 1,
                    }
                }
                prev_line = line;
            }
            row_misses.push(m);
        }

        let (delta_bytes, delta_idx) = delta_footprint(a);
        let sell_slots = sell_slots(&row_nnz, 8, 256);
        MatrixProfile {
            nrows,
            ncols: a.ncols(),
            nnz: a.nnz(),
            row_nnz,
            row_misses,
            csr_bytes: a.footprint_bytes(),
            values_bytes: a.values_bytes(),
            delta_bytes,
            delta_idx_bytes_per_nnz: delta_idx,
            working_set_bytes: working_set_bytes(a),
            rowptr: a.rowptr().to_vec(),
            sell_slots,
        }
    }

    /// SELL-8-256 fill ratio: stored slots per original nonzero.
    pub fn sell_fill(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        self.sell_slots as f64 / self.nnz as f64
    }

    /// Total private-cache misses of the `x` stream.
    pub fn total_misses(&self) -> u64 {
        self.row_misses.iter().map(|m| u64::from(m.total())).sum()
    }

    /// Total random (latency-exposed) misses.
    pub fn total_rand_misses(&self) -> u64 {
        self.row_misses.iter().map(|m| u64::from(m.rand())).sum()
    }

    /// Total misses that consume main-memory bandwidth.
    pub fn total_mem_misses(&self) -> u64 {
        self.row_misses.iter().map(|m| u64::from(m.mem())).sum()
    }

    /// `S_x + S_y` in bytes (`M_{xy,min}` of the bound analysis).
    pub fn xy_bytes(&self) -> usize {
        (self.ncols + self.nrows) * 8
    }
}

/// Stored slots of a SELL-C-σ conversion, computable from row lengths
/// alone: rows sort (descending) inside σ-windows, then each C-row
/// chunk pads to its maximum length.
fn sell_slots(row_nnz: &[u32], c: usize, sigma: usize) -> usize {
    let mut slots = 0usize;
    let mut window: Vec<u32> = Vec::with_capacity(sigma);
    for win in row_nnz.chunks(sigma.max(c)) {
        window.clear();
        window.extend_from_slice(win);
        window.sort_unstable_by(|a, b| b.cmp(a));
        for chunk in window.chunks(c) {
            slots += chunk[0] as usize * c.min(chunk.len()).max(1);
            // Padding lanes of a ragged final chunk still store slots
            // in the real layout; count the full chunk width.
            if chunk.len() < c {
                slots += chunk[0] as usize * (c - chunk.len());
            }
        }
    }
    slots
}

/// Computes the delta-compressed footprint without materialising the
/// compressed matrix: picks the cheaper of 8-/16-bit widths exactly as
/// [`spmv_sparse::DeltaCsr::from_csr`] does.
fn delta_footprint(a: &Csr) -> (usize, f64) {
    let mut esc8 = 0usize;
    let mut esc16 = 0usize;
    for (_, cols, _) in a.rows() {
        for w in cols.windows(2) {
            let gap = w[1] - w[0];
            if gap > DeltaWidth::U8.max_inline() {
                esc8 += 1;
            }
            if gap > DeltaWidth::U16.max_inline() {
                esc16 += 1;
            }
        }
    }
    let nnz = a.nnz();
    let n = a.nrows();
    let stream8 = nnz + 4 * esc8;
    let stream16 = 2 * nnz + 4 * esc16;
    let stream = stream8.min(stream16);
    let total = (n + 1) * 8      // rowptr
        + n * 4                  // firstcol
        + (n + 1) * 4            // exc_ptr
        + stream
        + nnz * 8; // values
    let idx_per_nnz = if nnz == 0 { 0.0 } else { stream as f64 / nnz as f64 };
    (total, idx_per_nnz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;
    use spmv_sparse::DeltaCsr;

    #[test]
    fn small_banded_x_fits_private_cache() {
        let a = gen::banded(5_000, 8, 1.0, 3).unwrap();
        // x = 40 KB < 526 KB private slice on KNC: zero warm misses.
        let p = MatrixProfile::analyze(&a, &MachineModel::knc());
        assert_eq!(p.total_misses(), 0);
        assert_eq!(p.nnz, a.nnz());
    }

    #[test]
    fn irregular_wide_matrix_exposes_random_latency_misses() {
        // x = 800 KB exceeds the KNC private slice but fits the LLC:
        // random misses should be LLC-served, not memory-served.
        let a = gen::random_uniform(100_000, 8, 5).unwrap();
        let p = MatrixProfile::analyze(&a, &MachineModel::knc());
        assert!(p.total_rand_misses() > p.nnz as u64 / 4, "{}", p.total_rand_misses());
        let mem = p.total_mem_misses();
        assert!(mem < p.total_misses() / 10, "mem-bound misses {mem}");
    }

    #[test]
    fn same_matrix_has_fewer_latency_misses_on_broadwell_path() {
        // Broadwell's private L2 is smaller, but what matters for the
        // ML class is that the cost model charges llc_latency_ns=18ns
        // there; the profile itself just counts structure. Verify the
        // counters exist and are consistent.
        let a = gen::random_uniform(100_000, 8, 5).unwrap();
        let p = MatrixProfile::analyze(&a, &MachineModel::broadwell());
        assert_eq!(
            p.total_misses(),
            p.total_rand_misses()
                + p.row_misses.iter().map(|m| u64::from(m.seq_llc + m.seq_mem)).sum::<u64>()
        );
    }

    #[test]
    fn streaming_misses_classified_sequential() {
        // Rows scan wide contiguous blocks through a tiny private cache.
        let a = gen::block_dense(8_192, 2_048, 0, 7).unwrap();
        let mut m = MachineModel::knc();
        m.l2_bytes = 256 << 10; // shrink so x (64 KB per tile row) streams
        let p = MatrixProfile::analyze(&a, &m);
        let seq: u64 = p.row_misses.iter().map(|mm| u64::from(mm.seq_llc + mm.seq_mem)).sum();
        let rand = p.total_rand_misses();
        assert!(seq > 10 * rand.max(1), "seq {seq} rand {rand}");
    }

    #[test]
    fn delta_footprint_matches_real_compression() {
        for a in [gen::banded(2_000, 6, 1.0, 1).unwrap(), gen::random_uniform(800, 10, 2).unwrap()]
        {
            let (bytes, _) = delta_footprint(&a);
            let d = DeltaCsr::from_csr(&a).unwrap();
            assert_eq!(bytes, d.footprint_bytes());
        }
    }

    /// Regression for the working-set double count: `analyze` used to
    /// add `8·(nrows+ncols)` on top of `working_set_bytes` (which
    /// already includes x and y), halving the LLC available to `x`
    /// for matrices near the cache boundary.
    #[test]
    fn working_set_not_double_counted_at_llc_boundary() {
        use spmv_sparse::Coo;
        // 4 rows × 8192 cols; each row scans its quarter of x at
        // stride 8 (one access per 64-byte line): 1024 distinct lines
        // = 64 KiB of x touched.
        let (nrows, ncols, stride) = (4usize, 8192usize, 8usize);
        let mut coo = Coo::new(nrows, ncols).unwrap();
        let per_row = ncols / nrows;
        for r in 0..nrows {
            for c in (r * per_row..(r + 1) * per_row).step_by(stride) {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let a = Csr::from_coo(&coo);
        // Pin the exact working set: S_CSR + S_x + S_y, nothing more.
        // CSR = 5 rowptr entries ×8 + 1024 colind ×4 + 1024 values ×8.
        let ws = working_set_bytes(&a);
        assert_eq!(ws, (nrows + 1) * 8 + a.nnz() * 4 + a.nnz() * 8 + (nrows + ncols) * 8);
        assert_eq!(ws, 77_896);

        // LLC sized exactly at the working set: the matrix is
        // cache-resident, so the full LLC must stay available to `x`
        // (its 128-set power-of-two geometry holds exactly the 1024
        // touched lines). Any inflation of the estimate — the old
        // code added 65 568 bytes — halves the LLC and spills every
        // warm miss to memory.
        let mut m = MachineModel::broadwell();
        m.line_bytes = 64;
        m.l2_bytes = 8 << 10; // private cache too small for x
        m.l3_bytes = ws;
        let p = MatrixProfile::analyze(&a, &m);
        assert_eq!(p.total_misses(), a.nnz() as u64, "every warm access misses private");
        assert_eq!(
            p.total_mem_misses(),
            0,
            "working set fits the LLC exactly; memory-served misses mean the \
             estimate was inflated"
        );
    }

    #[test]
    fn footprints_are_consistent() {
        let a = gen::banded(1_000, 4, 1.0, 9).unwrap();
        let p = MatrixProfile::analyze(&a, &MachineModel::broadwell());
        assert_eq!(p.csr_bytes, a.footprint_bytes());
        assert_eq!(p.values_bytes, a.values_bytes());
        assert!(p.delta_bytes < p.csr_bytes);
        assert_eq!(p.xy_bytes(), 2_000 * 8);
        assert_eq!(p.working_set_bytes, p.csr_bytes + p.xy_bytes());
    }

    #[test]
    fn row_counters_align_with_rows() {
        let a = gen::powerlaw(3_000, 6, 2.0, 4).unwrap();
        let p = MatrixProfile::analyze(&a, &MachineModel::knl());
        assert_eq!(p.row_nnz.len(), a.nrows());
        assert_eq!(p.row_misses.len(), a.nrows());
        let nnz_sum: u64 = p.row_nnz.iter().map(|&v| u64::from(v)).sum();
        assert_eq!(nnz_sum, a.nnz() as u64);
    }
}
