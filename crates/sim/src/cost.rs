//! Per-thread SpMV cost model.
//!
//! For a given machine, matrix profile and kernel variant, each
//! thread's execution time is modelled as
//!
//! ```text
//! t_p = max(compute_p, memory_p) + latency_stalls_p
//! ```
//!
//! * `compute_p` — cycles for the nonzeros (scalar vs vectorized,
//!   delta-decode and prefetch-issue overheads) plus per-row loop
//!   bookkeeping, at the thread's SMT-shared issue rate;
//! * `memory_p` — the thread's bytes served by a drain model: all
//!   active threads share the platform's sustainable bandwidth
//!   equally, each capped at `2 B / T` (a single thread cannot pull
//!   the full socket bandwidth), threads dropping out as they finish;
//! * `latency_stalls_p` — private-cache misses on `x`, charged the
//!   remote-LLC or DRAM latency divided by the thread's memory-level
//!   parallelism; hardware prefetch covers sequential misses,
//!   software prefetch (the `ML` optimization) covers a fraction of
//!   random ones.
//!
//! Scheduling policies redistribute rows exactly as the real kernels
//! do: contiguous nnz-balanced partitions for the baseline, greedy
//! least-loaded chunk assignment for guided/`auto`, and an
//! all-threads split of long rows for the decomposed kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spmv_kernels::variant::{KernelVariant, Optimization};
use spmv_machine::MachineModel;
use spmv_sparse::csr::partition_rows_by_nnz;

use crate::profile::MatrixProfile;

/// Coverage fraction of random misses hidden by software prefetching.
const SW_PREFETCH_COVERAGE: f64 = 0.75;
/// Extra issue cycles per nonzero for the prefetch instruction.
const PREFETCH_CYCLES_PER_NNZ: f64 = 1.0;
/// Extra cycles per nonzero to decode a delta-compressed index.
const DELTA_DECODE_CYCLES: f64 = 1.0;
/// Scalar cycles per nonzero (load idx, load val, gather x, FMA).
const SCALAR_CYCLES_PER_NNZ: f64 = 4.0;
/// Vector gather slowdown factor relative to ideal SIMD speedup.
const GATHER_FACTOR: f64 = 2.0;
/// Synchronisation cost (cycles per thread) of the decomposed
/// kernel's long-row reduction phase.
const LONG_PHASE_BARRIER_CYCLES: f64 = 10_000.0;

/// What to simulate: a kernel variant, optionally with the paper's
/// §III-B micro-benchmark modifications applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSpec {
    /// Optimization set.
    pub variant: KernelVariant,
    /// `P_ML` micro-benchmark: irregular accesses to `x` converted to
    /// regular ones (`colind[j] = i`).
    pub regular_x: bool,
    /// `P_CMP` micro-benchmark: indirect references eliminated
    /// entirely (no `colind` loads or traffic).
    pub no_index: bool,
    /// Partition rows into equal-row-count blocks instead of the
    /// baseline's nnz-balanced blocks (models library kernels like MKL
    /// CSR that do not inspect the nonzero distribution).
    pub equal_rows: bool,
}

impl SimSpec {
    /// Plain execution of a variant.
    pub fn variant(variant: KernelVariant) -> SimSpec {
        SimSpec { variant, regular_x: false, no_index: false, equal_rows: false }
    }

    /// The unmodified baseline CSR kernel.
    pub fn baseline() -> SimSpec {
        Self::variant(KernelVariant::BASELINE)
    }
}

/// Result of one simulated SpMV execution.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-thread execution times in seconds.
    pub thread_seconds: Vec<f64>,
    /// Parallel makespan (max thread time) in seconds.
    pub seconds: f64,
    /// Achieved GFLOP/s (`2 * nnz / makespan`).
    pub gflops: f64,
    /// Total main-memory traffic in bytes.
    pub traffic_bytes: f64,
}

impl SimResult {
    /// Median thread time — input to the paper's `P_IMB` bound.
    ///
    /// Delegates to [`spmv_telemetry::median`], the same helper the
    /// measured path ([`spmv_kernels::schedule::ThreadTimes`]) uses,
    /// so simulated and measured `P_IMB` share one definition.
    pub fn median_thread_seconds(&self) -> f64 {
        spmv_telemetry::median(&self.thread_seconds)
    }

    /// Thread imbalance ratio `max / median`.
    pub fn imbalance(&self) -> f64 {
        let med = self.median_thread_seconds();
        if med > 0.0 {
            self.seconds / med
        } else {
            1.0
        }
    }
}

/// The cost model for one machine.
#[derive(Debug, Clone)]
pub struct CostModel {
    machine: MachineModel,
}

/// Per-row cost ingredients for a specific spec.
struct RowCosts {
    cycles: Vec<f64>,
    bytes: Vec<f64>,
    stall_ns: Vec<f64>,
}

impl CostModel {
    /// Creates a cost model for `machine`.
    pub fn new(machine: MachineModel) -> CostModel {
        CostModel { machine }
    }

    /// The modelled machine.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Simulates one SpMV execution of `spec` over `profile`.
    pub fn simulate(&self, profile: &MatrixProfile, spec: SimSpec) -> SimResult {
        let m = &self.machine;
        let nthreads = m.total_threads();
        let v = spec.variant;
        let vectorize = v.contains(Optimization::Vectorize);
        let prefetch = v.contains(Optimization::Prefetch);
        let sliced = v.contains(Optimization::SlicedEll) && !spec.no_index;
        let compress = v.contains(Optimization::Compress) && !spec.no_index && !sliced;
        let guided = v.contains(Optimization::AutoSchedule);
        let decompose_threshold = if v.contains(Optimization::Decompose) {
            auto_threshold(&profile.row_nnz, profile.nnz, nthreads)
        } else {
            None
        };

        let costs = self.row_costs(profile, vectorize, prefetch, compress, sliced, &spec);

        // Split rows into the per-thread assignment.
        let mut cycles = vec![0.0f64; nthreads];
        let mut bytes = vec![0.0f64; nthreads];
        let mut stall = vec![0.0f64; nthreads];

        let is_long: Vec<bool> = match decompose_threshold {
            Some(t) => profile.row_nnz.iter().map(|&k| k as usize > t).collect(),
            None => vec![false; profile.nrows],
        };

        // Long rows: every thread takes an equal element share.
        let mut any_long = false;
        for (i, &long) in is_long.iter().enumerate() {
            if long {
                any_long = true;
                let share = 1.0 / nthreads as f64;
                for t in 0..nthreads {
                    cycles[t] += costs.cycles[i] * share;
                    bytes[t] += costs.bytes[i] * share;
                    stall[t] += costs.stall_ns[i] * share;
                }
            }
        }
        if any_long {
            for c in cycles.iter_mut() {
                *c += LONG_PHASE_BARRIER_CYCLES;
            }
        }

        // Short rows: schedule-dependent assignment.
        if guided {
            self.assign_guided(profile, &costs, &is_long, &mut cycles, &mut bytes, &mut stall);
        } else {
            // Contiguous partitions over the short rows: nnz-balanced
            // (the paper's baseline) or equal-row-count (MKL-like).
            let mut short_rowptr = Vec::with_capacity(profile.nrows + 1);
            short_rowptr.push(0usize);
            let mut acc = 0usize;
            for (i, &long) in is_long.iter().enumerate() {
                if !long {
                    acc += if spec.equal_rows { 1 } else { profile.row_nnz[i] as usize };
                }
                short_rowptr.push(acc);
            }
            for (t, part) in partition_rows_by_nnz(&short_rowptr, nthreads).into_iter().enumerate()
            {
                for i in part {
                    if !is_long[i] {
                        cycles[t] += costs.cycles[i];
                        bytes[t] += costs.bytes[i];
                        stall[t] += costs.stall_ns[i];
                    }
                }
            }
        }

        self.combine(profile, cycles, bytes, stall)
    }

    /// Greedy least-loaded chunk assignment (guided/`auto` analogue).
    fn assign_guided(
        &self,
        profile: &MatrixProfile,
        costs: &RowCosts,
        is_long: &[bool],
        cycles: &mut [f64],
        bytes: &mut [f64],
        stall: &mut [f64],
    ) {
        let nthreads = cycles.len();
        let chunk = (profile.nrows / (nthreads * 32)).max(1);
        // Proxy: convert bytes to cycles at the per-thread bandwidth
        // cap so memory-heavy chunks count as heavy.
        let thread_rate = self.thread_cycle_rate();
        let cap = self.per_thread_bw_cap();
        let mut heap: BinaryHeap<(Reverse<u64>, usize)> =
            (0..nthreads).map(|t| (Reverse(0u64), t)).collect();
        let mut i = 0;
        while i < profile.nrows {
            let end = (i + chunk).min(profile.nrows);
            let mut c = 0.0;
            let mut b = 0.0;
            let mut s = 0.0;
            // Indexed loop: `r` addresses the three cost arrays and
            // `is_long` together.
            #[allow(clippy::needless_range_loop)]
            for r in i..end {
                if !is_long[r] {
                    c += costs.cycles[r];
                    b += costs.bytes[r];
                    s += costs.stall_ns[r];
                }
            }
            let (Reverse(load), t) = heap.pop().expect("heap has nthreads entries");
            cycles[t] += c;
            bytes[t] += b;
            stall[t] += s;
            let proxy_ns = (c / thread_rate + b / cap) * 1e9 + s;
            heap.push((Reverse(load + proxy_ns as u64), t));
            i = end;
        }
    }

    /// Per-row cycles / bytes / stall for a spec.
    fn row_costs(
        &self,
        profile: &MatrixProfile,
        vectorize: bool,
        prefetch: bool,
        compress: bool,
        sliced: bool,
        spec: &SimSpec,
    ) -> RowCosts {
        let m = &self.machine;
        let lanes = m.simd_lanes as f64;
        // SELL-C-σ pays padding work/traffic proportional to its
        // chunk fill ratio.
        let fill = if sliced { profile.sell_fill() } else { 1.0 };

        // Cycles per nonzero.
        let mut cyc_elem = if spec.no_index {
            // No index load, unit-stride x: pure streaming FMA.
            if vectorize {
                (SCALAR_CYCLES_PER_NNZ / lanes).max(0.5)
            } else {
                SCALAR_CYCLES_PER_NNZ - 1.0
            }
        } else if sliced {
            // Lockstep SIMD over sorted chunks: full vector issue with
            // gathers, every padded slot computes.
            (SCALAR_CYCLES_PER_NNZ * GATHER_FACTOR / lanes).max(0.75) * fill
        } else if vectorize {
            (SCALAR_CYCLES_PER_NNZ * GATHER_FACTOR / lanes).max(0.75)
        } else {
            SCALAR_CYCLES_PER_NNZ
        };
        if compress {
            cyc_elem += if vectorize { DELTA_DECODE_CYCLES / 2.0 } else { DELTA_DECODE_CYCLES };
        }
        if prefetch {
            cyc_elem += PREFETCH_CYCLES_PER_NNZ;
        }
        let mut loop_cyc = m.loop_overhead_cycles * if vectorize { 0.75 } else { 1.0 };
        if sliced {
            // One loop per C-row chunk instead of per row.
            loop_cyc /= 8.0;
        }

        // Index bytes per nonzero, and value bytes per nonzero
        // (padding slots of SELL-C-σ stream through memory too).
        let (idx_bytes, val_bytes) = if spec.no_index {
            (0.0, 8.0)
        } else if sliced {
            (4.0 * fill, 8.0 * fill)
        } else if compress {
            (profile.delta_idx_bytes_per_nnz, 8.0)
        } else {
            (4.0, 8.0)
        };

        // Latency coverage.
        let seq_cov = if prefetch {
            m.hw_prefetch_coverage.max(SW_PREFETCH_COVERAGE)
        } else {
            m.hw_prefetch_coverage
        };
        let rand_cov = if prefetch { SW_PREFETCH_COVERAGE } else { 0.0 };
        let regular = spec.regular_x || spec.no_index;

        let n = profile.nrows;
        let mut cycles = Vec::with_capacity(n);
        let mut bytes = Vec::with_capacity(n);
        let mut stall_ns = Vec::with_capacity(n);
        let line = m.line_bytes as f64;
        for i in 0..n {
            let k = f64::from(profile.row_nnz[i]);
            cycles.push(k * cyc_elem + loop_cyc);
            let mut b = k * (val_bytes + idx_bytes) + 16.0; // values+idx, rowptr+y
            let mut s = 0.0;
            if regular {
                b += 8.0; // x[i], one word per row
            } else {
                let mm = &profile.row_misses[i];
                b += f64::from(mm.mem()) * line;
                s += (f64::from(mm.seq_llc) * m.llc_latency_ns
                    + f64::from(mm.seq_mem) * m.mem_latency_ns)
                    * (1.0 - seq_cov)
                    / m.mlp;
                s += (f64::from(mm.rand_llc) * m.llc_latency_ns
                    + f64::from(mm.rand_mem) * m.mem_latency_ns)
                    * (1.0 - rand_cov)
                    / m.mlp;
            }
            bytes.push(b);
            stall_ns.push(s);
        }
        RowCosts { cycles, bytes, stall_ns }
    }

    /// Cycles per second available to one thread (SMT-shared issue).
    fn thread_cycle_rate(&self) -> f64 {
        self.machine.freq_ghz * 1e9 / self.machine.threads_per_core as f64
    }

    /// Bandwidth cap for a single thread, bytes/s: twice its core's
    /// fair share of the socket bandwidth. When a straggler thread
    /// runs alone its SMT siblings are idle, so the whole core's
    /// request stream is available to it.
    fn per_thread_bw_cap(&self) -> f64 {
        2.0 * self.machine.bw_main_gbps * 1e9 / self.machine.cores as f64
    }

    /// Combines per-thread ingredients into the final result.
    fn combine(
        &self,
        profile: &MatrixProfile,
        cycles: Vec<f64>,
        bytes: Vec<f64>,
        stall_ns: Vec<f64>,
    ) -> SimResult {
        let m = &self.machine;
        let total_bytes: f64 = bytes.iter().sum();
        let bw = m.bandwidth_for_working_set(profile.working_set_bytes) * 1e9;
        let cap = self.per_thread_bw_cap().min(bw);
        let mem_s = drain_times(&bytes, bw, cap);
        let rate = self.thread_cycle_rate();
        let thread_seconds: Vec<f64> = cycles
            .iter()
            .zip(&mem_s)
            .zip(&stall_ns)
            .map(|((&c, &ms), &s)| (c / rate).max(ms) + s * 1e-9)
            .collect();
        let makespan = thread_seconds.iter().copied().fold(0.0, f64::max).max(1e-12);
        SimResult {
            gflops: 2.0 * profile.nnz as f64 / makespan / 1e9,
            seconds: makespan,
            thread_seconds,
            traffic_bytes: total_bytes,
        }
    }
}

/// Long-row threshold mirroring
/// [`spmv_sparse::DecomposedCsr::auto_threshold`]: `None` when the
/// matrix has no qualifying rows.
pub fn auto_threshold(row_nnz: &[u32], nnz: usize, nthreads: usize) -> Option<usize> {
    let n = row_nnz.len();
    if n == 0 || nnz == 0 {
        return None;
    }
    let avg = nnz as f64 / n as f64;
    let share = nnz as f64 / nthreads.max(1) as f64;
    let threshold = ((avg * 16.0).max(share * 0.2).ceil() as usize).max(1);
    row_nnz.iter().any(|&k| k as usize > threshold).then_some(threshold)
}

/// Bandwidth drain model: all active threads are served at the same
/// rate (`min(cap, total/active)`); as a thread's demand completes it
/// drops out and the survivors speed up. Returns per-thread memory
/// times.
pub fn drain_times(demands: &[f64], total_rate: f64, cap: f64) -> Vec<f64> {
    let n = demands.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| demands[a].partial_cmp(&demands[b]).expect("finite demands"));
    let mut out = vec![0.0f64; n];
    let mut t = 0.0f64;
    let mut served = 0.0f64;
    for (k, &i) in order.iter().enumerate() {
        let active = (n - k) as f64;
        let rate = cap.min(total_rate / active).max(1.0);
        let need = (demands[i] - served).max(0.0);
        let dt = need / rate;
        t += dt;
        served = demands[i].max(served);
        out[i] = t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn profile(a: &spmv_sparse::Csr, m: &MachineModel) -> MatrixProfile {
        MatrixProfile::analyze(a, m)
    }

    #[test]
    fn drain_balanced_equals_aggregate() {
        let d = vec![100.0; 4];
        let out = drain_times(&d, 100.0, 1000.0);
        for &t in &out {
            assert!((t - 4.0).abs() < 1e-9, "{out:?}");
        }
    }

    #[test]
    fn drain_skewed_respects_cap() {
        // One heavy thread: after the light ones drain, it is capped.
        let d = vec![10.0, 10.0, 10.0, 1000.0];
        let out = drain_times(&d, 100.0, 50.0);
        // Light threads: served at 25 B/s -> 0.4 s.
        assert!((out[0] - 0.4).abs() < 1e-9);
        // Heavy: 10 bytes in first phase, then 990 at cap 50 -> 0.4 + 19.8
        assert!((out[3] - 20.2).abs() < 1e-6, "{out:?}");
    }

    #[test]
    fn drain_empty_and_zero() {
        assert!(drain_times(&[], 10.0, 10.0).is_empty());
        let out = drain_times(&[0.0, 0.0], 10.0, 10.0);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn regular_matrix_is_bandwidth_bound_on_knc() {
        let a = gen::banded(30_000, 40, 0.9, 3).unwrap();
        let model = CostModel::new(MachineModel::knc());
        let p = profile(&a, model.machine());
        let base = model.simulate(&p, SimSpec::baseline());
        // Bandwidth-bound: makespan ~ traffic / B within 2x.
        let bw_time = base.traffic_bytes / (128e9);
        assert!(base.seconds < 2.5 * bw_time, "{} vs {}", base.seconds, bw_time);
        assert!(base.gflops > 1.0 && base.gflops < 60.0, "{}", base.gflops);
        // Eliminating irregularity gains almost nothing.
        let ml = model.simulate(&p, SimSpec { regular_x: true, ..SimSpec::baseline() });
        assert!(ml.gflops / base.gflops < 1.15, "{} vs {}", ml.gflops, base.gflops);
    }

    #[test]
    fn irregular_matrix_is_latency_bound_on_knc_but_not_broadwell() {
        let a = gen::random_uniform(120_000, 12, 7).unwrap();
        let knc = CostModel::new(MachineModel::knc());
        let p = profile(&a, knc.machine());
        let base = knc.simulate(&p, SimSpec::baseline());
        let regular = knc.simulate(&p, SimSpec { regular_x: true, ..SimSpec::baseline() });
        let gain_knc = regular.gflops / base.gflops;
        assert!(gain_knc > 1.5, "KNC ML gain {gain_knc}");

        let bdw = CostModel::new(MachineModel::broadwell());
        let pb = profile(&a, bdw.machine());
        let base_b = bdw.simulate(&pb, SimSpec::baseline());
        let regular_b = bdw.simulate(&pb, SimSpec { regular_x: true, ..SimSpec::baseline() });
        let gain_bdw = regular_b.gflops / base_b.gflops;
        assert!(gain_bdw < gain_knc, "BDW {gain_bdw} vs KNC {gain_knc}");
    }

    #[test]
    fn prefetch_helps_latency_bound_matrices() {
        let a = gen::random_uniform(120_000, 12, 7).unwrap();
        let model = CostModel::new(MachineModel::knc());
        let p = profile(&a, model.machine());
        let base = model.simulate(&p, SimSpec::baseline());
        let pref =
            model.simulate(&p, SimSpec::variant(KernelVariant::single(Optimization::Prefetch)));
        assert!(pref.gflops > 1.3 * base.gflops, "{} vs {}", pref.gflops, base.gflops);
    }

    #[test]
    fn dense_row_matrix_shows_imbalance_and_decomposition_fixes_it() {
        let a = gen::circuit(150_000, 4, 0.3, 6, 9).unwrap();
        let model = CostModel::new(MachineModel::knc());
        let p = profile(&a, model.machine());
        let base = model.simulate(&p, SimSpec::baseline());
        assert!(base.imbalance() > 3.0, "imbalance {}", base.imbalance());
        let dec =
            model.simulate(&p, SimSpec::variant(KernelVariant::single(Optimization::Decompose)));
        assert!(dec.gflops > 2.0 * base.gflops, "{} vs {}", dec.gflops, base.gflops);
        assert!(dec.imbalance() < base.imbalance());
    }

    #[test]
    fn vectorization_helps_compute_bound_not_bandwidth_bound() {
        let model = CostModel::new(MachineModel::knc());
        // Bandwidth-bound large banded matrix: little gain.
        let a = gen::banded(60_000, 40, 0.9, 3).unwrap();
        let p = profile(&a, model.machine());
        let base = model.simulate(&p, SimSpec::baseline());
        let vec =
            model.simulate(&p, SimSpec::variant(KernelVariant::single(Optimization::Vectorize)));
        assert!(vec.gflops / base.gflops < 1.3, "{}", vec.gflops / base.gflops);

        // Dense-row circuit: the serialised thread is compute-bound,
        // vectorization shortens it.
        let c = gen::circuit(150_000, 4, 0.3, 6, 9).unwrap();
        let pc = profile(&c, model.machine());
        let cb = model.simulate(&pc, SimSpec::baseline());
        let cv =
            model.simulate(&pc, SimSpec::variant(KernelVariant::single(Optimization::Vectorize)));
        assert!(cv.gflops > 1.2 * cb.gflops, "{} vs {}", cv.gflops, cb.gflops);
    }

    #[test]
    fn compression_reduces_traffic() {
        let a = gen::banded(60_000, 40, 0.9, 3).unwrap();
        let model = CostModel::new(MachineModel::knc());
        let p = profile(&a, model.machine());
        let base = model.simulate(&p, SimSpec::baseline());
        let comp =
            model.simulate(&p, SimSpec::variant(KernelVariant::single(Optimization::Compress)));
        assert!(comp.traffic_bytes < base.traffic_bytes);
        assert!(comp.gflops > base.gflops);
    }

    #[test]
    fn simd_width_matters_for_no_index_bound() {
        let a = gen::block_dense(4_000, 200, 1, 5).unwrap();
        let knc = CostModel::new(MachineModel::knc());
        let p = profile(&a, knc.machine());
        let cmp_scalar = knc.simulate(&p, SimSpec { no_index: true, ..SimSpec::baseline() });
        let cmp_vec = knc.simulate(
            &p,
            SimSpec {
                no_index: true,
                ..SimSpec::variant(KernelVariant::single(Optimization::Vectorize))
            },
        );
        assert!(cmp_vec.gflops >= cmp_scalar.gflops);
    }

    #[test]
    fn guided_schedule_covers_all_work() {
        let a = gen::powerlaw(50_000, 8, 1.8, 3).unwrap();
        let model = CostModel::new(MachineModel::knl());
        let p = profile(&a, model.machine());
        let stat = model.simulate(&p, SimSpec::baseline());
        let auto =
            model.simulate(&p, SimSpec::variant(KernelVariant::single(Optimization::AutoSchedule)));
        // Same total traffic either way (same rows computed).
        assert!((stat.traffic_bytes - auto.traffic_bytes).abs() < 1e-6 * stat.traffic_bytes);
    }

    #[test]
    fn auto_threshold_mirrors_sparse_crate() {
        let a = gen::circuit(50_000, 3, 0.4, 5, 3).unwrap();
        let row_nnz: Vec<u32> = (0..a.nrows()).map(|i| a.row_nnz(i) as u32).collect();
        let ours = auto_threshold(&row_nnz, a.nnz(), 228);
        let theirs = spmv_sparse::DecomposedCsr::auto_threshold(&a, 228);
        assert_eq!(ours, theirs);
    }

    #[test]
    fn sliced_ell_amortises_loop_overhead_on_short_rows() {
        // Very short rows on an in-order core: per-row loop overhead
        // dominates the compute side; SELL-C-s amortises it across
        // 8-row chunks. Bandwidth is cranked up so the compute effect
        // is observable (on the stock KNC both kernels sit on the
        // bandwidth floor and tie).
        let mut m = MachineModel::knc();
        m.bw_main_gbps = 10_000.0;
        m.bw_llc_gbps = 10_000.0;
        let model = CostModel::new(m);
        let a = gen::banded(200_000, 2, 1.0, 3).unwrap(); // ~5 nnz/row
        let p = profile(&a, model.machine());
        assert!(p.sell_fill() < 1.5, "fill {}", p.sell_fill());
        let base = model.simulate(&p, SimSpec::baseline()).gflops;
        let sell = model
            .simulate(&p, SimSpec::variant(KernelVariant::single(Optimization::SlicedEll)))
            .gflops;
        assert!(sell > 1.5 * base, "{sell} vs {base}");
        // On the stock (bandwidth-limited) machine it must not hurt.
        let stock = CostModel::new(MachineModel::knc());
        let ps = profile(&a, stock.machine());
        let base_s = stock.simulate(&ps, SimSpec::baseline()).gflops;
        let sell_s = stock
            .simulate(&ps, SimSpec::variant(KernelVariant::single(Optimization::SlicedEll)))
            .gflops;
        assert!(sell_s > 0.95 * base_s, "{sell_s} vs {base_s}");
    }

    #[test]
    fn median_and_imbalance() {
        let r = SimResult {
            thread_seconds: vec![1.0, 1.0, 4.0],
            seconds: 4.0,
            gflops: 1.0,
            traffic_bytes: 0.0,
        };
        assert_eq!(r.median_thread_seconds(), 1.0);
        assert_eq!(r.imbalance(), 4.0);
    }
}
