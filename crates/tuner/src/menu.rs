//! Microkernel menu search with cached winning plans.
//!
//! The menu ([`spmv_kernels::micro::menu`]) enumerates concrete
//! kernel configurations — explicit-SIMD CSR row kernels, SELL-C-σ
//! slice heights, delta compression. This module picks one *per
//! matrix* the way the paper's oracle does, but cheaper:
//!
//! 1. time the scalar CSR baseline (one candidate, always);
//! 2. for every other candidate, compute an **optimistic memory-bound
//!    ceiling** from the machine's bandwidth curve (the same analytic
//!    `P_MB` model the profile classifier uses) and *prune* the
//!    candidate without ever building it when the ceiling cannot beat
//!    the best measured GFLOP/s so far;
//! 3. build + warm + best-of-reps time the survivors on the
//!    persistent [`spmv_kernels::ExecEngine`] pool;
//! 4. cache the winning [`KernelPlan`] keyed by (structural matrix
//!    fingerprint, thread count), so a repeat tuning of the same
//!    matrix pays zero search cost — the cache hit path reports
//!    `search_seconds == 0`, which [`crate::amortize::TuneCost`]
//!    turns into a conversion-only payoff threshold.
//!
//! Every search emits a [`MenuTrace`] (candidates considered /
//! pruned / timed, the winner, search time) — rendered by `spmvtune
//! explain` next to the classifier's decision trace — and feeds the
//! process-wide [`spmv_telemetry::metrics::menu_selection`] gauge.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use spmv_kernels::micro::menu;
use spmv_kernels::variant::{build_kernel, Format, KernelSpec};
use spmv_machine::MachineModel;
use spmv_sparse::features::working_set_bytes;
use spmv_sparse::Csr;
use spmv_telemetry::{JsonValue, SpanSet};

/// The tuner's winning configuration for one (matrix, threads) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPlan {
    /// The selected menu spec.
    pub spec: KernelSpec,
    /// Best-of-reps GFLOP/s measured for the winner during search.
    pub gflops: f64,
    /// Preprocessing seconds of the winner's build (format
    /// conversion; re-paid on every [`build_kernel`] call).
    pub prep_seconds: f64,
    /// Seconds the search itself consumed; `0.0` when the plan came
    /// from the cache.
    pub search_seconds: f64,
    /// Whether this plan was served from the plan cache.
    pub cached: bool,
}

/// One pruned candidate: its id and the optimistic bound (GFLOP/s)
/// that disqualified it.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedCandidate {
    /// Menu entry id.
    pub id: String,
    /// Optimistic memory-bound ceiling that could not beat the best
    /// measured candidate.
    pub bound_gflops: f64,
}

/// One timed candidate: its id and measured best-of-reps GFLOP/s.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedCandidate {
    /// Menu entry id.
    pub id: String,
    /// Measured best-of-reps GFLOP/s on the warm pool.
    pub gflops: f64,
}

/// Full record of one menu search decision.
#[derive(Debug, Clone, PartialEq)]
pub struct MenuTrace {
    /// Every candidate the menu offered, in search order.
    pub considered: Vec<String>,
    /// Candidates rejected by the bound model without being built.
    pub pruned: Vec<PrunedCandidate>,
    /// Candidates actually built and timed.
    pub timed: Vec<TimedCandidate>,
    /// The winning entry's id.
    pub winner: String,
    /// Winner's measured GFLOP/s.
    pub winner_gflops: f64,
    /// Wall-clock seconds of the whole search (zero on cache hits).
    pub search_seconds: f64,
    /// Whether the decision was served from the plan cache.
    pub cached: bool,
}

impl MenuTrace {
    /// Serializes the trace (deterministic key order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with("considered", self.considered.clone())
            .with(
                "pruned",
                self.pruned
                    .iter()
                    .map(|p| {
                        JsonValue::obj()
                            .with("id", p.id.as_str())
                            .with("bound_gflops", p.bound_gflops)
                    })
                    .collect::<Vec<_>>(),
            )
            .with(
                "timed",
                self.timed
                    .iter()
                    .map(|t| JsonValue::obj().with("id", t.id.as_str()).with("gflops", t.gflops))
                    .collect::<Vec<_>>(),
            )
            .with("winner", self.winner.as_str())
            .with("winner_gflops", self.winner_gflops)
            .with("search_seconds", self.search_seconds)
            .with("cached", self.cached)
    }

    /// Renders the decision as indented text lines for `spmvtune
    /// explain`, mirroring the classifier's rule-trace style.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "menu search: {} candidates, {} bound-pruned, {} timed{}\n",
            self.considered.len(),
            self.pruned.len(),
            self.timed.len(),
            if self.cached { " (served from plan cache)" } else { "" },
        ));
        for t in &self.timed {
            let marker = if t.id == self.winner { "  <- winner" } else { "" };
            out.push_str(&format!("  timed  {:<16} {:>8.3} GF/s{}\n", t.id, t.gflops, marker));
        }
        for p in &self.pruned {
            out.push_str(&format!(
                "  pruned {:<16} bound {:>6.3} GF/s below best measured\n",
                p.id, p.bound_gflops
            ));
        }
        out.push_str(&format!(
            "  winner: {} ({:.3} GF/s, search {:.1} ms)\n",
            self.winner,
            self.winner_gflops,
            self.search_seconds * 1e3
        ));
        out
    }
}

/// Structural fingerprint of a matrix, used as the plan-cache key.
/// Hashes the dimensions plus a bounded sample of the row pointer
/// and column structure — O(1) in matrix size, collision-unlikely
/// for distinct suite matrices, and deterministic across runs.
pub fn fingerprint(a: &Csr) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (a.nrows(), a.ncols(), a.nnz()).hash(&mut h);
    let rowptr = a.rowptr();
    let stride = (rowptr.len() / 64).max(1);
    for v in rowptr.iter().step_by(stride) {
        v.hash(&mut h);
    }
    h.finish()
}

/// Optimistic bytes the candidate's format must move per SpMV
/// (matrix data only; the shared `x`/`y` traffic is added by the
/// caller). "Optimistic" means a lower bound on traffic — SELL
/// assumes zero padding, delta assumes every delta fits one byte —
/// so the derived GFLOP/s ceiling is a true upper bound and pruning
/// on it never discards a candidate that could have won.
fn optimistic_format_bytes(a: &Csr, spec: KernelSpec) -> f64 {
    let nnz = a.nnz() as f64;
    let rows = a.nrows() as f64;
    match spec.format {
        Format::Csr | Format::Decomposed { .. } => a.footprint_bytes() as f64,
        // vals + cols per nonzero, chunk descriptors per row.
        Format::Sell { .. } => 12.0 * nnz + 8.0 * rows,
        // vals + 1-byte deltas per nonzero, row pointer per row.
        Format::Delta => 9.0 * nnz + 8.0 * rows,
        // vals only: one index per block is amortized away.
        Format::Bcsr { .. } => 8.0 * nnz,
    }
}

/// Simulated roofline bound for running `spec` on `a`: the GFLOP/s
/// ceiling its (optimistic) memory traffic permits at the machine
/// model's bandwidth for this working-set size. The search prunes
/// candidates on it; each served matrix's roofline cell compares
/// live measured throughput against the selected plan's bound.
pub fn roofline_bound_gflops(a: &Csr, machine: &MachineModel, spec: KernelSpec) -> f64 {
    let flops = 2.0 * a.nnz() as f64;
    let xy_bytes = ((a.ncols() + a.nrows()) * 8) as f64;
    let bw = machine.bandwidth_for_working_set(working_set_bytes(a)) * 1e9;
    flops / ((optimistic_format_bytes(a, spec) + xy_bytes) / bw) / 1e9
}

/// Runs the full menu search for `a` on `nthreads` threads, timing
/// candidates best-of-`reps` on the warm pool. Returns the winning
/// plan and the decision trace. Does not consult or fill the plan
/// cache — use [`search_or_cached`] for the amortizing entry point.
pub fn search(
    a: &Csr,
    machine: &MachineModel,
    nthreads: usize,
    reps: usize,
) -> (KernelPlan, MenuTrace) {
    let t_search = Instant::now();
    let x = vec![1.0f64; a.ncols()];
    let mut y = vec![0.0f64; a.nrows()];

    let candidates = menu(a.ncols());
    let considered: Vec<String> = candidates.iter().map(|e| e.id()).collect();
    let mut pruned = Vec::new();
    let mut timed = Vec::new();
    let mut spans = SpanSet::new();
    let mut best: Option<(f64, KernelSpec, f64)> = None; // (gflops, spec, prep)

    for (i, &spec) in candidates.iter().enumerate() {
        let id = spec.id();
        // The first candidate (scalar CSR baseline) is always timed —
        // pruning needs a measured floor to compare bounds against.
        if i > 0 {
            let ceiling = roofline_bound_gflops(a, machine, spec);
            if let Some((best_gf, _, _)) = best {
                if ceiling <= best_gf {
                    pruned.push(PrunedCandidate { id, bound_gflops: ceiling });
                    continue;
                }
            }
        }
        let (gflops, prep) = spans.time(&format!("menu:{id}"), || {
            let built = build_kernel(a, spec, nthreads);
            built.kernel.run(&x, &mut y); // warm-up
            let (secs, _) = built.kernel.run_repeated(&x, &mut y, reps.max(1));
            (built.kernel.gflops(secs, a.nnz()), built.prep_seconds)
        });
        timed.push(TimedCandidate { id, gflops });
        if best.as_ref().is_none_or(|(b, _, _)| gflops > *b) {
            best = Some((gflops, spec, prep));
        }
    }
    spmv_telemetry::metrics::profiling_runs().add(spans.total_seconds("menu:"));

    let (gflops, spec, prep_seconds) = best.expect("menu is never empty");
    let search_seconds = t_search.elapsed().as_secs_f64();
    let winner = spec.id();
    spmv_telemetry::metrics::menu_selection().record_search(&winner);
    let plan = KernelPlan { spec, gflops, prep_seconds, search_seconds, cached: false };
    let trace = MenuTrace {
        considered,
        pruned,
        timed,
        winner,
        winner_gflops: gflops,
        search_seconds,
        cached: false,
    };
    (plan, trace)
}

type PlanCache = Mutex<HashMap<(u64, usize), (KernelPlan, MenuTrace)>>;

fn plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// [`search`] behind the process-wide plan cache: a repeat tuning of
/// a structurally identical matrix on the same thread count returns
/// the cached winner with `search_seconds == 0` and `cached == true`
/// instead of re-running the search.
pub fn search_or_cached(
    a: &Csr,
    machine: &MachineModel,
    nthreads: usize,
    reps: usize,
) -> (KernelPlan, MenuTrace) {
    let key = (fingerprint(a), nthreads.max(1));
    if let Some((plan, trace)) = plan_cache().lock().unwrap_or_else(|p| p.into_inner()).get(&key) {
        let mut plan = *plan;
        plan.search_seconds = 0.0;
        plan.cached = true;
        let mut trace = trace.clone();
        trace.search_seconds = 0.0;
        trace.cached = true;
        spmv_telemetry::metrics::menu_selection().record_cache_hit(&trace.winner);
        return (plan, trace);
    }
    let (plan, trace) = search(a, machine, nthreads, reps);
    plan_cache().lock().unwrap_or_else(|p| p.into_inner()).insert(key, (plan, trace.clone()));
    (plan, trace)
}

/// Drops every cached plan (tests and bench isolation).
pub fn clear_plan_cache() {
    plan_cache().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn search_times_baseline_and_picks_a_winner() {
        let a = gen::banded(4_000, 8, 1.0, 3).unwrap();
        let (plan, trace) = search(&a, &MachineModel::host(), 2, 2);
        assert!(!trace.considered.is_empty());
        // The baseline is always timed, never pruned.
        assert_eq!(trace.timed[0].id, spmv_kernels::micro::baseline().id());
        assert!(trace.pruned.len() + trace.timed.len() == trace.considered.len());
        assert!(plan.gflops > 0.0);
        assert!(!plan.cached);
        assert!(plan.search_seconds > 0.0);
        assert_eq!(trace.winner, plan.spec.id());
        // The winner's measured throughput is the maximum of the
        // timed set.
        let max = trace.timed.iter().map(|t| t.gflops).fold(0.0, f64::max);
        assert_eq!(plan.gflops, max);
    }

    #[test]
    fn cache_hit_reports_zero_search_cost() {
        clear_plan_cache();
        let a = gen::powerlaw(3_000, 6, 2.0, 11).unwrap();
        let m = MachineModel::host();
        let hits_before = spmv_telemetry::metrics::menu_selection().cache_hits();
        let (first, t1) = search_or_cached(&a, &m, 2, 1);
        assert!(!first.cached && !t1.cached);
        let (second, t2) = search_or_cached(&a, &m, 2, 1);
        assert!(second.cached && t2.cached);
        assert_eq!(second.search_seconds, 0.0);
        assert_eq!(second.spec, first.spec);
        assert_eq!(t2.winner, t1.winner);
        assert!(spmv_telemetry::metrics::menu_selection().cache_hits() > hits_before);
        // Different thread count misses the cache.
        let (third, _) = search_or_cached(&a, &m, 1, 1);
        assert!(!third.cached);
        clear_plan_cache();
    }

    #[test]
    fn fingerprint_distinguishes_structures() {
        let a = gen::banded(1_000, 4, 1.0, 3).unwrap();
        let b = gen::banded(1_000, 5, 1.0, 3).unwrap();
        let c = gen::banded(1_000, 4, 1.0, 3).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn trace_serializes_and_renders() {
        let a = gen::banded(2_000, 6, 1.0, 5).unwrap();
        let (_, trace) = search(&a, &MachineModel::host(), 1, 1);
        let json = trace.to_json().render();
        for key in ["considered", "pruned", "timed", "winner", "search_seconds", "cached"] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
        let text = trace.render_text();
        assert!(text.contains("menu search:"), "{text}");
        assert!(text.contains("winner:"), "{text}");
        assert!(text.contains("<- winner"), "{text}");
    }

    #[test]
    fn selected_kernel_computes_correct_product() {
        let a = gen::circuit(2_500, 3, 0.4, 5, 7).unwrap();
        let (plan, _) = search(&a, &MachineModel::host(), 2, 1);
        let built = build_kernel(&a, plan.spec, 2);
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        built.kernel.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-9, "row {i}: {u} vs {v}");
        }
    }
}
