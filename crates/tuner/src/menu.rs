//! Microkernel menu search with cached winning plans.
//!
//! The menu ([`spmv_kernels::micro::menu`]) enumerates concrete
//! kernel configurations — explicit-SIMD CSR row kernels, SELL-C-σ
//! slice heights, delta compression. This module picks one *per
//! matrix* the way the paper's optimizer does: it finds the matrix's
//! bottleneck classes first and times only the kernels that treat
//! them, because classifying is cheaper than searching (§III):
//!
//! 1. classify: the three §III-B micro-benchmarks on the host
//!    ([`HostSource`]) and the Fig. 4 rules ([`ProfileClassifier`]);
//! 2. shortlist (`shortlist`): map the class set through the paper's
//!    mapping ([`OptimizationPool::default`]) and expand each selected
//!    optimization to its family of specs (`family`), next to the
//!    scalar CSR baseline and `csr/unrolled`, which are always timed;
//! 3. build + warm + best-of-reps time the shortlist on the persistent
//!    [`spmv_kernels::ExecEngine`] pool and keep the fastest;
//! 4. cache the winning [`KernelPlan`] keyed by (structural matrix
//!    fingerprint, thread count), so a repeat tuning of the same
//!    matrix pays zero search cost — the cache hit path reports
//!    `search_seconds == 0`, which [`crate::amortize::TuneCost`]
//!    turns into a conversion-only payoff threshold.
//!
//! Every search emits a [`MenuTrace`] (class set, candidates timed,
//! the winner, search time) — rendered by `spmvtune explain` next to
//! the classifier's decision trace — and feeds the process-wide
//! [`spmv_telemetry::metrics::menu_selection`] gauge.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use spmv_kernels::baseline::InnerLoop;
use spmv_kernels::micro::{self, menu};
use spmv_kernels::variant::{build_kernel, Format, KernelSpec, KernelVariant, Optimization};
use spmv_machine::MachineModel;
use spmv_sparse::features::working_set_bytes;
use spmv_sparse::{Csr, FeatureVector};
use spmv_telemetry::{JsonValue, SpanSet};

use crate::bounds::HostSource;
use crate::class::ClassSet;
use crate::pool::OptimizationPool;
use crate::profile::ProfileClassifier;

/// The tuner's winning configuration for one (matrix, threads) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPlan {
    /// The selected spec.
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
    /// The bottleneck classes the shortlist was drawn from.
    pub classes: ClassSet,
    /// How many candidates the search timed.
    pub timed: usize,
}

/// One timed candidate: its spec and measured best-of-reps GFLOP/s.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedCandidate {
    /// The candidate.
    pub spec: KernelSpec,
    /// Measured best-of-reps GFLOP/s on the warm pool.
    pub gflops: f64,
}

/// Full record of one menu search decision.
#[derive(Debug, Clone, PartialEq)]
pub struct MenuTrace {
    /// The bottleneck classes the shortlist was drawn from.
    pub classes: ClassSet,
    /// The shortlisted candidates, built and timed in search order.
    pub timed: Vec<TimedCandidate>,
    /// The winning entry's id.
    pub winner: String,
    /// Winner's measured GFLOP/s.
    pub winner_gflops: f64,
    /// Wall-clock seconds of the whole search, classification
    /// included (zero on cache hits).
    pub search_seconds: f64,
    /// Whether the decision was served from the plan cache.
    pub cached: bool,
}

impl MenuTrace {
    /// Serializes the trace (deterministic key order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with("classes", self.classes.to_string())
            .with(
                "timed",
                self.timed
                    .iter()
                    .map(|t| JsonValue::obj().with("id", t.spec.id()).with("gflops", t.gflops))
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
        let mut out = format!(
            "menu search: classes {}, {} candidates timed{}\n",
            self.classes,
            self.timed.len(),
            if self.cached { " (served from plan cache)" } else { "" },
        );
        for t in &self.timed {
            let id = t.spec.id();
            let marker = if id == self.winner { "  <- winner" } else { "" };
            out.push_str(&format!("  timed  {id:<16} {:>8.3} GF/s{marker}\n", t.gflops));
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

/// Structural fingerprint of a matrix, used as the plan-cache key:
/// a hash of the dimensions and the full `rowptr` and `colind`
/// arrays (values do not change a kernel's speed). One O(nnz) pass,
/// far below the cost of the search it saves, and deterministic
/// across runs. Two matrices with equal row lengths but different
/// columns get different keys.
pub fn fingerprint(a: &Csr) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (a.nrows(), a.ncols()).hash(&mut h);
    a.rowptr().hash(&mut h);
    a.colind().hash(&mut h);
    h.finish()
}

/// Optimistic bytes the candidate's format must move per SpMV
/// (matrix data only; the shared `x`/`y` traffic is added by the
/// caller). "Optimistic" means a lower bound on traffic — SELL
/// assumes zero padding, delta assumes every delta fits one byte —
/// so the derived GFLOP/s ceiling is a true upper bound.
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
/// model's bandwidth for this working-set size. Each served matrix's
/// roofline cell compares live measured throughput against the
/// selected plan's bound.
pub fn roofline_bound_gflops(a: &Csr, machine: &MachineModel, spec: KernelSpec) -> f64 {
    let flops = 2.0 * a.nnz() as f64;
    let xy_bytes = ((a.ncols() + a.nrows()) * 8) as f64;
    let bw = machine.bandwidth_for_working_set(working_set_bytes(a)) * 1e9;
    flops / ((optimistic_format_bytes(a, spec) + xy_bytes) / bw) / 1e9
}

/// The specs that apply one optimization: its single-optimization
/// lowering ([`KernelSpec::from`]), plus every explicit-SIMD CSR row
/// kernel on the menu for `Vectorize`.
fn family(opt: Optimization, menu: &[KernelSpec]) -> Vec<KernelSpec> {
    let mut specs = vec![KernelSpec::from(KernelVariant::single(opt))];
    if opt == Optimization::Vectorize {
        specs.extend(menu.iter().filter(|s| {
            s.format == Format::Csr && matches!(s.inner, InnerLoop::Micro(m) if m.is_simd())
        }));
    }
    specs
}

/// The candidates a search times for a matrix of class set `classes`:
/// the scalar CSR baseline and `csr/unrolled` (always), then the
/// [`family`] of every optimization the paper's mapping
/// ([`OptimizationPool::default`]) gives the classes, in order and
/// without repeats.
fn shortlist(classes: ClassSet, features: &FeatureVector, ncols: usize) -> Vec<KernelSpec> {
    let menu = menu(ncols);
    let mut specs = vec![micro::baseline(), KernelSpec::csr(InnerLoop::Unrolled)];
    for opt in OptimizationPool::default().to_variant(classes, features).iter() {
        for spec in family(opt, &menu) {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
    }
    specs
}

/// Builds, warms and times `spec` best-of-`reps` on the warm pool:
/// (GFLOP/s, preprocessing seconds).
pub fn measure(a: &Csr, spec: KernelSpec, nthreads: usize, reps: usize) -> (f64, f64) {
    let x = vec![1.0f64; a.ncols()];
    let mut y = vec![0.0f64; a.nrows()];
    let built = build_kernel(a, spec, nthreads);
    built.kernel.run(&x, &mut y); // warm-up
    let (secs, _) = built.kernel.run_repeated(&x, &mut y, reps.max(1));
    (built.kernel.gflops(secs, a.nnz()), built.prep_seconds)
}

/// Runs the menu search for `a` on `nthreads` threads: classifies the
/// matrix with the host micro-benchmarks (best-of-`reps`), then times
/// its `shortlist` best-of-`reps` on the warm pool. Returns the
/// winning plan and the decision trace. Does not consult or fill the
/// plan cache — use [`search_or_cached`] for the amortizing entry
/// point.
pub fn search(
    a: &Csr,
    machine: &MachineModel,
    nthreads: usize,
    reps: usize,
) -> (KernelPlan, MenuTrace) {
    let t_search = Instant::now();
    let (bounds, _) = HostSource::new(machine.clone(), nthreads, reps).collect_with_spans(a);
    let classes = ProfileClassifier::default().classify(&bounds);
    let features = FeatureVector::extract(a, machine.llc_bytes(), machine.line_elems());

    let mut timed = Vec::new();
    let mut spans = SpanSet::new();
    let mut best: Option<(f64, KernelSpec, f64)> = None; // (gflops, spec, prep)
    for spec in shortlist(classes, &features, a.ncols()) {
        let (gflops, prep) =
            spans.time(&format!("menu:{}", spec.id()), || measure(a, spec, nthreads, reps));
        timed.push(TimedCandidate { spec, gflops });
        if best.as_ref().is_none_or(|(b, _, _)| gflops > *b) {
            best = Some((gflops, spec, prep));
        }
    }
    spmv_telemetry::metrics::profiling_runs().add(spans.total_seconds("menu:"));

    let (gflops, spec, prep_seconds) = best.expect("the shortlist is never empty");
    let search_seconds = t_search.elapsed().as_secs_f64();
    let winner = spec.id();
    spmv_telemetry::metrics::menu_selection().record_search(&winner);
    let plan = KernelPlan {
        spec,
        gflops,
        prep_seconds,
        search_seconds,
        cached: false,
        classes,
        timed: timed.len(),
    };
    let trace =
        MenuTrace { classes, timed, winner, winner_gflops: gflops, search_seconds, cached: false };
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
        // The baseline and the unrolled loop are always timed first.
        assert_eq!(trace.timed[0].spec, micro::baseline());
        assert_eq!(trace.timed[1].spec, KernelSpec::csr(InnerLoop::Unrolled));
        assert_eq!(plan.timed, trace.timed.len());
        assert_eq!(plan.classes, trace.classes);
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
        assert_eq!((second.classes, second.timed), (first.classes, first.timed));
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
    fn same_row_lengths_with_other_columns_miss_the_plan_cache() {
        // Identical rowptr, permuted colind: the identity and the
        // anti-diagonal permutation matrix.
        let n = 1_000;
        let a = Csr::identity(n);
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        let b = Csr::from_raw(n, n, a.rowptr().to_vec(), reversed, vec![1.0; n]).unwrap();
        assert_eq!(a.rowptr(), b.rowptr());
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let m = MachineModel::host();
        let _ = search_or_cached(&a, &m, 3, 1);
        let (plan, trace) = search_or_cached(&b, &m, 3, 1);
        assert!(!plan.cached && !trace.cached, "b must be searched, not served a's plan");
    }

    #[test]
    fn trace_serializes_and_renders() {
        let a = gen::banded(2_000, 6, 1.0, 5).unwrap();
        let (_, trace) = search(&a, &MachineModel::host(), 1, 1);
        let json = trace.to_json().render();
        for key in ["classes", "timed", "winner", "search_seconds", "cached"] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
        let text = trace.render_text();
        assert!(text.contains(&format!("menu search: classes {}", trace.classes)), "{text}");
        assert!(text.contains("winner:"), "{text}");
        assert!(text.contains("<- winner"), "{text}");
    }

    fn ids(specs: &[KernelSpec]) -> Vec<String> {
        specs.iter().map(KernelSpec::id).collect()
    }

    #[test]
    fn shortlist_times_the_class_treatments_only() {
        use crate::class::Bottleneck::{CMP, IMB, MB, ML};
        let a = gen::banded(2_000, 4, 1.0, 3).unwrap();
        let f = FeatureVector::extract(&a, 30 << 20, 8);
        let n = a.ncols();
        let list = |classes: &[crate::Bottleneck]| ids(&shortlist(ClassSet::of(classes), &f, n));
        // The always-timed pair, then the named specs, then `rest`.
        let expect = |named: &[&str], rest: &[String]| -> Vec<String> {
            let named = named.iter().map(|s| s.to_string());
            ["csr/scalar4-a1", "csr/unrolled"]
                .map(String::from)
                .into_iter()
                .chain(named)
                .chain(rest.iter().cloned())
                .collect()
        };
        let simd = ids(&family(Optimization::Vectorize, &menu(n)))[1..].to_vec();
        assert_eq!(list(&[]), expect(&[], &[]));
        assert_eq!(list(&[CMP]), expect(&[], &simd));
        assert_eq!(list(&[MB]), [expect(&[], &simd), vec!["delta".to_string()]].concat());
        assert_eq!(list(&[ML]), expect(&["csr/prefetch"], &[]));
        // A banded matrix has no long rows: IMB takes guided scheduling.
        assert_eq!(list(&[IMB]), expect(&["csr/guided"], &[]));
        // Every listed spec is distinct, even when classes overlap.
        let mut all = list(&[MB, ML, IMB, CMP]);
        let len = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), len);
    }

    #[test]
    fn shortlist_decomposes_long_rows() {
        let a = gen::circuit(5_000, 3, 0.5, 4, 3).unwrap();
        let f = FeatureVector::extract(&a, 30 << 20, 8);
        assert!(f.nnz_max > 16.0 * f.nnz_avg, "fixture needs dense rows");
        let specs = shortlist(ClassSet::of(&[crate::Bottleneck::IMB]), &f, a.ncols());
        assert_eq!(ids(&specs), ["csr/scalar4-a1", "csr/unrolled", "decomposed"]);
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
