//! Microkernel menu search: the one way the tuner turns a matrix into
//! a tuned kernel.
//!
//! The menu ([`spmv_kernels::micro::menu`]) enumerates concrete
//! kernel configurations — explicit-SIMD CSR row kernels, SELL-C-σ
//! slice heights, delta compression. [`search`] picks one *per
//! matrix* under a [`Policy`]. Every policy does the same job (§III-E,
//! §IV-D): classify the matrix, draw candidates from the paper's one
//! class→optimization table ([`OptimizationPool::default`]) and keep
//! one kernel. The policies differ only in the classifier and in the
//! candidate list. The serving policy, [`Policy::Menu`], classifies
//! first and times only the kernels that treat the classes found,
//! because classifying is cheaper than searching (§III):
//!
//! 1. `classify`: the three §III-B micro-benchmarks on the host
//!    ([`HostSource`]) and the Fig. 4 rules ([`ProfileClassifier`]);
//! 2. shortlist (`shortlist`): map the class set through the paper's
//!    mapping and expand each selected optimization to its family of
//!    specs (`family`), next to the scalar CSR baseline and
//!    `csr/unrolled`, which are always timed;
//! 3. build + warm + best-of-reps time the shortlist on the persistent
//!    [`spmv_kernels::ExecEngine`] pool and keep the fastest
//!    (`fastest`, the loop the trivial sweeps share).
//!
//! The search runs once per matrix and hands back the kernel it
//! built: the winner's [`BuiltKernel`], next to one [`KernelPlan`]
//! (class set, every candidate timed, the spec that runs, search
//! time). Its caller owns both: the serving registry keeps the plan
//! in the `RegisteredMatrix` next to the kernel, so the decision is
//! freed with the matrix. `spmvtune explain` renders the plan next to
//! the classifier's decision trace, and every search feeds the
//! process-wide [`spmv_telemetry::metrics::menu_selection`] gauge.

use std::sync::Arc;
use std::time::Instant;

use spmv_kernels::baseline::InnerLoop;
use spmv_kernels::micro::{self, menu};
use spmv_kernels::variant::{
    build_kernel, BuiltKernel, Format, KernelSpec, KernelVariant, Optimization,
};
use spmv_kernels::ThreadTimes;
use spmv_machine::MachineModel;
use spmv_sparse::features::working_set_bytes;
use spmv_sparse::{Csr, FeatureVector, Validated};

use crate::bounds::HostSource;
use crate::class::ClassSet;
use crate::featclf::heuristic_classify;
use crate::pool::OptimizationPool;
use crate::profile::ProfileClassifier;

/// One timed candidate: the spec that ran and its measured
/// best-of-reps GFLOP/s.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedCandidate {
    /// The spec that ran: a format the matrix cannot take is recorded
    /// as its fallback ([`BuiltKernel::spec`]), not as requested.
    pub spec: KernelSpec,
    /// Measured best-of-reps GFLOP/s on the warm pool.
    pub gflops: f64,
}

/// How [`search`] classifies a matrix and which candidates it draws.
/// One value for the serving search and one for each of the paper's
/// optimizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The serving search: host probes classify, then the scalar
    /// baseline, `csr/unrolled` and every spec in the families of
    /// the treatments the classes map to are timed.
    Menu,
    /// Paper `prof`: host probes and the Fig. 4 rules classify, and
    /// the pool's one variant for the classes is built, untimed.
    ProfileGuided,
    /// Paper `feat`: the Table 2 features through
    /// [`heuristic_classify`], a hand-written approximation of the
    /// tree [`crate::featclf::FeatureGuidedClassifier`] fits; the
    /// pool's one variant for the classes is built, untimed.
    FeatureGuided,
    /// The baseline and the 5 single optimizations, timed.
    TrivialSingle,
    /// The baseline and the 15 singles and pairs, timed: the
    /// "perfect optimizer" selection, paid for in full.
    TrivialCombined,
}

/// The tuner's decision for one (matrix, threads) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    /// The spec the selected kernel runs.
    pub spec: KernelSpec,
    /// The bottleneck classes the candidates were drawn from (empty
    /// for the trivial sweeps, which do not classify).
    pub classes: ClassSet,
    /// The candidates, built and timed in search order; `spec` is one
    /// of them. Empty when the policy drew one candidate, which is
    /// built and never timed.
    pub timed: Vec<TimedCandidate>,
    /// Wall-clock seconds of the whole search, classification and the
    /// selected kernel's build included: the one-off `t_pre` that
    /// [`crate::amortize::min_iterations`] charges.
    pub search_seconds: f64,
}

impl KernelPlan {
    /// The winner's best-of-reps GFLOP/s, read from its own timed
    /// entry; 0.0 when nothing was timed.
    pub fn gflops(&self) -> f64 {
        self.timed.iter().find(|t| t.spec == self.spec).map_or(0.0, |t| t.gflops)
    }

    /// Renders the decision as indented text lines for `spmvtune
    /// explain`, mirroring the classifier's rule-trace style.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "menu search: classes {}, {} candidates timed\n",
            self.classes,
            self.timed.len(),
        );
        for t in &self.timed {
            let marker = if t.spec == self.spec { "  <- winner" } else { "" };
            out.push_str(&format!("  timed  {:<16} {:>8.3} GF/s{marker}\n", t.spec.id(), t.gflops));
        }
        out.push_str(&format!(
            "  winner: {} ({:.3} GF/s, search {:.1} ms)\n",
            self.spec.id(),
            self.gflops(),
            self.search_seconds * 1e3
        ));
        out
    }
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
/// the kernel it built, its GFLOP/s and the best run's per-thread
/// times.
pub fn measure(
    a: &Validated<Arc<Csr>>,
    spec: KernelSpec,
    nthreads: usize,
    reps: usize,
) -> (BuiltKernel, f64, ThreadTimes) {
    let x = vec![1.0f64; a.ncols()];
    let mut y = vec![0.0f64; a.nrows()];
    let built = build_kernel(a, spec, nthreads);
    built.kernel.run(&x, &mut y); // warm-up
    let (secs, times) = built.kernel.run_repeated(&x, &mut y, reps.max(1));
    let gflops = built.kernel.gflops(secs, a.nnz());
    (built, gflops, times)
}

/// [`measure`]s each candidate in order and keeps the fastest kernel
/// (on one matrix, the highest GFLOP/s is the shortest time; a tie
/// keeps the earlier candidate): every candidate's timing under the
/// spec it ran, and the winner's kernel.
///
/// # Panics
/// When `candidates` is empty.
fn fastest(
    a: &Validated<Arc<Csr>>,
    candidates: &[KernelSpec],
    nthreads: usize,
    reps: usize,
) -> (Vec<TimedCandidate>, BuiltKernel) {
    let mut timed = Vec::with_capacity(candidates.len());
    let mut best: Option<(f64, BuiltKernel)> = None;
    for &spec in candidates {
        let (built, gflops, _) = measure(a, spec, nthreads, reps);
        timed.push(TimedCandidate { spec: built.spec, gflops });
        if best.as_ref().is_none_or(|(b, _)| gflops > *b) {
            best = Some((gflops, built));
        }
    }
    let (_, built) = best.expect("at least one candidate");
    (timed, built)
}

/// The profile-guided classification of [`Policy::Menu`] and
/// [`Policy::ProfileGuided`]: the three §III-B micro-benchmarks on
/// the host (best-of-`reps` on `nthreads` threads; `machine` supplies
/// the analytic bounds) through the Fig. 4 rules.
fn classify(
    a: &Validated<Arc<Csr>>,
    machine: &MachineModel,
    nthreads: usize,
    reps: usize,
) -> ClassSet {
    let bounds = HostSource::new(machine.clone(), nthreads, reps).collect(a);
    ProfileClassifier::default().classify(&bounds)
}

/// Tunes `a` for `nthreads` threads under `policy`: classifies the
/// matrix (the sweeps do not), extracts its features at most once,
/// lowers the policy's candidates to specs and keeps one kernel. With
/// one candidate it builds that kernel and times nothing, so the
/// plan's `timed` is empty; with more it times them best-of-`reps` on
/// the warm pool and keeps the fastest. Returns the plan and that
/// kernel; the plan records the spec the kernel runs.
pub fn search(
    a: &Validated<Arc<Csr>>,
    policy: Policy,
    machine: &MachineModel,
    nthreads: usize,
    reps: usize,
) -> (KernelPlan, BuiltKernel) {
    let t_search = Instant::now();
    let features = || FeatureVector::extract(a, machine.llc_bytes(), machine.line_elems());
    let pooled = |classes, f: &FeatureVector| {
        vec![KernelSpec::from(OptimizationPool::default().to_variant(classes, f))]
    };
    let sweep = |variants: Vec<KernelVariant>| {
        std::iter::once(KernelVariant::BASELINE).chain(variants).map(KernelSpec::from).collect()
    };
    let (classes, candidates): (ClassSet, Vec<KernelSpec>) = match policy {
        Policy::Menu => {
            let classes = classify(a, machine, nthreads, reps);
            (classes, shortlist(classes, &features(), a.ncols()))
        }
        Policy::ProfileGuided => {
            let classes = classify(a, machine, nthreads, reps);
            (classes, pooled(classes, &features()))
        }
        Policy::FeatureGuided => {
            let f = features();
            let classes = heuristic_classify(&f, machine.total_threads() >= 64);
            (classes, pooled(classes, &f))
        }
        Policy::TrivialSingle => (ClassSet::EMPTY, sweep(KernelVariant::all_singles())),
        Policy::TrivialCombined => (ClassSet::EMPTY, sweep(KernelVariant::singles_and_pairs())),
    };

    let (timed, built) = match candidates[..] {
        [spec] => (Vec::new(), build_kernel(a, spec, nthreads)),
        _ => {
            let t_timing = Instant::now();
            let found = fastest(a, &candidates, nthreads, reps);
            spmv_telemetry::metrics::profiling_runs().add(t_timing.elapsed().as_secs_f64());
            found
        }
    };
    let spec = built.spec;
    let search_seconds = t_search.elapsed().as_secs_f64();
    spmv_telemetry::metrics::menu_selection().record_search(&spec.id());
    (KernelPlan { spec, classes, timed, search_seconds }, built)
}

/// Does nothing: no plan is cached process-wide (each search's
/// caller owns its plan). Kept only because the serving benchmark
/// calls it before each plane it sets up.
pub fn clear_plan_cache() {}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn search_times_baseline_and_picks_a_winner() {
        let a = Validated::new(Arc::new(gen::banded(4_000, 8, 1.0, 3).unwrap())).unwrap();
        let (plan, built) = search(&a, Policy::Menu, &MachineModel::host(), 2, 2);
        // The baseline and the unrolled loop are always timed first.
        assert_eq!(plan.timed[0].spec, micro::baseline());
        assert_eq!(plan.timed[1].spec, KernelSpec::csr(InnerLoop::Unrolled));
        assert!(plan.search_seconds > 0.0);
        // The plan records the spec the returned kernel runs, and the
        // winner's measured throughput is the maximum of the timed set.
        assert_eq!(built.spec, plan.spec);
        let max = plan.timed.iter().map(|t| t.gflops).fold(0.0, f64::max);
        assert!(max > 0.0);
        assert_eq!(plan.gflops(), max);
    }

    #[test]
    fn plan_renders_the_decision() {
        let a = Validated::new(Arc::new(gen::banded(2_000, 6, 1.0, 5).unwrap())).unwrap();
        let (plan, _) = search(&a, Policy::Menu, &MachineModel::host(), 1, 1);
        let text = plan.render_text();
        assert!(text.contains(&format!("menu search: classes {}", plan.classes)), "{text}");
        assert!(text.contains(&format!("winner: {}", plan.spec.id())), "{text}");
        assert_eq!(text.matches("<- winner").count(), 1, "{text}");
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
    fn plan_records_the_spec_that_ran() {
        // The circuit's dense rows put `decomposed` on the IMB
        // shortlist, but at 2 threads none is long enough to split, so
        // it runs, and is timed, as plain scalar CSR.
        let a = Validated::new(Arc::new(gen::circuit(3_000, 3, 0.4, 5, 7).unwrap())).unwrap();
        let decomposed = KernelSpec::of(Format::Decomposed { or_delta: false });
        let (timed, built) = fastest(&a, &[decomposed], 2, 1);
        assert_eq!(timed[0].spec.id(), "csr/scalar");
        assert_eq!(built.spec, timed[0].spec);
        for _ in 0..6 {
            let (plan, built) = search(&a, Policy::Menu, &MachineModel::host(), 2, 1);
            assert_eq!(plan.spec, built.spec);
        }
    }

    fn check_correct(built: &BuiltKernel, a: &Csr) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        built.kernel.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-9, "row {i}: {u} vs {v}");
        }
    }

    #[test]
    fn selected_kernel_computes_correct_product() {
        let a = Validated::new(Arc::new(gen::circuit(2_500, 3, 0.4, 5, 7).unwrap())).unwrap();
        let (_, built) = search(&a, Policy::Menu, &MachineModel::host(), 2, 1);
        check_correct(&built, &a);
    }

    #[test]
    fn feature_guided_optimizes_skewed_matrix_with_decomposition() {
        let a = Validated::new(Arc::new(gen::circuit(30_000, 3, 0.4, 5, 3).unwrap())).unwrap();
        let knl = MachineModel::knl();
        let (plan, built) = search(&a, Policy::FeatureGuided, &knl, 3, 3);
        let f = FeatureVector::extract(&a, knl.llc_bytes(), knl.line_elems());
        let treatment = OptimizationPool::default().to_variant(plan.classes, &f);
        assert!(treatment.contains(Optimization::Decompose), "{treatment}");
        assert!(!plan.classes.is_empty());
        assert!(plan.search_seconds > 0.0);
        // No row is long enough to split at 3 threads, so what runs,
        // and what the plan names, is plain CSR.
        assert_eq!(plan.spec, built.spec);
        assert_eq!(built.spec.format, Format::Csr);
        check_correct(&built, &a);
    }

    #[test]
    fn feature_guided_compresses_regular_matrix() {
        let a = Validated::new(Arc::new(gen::banded(40_000, 40, 0.9, 3).unwrap())).unwrap();
        let knl = MachineModel::knl();
        let (plan, built) = search(&a, Policy::FeatureGuided, &knl, 2, 3);
        let f = FeatureVector::extract(&a, knl.llc_bytes(), knl.line_elems());
        let treatment = OptimizationPool::default().to_variant(plan.classes, &f);
        assert!(treatment.contains(Optimization::Compress), "{treatment}");
        assert_eq!(plan.spec, built.spec);
        assert_eq!(built.spec.format, Format::Delta, "{}", built.spec.id());
        // One candidate: built, never timed.
        assert!(plan.timed.is_empty());
        assert_eq!(plan.gflops(), 0.0);
        check_correct(&built, &a);
    }

    #[test]
    fn profile_guided_produces_correct_kernel() {
        let a = Validated::new(Arc::new(gen::powerlaw(5_000, 8, 2.0, 5).unwrap())).unwrap();
        let (plan, built) = search(&a, Policy::ProfileGuided, &MachineModel::host(), 2, 3);
        assert_eq!(plan.spec, built.spec);
        assert!(plan.timed.is_empty());
        check_correct(&built, &a);
    }

    #[test]
    fn trivial_combined_never_picks_a_broken_kernel() {
        let a = Validated::new(Arc::new(gen::circuit(4_000, 2, 0.3, 5, 7).unwrap())).unwrap();
        let (plan, built) = search(&a, Policy::TrivialCombined, &MachineModel::host(), 2, 3);
        assert_eq!(plan.timed.len(), 16);
        check_correct(&built, &a);
    }

    #[test]
    fn trivial_single_considers_five_variants() {
        let a = Validated::new(Arc::new(gen::banded(2_000, 4, 1.0, 5).unwrap())).unwrap();
        let (plan, built) = search(&a, Policy::TrivialSingle, &MachineModel::host(), 2, 3);
        check_correct(&built, &a);
        // The baseline and the five singles; sweeps report no classes.
        assert_eq!(plan.timed.len(), 6);
        assert!(plan.classes.is_empty());
    }
}
