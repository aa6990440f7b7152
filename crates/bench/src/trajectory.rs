//! Benchmark trajectory: the machine-readable performance record the
//! repo carries from PR to PR (`BENCH_spmv.json` at the repo root).
//!
//! One run sweeps the standard suite and emits, per matrix:
//!
//! * the simulated §III-B bounds, classifier decision trace and
//!   per-variant GFLOP/s on each paper platform (deterministic, so
//!   trajectory diffs isolate model changes from host noise);
//! * host-measured GFLOP/s and preprocessing cost for the baseline
//!   and every single-optimization variant, plus the microkernel
//!   menu search's selected kernel, its throughput, the bottleneck
//!   classes that chose its shortlist, the candidates it timed and
//!   its regret against timing the whole menu;
//!
//! plus a trailing `telemetry` section with the process-wide dispatch
//! / preprocessing / profiling counters accumulated during the run.
//!
//! Invoke via `cargo xtask bench` (writes the file) or run the
//! `bench_trajectory` binary directly.

use std::path::Path;
use std::sync::Arc;

use spmv_kernels::micro::menu;
use spmv_kernels::variant::{build_kernel, KernelSpec, KernelVariant};
use spmv_machine::MachineModel;
use spmv_sparse::{Csr, Validated};
use spmv_telemetry::{metrics, tracer, JsonValue};
use spmv_tuner::menu::{measure, Policy};
use spmv_tuner::profile::ProfileClassifier;
use spmv_tuner::OptimizationPool;

use crate::context::{analyze, load_suite, NamedMatrix, Platform};

/// Schema identifier written into the report; bump on breaking shape
/// changes so downstream diff tooling can refuse mixed comparisons.
pub const SCHEMA: &str = "spmv-bench-trajectory/1";

/// Verifies a parsed trajectory document carries the schema this
/// tooling understands.
pub fn check_schema(doc: &JsonValue) -> Result<(), String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SCHEMA => Ok(()),
        Some(s) => Err(format!(
            "unsupported trajectory schema {s:?}; this tooling reads {SCHEMA:?} — \
             regenerate the file with `cargo xtask bench`"
        )),
        None => Err(format!("missing \"schema\" field; expected a {SCHEMA:?} trajectory")),
    }
}

/// Reads and parses a trajectory file, rejecting unknown schemas with
/// a clear error.
pub fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc =
        JsonValue::parse(&text).map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    check_schema(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

/// Suite scale of `--scale small` (CI smoke runs).
pub const SMALL_SCALE: f64 = 0.05;

/// Repetitions per host-measured kernel (best-of, warm pool).
const HOST_REPS: usize = 3;

/// Resolves the `--scale` argument: `small`, `full`, or an explicit
/// positive float.
pub fn resolve_scale(args: &[String]) -> f64 {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            return match it.next().map(String::as_str) {
                Some("small") => SMALL_SCALE,
                Some("full") | None => 1.0,
                Some(v) => match v.parse::<f64>() {
                    Ok(s) if s > 0.0 => s,
                    _ => {
                        eprintln!("ignoring invalid --scale value {v:?}");
                        1.0
                    }
                },
            };
        }
    }
    1.0
}

/// The variant set measured on the host: baseline plus every
/// single-optimization variant from the paper's pool.
fn host_variants() -> Vec<KernelVariant> {
    let mut v = vec![KernelVariant::BASELINE];
    v.extend(KernelVariant::all_singles());
    v
}

/// Runs the full trajectory at `scale` on `nthreads` host threads and
/// returns the report as a JSON document.
pub fn run(scale: f64, nthreads: usize) -> JsonValue {
    let platforms = Platform::paper_platforms();
    let suite = load_suite(scale);
    let clf = ProfileClassifier::default();

    let mut matrices = Vec::with_capacity(suite.len());
    for nm in &suite {
        matrices.push(matrix_entry(nm, &platforms, &clf, nthreads));
    }

    JsonValue::obj()
        .with("schema", SCHEMA)
        .with("scale", scale)
        .with("nthreads", nthreads)
        .with("matrices", JsonValue::Arr(matrices))
        .with("telemetry", telemetry_section())
}

/// One matrix's record: simulated platforms + host measurements.
fn matrix_entry(
    nm: &NamedMatrix,
    platforms: &[Platform],
    clf: &ProfileClassifier,
    nthreads: usize,
) -> JsonValue {
    let a = &nm.matrix;
    let mut plats = Vec::with_capacity(platforms.len());
    for p in platforms {
        let an = analyze(p, a);
        let (classes, trace) = clf.classify_traced(&an.bounds);
        let variant = OptimizationPool::default().to_variant(classes, &an.features);
        let mut variants = Vec::new();
        for v in host_variants() {
            variants.push(
                JsonValue::obj()
                    .with("variant", v.to_string())
                    .with("gflops", p.gflops(&an.profile, v)),
            );
        }
        // The class-mapped variant (may duplicate a single; kept so
        // diffs show what the paper's optimizer would have run).
        variants.push(
            JsonValue::obj()
                .with("variant", variant.to_string())
                .with("gflops", p.gflops(&an.profile, variant)),
        );
        let b = &an.bounds;
        plats.push(
            JsonValue::obj()
                .with("platform", p.machine.name.as_str())
                .with(
                    "bounds",
                    JsonValue::obj()
                        .with("p_csr", b.p_csr)
                        .with("p_mb", b.p_mb)
                        .with("p_ml", b.p_ml)
                        .with("p_imb", b.p_imb)
                        .with("p_cmp", b.p_cmp)
                        .with("p_peak", b.p_peak),
                )
                .with("classifier", trace)
                .with("selected_variant", variant.to_string())
                .with(
                    "prep_seconds_model",
                    p.prep.profiling_seconds(&p.model, &an.profile)
                        + p.prep.variant_seconds(&an.profile, variant),
                )
                .with("variants", JsonValue::Arr(variants)),
        );
    }

    JsonValue::obj()
        .with("name", nm.name)
        .with("nrows", a.nrows())
        .with("ncols", a.ncols())
        .with("nnz", a.nnz())
        .with("platforms", JsonValue::Arr(plats))
        .with("host", host_entry(nm, nthreads))
}

/// Host-measured GFLOP/s + preprocessing cost per variant.
fn host_entry(nm: &NamedMatrix, nthreads: usize) -> JsonValue {
    let a = &nm.matrix;
    let mut variants = Vec::new();
    let mut classic = Vec::new();
    for v in host_variants() {
        let (built, gflops, times) = measure(a, v.into(), nthreads, HOST_REPS);
        // Every variant's measurement is one more sample of the spec
        // it built (`vec` is `csr/unrolled`; `comp` is `delta` when
        // the deltas encode), for the menu section below.
        classic.push((built.spec, gflops));
        variants.push(
            JsonValue::obj()
                .with("variant", v.to_string())
                .with("kernel", built.kernel.name())
                .with("gflops", gflops)
                .with("prep_seconds", built.prep_seconds)
                .with("effective_bytes_per_nnz", built.kernel.effective_bytes_per_nnz(a.nnz()))
                .with("imbalance", spmv_telemetry::imbalance(&times.seconds)),
        );
    }
    JsonValue::obj()
        .with("nthreads", nthreads)
        .with("variants", JsonValue::Arr(variants))
        .with("menu", menu_entry(nm, nthreads, &classic))
}

/// Rounds of the regret's head-to-head re-measurement.
const HEAD_TO_HEAD_ROUNDS: usize = 5;

/// The tuner's menu-search decision for this matrix, and its regret
/// against timing the whole menu.
///
/// `selected`/`gflops` are the shortlist's best on this host: every
/// candidate the search timed is re-measured with the classic
/// variants' best-of protocol (same process, same warm pool), and the
/// classic variants' measurements of the same kernels count as
/// further samples — the search's single-warm-up timings can misrank
/// near-ties, and `--compare` gates this number against the classic
/// variants'. `regret` is the best of every menu and shortlist
/// candidate ÷ `selected`, all re-measured head to head in the same
/// alternating rounds, so it is at least 1 and a candidate the
/// shortlist dropped that would have won raises it. Scalars only —
/// the candidate lists live in `spmvtune explain`'s trace, and
/// keeping this section list-free keeps the document's key-path
/// structure byte-stable across runs.
fn menu_entry(nm: &NamedMatrix, nthreads: usize, classic: &[(KernelSpec, f64)]) -> JsonValue {
    let a = &nm.matrix;
    let (plan, _) =
        spmv_tuner::menu::search(a, Policy::Menu, &MachineModel::host(), nthreads, HOST_REPS);
    let gflops_of = |spec| measure(a, spec, nthreads, HOST_REPS).1;
    let shortlisted = |spec: &KernelSpec| plan.timed.iter().any(|t| t.spec == *spec);
    let (mut selected, mut gflops) = (plan.spec, plan.gflops());
    let remeasured = plan.timed.iter().map(|t| (t.spec, gflops_of(t.spec)));
    for (spec, gf) in remeasured.chain(classic.iter().copied().filter(|(s, _)| shortlisted(s))) {
        if gf > gflops {
            (selected, gflops) = (spec, gf);
        }
    }

    let candidates = menu(a.ncols());
    let mut rivals = vec![selected];
    for spec in candidates.iter().copied().chain(plan.timed.iter().map(|t| t.spec)) {
        if !rivals.contains(&spec) {
            rivals.push(spec);
        }
    }
    let rival_gflops = head_to_head(a, &rivals, nthreads);
    let regret = rival_gflops.iter().copied().fold(0.0, f64::max) / rival_gflops[0].max(1e-12);
    JsonValue::obj()
        .with("selected", selected.id())
        .with("gflops", gflops)
        .with("search_seconds", plan.search_seconds)
        .with("classes", plan.classes.to_string())
        .with("candidates", candidates.len())
        .with("timed", plan.timed.len())
        .with("regret", regret)
}

/// Best-of GFLOP/s of each spec, measured in alternating rounds so
/// all see the same host conditions.
fn head_to_head(a: &Validated<Arc<Csr>>, specs: &[KernelSpec], nthreads: usize) -> Vec<f64> {
    let built: Vec<_> = specs.iter().map(|&spec| build_kernel(a, spec, nthreads)).collect();
    let x = vec![1.0f64; a.ncols()];
    let mut y = vec![0.0f64; a.nrows()];
    let mut best = vec![0.0f64; specs.len()];
    for _ in 0..HEAD_TO_HEAD_ROUNDS {
        for (b, k) in best.iter_mut().zip(&built) {
            k.kernel.run(&x, &mut y); // warm-up
            let (secs, _) = k.kernel.run_repeated(&x, &mut y, HOST_REPS);
            *b = b.max(k.kernel.gflops(secs, a.nnz()));
        }
    }
    best
}

/// The process-wide counters accumulated while the trajectory ran.
fn telemetry_section() -> JsonValue {
    let prep = metrics::preprocessing();
    let prof = metrics::profiling_runs();
    JsonValue::obj()
        .with("engine_dispatch", metrics::engine_dispatch().snapshot().to_json())
        .with(
            "preprocessing",
            JsonValue::obj().with("count", prep.count()).with("seconds", prep.seconds()),
        )
        .with(
            "profiling_runs",
            JsonValue::obj().with("count", prof.count()).with("seconds", prof.seconds()),
        )
        .with(
            "trace",
            JsonValue::obj()
                .with("events", tracer().recorded())
                .with("dropped", tracer().dropped())
                .with("capacity", tracer().capacity() as u64)
                .with("enabled", tracer().enabled()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_resolution() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(resolve_scale(&args(&["--scale", "small"])), SMALL_SCALE);
        assert_eq!(resolve_scale(&args(&["--scale", "full"])), 1.0);
        assert_eq!(resolve_scale(&args(&["--scale", "0.25"])), 0.25);
        assert_eq!(resolve_scale(&args(&["--scale", "bogus"])), 1.0);
        assert_eq!(resolve_scale(&args(&[])), 1.0);
    }

    #[test]
    fn tiny_trajectory_has_full_schema() {
        // 0.01 keeps this test fast while exercising every code path.
        let report = run(0.01, 2);
        let json = report.render();
        for key in [
            "\"schema\":\"spmv-bench-trajectory/1\"",
            "\"matrices\":",
            "\"bounds\":",
            "\"classifier\":",
            "\"selected_variant\":",
            "\"prep_seconds_model\":",
            "\"host\":",
            "\"prep_seconds\":",
            "\"effective_bytes_per_nnz\":",
            "\"menu\":",
            "\"selected\":",
            "\"search_seconds\":",
            "\"classes\":",
            "\"regret\":",
            "\"telemetry\":",
            "\"engine_dispatch\":",
            "\"profiling_runs\":",
        ] {
            assert!(json.contains(key), "missing {key} in {}", &json[..json.len().min(400)]);
        }
        // Regret compares the selected kernel with a set that holds it.
        for rest in json.split("\"regret\":").skip(1) {
            let end = rest.find([',', '}']).expect("regret is followed by more JSON");
            let regret: f64 = rest[..end].parse().expect("regret is a number");
            assert!(regret >= 1.0, "regret {regret} below 1");
        }
        // 17 suite matrices × (baseline + 5 singles) host variants.
        assert_eq!(json.matches("\"prep_seconds\":").count(), 17 * 6);
        // The run itself drove the pooled engine, so dispatch
        // telemetry must be non-trivial by the time we serialize.
        assert!(metrics::engine_dispatch().snapshot().dispatches > 0);
        // The new trace health counters ride in the telemetry section.
        assert!(json.contains("\"trace\":"), "{json}");
        assert!(json.contains("\"dropped\":"), "{json}");
    }

    #[test]
    fn schema_check_accepts_current_and_rejects_others() {
        let ok = JsonValue::obj().with("schema", SCHEMA);
        assert!(check_schema(&ok).is_ok());

        let future = JsonValue::obj().with("schema", "spmv-bench-trajectory/9");
        let err = check_schema(&future).unwrap_err();
        assert!(err.contains("spmv-bench-trajectory/9"), "{err}");
        assert!(err.contains(SCHEMA), "names the supported schema: {err}");

        let missing = JsonValue::obj().with("scale", 1.0);
        assert!(check_schema(&missing).unwrap_err().contains("missing"));
    }

    #[test]
    fn load_reports_clear_errors() {
        let missing = load(Path::new("/nonexistent/BENCH_spmv.json")).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");

        let dir = std::env::temp_dir();
        let bad_json = dir.join("spmv-trajectory-test-bad.json");
        std::fs::write(&bad_json, "{not json").expect("write fixture");
        let err = load(&bad_json).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");

        let bad_schema = dir.join("spmv-trajectory-test-schema.json");
        std::fs::write(&bad_schema, r#"{"schema":"other/2"}"#).expect("write fixture");
        let err = load(&bad_schema).unwrap_err();
        assert!(err.contains("unsupported trajectory schema"), "{err}");

        let good = dir.join("spmv-trajectory-test-good.json");
        std::fs::write(&good, format!(r#"{{"schema":"{SCHEMA}","matrices":[]}}"#))
            .expect("write fixture");
        let doc = load(&good).expect("valid file loads");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        for f in [bad_json, bad_schema, good] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Every object key path in the document, in serialization order —
    /// the structure a JSON diff sees, minus the (measured, noisy)
    /// leaf values.
    fn key_paths(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
        if let Some(entries) = v.entries() {
            for (k, child) in entries {
                let p = format!("{prefix}.{k}");
                out.push(p.clone());
                key_paths(child, &p, out);
            }
        } else if let Some(arr) = v.as_array() {
            for (i, child) in arr.iter().enumerate() {
                key_paths(child, &format!("{prefix}[{i}]"), out);
            }
        }
    }

    #[test]
    fn trajectory_ordering_is_deterministic_across_runs() {
        let a = run(0.01, 1);
        let b = run(0.01, 1);
        // Structure (map/array ordering) is byte-stable: same key
        // paths in the same order, so diffs touch values only.
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        key_paths(&a, "", &mut pa);
        key_paths(&b, "", &mut pb);
        assert_eq!(pa, pb);
        // The committed trajectory has the shape this writer emits, so
        // `--compare` against it reads every field a fresh run has and
        // no field it has dropped.
        let committed = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spmv.json"))
            .expect("the committed trajectory loads");
        let mut pc = Vec::new();
        key_paths(&committed, "", &mut pc);
        assert_eq!(pc, pa);
        // The simulated sections are fully deterministic — not just
        // ordered the same, but value-identical (this is what lets
        // the compare gate run `--sim-only` without noise thresholds).
        let sim = |doc: &JsonValue| -> Vec<String> {
            doc.get("matrices")
                .and_then(JsonValue::as_array)
                .expect("matrices array")
                .iter()
                .map(|m| m.get("platforms").expect("platforms").render())
                .collect()
        };
        assert_eq!(sim(&a), sim(&b));
    }
}
