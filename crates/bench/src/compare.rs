//! Trajectory comparison: the perf-regression gate over two
//! `BENCH_spmv.json` documents.
//!
//! `compare` walks the old document and checks every performance
//! metric against its counterpart in the new one, with per-metric
//! noise thresholds:
//!
//! * **simulated GFLOP/s** (per matrix / platform / variant) and the
//!   **modeled preparation cost** are deterministic model outputs, so
//!   their tolerance ([`CompareOptions::sim_tol`]) is tight — any real
//!   drop is a model regression, not noise;
//! * **host-measured GFLOP/s** carry machine noise, so their
//!   tolerance ([`CompareOptions::host_tol`]) is loose, and CI runs
//!   `--sim-only` to skip them entirely on shared runners;
//! * a matrix present in the old trajectory but missing from the new
//!   one is lost coverage and always gates.
//!
//! Changed variant *selections* (the classifier picking a different
//! optimization) are reported as notes, not regressions — they are
//! intentional behavior changes that the gflops metrics already
//! price in.
//!
//! Exposed through `cargo xtask bench --compare old.json new.json`
//! (the `bench_compare` binary), which exits non-zero on regression.

use spmv_telemetry::JsonValue;

use crate::table::Table;
use crate::trajectory::check_schema;

/// Noise thresholds and scope for one comparison.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Tolerated relative drop on simulated metrics (default 0.5%).
    pub sim_tol: f64,
    /// Tolerated relative drop on host-measured metrics (default 25%:
    /// shared runners time-share cores, so wall-clock noise is large).
    pub host_tol: f64,
    /// Skip host-measured metrics entirely (CI default).
    pub sim_only: bool,
}

impl Default for CompareOptions {
    fn default() -> CompareOptions {
        CompareOptions { sim_tol: 0.005, host_tol: 0.25, sim_only: false }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Human-readable metric path, e.g. `sim gflops consph/KNC/csr`.
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// Whether the change exceeds the metric's noise threshold in the
    /// bad direction.
    pub regressed: bool,
}

impl Delta {
    /// Relative change in percent (positive = increased).
    pub fn change_pct(&self) -> f64 {
        if self.old == 0.0 {
            0.0
        } else {
            (self.new - self.old) / self.old * 100.0
        }
    }
}

/// The outcome of one comparison.
#[derive(Debug, Default)]
pub struct CompareReport {
    /// Every metric compared.
    pub deltas: Vec<Delta>,
    /// Non-gating observations (shape changes, new matrices, changed
    /// variant selections).
    pub notes: Vec<String>,
    /// A matrix/platform present before is missing now.
    pub coverage_lost: bool,
}

impl CompareReport {
    /// Whether the gate should fail.
    pub fn regressed(&self) -> bool {
        self.coverage_lost || self.deltas.iter().any(|d| d.regressed)
    }

    /// The regressed subset of [`deltas`](CompareReport::deltas).
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Renders the verdict: a summary line, the regression table (if
    /// any), the worst movers, and the notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let regressions = self.regressions();
        out.push_str(&format!(
            "trajectory compare: {} metrics, {} regression(s){}\n",
            self.deltas.len(),
            regressions.len(),
            if self.coverage_lost { ", coverage LOST" } else { "" },
        ));
        if !regressions.is_empty() {
            let mut t = Table::new("regressions", &["metric", "old", "new", "change %"]);
            for d in &regressions {
                t.row(vec![
                    d.metric.clone(),
                    format!("{:.4}", d.old),
                    format!("{:.4}", d.new),
                    format!("{:+.2}", d.change_pct()),
                ]);
            }
            out.push_str(&t.render());
        } else if !self.deltas.is_empty() {
            // Context even on success: the largest movements, so a
            // green gate still shows where the trajectory is drifting.
            let mut sorted: Vec<&Delta> = self.deltas.iter().collect();
            sorted.sort_by(|a, b| {
                b.change_pct()
                    .abs()
                    .partial_cmp(&a.change_pct().abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut t = Table::new("largest movers", &["metric", "old", "new", "change %"]);
            for d in sorted.iter().take(5) {
                t.row(vec![
                    d.metric.clone(),
                    format!("{:.4}", d.old),
                    format!("{:.4}", d.new),
                    format!("{:+.2}", d.change_pct()),
                ]);
            }
            out.push_str(&t.render());
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_array).unwrap_or(&[])
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Compares two schema-checked trajectory documents.
pub fn compare(
    old: &JsonValue,
    new: &JsonValue,
    opts: &CompareOptions,
) -> Result<CompareReport, String> {
    check_schema(old).map_err(|e| format!("old trajectory: {e}"))?;
    check_schema(new).map_err(|e| format!("new trajectory: {e}"))?;

    let mut report = CompareReport::default();
    let new_matrices = arr(new, "matrices");

    for old_m in arr(old, "matrices") {
        let name = text(old_m, "name");
        let Some(new_m) = new_matrices.iter().find(|m| text(m, "name") == name) else {
            report.coverage_lost = true;
            report.notes.push(format!("matrix {name:?} disappeared from the trajectory"));
            continue;
        };
        compare_platforms(name, old_m, new_m, opts, &mut report);
        if !opts.sim_only {
            compare_host(name, old_m, new_m, opts, &mut report);
        }
    }
    for new_m in new_matrices {
        let name = text(new_m, "name");
        if !arr(old, "matrices").iter().any(|m| text(m, "name") == name) {
            report.notes.push(format!("matrix {name:?} is new in this trajectory"));
        }
    }
    Ok(report)
}

/// Simulated per-platform metrics: variant GFLOP/s (higher is better)
/// and the modeled preparation cost (lower is better).
fn compare_platforms(
    matrix: &str,
    old_m: &JsonValue,
    new_m: &JsonValue,
    opts: &CompareOptions,
    report: &mut CompareReport,
) {
    let new_plats = arr(new_m, "platforms");
    for old_p in arr(old_m, "platforms") {
        let plat = text(old_p, "platform");
        let Some(new_p) = new_plats.iter().find(|p| text(p, "platform") == plat) else {
            report.coverage_lost = true;
            report.notes.push(format!("platform {plat:?} disappeared for matrix {matrix:?}"));
            continue;
        };
        let (old_sel, new_sel) = (text(old_p, "selected_variant"), text(new_p, "selected_variant"));
        if old_sel != new_sel {
            report
                .notes
                .push(format!("{matrix}/{plat}: selected variant changed {old_sel} -> {new_sel}"));
        }
        if let (Some(o), Some(n)) =
            (num(old_p, "prep_seconds_model"), num(new_p, "prep_seconds_model"))
        {
            report.deltas.push(Delta {
                metric: format!("sim prep_seconds {matrix}/{plat}"),
                old: o,
                new: n,
                // Lower is better: gate on increases beyond tolerance.
                regressed: n > o * (1.0 + opts.sim_tol),
            });
        }
        // Variant arrays are emitted in a deterministic order; compare
        // positionally and only where the variant labels still agree
        // (the trailing class-mapped entry legitimately changes name
        // when the classifier's selection changes).
        for (old_v, new_v) in arr(old_p, "variants").iter().zip(arr(new_p, "variants")) {
            let label = text(old_v, "variant");
            if label != text(new_v, "variant") {
                continue;
            }
            if let (Some(o), Some(n)) = (num(old_v, "gflops"), num(new_v, "gflops")) {
                report.deltas.push(Delta {
                    metric: format!("sim gflops {matrix}/{plat}/{label}"),
                    old: o,
                    new: n,
                    regressed: n < o * (1.0 - opts.sim_tol),
                });
            }
        }
    }
}

/// Host-measured per-variant GFLOP/s, with the loose noise threshold.
fn compare_host(
    matrix: &str,
    old_m: &JsonValue,
    new_m: &JsonValue,
    opts: &CompareOptions,
    report: &mut CompareReport,
) {
    let (Some(old_h), Some(new_h)) = (old_m.get("host"), new_m.get("host")) else {
        return;
    };
    for (old_v, new_v) in arr(old_h, "variants").iter().zip(arr(new_h, "variants")) {
        let label = text(old_v, "variant");
        if label != text(new_v, "variant") {
            report.notes.push(format!(
                "{matrix}: host variant list changed ({} -> {})",
                label,
                text(new_v, "variant")
            ));
            continue;
        }
        if let (Some(o), Some(n)) = (num(old_v, "gflops"), num(new_v, "gflops")) {
            report.deltas.push(Delta {
                metric: format!("host gflops {matrix}/{label}"),
                old: o,
                new: n,
                regressed: n < o * (1.0 - opts.host_tol),
            });
        }
    }
    // The menu-search decision: a different selected microkernel is an
    // intentional re-tune (hardware or menu changed), so it is a note;
    // only the measured throughput gates, with the host threshold.
    if let (Some(old_menu), Some(new_menu)) = (old_h.get("menu"), new_h.get("menu")) {
        let (old_sel, new_sel) = (text(old_menu, "selected"), text(new_menu, "selected"));
        if old_sel != new_sel {
            report.notes.push(format!("{matrix}: menu selection changed {old_sel} -> {new_sel}"));
        }
        if let (Some(o), Some(n)) = (num(old_menu, "gflops"), num(new_menu, "gflops")) {
            report.deltas.push(Delta {
                metric: format!("host menu gflops {matrix}"),
                old: o,
                new: n,
                regressed: n < o * (1.0 - opts.host_tol),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::SCHEMA;

    /// A minimal one-matrix trajectory with the given simulated and
    /// host GFLOP/s; the host menu section selects `csr/avx2-a2` at
    /// 1.5× the baseline host throughput.
    fn traj(sim_gflops: f64, host_gflops: f64, selected: &str) -> JsonValue {
        traj_with_menu(sim_gflops, host_gflops, selected, "csr/avx2-a2", host_gflops * 1.5)
    }

    fn traj_with_menu(
        sim_gflops: f64,
        host_gflops: f64,
        selected: &str,
        menu_selected: &str,
        menu_gflops: f64,
    ) -> JsonValue {
        let platform = JsonValue::obj()
            .with("platform", "KNC")
            .with("selected_variant", selected)
            .with("prep_seconds_model", 0.5)
            .with(
                "variants",
                JsonValue::Arr(vec![
                    JsonValue::obj().with("variant", "baseline").with("gflops", sim_gflops),
                    JsonValue::obj().with("variant", selected).with("gflops", sim_gflops * 1.2),
                ]),
            );
        let host = JsonValue::obj()
            .with("nthreads", 1u64)
            .with(
                "variants",
                JsonValue::Arr(vec![JsonValue::obj()
                    .with("variant", "baseline")
                    .with("gflops", host_gflops)]),
            )
            .with(
                "menu",
                JsonValue::obj()
                    .with("selected", menu_selected)
                    .with("gflops", menu_gflops)
                    .with("search_seconds", 0.01),
            );
        JsonValue::obj().with("schema", SCHEMA).with("scale", 0.05).with("nthreads", 1u64).with(
            "matrices",
            JsonValue::Arr(vec![JsonValue::obj()
                .with("name", "m1")
                .with("platforms", JsonValue::Arr(vec![platform]))
                .with("host", host)]),
        )
    }

    #[test]
    fn identical_trajectories_pass() {
        let doc = traj(10.0, 5.0, "inner-vect");
        let report = compare(&doc, &doc, &CompareOptions::default()).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
        assert!(!report.deltas.is_empty());
        assert!(report.render().contains("0 regression(s)"));
    }

    #[test]
    fn degraded_sim_gflops_gate() {
        let old = traj(10.0, 5.0, "inner-vect");
        let new = traj(9.0, 5.0, "inner-vect");
        let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
        assert!(report.regressed());
        let regs = report.regressions();
        assert!(regs.iter().any(|d| d.metric.contains("sim gflops m1/KNC/baseline")));
        assert!(report.render().contains("sim gflops m1/KNC/baseline"), "{}", report.render());
    }

    #[test]
    fn sim_noise_within_tolerance_passes() {
        let old = traj(10.0, 5.0, "inner-vect");
        let new = traj(9.96, 5.0, "inner-vect"); // -0.4% < 0.5% tol
        let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn host_noise_uses_loose_threshold_and_sim_only_skips_it() {
        let old = traj(10.0, 5.0, "inner-vect");
        let new = traj(10.0, 4.0, "inner-vect"); // -20%: inside host_tol
        let opts = CompareOptions::default();
        assert!(!compare(&old, &new, &opts).expect("compare").regressed());

        let bad = traj(10.0, 3.0, "inner-vect"); // -40%: beyond host_tol
        assert!(compare(&old, &bad, &opts).expect("compare").regressed());

        let sim_only = CompareOptions { sim_only: true, ..opts };
        let report = compare(&old, &bad, &sim_only).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.deltas.iter().all(|d| !d.metric.starts_with("host")));
    }

    #[test]
    fn missing_matrix_is_lost_coverage() {
        let old = traj(10.0, 5.0, "inner-vect");
        let new = JsonValue::obj().with("schema", SCHEMA).with("matrices", JsonValue::Arr(vec![]));
        let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
        assert!(report.coverage_lost && report.regressed());
        assert!(report.notes.iter().any(|n| n.contains("disappeared")));
    }

    #[test]
    fn changed_selection_is_a_note_not_a_regression() {
        let old = traj(10.0, 5.0, "inner-vect");
        let new = traj(10.0, 5.0, "hugepages");
        let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.notes.iter().any(|n| n.contains("selected variant changed")));
    }

    #[test]
    fn changed_menu_selection_is_a_note_not_a_regression() {
        let old = traj_with_menu(10.0, 5.0, "inner-vect", "csr/avx2-a2", 7.5);
        let new = traj_with_menu(10.0, 5.0, "inner-vect", "csr/avx512-a4", 7.6);
        let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
        assert!(!report.regressed(), "{}", report.render());
        assert!(
            report.notes.iter().any(|n| n.contains("menu selection changed")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn degraded_menu_gflops_gate_with_host_threshold() {
        let old = traj_with_menu(10.0, 5.0, "inner-vect", "csr/avx2-a2", 10.0);
        // -20%: within the loose host threshold.
        let noisy = traj_with_menu(10.0, 5.0, "inner-vect", "csr/avx2-a2", 8.0);
        let opts = CompareOptions::default();
        assert!(!compare(&old, &noisy, &opts).expect("compare").regressed());
        // -40%: a genuine menu regression.
        let bad = traj_with_menu(10.0, 5.0, "inner-vect", "csr/avx2-a2", 6.0);
        let report = compare(&old, &bad, &opts).expect("compare");
        assert!(report.regressed());
        assert!(report.regressions().iter().any(|d| d.metric.contains("host menu gflops")));
        // --sim-only skips the menu metrics with the rest of host.
        let sim_only = CompareOptions { sim_only: true, ..opts };
        assert!(!compare(&old, &bad, &sim_only).expect("compare").regressed());
    }

    #[test]
    fn menu_sections_with_other_keys_compare() {
        // A baseline written before the shortlist (with
        // `bound_pruned`) against one written after it (with
        // `classes` and `regret`): only the shared metrics compare.
        let doc = traj_with_menu(10.0, 5.0, "inner-vect", "csr/avx2-a2", 7.5).render();
        let anchor = "\"search_seconds\":0.01";
        let with = |extra: &str| {
            let text = doc.replace(anchor, &format!("{anchor},{extra}"));
            assert_ne!(text, doc, "menu section not found");
            JsonValue::parse(&text).expect("valid JSON")
        };
        let new = with("\"classes\":\"{MB}\",\"candidates\":13,\"timed\":6,\"regret\":1.01");
        for old in [
            with("\"cached\":false,\"candidates\":13,\"bound_pruned\":0,\"timed\":13"),
            // A baseline from before the plan cache went still
            // carries `cached`.
            with("\"cached\":false,\"classes\":\"{MB}\",\"candidates\":13,\"timed\":6"),
        ] {
            let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
            assert!(!report.regressed(), "{}", report.render());
            assert!(report.deltas.iter().any(|d| d.metric == "host menu gflops m1"));
        }
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let good = traj(10.0, 5.0, "inner-vect");
        let bad = JsonValue::obj().with("schema", "other/1");
        let err = compare(&good, &bad, &CompareOptions::default()).unwrap_err();
        assert!(err.contains("new trajectory"), "{err}");
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn regressed_prep_model_gates() {
        let old = traj(10.0, 5.0, "inner-vect");
        let mut new = traj(10.0, 5.0, "inner-vect");
        // Inflate the modeled prep cost by 10%.
        let rendered =
            new.render().replace("\"prep_seconds_model\":0.5", "\"prep_seconds_model\":0.55");
        new = JsonValue::parse(&rendered).expect("reparse");
        let report = compare(&old, &new, &CompareOptions::default()).expect("compare");
        assert!(report.regressed());
        assert!(report.regressions().iter().any(|d| d.metric.contains("prep_seconds")));
    }
}
