//! `spmvtune` — command-line front-end to the adaptive SpMV optimizer.
//!
//! ```text
//! spmvtune suite                         list built-in matrix presets
//! spmvtune analyze <INPUT> [--machine M] spy plot + features + bounds + classes
//! spmvtune explain <INPUT> [--machine M] classifier decision trace as a table
//! spmvtune bench   <INPUT>               time every kernel variant on this host
//! spmvtune solve   <INPUT> [--solver S]  tuned iterative solve (cg|bicgstab|gmres)
//!
//! INPUT:  path to a MatrixMarket .mtx file,
//!         preset:NAME[:SCALE]  (a paper-suite preset, e.g. preset:rajat30:0.1)
//! M:      knc | knl | broadwell | host   (default host)
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use spmv_tune::machine::MachineModel;
use spmv_tune::prelude::*;
use spmv_tune::sim::bounds::collect_bounds;
use spmv_tune::sim::cost::CostModel;
use spmv_tune::sim::profile::MatrixProfile;
use spmv_tune::sparse::gen::suite::{suite_by_name, SUITE};
use spmv_tune::sparse::spy::spy;
use spmv_tune::tuner::profile::ProfileClassifier;
use spmv_tune::tuner::OptimizationPool;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "suite" => cmd_suite(),
        "analyze" => cmd_analyze(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "solve" => cmd_solve(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:
  spmvtune suite
  spmvtune analyze <INPUT> [--machine knc|knl|broadwell|host]
  spmvtune explain <INPUT> [--machine knc|knl|broadwell|host]
  spmvtune bench   <INPUT>
  spmvtune solve   <INPUT> [--solver cg|bicgstab|gmres]

INPUT is a MatrixMarket file path or preset:NAME[:SCALE]
(run `spmvtune suite` for preset names)"
}

/// Parses `--flag value` style options out of an argument list.
fn option<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
}

fn parse_machine(args: &[String]) -> Result<MachineModel, String> {
    match option(args, "--machine").unwrap_or("host") {
        "knc" => Ok(MachineModel::knc()),
        "knl" => Ok(MachineModel::knl()),
        "broadwell" | "bdw" => Ok(MachineModel::broadwell()),
        "host" => Ok(MachineModel::host()),
        other => Err(format!("unknown machine {other:?}")),
    }
}

fn load_input(args: &[String]) -> Result<(String, Validated<Arc<Csr>>), String> {
    let Some(input) = args.first() else {
        return Err("missing INPUT argument".into());
    };
    let (name, m) = if let Some(rest) = input.strip_prefix("preset:") {
        let mut parts = rest.split(':');
        let name = parts.next().unwrap_or_default();
        let scale: f64 = match parts.next() {
            Some(s) => s.parse().map_err(|_| format!("bad preset scale {s:?}"))?,
            None => 0.25,
        };
        let preset = suite_by_name(name)
            .ok_or_else(|| format!("unknown preset {name:?} (see `spmvtune suite`)"))?;
        let m = preset.generate(scale).map_err(|e| e.to_string())?;
        (format!("{name} (scale {scale})"), m)
    } else {
        let m = spmv_tune::sparse::mm::read_csr_file(input).map_err(|e| e.to_string())?;
        (input.clone(), m)
    };
    let a = Validated::new(Arc::new(m)).map_err(|e| e.to_string())?;
    Ok((name, a))
}

fn cmd_suite() -> Result<(), String> {
    println!("{:<18} {:>10} {:>12}  archetype", "preset", "paper N", "paper NNZ");
    for m in SUITE {
        println!("{:<18} {:>10} {:>12}  {:?}", m.name, m.paper_n, m.paper_nnz, m.archetype);
    }
    println!("\nuse as: spmvtune analyze preset:NAME[:SCALE]");
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let (name, a) = load_input(args)?;
    let machine = parse_machine(args)?;
    println!("matrix {name}: {} x {}, {} nonzeros", a.nrows(), a.ncols(), a.nnz());
    println!("{}", spy(&a, 60, 24));

    let fv = FeatureVector::extract(&a, machine.llc_bytes(), machine.line_elems());
    println!("structural features (paper Table 2):");
    println!(
        "  nnz/row: min {} max {} avg {:.1} sd {:.1}",
        fv.nnz_min, fv.nnz_max, fv.nnz_avg, fv.nnz_sd
    );
    println!("  bandwidth: avg {:.1} sd {:.1}", fv.bw_avg, fv.bw_sd);
    println!(
        "  scatter avg {:.3}, clustering avg {:.3}, misses avg {:.2}",
        fv.scatter_avg, fv.clustering_avg, fv.misses_avg
    );
    println!(
        "  working set {} LLC of {}",
        if fv.size_fits_llc > 0.5 { "fits" } else { "exceeds" },
        machine.name
    );

    let model = CostModel::new(machine.clone());
    let profile = MatrixProfile::analyze(&a, &machine);
    let bounds = collect_bounds(&model, &profile);
    println!("\nsimulated bounds on {} (GFLOP/s): {}", machine.name, bounds.summary());

    let classes = ProfileClassifier::default().classify(&bounds);
    let variant = OptimizationPool::default().to_variant(classes, &fv);
    println!("bottleneck classes: {classes}");
    println!("selected optimizations: {variant}");
    Ok(())
}

/// Renders the profile-guided classifier's decision trace for one
/// matrix as a human-readable table: every measured bound, every
/// Fig. 4 rule with the ratio it computed and the threshold it was
/// compared against, and whether the rule fired.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let (name, a) = load_input(args)?;
    let machine = parse_machine(args)?;
    let fv = FeatureVector::extract(&a, machine.llc_bytes(), machine.line_elems());
    let model = CostModel::new(machine.clone());
    let profile = MatrixProfile::analyze(&a, &machine);
    let b = collect_bounds(&model, &profile);
    let clf = ProfileClassifier::default();
    let (classes, trace) = clf.classify_traced(&b);
    let t = clf.thresholds;

    println!("classifier decision trace for {name} on {}", machine.name);
    println!("\nmeasured bounds (GFLOP/s):");
    let rows = [
        ("P_CSR", b.p_csr, "baseline parallel CSR"),
        ("P_MB", b.p_mb, "memory-bandwidth bound"),
        ("P_ML", b.p_ml, "memory-latency bound (regularised x accesses)"),
        ("P_IMB", b.p_imb, "load-balance bound (median-thread time)"),
        ("P_CMP", b.p_cmp, "computation bound"),
        ("P_PEAK", b.p_peak, "machine peak"),
    ];
    for (label, value, meaning) in rows {
        println!("  {label:<7} {value:>9.2}   {meaning}");
    }

    // Pull the ratios from the classify_traced decision trace so this
    // output shows exactly what the classifier compared, not a
    // recomputation that could drift from it.
    let ratio = |key: &str| {
        trace
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("decision trace is missing {key:?}"))
    };
    let ml_ratio = ratio("ml_ratio")?;
    let imb_ratio = ratio("imb_ratio")?;
    let fired = |yes: bool| if yes { "FIRED" } else { "-" };

    let mb_saturated = b.p_csr >= t.mb_approx * b.p_mb;
    let mb_window = b.p_mb < b.p_cmp && b.p_cmp < b.p_peak;
    println!("\nrules (paper Fig. 4; T_ML = {}, T_IMB = {}):", t.t_ml, t.t_imb);
    println!("  {:<5} {:<32} {:>18} {:>11}   fired", "class", "condition", "measured", "threshold");
    println!(
        "  {:<5} {:<32} {:>18.3} {:>11}   {}",
        "IMB",
        "P_IMB / P_CSR > T_IMB",
        imb_ratio,
        format!("> {}", t.t_imb),
        fired(classes.contains(Bottleneck::IMB)),
    );
    println!(
        "  {:<5} {:<32} {:>18.3} {:>11}   {}",
        "ML",
        "P_ML / P_CSR > T_ML",
        ml_ratio,
        format!("> {}", t.t_ml),
        fired(classes.contains(Bottleneck::ML)),
    );
    println!(
        "  {:<5} {:<32} {:>18} {:>11}   {}",
        "MB",
        "P_CSR >= mb_approx * P_MB",
        format!("{:.2} vs {:.2}", b.p_csr, t.mb_approx * b.p_mb),
        format!("sat: {}", if mb_saturated { "yes" } else { "no" }),
        fired(classes.contains(Bottleneck::MB)),
    );
    println!(
        "  {:<5} {:<32} {:>18} {:>11}",
        "",
        "  and P_MB < P_CMP < P_PEAK",
        format!("{:.1} / {:.1} / {:.1}", b.p_mb, b.p_cmp, b.p_peak),
        format!("win: {}", if mb_window { "yes" } else { "no" }),
    );
    println!(
        "  {:<5} {:<32} {:>18} {:>11}   {}",
        "CMP",
        "P_MB > P_CMP or P_CMP > P_PEAK",
        format!("{:.1} / {:.1} / {:.1}", b.p_mb, b.p_cmp, b.p_peak),
        "see cond",
        fired(classes.contains(Bottleneck::CMP)),
    );

    let traced_classes = trace.get("classes").and_then(|v| v.as_str()).unwrap_or("?");
    println!("\nbottleneck classes: {traced_classes}");
    println!("selected optimizations: {}", OptimizationPool::default().to_variant(classes, &fv));

    // Microkernel menu search (DESIGN.md §11): which kernel the
    // auto-tuner picks for this matrix — the bottleneck classes
    // measured on this host's thread pool (analytic bounds from the
    // selected machine model) pick the shortlist, which is timed.
    let nthreads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let (plan, _) = spmv_tune::tuner::menu::search(&a, &machine, nthreads, 3);
    println!("\nmicrokernel menu for {name} ({nthreads} threads):");
    print!("{}", plan.render_text());
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    use spmv_tune::kernels::variant::KernelVariant;
    let (name, a) = load_input(args)?;
    let nthreads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!("benchmarking {name} on this host ({nthreads} threads), 10 reps each:");
    let mut variants = vec![KernelVariant::BASELINE];
    variants.extend(KernelVariant::singles_and_pairs());
    let mut best = (KernelVariant::BASELINE, 0.0f64);
    for v in variants {
        let (built, gf, _) = spmv_tune::tuner::menu::measure(&a, v.into(), nthreads, 10);
        if gf > best.1 {
            best = (v, gf);
        }
        println!(
            "  {:<24} {:>8.2} GFLOP/s  (prep {:>7.2} ms)",
            v.to_string(),
            gf,
            built.prep_seconds * 1e3
        );
    }
    println!("best: {} at {:.2} GFLOP/s", best.0, best.1);
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    use spmv_tune::solvers::{bicgstab, cg, gmres, Jacobi};
    let (name, a) = load_input(args)?;
    if a.nrows() != a.ncols() {
        return Err("solve requires a square matrix".into());
    }
    let machine = MachineModel::host();
    let tuned = Optimizer::feature_guided(&machine).optimize(&a);
    println!(
        "{name}: classes {}, optimizations {}, setup {:.1} ms",
        tuned.classes(),
        tuned.variant(),
        tuned.prep_seconds * 1e3
    );
    let n = a.nrows();
    let b = vec![1.0f64; n];
    let mut x = vec![0.0f64; n];
    let m = Jacobi::new(&a);
    let kernel = tuned.kernel();
    let solver = option(args, "--solver").unwrap_or("bicgstab");
    let stats = match solver {
        "cg" => cg(&kernel, &b, &mut x, Some(&m), 1e-8, 10_000),
        "bicgstab" => bicgstab(&kernel, &b, &mut x, Some(&m), 1e-8, 10_000),
        "gmres" => gmres(&kernel, &b, &mut x, Some(&m), 30, 1e-8, 10_000),
        other => return Err(format!("unknown solver {other:?}")),
    };
    println!(
        "{solver}: {} iterations, relative residual {:.2e}, converged: {}",
        stats.iterations, stats.residual, stats.converged
    );
    Ok(())
}
