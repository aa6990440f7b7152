//! CLI-level coverage of `cargo xtask audit` and `cargo xtask check`:
//! exit codes and the policy/protocol names surfaced on stderr, in
//! the same style as the workspace's `cli_explain` tests.

use std::path::Path;
use std::process::Command;

fn xtask(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask")).args(args).output().expect("spawn xtask")
}

/// Writes a tiny violating "workspace" into a fresh temp directory
/// and returns its path. The file sits under a path the thread-
/// containment policy has no allowlist entry for.
fn violating_tree(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-cli-{tag}-{}", std::process::id()));
    let src = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("create temp tree");
    std::fs::write(src.join("offender.rs"), "fn f() {\n    std::thread::spawn(|| {});\n}\n")
        .expect("write offender");
    dir
}

#[test]
fn audit_clean_tree_exits_zero() {
    let dir = std::env::temp_dir().join(format!("xtask-cli-clean-{}", std::process::id()));
    let src = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("create temp tree");
    std::fs::write(src.join("fine.rs"), "fn f() -> u32 {\n    1\n}\n").expect("write clean file");
    let out = xtask(&["audit", "--root", dir.to_str().expect("utf-8 temp path")]);
    // Exit code 0: clean (part of the documented 0/1/2 contract).
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit OK"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_violations_exit_one_with_policy_on_stderr() {
    let dir = violating_tree("viol");
    let out = xtask(&["audit", "--root", dir.to_str().expect("utf-8 temp path")]);
    // Exit code 1: non-baselined findings.
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("thread-containment"), "policy name missing from stderr: {err}");
    assert!(err.contains("offender.rs"), "{err}");
    assert!(err.contains("audit FAILED"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_internal_errors_exit_two() {
    // Exit code 2: internal/usage error, distinct from "findings".
    let out = xtask(&["audit", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--no-such-flag"), "{err}");

    // An unreadable root is an internal error too, not "clean".
    let out = xtask(&["audit", "--root", "/no/such/root/anywhere"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn audit_json_reports_schema_and_findings() {
    let dir = violating_tree("json");
    let out = xtask(&["audit", "--json", "--root", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = spmv_telemetry::JsonValue::parse(&text).expect("stdout is valid JSON");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("spmv-audit/2"), "{text}");
    let elapsed = doc.get("elapsed_ms").and_then(|v| v.as_f64()).expect("elapsed_ms number");
    assert!(elapsed >= 0.0, "{text}");
    let findings = doc.get("findings").and_then(|v| v.as_array()).expect("findings array");
    assert!(!findings.is_empty());
    let f = &findings[0];
    assert_eq!(f.get("policy").and_then(|v| v.as_str()), Some("thread-containment"));
    assert!(f.get("file").and_then(|v| v.as_str()).expect("file").ends_with("offender.rs"));
    assert!(f.get("line").and_then(|v| v.as_f64()).expect("line") >= 1.0);
    assert!(f.get("key").and_then(|v| v.as_str()).is_some());
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("new").and_then(|v| v.as_f64()), Some(findings.len() as f64));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_annotate_emits_github_error_lines() {
    let dir = violating_tree("annot");
    let out = xtask(&["audit", "--annotate", "--root", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("::error file="), "{text}");
    assert!(text.contains("title=audit thread-containment"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_baseline_suppresses_known_findings() {
    let dir = violating_tree("base");
    // First run, no baseline: exit 1 and the finding prints its key.
    let root = dir.to_str().expect("utf-8 temp path");
    let out = xtask(&["audit", "--root", root]);
    assert_eq!(out.status.code(), Some(1));

    // Baseline the finding (keys are line-number independent) with a
    // justification comment, as the workflow documents.
    let baseline = dir.join("baseline.txt");
    std::fs::write(
        &baseline,
        "# offender.rs spawns for a legacy comparison harness; tracked in #42\n\
         thread-containment|crates/sim/src/offender.rs|f|thread::spawn\n",
    )
    .expect("write baseline");
    let out =
        xtask(&["audit", "--root", root, "--baseline", baseline.to_str().expect("utf-8 path")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 baselined"), "{text}");

    // A stale baseline entry warns but does not fail.
    std::fs::write(
        &baseline,
        "thread-containment|crates/sim/src/offender.rs|f|thread::spawn\n\
         thread-containment|crates/sim/src/gone.rs|g|thread::spawn\n",
    )
    .expect("rewrite baseline");
    let out =
        xtask(&["audit", "--root", root, "--baseline", baseline.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stale"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_real_tree_is_clean() {
    // The shipped tree must satisfy its own audit — the same gate CI
    // runs. Uses the default root (two levels above the manifest).
    let out = xtask(&["audit"]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_single_model_passes() {
    // One protocol keeps the test fast; the full sweep runs in
    // `check_all_protocols` below and in CI.
    let out = xtask(&["check", "--model", "publish"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("check OK: publish"), "{text}");
    assert!(text.contains("all mutants flagged"), "{text}");
}

#[test]
fn check_unknown_model_exits_nonzero() {
    let out = xtask(&["check", "--model", "no-such-protocol"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown model"), "{err}");
    // The error lists what IS available.
    assert!(err.contains("seqlock"), "{err}");
}

#[test]
fn check_demo_mutant_renders_a_trace_and_exits_nonzero() {
    let out = xtask(&["check", "--demo-mutant", "seqlock/relaxed-publish"]);
    assert!(!out.status.success(), "a demo counterexample must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("interleaving"), "no rendered trace on stderr: {err}");
    assert!(err.contains("execution(s)"), "{err}");
}

#[test]
fn check_demo_mutant_rejects_unknown_spec() {
    let out = xtask(&["check", "--demo-mutant", "seqlock/no-such-mutant"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no mutant"), "{err}");
}

#[test]
fn fixtures_directory_matches_the_fixture_table() {
    // Every fixture file referenced by the self-test exists; a rename
    // that orphans one shows up here rather than at audit time.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for name in [
        "clean.rs",
        "missing_safety.rs",
        "relaxed_without_marker.rs",
        "acquire_without_marker.rs",
        "panic_in_hot_path.rs",
        "cast_narrowing.rs",
        "ptr_add_in_unsafe.rs",
        "method_add_safe.rs",
        "flow_unwitnessed.rs",
        "flow_method_unwitnessed.rs",
        "flow_witnessed.rs",
        "flow_witness_marker.rs",
        "flow_panic_reachable.rs",
        "flow_panic_method.rs",
        "flow_panic_marked.rs",
        "flow_alloc_reachable.rs",
        "flow_alloc_in_root.rs",
        "flow_alloc_marked.rs",
        "flow_edge_marker.rs",
        "flow_callgraph_ok.rs",
        "callgraph/lib.rs",
        "callgraph/worker.rs",
        "callgraph/edges.golden",
        "policies.golden",
        "lock_order_cycle.rs",
        "lock_order_chain.rs",
        "lock_order_unmodeled.rs",
        "lock_order_marked.rs",
        "lock_order_hierarchy.rs",
        "blocking_in_hot_path.rs",
        "blocking_reachable.rs",
        "blocking_marked.rs",
        "condvar_wait_no_loop.rs",
        "condvar_lost_wakeup.rs",
        "condvar_second_lock.rs",
        "condvar_disciplined.rs",
        "condvar_marked.rs",
        "lockgraph/scheduler.rs",
        "lockgraph/registry.rs",
    ] {
        assert!(dir.join(name).is_file(), "missing fixture {name}");
    }
}

#[test]
fn audit_strict_fails_on_stale_baseline() {
    let dir = violating_tree("strict");
    let root = dir.to_str().expect("utf-8 temp path");
    let baseline = dir.join("baseline.txt");
    std::fs::write(
        &baseline,
        "thread-containment|crates/sim/src/offender.rs|f|thread::spawn\n\
         thread-containment|crates/sim/src/gone.rs|g|thread::spawn\n",
    )
    .expect("write baseline");
    let bl = baseline.to_str().expect("utf-8 path");
    // Non-strict: the stale entry only warns (pinned above); strict
    // turns the same scan into a hard failure naming the file.
    let out = xtask(&["audit", "--root", root, "--baseline", bl]);
    assert_eq!(out.status.code(), Some(0));
    let out = xtask(&["audit", "--strict", "--root", root, "--baseline", bl]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stale baseline entry"), "{err}");
    assert!(err.contains("audit FAILED") && err.contains("--strict"), "{err}");

    // A key on the retired `panic-safety` policy (folded into
    // `panic-flow`) is stale even where its finding still exists under
    // the new name, so --strict fails on an old local baseline.
    let kernels = dir.join("crates/kernels/src");
    std::fs::create_dir_all(&kernels).expect("create kernels dir");
    std::fs::write(kernels.join("engine.rs"), "fn run(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n")
        .expect("write engine root");
    let live = "thread-containment|crates/sim/src/offender.rs|f|thread::spawn\n\
                panic-flow|crates/kernels/src/engine.rs|run|.unwrap()\n";
    let retired = "panic-safety|crates/kernels/src/engine.rs|run|.unwrap()";
    std::fs::write(&baseline, format!("{live}{retired}\n")).expect("rewrite baseline");
    let out = xtask(&["audit", "--strict", "--root", root, "--baseline", bl]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("stale baseline entry (no matching finding): {retired}")),
        "{err}"
    );

    // With the stale entries pruned, strict passes again.
    std::fs::write(&baseline, live).expect("rewrite baseline");
    let out = xtask(&["audit", "--strict", "--root", root, "--baseline", bl]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_dot_exports_lock_order_graph() {
    let dir = std::env::temp_dir().join(format!("xtask-cli-dot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let dot = dir.join("lock-order.dot");
    let out = xtask(&["audit", "--dot", dot.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&dot).expect("dot file written");
    assert!(text.starts_with("digraph lock_order {"), "{text}");
    // The engine's dispatch-over-state hierarchy is the one real
    // multi-lock chain in the tree; its edge anchors the export.
    assert!(text.contains("\"engine.dispatch\" -> \"engine.shared.state\""), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_demo_renders_seeded_deadlock_cycle() {
    let out = xtask(&["audit", "--demo"]);
    // Exit 1: the demo deliberately finds the seeded cycle — same
    // contract as `check --demo-mutant`.
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lock-order"), "{err}");
    assert!(err.contains("potential deadlock"), "{err}");
    // Both acquisition chains render in full.
    assert!(err.contains("Scheduler::submit -> resolve"), "{err}");
    assert!(err.contains("Registry::evict -> drain_queue"), "{err}");
    // The DOT rendering of the mutant's graph is part of the demo.
    assert!(err.contains("digraph lock_order"), "{err}");
}
