//! Interprocedural dataflow policies over the workspace call graph.
//!
//! The lexical policies in `main.rs` check properties of *sites*
//! (this line has a marker, this file is allowlisted). The three
//! policies here check properties of *paths*: they build a
//! workspace-wide call graph from the per-file item spans and call
//! sites ([`crate::parse`]) and close safety obligations under
//! reachability, so a new call site cannot quietly bridge a public
//! entry point into an unsafe kernel, or an allocation into the
//! dispatch loop.
//!
//! 10. **witness-flow** — every path from a public safe function to
//!     an unchecked kernel fast path (a function in the
//!     unchecked-allowlist modules that uses `get_unchecked`,
//!     `from_raw_parts`, or raw-pointer `.add(`) must pass through a
//!     function that handles a `Validated` witness, or through an
//!     item whose doc block carries a `witness-ok` marker naming the
//!     checked invariant it enforces itself.
//! 11. **panic-flow** — the dispatch roots (the engine dispatch and
//!     telemetry hot functions of [`HOT_PATHS`], plus the microkernel
//!     bodies) are closed under the call graph: any `unwrap`/`expect`/
//!     unmarked indexing in a root or in anything it reaches is
//!     flagged with the full call chain.
//! 12. **hot-path-alloc** — nothing reachable from the dispatch
//!     roots may allocate (`Vec::push`, `Box::new`, `format!`,
//!     `String::from`, `to_string`, `collect`) without an `alloc-ok`
//!     marker, protecting the ≤2% telemetry overhead budget.
//!
//! The root closure ([`root_closure`]) is computed once per audit and
//! shared by policies 11, 12 and 14 ([`crate::locks`]).
//!
//! # Call-graph construction
//!
//! Resolution is heuristic but conservative in the direction that
//! matters for the policies (over-approximating edges, never
//! inventing unreachable-looking code):
//!
//! * `name(...)` (bare) resolves to free functions named `name` —
//!   same file first, then workspace-wide (imports are not tracked).
//! * `.name(...)` (method) resolves to *every* impl/trait function
//!   named `name` in the workspace; receivers are not typed. Names
//!   that collide with std prelude methods ([`AMBIENT_METHODS`],
//!   e.g. `push`, `collect`, `write`) produce no method edge —
//!   untyped resolution is pure noise for them; use
//!   `callgraph-edge:` where such a call is real.
//! * `qual::name(...)` resolves by the last qualifier segment: an
//!   impl/trait self type (`MicroSpec::row_sum`), `Self` (the
//!   caller's own type), or a module/crate alias (`schedule::execute`,
//!   `spmv_telemetry::metrics::engine_dispatch`). Unresolved paths
//!   (std, vendored deps) produce no edge.
//! * Turbofish calls (`f::<T>()`) and macro bodies are not resolved;
//!   the escape hatches below cover anything that matters.
//!
//! Two marker comments adjust the graph where the heuristics cannot
//! see (function pointers, trait-object dispatch):
//! `// callgraph-edge: Target::method` on or above a function adds an
//! explicit edge from it; `// callgraph-ok: why` on a call line
//! suppresses that line's edges, with the comment naming why dynamic
//! dispatch is safe there.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::parse::{CallKind, ItemKind, ItemSpan};
use crate::{
    has_index_expr, has_marker, has_token, justified, path_in, FileUnit, Finding,
    UNCHECKED_ALLOWLIST, UNCHECKED_TOKENS,
};

pub(crate) const POLICY_WITNESS_FLOW: &str = "witness-flow";
pub(crate) const POLICY_PANIC_FLOW: &str = "panic-flow";
pub(crate) const POLICY_ALLOC: &str = "hot-path-alloc";

/// Dispatch and telemetry hot paths, the named dispatch roots: the
/// functions that run on every engine dispatch or every trace record,
/// where a panic poisons the worker handshake for all lanes. Each
/// entry is a file suffix plus the names of its hot functions.
const HOT_PATHS: &[(&str, &[&str])] = &[
    ("crates/kernels/src/engine.rs", &["run", "run_labeled", "worker_loop", "traced_claim"]),
    ("crates/telemetry/src/trace.rs", &["record", "pack_name"]),
    // Request-span emit paths: per-completion exemplar stores and
    // the per-dispatch fold into a matrix's own roofline cell ride
    // inside serve delivery.
    ("crates/telemetry/src/hist.rs", &["observe_ns", "observe_with_exemplar", "record"]),
    ("crates/telemetry/src/roofline.rs", &["observe"]),
];

/// Microkernel module prefix: every kernel-shaped function in here is
/// a dispatch root too.
const MICRO_PREFIX: &str = "crates/kernels/src/micro/";

/// Name prefixes identifying the microkernel bodies (as opposed to
/// the cold menu/tuning helpers in the same module, which are allowed
/// to allocate while building the plan).
const MICRO_KERNEL_PREFIXES: &[&str] =
    &["row_sum", "model_body", "dispatch_model", "hreduce", "avx2_body", "avx512_body"];

/// Method names that collide with std prelude/collection methods.
/// `.push(...)` on a `Vec` must not resolve to `MetricsRegistry::push`
/// just because the names match — untyped receiver resolution is
/// worthless for these, so no method edge is created. A genuine
/// workspace call through one of these names is declared with
/// `callgraph-edge:`, and qualified calls (`MetricsRegistry::push(..)`)
/// still resolve normally.
const AMBIENT_METHODS: &[&str] = &[
    "clear",
    "clone",
    "collect",
    "compare_exchange",
    "compare_exchange_weak",
    "contains",
    "count",
    "drain",
    "expect",
    "extend",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_sub",
    "fetch_xor",
    "filter",
    "find",
    "first",
    "flush",
    "get",
    "insert",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "notify_all",
    "notify_one",
    "parse",
    "pop",
    "push",
    "read",
    "recv",
    "remove",
    "replace",
    "resize",
    "send",
    "sort",
    "split",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "unwrap",
    "wait",
    "write",
];

/// Allocation tokens policy 12 refuses on dispatch-reachable paths.
/// Matched as substrings of scrubbed code (several start with `.` or
/// end with `!`, which word-boundary matching cannot express).
const ALLOC_SINKS: &[(&str, &str)] = &[
    (".push(", "Vec::push"),
    ("Box::new(", "Box::new"),
    ("format!(", "format!"),
    ("String::from(", "String::from"),
    (".to_string(", "to_string"),
    (".collect(", "collect"),
];

/// One function node in the workspace call graph.
struct Node {
    unit: usize,
    item: usize,
}

pub(crate) struct Graph<'a> {
    units: &'a [FileUnit],
    nodes: Vec<Node>,
    /// Adjacency: outgoing edges, deduplicated, in deterministic
    /// order.
    edges: Vec<Vec<usize>>,
    /// Every resolved call site as `(caller, line, callee)` — the
    /// line-resolved view of `edges` the lock-order analysis needs to
    /// know *where* in the caller an edge leaves (a call made while a
    /// guard is held propagates the held set; one on a `spawn(` line
    /// runs on a fresh stack and does not). Sorted, deduplicated.
    site_edges: Vec<(usize, usize, usize)>,
    /// For each unit, the node attributed to each line (the innermost
    /// enclosing fn), so sinks inside nested fns are charged to the
    /// nested fn, not its host.
    line_owner: Vec<Vec<Option<usize>>>,
    /// `(unit, item)` -> node index.
    by_item: HashMap<(usize, usize), usize>,
}

impl<'a> Graph<'a> {
    pub(crate) fn span(&self, n: usize) -> &ItemSpan {
        &self.units[self.nodes[n].unit].items.items[self.nodes[n].item]
    }

    pub(crate) fn file(&self, n: usize) -> &str {
        &self.units[self.nodes[n].unit].path
    }

    pub(crate) fn unit(&self, n: usize) -> &FileUnit {
        &self.units[self.nodes[n].unit]
    }

    /// Index of the unit node `n` lives in.
    pub(crate) fn unit_index(&self, n: usize) -> usize {
        self.nodes[n].unit
    }

    /// The node for fn item `item` of unit `unit`, if it is a fn.
    pub(crate) fn node_of(&self, unit: usize, item: usize) -> Option<usize> {
        self.by_item.get(&(unit, item)).copied()
    }

    /// All resolved call sites as `(caller, line, callee)`.
    pub(crate) fn site_edges(&self) -> &[(usize, usize, usize)] {
        &self.site_edges
    }

    /// Display name: `Owner::name` for methods, `name` for free fns.
    pub(crate) fn qual(&self, n: usize) -> String {
        let it = self.span(n);
        match &it.owner {
            Some(o) => format!("{o}::{}", it.name),
            None => it.name.clone(),
        }
    }

    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All edges as `caller -> callee` qualified-name pairs, sorted —
    /// the golden-file test format.
    #[cfg(test)]
    pub(crate) fn edge_names(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .edges
            .iter()
            .enumerate()
            .flat_map(|(a, outs)| outs.iter().map(move |&b| (a, b)))
            .map(|(a, b)| format!("{} -> {}", self.qual(a), self.qual(b)))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    pub(crate) fn build(units: &'a [FileUnit]) -> Graph<'a> {
        let mut nodes = Vec::new();
        let mut by_item: HashMap<(usize, usize), usize> = HashMap::new();
        for (u, unit) in units.iter().enumerate() {
            for (i, it) in unit.items.items.iter().enumerate() {
                if it.kind == ItemKind::Fn {
                    by_item.insert((u, i), nodes.len());
                    nodes.push(Node { unit: u, item: i });
                }
            }
        }

        // Resolution indexes.
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free_in_unit: HashMap<(usize, &str), Vec<usize>> = HashMap::new();
        let mut owned: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (n, node) in nodes.iter().enumerate() {
            let it = &units[node.unit].items.items[node.item];
            match it.owner.as_deref() {
                Some(o) => {
                    methods.entry(&it.name).or_default().push(n);
                    owned.entry((o, &it.name)).or_default().push(n);
                }
                None => {
                    free.entry(&it.name).or_default().push(n);
                    free_in_unit.entry((node.unit, &it.name)).or_default().push(n);
                }
            }
        }
        let mut unit_alias: HashMap<String, Vec<usize>> = HashMap::new();
        for (u, unit) in units.iter().enumerate() {
            for alias in module_aliases(&unit.path) {
                unit_alias.entry(alias).or_default().push(u);
            }
        }
        let free_in_module = |alias: &str, name: &str| -> Vec<usize> {
            unit_alias
                .get(alias)
                .map(|us| {
                    us.iter()
                        .flat_map(|&u| {
                            free_in_unit.get(&(u, name)).map(Vec::as_slice).unwrap_or(&[])
                        })
                        .copied()
                        .collect()
                })
                .unwrap_or_default()
        };

        let resolve = |kind: &CallKind, name: &str, unit: usize, caller: usize| -> Vec<usize> {
            let caller_owner =
                units[nodes[caller].unit].items.items[nodes[caller].item].owner.clone();
            let bare = |name: &str| -> Vec<usize> {
                match free_in_unit.get(&(unit, name)) {
                    Some(v) => v.clone(),
                    None => free.get(name).cloned().unwrap_or_default(),
                }
            };
            match kind {
                CallKind::Bare => bare(name),
                CallKind::Method if AMBIENT_METHODS.contains(&name) => Vec::new(),
                CallKind::Method => methods.get(name).cloned().unwrap_or_default(),
                CallKind::Qualified(q) => {
                    let segs: Vec<&str> = q
                        .split("::")
                        .skip_while(|s| matches!(*s, "crate" | "self" | "super"))
                        .collect();
                    let Some(&qlast) = segs.last() else {
                        return bare(name); // `crate::f(...)`
                    };
                    if qlast == "Self" {
                        return caller_owner
                            .as_deref()
                            .and_then(|o| owned.get(&(o, name)).cloned())
                            .unwrap_or_default();
                    }
                    if let Some(v) = owned.get(&(qlast, name)) {
                        return v.clone();
                    }
                    free_in_module(qlast, name)
                }
            }
        };

        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut site_set: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
        for (u, unit) in units.iter().enumerate() {
            for call in &unit.calls {
                let Some(item) = unit.items.enclosing_fn_idx(call.line) else {
                    continue; // module-level expression (const init)
                };
                let caller = by_item[&(u, item)];
                if has_marker(&unit.s, call.line, "callgraph-ok") {
                    continue;
                }
                for target in resolve(&call.kind, &call.name, u, caller) {
                    if target != caller {
                        edge_set.insert((caller, target));
                        site_set.insert((caller, call.line, target));
                    }
                }
            }
            // Explicit edges for dynamic dispatch the heuristics
            // cannot see: `// callgraph-edge: Target::method`.
            for (line, comment) in unit.s.comments.iter().enumerate() {
                let Some(pos) = comment.find("callgraph-edge:") else {
                    continue;
                };
                let spec = comment[pos + "callgraph-edge:".len()..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("");
                if spec.is_empty() {
                    continue;
                }
                let Some(item) = attached_fn(unit, line) else {
                    continue;
                };
                let caller = by_item[&(u, item)];
                let targets = match spec.rsplit_once("::") {
                    Some((q, n)) => {
                        let qlast = q.rsplit("::").next().unwrap_or(q);
                        let mut t = owned.get(&(qlast, n)).cloned().unwrap_or_default();
                        if t.is_empty() {
                            t = free_in_module(qlast, n);
                        }
                        t
                    }
                    None => {
                        let mut t = free.get(spec).cloned().unwrap_or_default();
                        t.extend(methods.get(spec).cloned().unwrap_or_default());
                        t
                    }
                };
                for target in targets {
                    if target != caller {
                        edge_set.insert((caller, target));
                        site_set.insert((caller, line, target));
                    }
                }
            }
        }

        let mut edges = vec![Vec::new(); nodes.len()];
        for (a, b) in edge_set {
            edges[a].push(b);
        }
        let site_edges: Vec<_> = site_set.into_iter().collect();

        let line_owner = units
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                (0..unit.s.code.len())
                    .map(|l| unit.items.enclosing_fn_idx(l).map(|i| by_item[&(u, i)]))
                    .collect()
            })
            .collect();

        Graph { units, nodes, edges, site_edges, line_owner, by_item }
    }

    /// Lines attributed to node `n`: inside its span, innermost-owned
    /// by it, and not in `#[cfg(test)]` code.
    pub(crate) fn lines_of(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let node = &self.nodes[n];
        let it = self.span(n);
        let unit = &self.units[node.unit];
        let owners = &self.line_owner[node.unit];
        (it.start..=it.end.min(unit.s.code.len().saturating_sub(1)))
            .filter(move |&l| owners[l] == Some(n) && !unit.items.in_test(l))
    }

    /// Breadth-first closure from `starts`, skipping nodes where
    /// `skip` holds; returns the parent map (`start -> start`).
    pub(crate) fn reach(
        &self,
        starts: impl IntoIterator<Item = usize>,
        skip: impl Fn(usize) -> bool,
    ) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for s in starts {
            if !skip(s) && !parent.contains_key(&s) {
                parent.insert(s, s);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if !skip(m) && !parent.contains_key(&m) {
                    parent.insert(m, n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Renders the call chain from a start node to `n` using the
    /// parent map from [`Graph::reach`].
    pub(crate) fn chain(&self, parent: &HashMap<usize, usize>, mut n: usize) -> Vec<String> {
        let mut out = vec![self.qual(n)];
        while let Some(&p) = parent.get(&n) {
            if p == n {
                break;
            }
            out.push(self.qual(p));
            n = p;
        }
        out.reverse();
        out
    }
}

/// The fn item a `callgraph-edge` marker on `line` attaches to: the
/// enclosing fn, or — for a marker in a doc/comment run — the first
/// fn declared directly below the run.
fn attached_fn(unit: &FileUnit, line: usize) -> Option<usize> {
    if let Some(i) = unit.items.enclosing_fn_idx(line) {
        return Some(i);
    }
    let mut j = line + 1;
    while j < unit.s.code.len() {
        let code = unit.s.code[j].trim();
        if let Some(i) =
            unit.items.items.iter().position(|it| it.kind == ItemKind::Fn && it.start == j)
        {
            return Some(i);
        }
        if code.is_empty() || code.starts_with("#[") {
            j += 1;
            continue;
        }
        return None;
    }
    None
}

/// Module/crate aliases a qualified path may use to name a file:
/// its stem (`schedule`), its directory for `mod.rs` (`micro`), and
/// its crate (`kernels`, `spmv_kernels`).
fn module_aliases(path: &str) -> Vec<String> {
    let mut out = Vec::new();
    let parts: Vec<&str> = path.split('/').collect();
    let stem = parts.last().map(|f| f.trim_end_matches(".rs")).unwrap_or("");
    match stem {
        "mod" => {
            if parts.len() >= 2 {
                out.push(parts[parts.len() - 2].to_string());
            }
        }
        "lib" | "main" => {}
        s => out.push(s.to_string()),
    }
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(c) = rest.split('/').next() {
            out.push(c.to_string());
            out.push(format!("spmv_{}", c.replace('-', "_")));
        }
    } else if path.starts_with("src/") {
        out.push("spmv_tune".to_string());
    }
    out
}

/// Runs all three dataflow policies over a pre-built workspace call
/// graph and its [`root_closure`] (both built once in `audit_files`
/// and shared with the lock-order analysis in [`crate::locks`]).
pub(crate) fn analyze(g: &Graph<'_>, reached: &[(usize, Vec<String>)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    witness_flow(g, &mut findings);
    reachable_sinks(g, reached, &mut findings);
    findings
}

/// Whether node `n` is an unchecked fast path (policy 10 target).
fn is_unchecked_target(g: &Graph<'_>, n: usize) -> bool {
    if !path_in(g.file(n), UNCHECKED_ALLOWLIST) {
        return false; // policy 2 already owns out-of-allowlist sites
    }
    let unit = g.unit(n);
    g.lines_of(n).any(|l| {
        let code = &unit.s.code[l];
        UNCHECKED_TOKENS.iter().any(|t| has_token(code, t))
            || (code.contains(".add(") && unit.items.in_unsafe(l))
    })
}

/// Whether node `n` witnesses validation (policy 10 gate): it
/// handles a `Validated` value (parameter or construction), or its
/// doc block carries `witness-ok`.
fn is_witness_gate(g: &Graph<'_>, n: usize) -> bool {
    let unit = g.unit(n);
    g.lines_of(n).any(|l| has_token(&unit.s.code[l], "Validated"))
        || has_marker(&unit.s, g.span(n).start, "witness-ok")
}

/// Policy 10: no path from a public safe fn to an unchecked fast
/// path without passing a witness gate.
fn witness_flow(g: &Graph<'_>, findings: &mut Vec<Finding>) {
    let n = g.node_count();
    let target: Vec<bool> = (0..n).map(|i| is_unchecked_target(g, i)).collect();
    let gate: Vec<bool> = (0..n).map(|i| is_witness_gate(g, i)).collect();
    let entry = |i: usize| {
        let it = g.span(i);
        it.is_pub && !it.is_unsafe && !it.cfg_test && !gate[i] && !target[i]
    };

    // A public safe fn that *is* an unchecked fast path needs its own
    // witness (or marker) regardless of callers.
    for i in 0..n {
        let it = g.span(i);
        if target[i] && it.is_pub && !it.is_unsafe && !it.cfg_test && !gate[i] {
            findings.push(witness_finding(g, i, &[g.qual(i)]));
        }
    }

    // Paths: BFS from every public entry, never entering gates or
    // continuing through targets.
    let skip = |i: usize| gate[i] || g.span(i).cfg_test;
    let parent = g.reach((0..n).filter(|&i| entry(i)), |i| skip(i) || target[i]);
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut hits: Vec<(usize, Vec<String>)> = Vec::new();
    for (&node, _) in parent.iter() {
        for &m in &g.edges[node] {
            if target[m] && !skip(m) && flagged.insert(m) {
                let mut chain = g.chain(&parent, node);
                chain.push(g.qual(m));
                hits.push((m, chain));
            }
        }
    }
    hits.sort_by_key(|(m, _)| (g.file(*m).to_string(), g.span(*m).start));
    for (m, chain) in hits {
        // Skip if already flagged directly above (pub target).
        let it = g.span(m);
        if !it.is_pub || it.is_unsafe {
            findings.push(witness_finding(g, m, &chain));
        }
    }
}

fn witness_finding(g: &Graph<'_>, target: usize, chain: &[String]) -> Finding {
    Finding {
        file: g.file(target).to_string(),
        line: g.span(target).start + 1,
        policy: POLICY_WITNESS_FLOW,
        item: g.qual(target),
        detail: "unwitnessed-path".to_string(),
        chain: chain.to_vec(),
        message: format!(
            "unchecked fast path `{}` is reachable from the public API without passing a \
             Validated witness or a `witness-ok` item (path: {})",
            g.qual(target),
            chain.join(" -> "),
        ),
        baselined: false,
    }
}

/// Every node reachable from the dispatch roots (the [`HOT_PATHS`]
/// functions plus the microkernel bodies), roots included, with its
/// call chain from a root, in (file, line) order. `#[cfg(test)]` items
/// are neither roots nor reached.
pub(crate) fn root_closure(g: &Graph<'_>) -> Vec<(usize, Vec<String>)> {
    let is_root = |i: usize| {
        let it = g.span(i);
        HOT_PATHS
            .iter()
            .any(|(suffix, fns)| g.file(i).ends_with(suffix) && fns.contains(&it.name.as_str()))
            || (g.file(i).contains(MICRO_PREFIX)
                && MICRO_KERNEL_PREFIXES.iter().any(|p| it.name.starts_with(p)))
    };
    let parent = g.reach((0..g.node_count()).filter(|&i| is_root(i)), |i| g.span(i).cfg_test);
    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_by_key(|&i| (g.file(i).to_string(), g.span(i).start));
    reached.into_iter().map(|n| (n, g.chain(&parent, n))).collect()
}

/// Policies 11 and 12: panic and allocation sinks in every node of
/// the root closure, reported with their call chain.
fn reachable_sinks(g: &Graph<'_>, reached: &[(usize, Vec<String>)], findings: &mut Vec<Finding>) {
    for &(n, ref chain) in reached {
        let unit = g.unit(n);
        let via = chain.join(" -> ");
        for l in g.lines_of(n) {
            let code = &unit.s.code[l];
            // Policy 11 — panic sinks.
            for token in [".unwrap()", ".expect("] {
                if code.contains(token) && !justified(&unit.s, &unit.items, l, "panic-ok") {
                    findings.push(sink_finding(
                        g,
                        n,
                        l,
                        POLICY_PANIC_FLOW,
                        token,
                        chain,
                        format!(
                            "`{token}` in `{}` is reachable from the dispatch roots \
                             (via {via}) without a `panic-ok` marker — a panic here \
                             poisons the worker handshake mid-dispatch",
                            g.qual(n),
                        ),
                    ));
                }
            }
            if has_index_expr(code) && !justified(&unit.s, &unit.items, l, "indexing-ok") {
                findings.push(sink_finding(
                    g,
                    n,
                    l,
                    POLICY_PANIC_FLOW,
                    "indexing",
                    chain,
                    format!(
                        "indexing in `{}` is reachable from the dispatch roots (via \
                         {via}) without an `indexing-ok` marker naming why it is in \
                         bounds",
                        g.qual(n),
                    ),
                ));
            }
            // Policy 12 — allocation sinks.
            for (token, label) in ALLOC_SINKS {
                if code.contains(token) && !justified(&unit.s, &unit.items, l, "alloc-ok") {
                    findings.push(sink_finding(
                        g,
                        n,
                        l,
                        POLICY_ALLOC,
                        label,
                        chain,
                        format!(
                            "`{label}` in `{}` is reachable from the dispatch roots (via \
                             {via}) without an `alloc-ok` marker — allocation on the \
                             dispatch path blows the telemetry overhead budget",
                            g.qual(n),
                        ),
                    ));
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sink_finding(
    g: &Graph<'_>,
    n: usize,
    line: usize,
    policy: &'static str,
    token: &str,
    chain: &[String],
    message: String,
) -> Finding {
    Finding {
        file: g.file(n).to_string(),
        line: line + 1,
        policy,
        item: g.qual(n),
        detail: token.to_string(),
        chain: chain.to_vec(),
        message,
        baselined: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo_root;

    fn units(files: &[(&str, &str)]) -> Vec<FileUnit> {
        files.iter().map(|(p, t)| FileUnit::new(p, t)).collect()
    }

    #[test]
    fn module_aliases_cover_stem_dir_and_crate() {
        assert!(module_aliases("crates/kernels/src/schedule.rs").contains(&"schedule".into()));
        let micro = module_aliases("crates/kernels/src/micro/mod.rs");
        assert!(micro.contains(&"micro".into()), "{micro:?}");
        assert!(micro.contains(&"spmv_kernels".into()), "{micro:?}");
        assert!(module_aliases("crates/telemetry/src/lib.rs").contains(&"spmv_telemetry".into()));
    }

    #[test]
    fn graph_resolves_bare_method_and_qualified_calls() {
        let us = units(&[
            (
                "crates/kernels/src/engine.rs",
                "pub struct Engine;\nimpl Engine {\n    pub fn run(&self) {\n        helper();\n        self.claim();\n        schedule::execute();\n    }\n    fn claim(&self) {}\n}\nfn helper() {}\n",
            ),
            ("crates/kernels/src/schedule.rs", "pub fn execute() {}\n"),
        ]);
        let g = Graph::build(&us);
        let edges = g.edge_names();
        assert!(edges.contains(&"Engine::run -> helper".to_string()), "{edges:?}");
        assert!(edges.contains(&"Engine::run -> Engine::claim".to_string()), "{edges:?}");
        assert!(edges.contains(&"Engine::run -> execute".to_string()), "{edges:?}");
    }

    #[test]
    fn callgraph_markers_add_and_suppress_edges() {
        let us = units(&[(
            "crates/kernels/src/engine.rs",
            "/// Dispatches jobs through fn pointers.\n/// callgraph-edge: hidden\nfn dispatch() {\n    // callgraph-ok: resolved at runtime, audited separately\n    indirect();\n}\nfn hidden() {}\nfn indirect() {}\n",
        )]);
        let g = Graph::build(&us);
        let edges = g.edge_names();
        assert!(edges.contains(&"dispatch -> hidden".to_string()), "{edges:?}");
        assert!(!edges.contains(&"dispatch -> indirect".to_string()), "{edges:?}");
    }

    #[test]
    fn golden_callgraph_edges_on_fixture_crate() {
        let root = repo_root();
        let dir = root.join("crates/xtask/fixtures/callgraph");
        let mut us = Vec::new();
        for name in ["lib.rs", "worker.rs"] {
            let text = std::fs::read_to_string(dir.join(name)).expect("fixture exists");
            us.push(FileUnit::new(&format!("crates/demo/src/{name}"), &text));
        }
        let g = Graph::build(&us);
        let got = g.edge_names().join("\n") + "\n";
        let want = std::fs::read_to_string(dir.join("edges.golden")).expect("golden file exists");
        assert_eq!(got, want, "call-graph edge set drifted from edges.golden");
    }

    #[test]
    fn call_graph_covers_every_workspace_crate() {
        let root = repo_root();
        let mut files = Vec::new();
        crate::collect_rs_files(&root, &root, &mut files);
        files.sort();
        let us: Vec<FileUnit> = files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(root.join(f)).expect("readable");
                FileUnit::new(f, &text)
            })
            .collect();
        let g = Graph::build(&us);
        let crates: BTreeSet<&str> = files
            .iter()
            .filter_map(|f| f.strip_prefix("crates/"))
            .filter_map(|f| f.split('/').next())
            .collect();
        for c in crates {
            let prefix = format!("crates/{c}/");
            assert!(
                (0..g.node_count()).any(|n| g.file(n).starts_with(&prefix)),
                "no call-graph nodes from crate {c}"
            );
        }
        // At least one resolved cross-crate edge (engine -> telemetry
        // or kernels -> sparse) proves qualified resolution works.
        let cross = g.edges.iter().enumerate().any(|(a, outs)| {
            outs.iter().any(|&b| {
                let (fa, fb) = (g.file(a), g.file(b));
                fa.split('/').nth(1) != fb.split('/').nth(1)
            })
        });
        assert!(cross, "no cross-crate edges resolved");
    }
}
