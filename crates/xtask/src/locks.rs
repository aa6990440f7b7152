//! Concurrency-effects analysis: the workspace lock-order graph and
//! policies 13–15.
//!
//! Built on the same parse as every other policy: [`parse::extract_locks`]
//! hands each file's raw acquisition sites (`.lock()`, `.read()`,
//! `.write()`, `Condvar::wait*`, `notify_*`) and this module resolves
//! each receiver to a *lock identity*, computes how long each bound
//! guard lives (brace depth, truncated by `drop(guard)`), and
//! propagates held-lock sets along the PR 7 call graph's per-site
//! edges to build the acquired-while-holding graph.
//!
//! 13. **lock-order** — a cycle in the acquired-while-holding graph
//!     is a potential deadlock. Findings render *every* constituent
//!     edge's full acquisition chain so the reviewer sees both
//!     interleavings without re-deriving them. `lock-order-ok:`
//!     severs an edge that implements an intentional, documented
//!     hierarchy. The policy also closes the loop with the dynamic
//!     layer: every named mutex participating in a multi-lock chain
//!     must be declared by a `models-lock:` comment in a protocol
//!     model under `crates/check/src/models/`, or carry a
//!     `model-ok:` justification at an acquisition site.
//! 14. **blocking-in-hot-path** — no `Mutex::lock`, `RwLock` guard,
//!     `Condvar::wait`, or socket ([`crate::SOCKET_TOKENS`]) is
//!     transitively reachable from the dispatch/microkernel roots
//!     ([`crate::flow::root_closure`]) without a `blocking-ok:`
//!     marker. Policy 12 polices allocation on the same root closure;
//!     this is its blocking twin.
//! 15. **condvar-discipline** — every `wait` sits in a loop
//!     re-checking a predicate (`wait_while` loops internally), is
//!     paired with the mutex whose guard it consumes, and holds no
//!     *second* lock across the wait; every `notify_*` on a paired
//!     condvar happens in a function that acquired the paired mutex
//!     first (mutating the predicate outside the mutex is the classic
//!     lost-wakeup race). `condvar-ok:` justifies intentional
//!     departures.
//!
//! ## Lock identity
//!
//! A receiver is classified from its path shape, normalized to
//! `<file-stem>.<last ≤2 segments>` so `self.shared.state` in
//! `engine.rs` and a rustfmt-rewrapped alias of the same field agree:
//!
//! * `self.a.b` / `SELF_LIKE.a.b` → named field lock (`stem.a.b`);
//! * `STATIC` (uppercase-initial single segment) → named static;
//! * `helper()`-rooted chains (e.g. `registry()`) → named by call;
//! * bare lowercase single segment → local (`stem.fn.var`), excluded
//!   from model coverage since a stack-local mutex cannot deadlock
//!   against another function's instance of itself;
//! * a `lock-id: <name>` marker overrides everything — use it when
//!   two syntactic paths alias one lock. The value `caller` drops the
//!   site: the enclosing fn is a pass-through helper (the engine's
//!   generic `lock<T>(m)`) whose receiver identity belongs to its
//!   call sites.
//!
//! `self.lock()`/`self.read()`/`self.write()` are wrapper calls, not
//! acquisitions: the wrapper method's own body (or its `lock-id:`
//! doc marker) supplies the identity. `.read()`/`.write()` only count
//! in files that mention `RwLock`, and `wait`/`notify` only in files
//! that mention `Condvar`, so seqlocks, `io::Read`, and the model
//! checker's shadow `CondvarId` handles never enter the graph.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::flow::Graph;
use crate::parse::{ItemKind, LockOp, LockSite};
use crate::{has_token, justified, FileUnit, Finding, Scrubbed, SOCKET_TOKENS};

pub(crate) const POLICY_LOCK_ORDER: &str = "lock-order";
pub(crate) const POLICY_BLOCKING: &str = "blocking-in-hot-path";
pub(crate) const POLICY_CONDVAR: &str = "condvar-discipline";

/// Protocol-model source directory scanned for `models-lock:`
/// declarations (policy 13's model-coverage check).
const MODELS_DIR: &str = "crates/check/src/models/";

/// A resolved lock identity. Locals carry the enclosing fn in their
/// name, so two functions' locals never unify into a spurious cycle.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct LockId {
    name: String,
    local: bool,
}

/// One resolved acquisition/wait/notify site.
struct Site {
    unit: usize,
    /// 0-based line of the (joined) statement.
    line: usize,
    op: LockOp,
    id: LockId,
    bound: Option<String>,
    /// `wait*` guard argument.
    arg: Option<String>,
    /// Item index of the enclosing fn within its unit.
    fn_item: usize,
    /// Exclusive end of the bound guard's life: the guard is held on
    /// lines `l` with `site.line < l < scope_end`. Unbound guards are
    /// temporaries and hold nothing beyond their own line.
    scope_end: usize,
}

impl Site {
    fn is_acquire(&self) -> bool {
        matches!(self.op, LockOp::Lock | LockOp::Read | LockOp::Write)
    }
}

/// One edge of the acquired-while-holding graph: `to` was acquired
/// at `file:line` while `from` was held, reached via `chain`.
struct LockEdge {
    from: LockId,
    to: LockId,
    file: String,
    /// 0-based.
    line: usize,
    item: String,
    chain: Vec<String>,
    /// Severed from cycle detection by `lock-order-ok:`.
    marked: bool,
}

/// The lock-order graph, exported for `--dot`.
pub(crate) struct LockGraphExport {
    nodes: Vec<String>,
    /// (from, to, `file:line`, marked).
    edges: Vec<(String, String, String, bool)>,
}

impl LockGraphExport {
    pub(crate) fn to_dot(&self) -> String {
        let mut out = String::from(
            "digraph lock_order {\n    rankdir=LR;\n    node [shape=box, fontname=\"monospace\"];\n",
        );
        for n in &self.nodes {
            out.push_str(&format!("    \"{n}\";\n"));
        }
        for (a, b, label, marked) in &self.edges {
            let style = if *marked { ", style=dashed, color=gray50" } else { "" };
            out.push_str(&format!("    \"{a}\" -> \"{b}\" [label=\"{label}\"{style}];\n"));
        }
        out.push_str("}\n");
        out
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// Extracts the value following `marker` on line `i` or in the
/// contiguous comment/attribute run directly above it.
fn marker_value_here(s: &Scrubbed, i: usize, marker: &str) -> Option<String> {
    let grab = |c: &str| -> Option<String> {
        let pos = c.find(marker)?;
        let v: String = c[pos + marker.len()..].split_whitespace().next().unwrap_or("").to_string();
        if v.is_empty() {
            None
        } else {
            Some(v)
        }
    };
    if let Some(v) = grab(&s.comments[i]) {
        return Some(v);
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = s.code[j].trim();
        let comment = &s.comments[j];
        if code.is_empty() && !comment.is_empty() {
            if let Some(v) = grab(comment) {
                return Some(v);
            }
        } else if !code.starts_with("#[") {
            return None;
        }
    }
    None
}

/// `marker_value_here`, falling back to the enclosing fn's doc block
/// (mirrors [`justified`]'s lookup order).
fn marker_value(unit: &FileUnit, i: usize, marker: &str) -> Option<String> {
    marker_value_here(&unit.s, i, marker).or_else(|| {
        unit.items.enclosing_fn(i).and_then(|f| marker_value_here(&unit.s, f.start, marker))
    })
}

/// Brace depth at the *start* of each line.
fn line_depths(s: &Scrubbed) -> Vec<i32> {
    let mut out = Vec::with_capacity(s.code.len());
    let mut d = 0i32;
    for line in &s.code {
        out.push(d);
        for b in line.bytes() {
            match b {
                b'{' => d += 1,
                b'}' => d -= 1,
                _ => {}
            }
        }
    }
    out
}

/// Integration-test and bench files: whole-file test code the item
/// parser cannot gate (no `#[cfg(test)]`), excluded from the lock
/// graph — the graph describes the product, not the harness.
fn is_harness_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/")
}

fn file_stem(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let stem = parts.last().map_or("", |f| f.trim_end_matches(".rs"));
    if (stem == "mod" || stem == "lib" || stem == "main") && parts.len() >= 3 {
        parts[parts.len() - 3].trim_start_matches("spmv-").to_string()
    } else {
        stem.to_string()
    }
}

fn qual_item(unit: &FileUnit, idx: usize) -> String {
    let it = &unit.items.items[idx];
    match &it.owner {
        Some(o) => format!("{o}::{}", it.name),
        None => it.name.clone(),
    }
}

/// Resolves a raw site's receiver to a lock identity, or `None` when
/// the site is not a real std-sync acquisition (gated op in a file
/// without the primitive, `stdout()` handle, `lock-id: caller`
/// pass-through, unresolvable wrapper).
fn resolve_id(
    unit: &FileUnit,
    stem: &str,
    has_rwlock: bool,
    has_condvar: bool,
    site: &LockSite,
    depth: usize,
) -> Option<LockId> {
    if let Some(v) = marker_value(unit, site.line, "lock-id:") {
        if v == "caller" {
            return None;
        }
        return Some(LockId { name: v, local: false });
    }
    match site.op {
        LockOp::Read | LockOp::Write if !has_rwlock => return None,
        LockOp::Wait | LockOp::Notify if !has_condvar => return None,
        _ => {}
    }
    let recv = site.recv.as_str();
    if recv.ends_with("stdout()") || recv.ends_with("stderr()") {
        return None;
    }
    if recv == "self" {
        // `self.lock()` is a wrapper call: resolve through the
        // wrapper method's body (one level only).
        if depth > 0 {
            return None;
        }
        let owner = unit.items.enclosing_fn(site.line)?.owner.clone()?;
        let method = match site.op {
            LockOp::Lock => "lock",
            LockOp::Read => "read",
            LockOp::Write => "write",
            _ => return None,
        };
        let wf = unit.items.items.iter().find(|it| {
            it.kind == ItemKind::Fn && it.name == method && it.owner.as_deref() == Some(&*owner)
        })?;
        if let Some(v) = marker_value_here(&unit.s, wf.start, "lock-id:") {
            if v == "caller" {
                return None;
            }
            return Some(LockId { name: v, local: false });
        }
        let inner: Vec<&LockSite> = unit
            .locks
            .iter()
            .filter(|l| {
                l.line >= wf.start
                    && l.line <= wf.end
                    && l.recv != "self"
                    && matches!(l.op, LockOp::Lock | LockOp::Read | LockOp::Write)
            })
            .collect();
        if inner.len() == 1 {
            return resolve_id(unit, stem, has_rwlock, has_condvar, inner[0], depth + 1);
        }
        return None;
    }
    let from_self = recv.strip_prefix("self.");
    let path = from_self.unwrap_or(recv);
    if path.contains('(') {
        // Call-rooted chain (`registry().lock()`): the accessor
        // names the lock.
        return Some(LockId { name: format!("{stem}.{path}"), local: false });
    }
    let segs: Vec<&str> = path.split('.').filter(|p| !p.is_empty()).collect();
    match segs.len() {
        0 => None,
        1 => {
            let seg = segs[0];
            let is_static = seg.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if from_self.is_some() || is_static {
                Some(LockId { name: format!("{stem}.{seg}"), local: false })
            } else {
                let f =
                    unit.items.enclosing_fn(site.line).map_or_else(String::new, |f| f.name.clone());
                Some(LockId { name: format!("{stem}.{f}.{seg}"), local: true })
            }
        }
        _ => {
            let tail = segs[segs.len() - 2..].join(".");
            Some(LockId { name: format!("{stem}.{tail}"), local: false })
        }
    }
}

/// Exclusive end line of a bound guard's life: the first later line
/// whose start depth drops below the acquisition line's (the block
/// closed), truncated by an explicit `drop(guard)`, capped at fn end.
fn guard_scope_end(unit: &FileUnit, depths: &[i32], site: &LockSite, fn_idx: usize) -> usize {
    let Some(var) = &site.bound else { return site.line + 1 };
    let f = &unit.items.items[fn_idx];
    let limit = f.end.min(unit.s.code.len().saturating_sub(1));
    let d = depths[site.line];
    let end = (site.line + 1..=limit).find(|&j| depths[j] < d).unwrap_or(limit + 1);
    let needle = format!("drop({var})");
    for j in site.line + 1..end {
        if unit.s.code[j].contains(&needle) {
            return j;
        }
    }
    end
}

/// Whether `line` sits inside a `loop`/`while`/`for` body within its
/// enclosing fn, by walking enclosing block-opener lines outward.
fn in_loop(unit: &FileUnit, depths: &[i32], fn_start: usize, line: usize) -> bool {
    let mut t = depths[line];
    let mut j = line;
    while j > fn_start {
        j -= 1;
        if depths[j] < t {
            let code = &unit.s.code[j];
            if has_token(code, "loop") || has_token(code, "while") || has_token(code, "for") {
                return true;
            }
            t = depths[j];
        }
    }
    false
}

/// Runs policies 13–15 over the parsed workspace (policy 14 over the
/// shared [`crate::flow::root_closure`]) and returns the findings
/// plus the lock-order graph for `--dot`.
pub(crate) fn analyze(
    units: &[FileUnit],
    g: &Graph<'_>,
    reached: &[(usize, Vec<String>)],
) -> (Vec<Finding>, LockGraphExport) {
    let mut findings = Vec::new();

    // ---- resolve every raw site ------------------------------------
    let mut sites: Vec<Site> = Vec::new();
    let mut depths_by_unit: Vec<Vec<i32>> = Vec::with_capacity(units.len());
    for (u, unit) in units.iter().enumerate() {
        let depths = line_depths(&unit.s);
        let stem = file_stem(&unit.path);
        let harness = is_harness_path(&unit.path);
        let has_rwlock = unit.s.code.iter().any(|l| has_token(l, "RwLock"));
        let has_condvar = unit.s.code.iter().any(|l| has_token(l, "Condvar"));
        for raw in &unit.locks {
            if harness || unit.items.in_test(raw.line) {
                continue;
            }
            let Some(fn_item) = unit.items.enclosing_fn_idx(raw.line) else { continue };
            let Some(id) = resolve_id(unit, &stem, has_rwlock, has_condvar, raw, 0) else {
                continue;
            };
            let scope_end = guard_scope_end(unit, &depths, raw, fn_item);
            sites.push(Site {
                unit: u,
                line: raw.line,
                op: raw.op,
                id,
                bound: raw.bound.clone(),
                arg: raw.arg.clone(),
                fn_item,
                scope_end,
            });
        }
        depths_by_unit.push(depths);
    }

    let held_at = |unit: usize, fn_item: usize, line: usize| -> Vec<&Site> {
        sites
            .iter()
            .filter(|s| {
                s.unit == unit
                    && s.fn_item == fn_item
                    && s.is_acquire()
                    && s.line < line
                    && line < s.scope_end
            })
            .collect()
    };

    // fn node -> indices of its sites, for graph-driven passes.
    let mut sites_by_node: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in sites.iter().enumerate() {
        if let Some(n) = g.node_of(s.unit, s.fn_item) {
            sites_by_node.entry(n).or_default().push(i);
        }
    }

    // ---- acquired-while-holding edges ------------------------------
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let add_edge = |edges: &mut BTreeMap<(String, String), LockEdge>, e: LockEdge| {
        edges.entry((e.from.name.clone(), e.to.name.clone())).or_insert(e);
    };

    // Direct: an acquisition while a different guard from the same fn
    // is still live.
    for s in sites.iter().filter(|s| s.is_acquire()) {
        let unit = &units[s.unit];
        for h in held_at(s.unit, s.fn_item, s.line) {
            if h.id == s.id {
                continue;
            }
            add_edge(
                &mut edges,
                LockEdge {
                    from: h.id.clone(),
                    to: s.id.clone(),
                    file: unit.path.clone(),
                    line: s.line,
                    item: qual_item(unit, s.fn_item),
                    chain: vec![qual_item(unit, s.fn_item)],
                    marked: justified(&unit.s, &unit.items, s.line, "lock-order-ok"),
                },
            );
        }
    }

    // Interprocedural: held sets propagate along call edges — except
    // through `spawn(` lines (the spawned closure runs on a fresh
    // stack holding nothing) and test code.
    let mut out_calls: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    for &(a, line, b) in g.site_edges() {
        let unit = g.unit(a);
        if is_harness_path(&unit.path)
            || unit.items.in_test(line)
            || unit.s.code[line].contains("spawn(")
        {
            continue;
        }
        out_calls.entry(a).or_default().push((line, b));
    }
    for (&a, calls) in &out_calls {
        for &(line, b) in calls {
            let a_unit = g.unit_index(a);
            let Some(a_item) = g.unit(a).items.enclosing_fn_idx(line) else {
                continue; // marker-edge line outside any fn body
            };
            let held = held_at(a_unit, a_item, line);
            if held.is_empty() {
                continue;
            }
            // BFS from the callee, collecting every acquisition it
            // transitively performs.
            let mut parent: HashMap<usize, usize> = HashMap::from([(b, b)]);
            let mut queue = VecDeque::from([b]);
            while let Some(n) = queue.pop_front() {
                for &si in sites_by_node.get(&n).map_or(&[][..], |v| &v[..]) {
                    let t = &sites[si];
                    if !t.is_acquire() {
                        continue;
                    }
                    let t_unit = &units[t.unit];
                    let mut chain = vec![g.qual(a)];
                    chain.extend(g.chain(&parent, n));
                    for h in &held {
                        if h.id == t.id {
                            continue;
                        }
                        add_edge(
                            &mut edges,
                            LockEdge {
                                from: h.id.clone(),
                                to: t.id.clone(),
                                file: t_unit.path.clone(),
                                line: t.line,
                                item: qual_item(t_unit, t.fn_item),
                                chain: chain.clone(),
                                marked: justified(
                                    &t_unit.s,
                                    &t_unit.items,
                                    t.line,
                                    "lock-order-ok",
                                ),
                            },
                        );
                    }
                }
                for &(_, m) in out_calls.get(&n).map_or(&[][..], |v| &v[..]) {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(m) {
                        e.insert(n);
                        queue.push_back(m);
                    }
                }
            }
        }
    }

    // ---- policy 13: cycles -----------------------------------------
    let adj: HashMap<&str, Vec<&str>> = {
        let mut m: HashMap<&str, Vec<&str>> = HashMap::new();
        for e in edges.values().filter(|e| !e.marked) {
            m.entry(&e.from.name).or_default().push(&e.to.name);
        }
        m
    };
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for e in edges.values().filter(|e| !e.marked) {
        // Shortest return path to.. -> from closes a cycle through e.
        let mut parent: HashMap<&str, &str> = HashMap::from([(&*e.to.name, &*e.to.name)]);
        let mut queue = VecDeque::from([&*e.to.name]);
        let mut found = false;
        while let Some(n) = queue.pop_front() {
            if n == e.from.name {
                found = true;
                break;
            }
            for &m in adj.get(n).map_or(&[][..], |v| &v[..]) {
                if !parent.contains_key(m) {
                    parent.insert(m, n);
                    queue.push_back(m);
                }
            }
        }
        if !found {
            continue;
        }
        // The return path was discovered backwards (parent maps each
        // node to its BFS predecessor toward `to`); replay it to get
        // the ring in cycle order: from -> to -> intermediates.
        let mut path = vec![e.from.name.clone()];
        let mut n = &*e.from.name;
        while n != e.to.name {
            n = parent[n];
            path.push(n.to_string());
        }
        path.reverse(); // to, x1, .., from
        let mut ring = vec![e.from.name.clone()];
        ring.extend(path.iter().take(path.len() - 1).cloned());
        let mut key: Vec<String> = ring.clone();
        key.sort();
        if !seen_cycles.insert(key.clone()) {
            continue;
        }
        // Constituent edges in cycle order.
        let mut msg =
            format!("potential deadlock: lock-order cycle `{} -> {}`", ring.join(" -> "), ring[0]);
        for (i, pair) in ring.iter().zip(ring.iter().cycle().skip(1)).take(ring.len()).enumerate() {
            let ce = &edges[&(pair.0.clone(), pair.1.clone())];
            msg.push_str(&format!(
                "; [{}] `{}` acquired at {}:{} while holding `{}` (chain: {})",
                i + 1,
                ce.to.name,
                ce.file,
                ce.line + 1,
                ce.from.name,
                ce.chain.join(" -> "),
            ));
        }
        msg.push_str(
            "; establish one acquisition hierarchy or justify the intended order with `lock-order-ok:`",
        );
        findings.push(Finding {
            file: e.file.clone(),
            line: e.line + 1,
            policy: POLICY_LOCK_ORDER,
            item: e.item.clone(),
            detail: format!("cycle:{}", key.join("+")),
            chain: e.chain.clone(),
            message: msg,
            baselined: false,
        });
    }

    // ---- policy 13: model coverage ---------------------------------
    let declared: BTreeSet<String> = units
        .iter()
        .filter(|u| u.path.contains(MODELS_DIR))
        .flat_map(|u| u.s.comments.iter())
        .filter_map(|c| {
            let pos = c.find("models-lock:")?;
            let v = c[pos + "models-lock:".len()..].split_whitespace().next()?;
            Some(v.to_string())
        })
        .collect();
    let participants: BTreeSet<&LockId> =
        edges.values().flat_map(|e| [&e.from, &e.to]).filter(|id| !id.local).collect();
    for id in participants {
        if declared.contains(&id.name) {
            continue;
        }
        let mut acq: Vec<&Site> = sites.iter().filter(|s| s.is_acquire() && s.id == *id).collect();
        acq.sort_by_key(|s| (s.unit, s.line));
        if acq.iter().any(|s| justified(&units[s.unit].s, &units[s.unit].items, s.line, "model-ok"))
        {
            continue;
        }
        let Some(first) = acq.first() else { continue };
        let unit = &units[first.unit];
        findings.push(Finding {
            file: unit.path.clone(),
            line: first.line + 1,
            policy: POLICY_LOCK_ORDER,
            item: qual_item(unit, first.fn_item),
            detail: format!("unmodeled:{}", id.name),
            chain: Vec::new(),
            message: format!(
                "`{}` participates in a multi-lock chain but no protocol model in {MODELS_DIR} \
                 declares it (`models-lock: {}`) — model the protocol or justify with `model-ok:`",
                id.name, id.name
            ),
            baselined: false,
        });
    }

    // ---- policy 14: blocking-in-hot-path ---------------------------
    for &(n, ref chain) in reached {
        let unit = g.unit(n);
        let via = chain.join(" -> ");
        let mut flagged: Vec<(usize, String)> = Vec::new();
        for &si in sites_by_node.get(&n).map_or(&[][..], |v| &v[..]) {
            let s = &sites[si];
            if matches!(s.op, LockOp::Notify) {
                continue; // notify never parks the caller
            }
            flagged.push((s.line, s.op.describe().to_string()));
        }
        for l in g.lines_of(n) {
            for tok in SOCKET_TOKENS {
                if has_token(&unit.s.code[l], tok) {
                    flagged.push((l, format!("{tok} I/O")));
                }
            }
        }
        for (l, what) in flagged {
            if justified(&unit.s, &unit.items, l, "blocking-ok") {
                continue;
            }
            findings.push(Finding {
                file: unit.path.clone(),
                line: l + 1,
                policy: POLICY_BLOCKING,
                item: g.qual(n),
                detail: what.clone(),
                chain: chain.clone(),
                message: format!(
                    "blocking `{what}` in `{}` is reachable from the dispatch roots (via {via}) \
                     — a parked lane stalls the whole batch; keep the hot path lock-free or \
                     justify with `blocking-ok:`",
                    g.qual(n)
                ),
                baselined: false,
            });
        }
    }

    // ---- policy 15: condvar discipline -----------------------------
    // Pass 1: waits. Pair each wait's consumed guard with its mutex.
    let mut pairings: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for w in sites.iter().filter(|s| matches!(s.op, LockOp::Wait)) {
        let unit = &units[w.unit];
        let depths = &depths_by_unit[w.unit];
        let excused = justified(&unit.s, &unit.items, w.line, "condvar-ok");
        let fn_start = unit.items.items[w.fn_item].start;
        let mut push = |line: usize, detail: &str, message: String| {
            findings.push(Finding {
                file: unit.path.clone(),
                line: line + 1,
                policy: POLICY_CONDVAR,
                item: qual_item(unit, w.fn_item),
                detail: detail.to_string(),
                chain: Vec::new(),
                message,
                baselined: false,
            });
        };
        // Pairing: the wait's guard argument must come from a mutex
        // acquisition earlier in the same fn.
        let paired: Option<&Site> = w.arg.as_ref().and_then(|arg| {
            sites
                .iter()
                .filter(|b| {
                    b.unit == w.unit
                        && b.fn_item == w.fn_item
                        && b.is_acquire()
                        && b.line <= w.line
                        && b.bound.as_ref() == Some(arg)
                })
                .max_by_key(|b| b.line)
        });
        match paired {
            Some(m) => {
                pairings.entry(w.id.name.clone()).or_default().insert(m.id.name.clone());
                let extra: Vec<&str> = held_at(w.unit, w.fn_item, w.line)
                    .into_iter()
                    .filter(|h| h.id != m.id)
                    .map(|h| h.id.name.as_str())
                    .collect();
                if !extra.is_empty() && !excused {
                    push(
                        w.line,
                        "wait-holding-lock",
                        format!(
                            "`{}` waits on `{}` while still holding `{}` — any notifier needing \
                             that lock deadlocks against the sleeper; release it first or justify \
                             with `condvar-ok:`",
                            qual_item(unit, w.fn_item),
                            w.id.name,
                            extra.join("`, `")
                        ),
                    );
                }
            }
            None => {
                if !excused {
                    push(
                        w.line,
                        "unpaired-wait",
                        format!(
                            "cannot pair the guard consumed by this `wait` on `{}` with a mutex \
                             acquisition in the same fn — the predicate/notify protocol is \
                             unverifiable; bind the guard from its mutex locally or justify with \
                             `condvar-ok:`",
                            w.id.name
                        ),
                    );
                }
            }
        }
        // Loop re-check: `wait_while` loops internally.
        let self_looping = unit.s.code[w.line].contains("wait_while")
            || unit.s.code[w.line].contains("wait_timeout_while");
        if !self_looping && !in_loop(unit, depths, fn_start, w.line) && !excused {
            push(
                w.line,
                "wait-not-in-loop",
                format!(
                    "`wait` on `{}` is not inside a loop re-checking its predicate — spurious \
                     wakeups and stolen signals break single-shot waits; wrap it in \
                     `while !predicate {{ ... }}` or justify with `condvar-ok:`",
                    w.id.name
                ),
            );
        }
    }
    // Pass 2: notifies on paired condvars must mutate under the mutex.
    for n in sites.iter().filter(|s| matches!(s.op, LockOp::Notify)) {
        let Some(ms) = pairings.get(&n.id.name) else { continue };
        let unit = &units[n.unit];
        if justified(&unit.s, &unit.items, n.line, "condvar-ok") {
            continue;
        }
        let under_mutex = sites.iter().any(|b| {
            b.unit == n.unit
                && b.fn_item == n.fn_item
                && b.is_acquire()
                && b.line <= n.line
                && ms.contains(&b.id.name)
        });
        if !under_mutex {
            findings.push(Finding {
                file: unit.path.clone(),
                line: n.line + 1,
                policy: POLICY_CONDVAR,
                item: qual_item(unit, n.fn_item),
                detail: "notify-without-lock".to_string(),
                chain: Vec::new(),
                message: format!(
                    "notify on `{}` without first acquiring its paired mutex (`{}`) — mutating \
                     the predicate outside the lock races the waiter's re-check (lost wakeup); \
                     take the mutex before notifying or justify with `condvar-ok:`",
                    n.id.name,
                    ms.iter().cloned().collect::<Vec<_>>().join("`, `")
                ),
                baselined: false,
            });
        }
    }

    // ---- export ----------------------------------------------------
    let mut node_set: BTreeSet<String> =
        sites.iter().filter(|s| s.is_acquire() && !s.id.local).map(|s| s.id.name.clone()).collect();
    for e in edges.values() {
        node_set.insert(e.from.name.clone());
        node_set.insert(e.to.name.clone());
    }
    let export = LockGraphExport {
        nodes: node_set.into_iter().collect(),
        edges: edges
            .values()
            .map(|e| {
                (
                    e.from.name.clone(),
                    e.to.name.clone(),
                    format!("{}:{}", e.file, e.line + 1),
                    e.marked,
                )
            })
            .collect(),
    };
    (findings, export)
}
