//! Item-level parse of scrubbed Rust source.
//!
//! The audit's policies need more structure than a token stream: the
//! enclosing function of a finding (to report it and to accept
//! item-level justifications), whether a line sits in `#[cfg(test)]`
//! code (policy exemptions), and whether it sits inside an `unsafe`
//! context (so raw-pointer `.add(` can be told apart from an
//! ordinary safe method named `add`). This module derives exactly
//! that from the [`Scrubbed`] channels — no expression parsing, just
//! brace-matched item spans:
//!
//! * `fn` / `mod` / `impl` / `trait` items with their names, line
//!   spans, visibility, and whether a `#[cfg(test)]`-family attribute
//!   gates them; `fn` items additionally record the self type of the
//!   enclosing `impl`/`trait` (their *owner*), which the call-graph
//!   resolver uses to match `Type::method` paths and `.method(`
//!   receivers;
//! * `unsafe` spans: `unsafe { … }` blocks and the bodies of
//!   `unsafe fn`s (`unsafe impl` is a marker, not a context, and is
//!   ignored);
//! * outgoing call sites ([`extract_calls`]): every `name(` postfix
//!   in the code channel, classified as a bare call, a method call
//!   (`.name(`), or a qualified path call (`path::name(`), which the
//!   interprocedural policies in [`crate::flow`] resolve against the
//!   workspace-wide item table.
//!
//! The parser works on scrubbed code, so braces and keywords inside
//! strings, chars, and comments are already gone. It is intentionally
//! conservative where Rust gets exotic (braces inside const-generic
//! signature expressions would confuse the span tracker), but the
//! workspace's own idiom — which is all the audit scans — stays well
//! inside what it handles, and the fixture self-test plus the unit
//! tests below pin the behaviour.

use crate::Scrubbed;

/// What kind of item a span is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Mod,
    Impl,
    Trait,
}

/// One brace-delimited item span (0-based line numbers, inclusive).
#[derive(Debug)]
pub struct ItemSpan {
    pub kind: ItemKind,
    pub name: String,
    pub start: usize,
    pub end: usize,
    /// A `#[cfg(test)]`-family attribute sits directly above the
    /// item.
    pub cfg_test: bool,
    /// For `fn` items: the self type of the innermost enclosing
    /// `impl` (or the name of the enclosing `trait`), if any. Free
    /// functions — including functions nested inside other functions
    /// — have no owner.
    pub owner: Option<String>,
    /// Declared `pub` with unrestricted visibility. `pub(crate)` and
    /// `pub(super)` do not count: the witness-flow policy treats only
    /// the unrestricted surface as API entry points.
    pub is_pub: bool,
    /// An `unsafe fn` (its body is also recorded in `unsafe_spans`).
    pub is_unsafe: bool,
}

/// All structure derived from one file.
#[derive(Debug, Default)]
pub struct Items {
    pub items: Vec<ItemSpan>,
    /// `unsafe` contexts as (start, end) line spans, inclusive.
    pub unsafe_spans: Vec<(usize, usize)>,
}

impl Items {
    /// The innermost `fn` whose span contains `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&ItemSpan> {
        self.enclosing_fn_idx(line).map(|i| &self.items[i])
    }

    /// Index of the innermost `fn` whose span contains `line`. The
    /// flow analysis compares indices to attribute a line to exactly
    /// one function even when spans nest.
    pub fn enclosing_fn_idx(&self, line: usize) -> Option<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.kind == ItemKind::Fn && it.start <= line && line <= it.end)
            .min_by_key(|(_, it)| it.end - it.start)
            .map(|(i, _)| i)
    }

    /// Whether `line` is inside any `#[cfg(test)]`-gated item.
    pub fn in_test(&self, line: usize) -> bool {
        self.items.iter().any(|it| it.cfg_test && it.start <= line && line <= it.end)
    }

    /// Whether `line` is inside an `unsafe` block or `unsafe fn`
    /// body.
    pub fn in_unsafe(&self, line: usize) -> bool {
        self.unsafe_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }
}

/// A token of scrubbed code: words plus the structural symbols the
/// span tracker needs. `(` is kept only to tell `fn name(` item
/// declarations apart from `fn(...)` pointer types, and to recognize
/// restricted visibility (`pub(crate)`).
#[derive(Debug, PartialEq)]
enum Tok {
    Word(String),
    LBrace,
    RBrace,
    LParen,
    Semi,
}

fn tokenize(s: &Scrubbed) -> Vec<(usize, Tok)> {
    let mut out = Vec::new();
    // A `;` inside `[...]` is an array-length separator (`[u64; 4]`,
    // possibly in a return type before the item's `{`), not a
    // statement end — suppress it so it cannot cancel a pending item.
    let mut bracket_depth = 0usize;
    for (line_no, line) in s.code.iter().enumerate() {
        let mut word = String::new();
        for c in line.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
                continue;
            }
            if !word.is_empty() {
                out.push((line_no, Tok::Word(std::mem::take(&mut word))));
            }
            match c {
                '{' => out.push((line_no, Tok::LBrace)),
                '}' => out.push((line_no, Tok::RBrace)),
                '(' => out.push((line_no, Tok::LParen)),
                '[' => bracket_depth += 1,
                ']' => bracket_depth = bracket_depth.saturating_sub(1),
                ';' if bracket_depth == 0 => out.push((line_no, Tok::Semi)),
                _ => {}
            }
        }
        if !word.is_empty() {
            out.push((line_no, Tok::Word(word)));
        }
    }
    out
}

/// Whether the contiguous attribute/comment/blank run directly above
/// `line` carries a `cfg(test)`-family gate (`#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, `#[test]`).
fn gated_by_test(s: &Scrubbed, line: usize) -> bool {
    let mut j = line;
    while j > 0 {
        j -= 1;
        let code = s.code[j].trim();
        let comment = &s.comments[j];
        if code.starts_with("#[") {
            if code.contains("cfg(test)") || code.contains("cfg(all(test") || code == "#[test]" {
                return true;
            }
        } else if !code.is_empty() {
            return false;
        } else if comment.is_empty() {
            // blank line: attributes may sit above doc comments etc.
        }
        // comment-only and blank lines: keep walking
    }
    false
}

/// Extracts the self type of an `impl` whose header spans scrubbed
/// lines `start..=brace_line`: the last path segment of the type
/// after `for` (in `impl Trait for Type`), or of the head type
/// otherwise, with generic argument lists skipped.
fn impl_self_type(s: &Scrubbed, start: usize, brace_line: usize) -> String {
    let mut text = String::new();
    for l in start..=brace_line.min(s.code.len().saturating_sub(1)) {
        text.push_str(&s.code[l]);
        text.push(' ');
    }
    let Some(pos) = text.find("impl") else {
        return String::from("impl");
    };
    let rest = &text[pos + "impl".len()..];
    // Collect path words at angle-bracket depth 0, so generic
    // parameters (`impl<T: Copy> Stack<T>`) and argument lists never
    // masquerade as the self type.
    let mut words: Vec<String> = Vec::new();
    let mut word = String::new();
    let mut depth = 0i32;
    for c in rest.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            '{' => break,
            _ if depth == 0 && (c.is_alphanumeric() || c == '_' || c == ':') => word.push(c),
            _ if depth == 0 && !word.is_empty() => {
                words.push(std::mem::take(&mut word));
            }
            _ => {}
        }
    }
    if !word.is_empty() {
        words.push(word);
    }
    let head = match words.iter().position(|w| w == "for") {
        Some(p) => words.get(p + 1),
        None => words.iter().find(|w| !matches!(w.as_str(), "dyn" | "mut" | "const")),
    };
    match head {
        Some(path) => path.rsplit("::").next().unwrap_or(path).to_string(),
        None => String::from("impl"),
    }
}

/// Parses item and unsafe-context spans out of scrubbed source.
pub fn parse_items(s: &Scrubbed) -> Items {
    let toks = tokenize(s);
    let mut items = Items::default();

    /// What closing the matching `}` finalizes.
    enum Open {
        /// Index into `items.items`.
        Item(usize),
        /// Index into `items.unsafe_spans`.
        Unsafe(usize),
        /// `unsafe fn`: both spans close together.
        ItemUnsafe(usize, usize),
        Anon,
    }
    let mut stack: Vec<Open> = Vec::new();
    // Item keyword seen, its `{` not yet:
    // (kind, name, line, unsafe, pub).
    let mut pending: Option<(ItemKind, String, usize, bool, bool)> = None;
    // `unsafe` seen, not yet resolved into a block/fn/impl.
    let mut unsafe_at: Option<usize> = None;
    // Unrestricted `pub` seen, not yet consumed by an item keyword.
    let mut pub_pending = false;

    let mut i = 0;
    while i < toks.len() {
        let (line, tok) = &toks[i];
        match tok {
            Tok::Word(w) => match w.as_str() {
                "unsafe" => unsafe_at = Some(*line),
                "pub" => {
                    // `pub(crate)` / `pub(super)` are restricted —
                    // not part of the public API surface.
                    pub_pending = !matches!(toks.get(i + 1), Some((_, Tok::LParen)));
                }
                "fn" => {
                    // `fn name(` declares an item; `fn(` is a pointer
                    // type and `Fn(..)` bounds tokenize differently.
                    if let Some((_, Tok::Word(name))) = toks.get(i + 1) {
                        let is_unsafe_fn = unsafe_at.take().is_some();
                        let is_pub = std::mem::take(&mut pub_pending);
                        pending = Some((ItemKind::Fn, name.clone(), *line, is_unsafe_fn, is_pub));
                        i += 1; // skip the name
                    }
                }
                "mod" => {
                    if let Some((_, Tok::Word(name))) = toks.get(i + 1) {
                        let is_pub = std::mem::take(&mut pub_pending);
                        pending = Some((ItemKind::Mod, name.clone(), *line, false, is_pub));
                        unsafe_at = None;
                        i += 1;
                    }
                }
                "trait" => {
                    if let Some((_, Tok::Word(name))) = toks.get(i + 1) {
                        let is_pub = std::mem::take(&mut pub_pending);
                        pending = Some((ItemKind::Trait, name.clone(), *line, false, is_pub));
                        // `unsafe trait` is a marker, not a context.
                        unsafe_at = None;
                        i += 1;
                    }
                }
                "impl" => {
                    // Not inside a signature (`-> impl Trait`): an
                    // `impl` block only begins where no item is
                    // already pending.
                    if pending.is_none() {
                        let is_pub = std::mem::take(&mut pub_pending);
                        pending = Some((ItemKind::Impl, String::new(), *line, false, is_pub));
                    }
                    // `unsafe impl` is a marker, not a context.
                    unsafe_at = None;
                }
                _ => {}
            },
            Tok::LBrace => {
                pub_pending = false;
                if let Some((kind, name, start, is_unsafe_fn, is_pub)) = pending.take() {
                    // Impl self types are only extractable once the
                    // whole header (up to this `{`) is visible.
                    let name =
                        if kind == ItemKind::Impl { impl_self_type(s, start, *line) } else { name };
                    // A fn declared directly inside an impl/trait is
                    // owned by that type; anything else (including
                    // fns nested in other fns) is free.
                    let owner = if kind == ItemKind::Fn {
                        stack
                            .iter()
                            .rev()
                            .find_map(|o| match o {
                                Open::Item(idx) | Open::ItemUnsafe(idx, _) => Some(*idx),
                                _ => None,
                            })
                            .and_then(|idx| {
                                let it = &items.items[idx];
                                matches!(it.kind, ItemKind::Impl | ItemKind::Trait)
                                    .then(|| it.name.clone())
                            })
                    } else {
                        None
                    };
                    let idx = items.items.len();
                    items.items.push(ItemSpan {
                        kind,
                        name,
                        start,
                        end: usize::MAX,
                        cfg_test: gated_by_test(s, start),
                        owner,
                        is_pub,
                        is_unsafe: is_unsafe_fn,
                    });
                    if is_unsafe_fn {
                        items.unsafe_spans.push((start, usize::MAX));
                        stack.push(Open::ItemUnsafe(idx, items.unsafe_spans.len() - 1));
                    } else {
                        stack.push(Open::Item(idx));
                    }
                } else if let Some(us) = unsafe_at.take() {
                    items.unsafe_spans.push((us, usize::MAX));
                    stack.push(Open::Unsafe(items.unsafe_spans.len() - 1));
                } else {
                    stack.push(Open::Anon);
                }
            }
            Tok::RBrace => {
                pub_pending = false;
                match stack.pop() {
                    Some(Open::Item(idx)) => items.items[idx].end = *line,
                    Some(Open::Unsafe(si)) => items.unsafe_spans[si].1 = *line,
                    Some(Open::ItemUnsafe(idx, si)) => {
                        items.items[idx].end = *line;
                        items.unsafe_spans[si].1 = *line;
                    }
                    Some(Open::Anon) | None => {}
                }
            }
            Tok::LParen => {}
            Tok::Semi => {
                // `fn f();` in a trait, `mod m;`: no span.
                pending = None;
                unsafe_at = None;
                pub_pending = false;
            }
        }
        i += 1;
    }

    // Unclosed spans (truncated input): extend to EOF.
    let eof = s.code.len().saturating_sub(1);
    for it in &mut items.items {
        if it.end == usize::MAX {
            it.end = eof;
        }
    }
    for span in &mut items.unsafe_spans {
        if span.1 == usize::MAX {
            span.1 = eof;
        }
    }
    items
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a free function in scope.
    Bare,
    /// `.name(...)` — a method on some receiver.
    Method,
    /// `path::name(...)` — the qualifier is the `::`-joined path
    /// without the final segment (`schedule`, `MicroSpec`,
    /// `spmv_telemetry::metrics`, `Self`, …).
    Qualified(String),
}

/// One outgoing call in a file (0-based line number).
#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: usize,
    pub name: String,
    pub kind: CallKind,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "in", "as", "move", "let",
    "mut", "ref", "unsafe", "where", "impl", "dyn", "box", "await", "yield", "use", "pub", "crate",
    "super", "self", "Self", "static", "const", "type", "struct", "enum", "union", "trait", "mod",
    "break", "continue",
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extracts every call site from the scrubbed code channel: an
/// identifier directly followed by `(`, excluding declarations
/// (`fn name(`), macros (`name!(` leaves `!` before the paren),
/// keywords, and — for bare calls — uppercase-initial names, which
/// are tuple-struct/variant constructors (`Some(`, `Ok(`), not
/// function calls. Turbofish calls (`parse::<f64>()`) are skipped:
/// the `>` before the paren hides the name, which keeps the graph
/// conservative rather than wrong.
pub fn extract_calls(s: &Scrubbed) -> Vec<CallSite> {
    let mut out = Vec::new();
    for (line_no, line) in s.code.iter().enumerate() {
        let b = line.as_bytes();
        for p in 0..b.len() {
            if b[p] != b'(' {
                continue;
            }
            let mut e = p;
            while e > 0 && is_ident_byte(b[e - 1]) {
                e -= 1;
            }
            if e == p {
                continue; // `)(`, `!(`, `((`, `<...>()` …
            }
            let name = &line[e..p];
            if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
                continue;
            }
            // `fn name(` is a declaration, not a call.
            let before = line[..e].trim_end();
            if before.ends_with("fn")
                && (before.len() == 2 || !is_ident_byte(before.as_bytes()[before.len() - 3]))
            {
                continue;
            }
            let kind = if e >= 1 && b[e - 1] == b'.' && !(e >= 2 && b[e - 2] == b'.') {
                CallKind::Method
            } else if e >= 2 && b[e - 1] == b':' && b[e - 2] == b':' {
                // Walk the `seg::seg::` chain backwards to recover
                // the qualifier.
                let mut segs: Vec<&str> = Vec::new();
                let mut k = e - 2;
                loop {
                    let seg_end = k;
                    let mut s0 = k;
                    while s0 > 0 && is_ident_byte(b[s0 - 1]) {
                        s0 -= 1;
                    }
                    if s0 == seg_end {
                        break; // `<T as Trait>::name(` and friends
                    }
                    segs.push(&line[s0..seg_end]);
                    if s0 >= 2 && b[s0 - 1] == b':' && b[s0 - 2] == b':' {
                        k = s0 - 2;
                    } else {
                        break;
                    }
                }
                if segs.is_empty() {
                    CallKind::Method
                } else {
                    segs.reverse();
                    CallKind::Qualified(segs.join("::"))
                }
            } else {
                CallKind::Bare
            };
            if kind == CallKind::Bare && name.as_bytes()[0].is_ascii_uppercase() {
                continue;
            }
            out.push(CallSite { line: line_no, name: name.to_string(), kind });
        }
    }
    out
}

/// Which blocking primitive a lock site invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockOp {
    /// `Mutex::lock` — the `.lock()` method form or the workspace's
    /// bare `lock(&mutex)` poison-stripping helper form.
    Lock,
    /// `RwLock::read` (`.read()` with no arguments).
    Read,
    /// `RwLock::write` (`.write()` with no arguments).
    Write,
    /// `Condvar::wait` / `wait_while` / `wait_timeout*`.
    Wait,
    /// `Condvar::notify_one` / `notify_all`.
    Notify,
}

impl LockOp {
    /// Human-readable operation name for findings.
    pub fn describe(self) -> &'static str {
        match self {
            LockOp::Lock => "Mutex::lock",
            LockOp::Read => "RwLock::read",
            LockOp::Write => "RwLock::write",
            LockOp::Wait => "Condvar::wait",
            LockOp::Notify => "Condvar::notify",
        }
    }
}

/// One lock-acquisition or condvar site (0-based line number).
///
/// `recv` is the literal receiver path text: `self.state`,
/// `done.slot`, `registry()`, `REGISTRY`, … For the bare
/// `lock(&mutex)` helper form it is the first argument with `&`/`mut`
/// stripped. Identity classification (static/field/local, `lock-id:`
/// aliasing) happens later, in [`crate::locks`] — extraction is
/// purely lexical.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub line: usize,
    pub op: LockOp,
    pub recv: String,
    /// Guard binding target when the statement is `let [mut] g = …`,
    /// a plain `g = …` reassignment, or a `_ => g = …` match arm.
    /// `None` for unbound (temporary) guards, which die on their own
    /// line.
    pub bound: Option<String>,
    /// For `Wait` sites: the guard variable passed as first argument,
    /// which ties the wait back to the mutex that produced the guard.
    pub arg: Option<String>,
}

/// Method-form patterns: (pattern, op, requires-zero-args). The
/// zero-arg requirement is what tells `RwLock::read()` apart from
/// `io::Read::read(&mut buf)` and `RwLock::write()` from
/// `io::Write::write(&buf)`.
const METHOD_OPS: &[(&str, LockOp, bool)] = &[
    (".lock(", LockOp::Lock, true),
    (".read(", LockOp::Read, true),
    (".write(", LockOp::Write, true),
    (".wait(", LockOp::Wait, false),
    (".wait_while(", LockOp::Wait, false),
    (".wait_timeout(", LockOp::Wait, false),
    (".wait_timeout_while(", LockOp::Wait, false),
    (".notify_one(", LockOp::Notify, false),
    (".notify_all(", LockOp::Notify, false),
];

/// Walks a receiver expression backwards from `end` (exclusive):
/// identifier bytes, `.` separators, and complete `(...)` groups
/// (call receivers like `registry()`). Returns the start index.
fn recv_walk(b: &[u8], end: usize) -> usize {
    let mut j = end;
    loop {
        if j == 0 {
            return 0;
        }
        let c = b[j - 1];
        if is_ident_byte(c) || c == b'.' {
            j -= 1;
        } else if c == b')' {
            let mut depth = 1usize;
            let mut k = j - 1;
            while k > 0 && depth > 0 {
                k -= 1;
                match b[k] {
                    b')' => depth += 1,
                    b'(' => depth -= 1,
                    _ => {}
                }
            }
            if depth != 0 {
                return j;
            }
            j = k;
        } else {
            return j;
        }
    }
}

/// Extracts the receiver path ending at byte `dot` of line `line_no`,
/// joining up to three previous lines when a rustfmt-broken method
/// chain puts `.lock()` at the start of a line. Returns the receiver
/// text plus the (line, column) where the statement's receiver
/// begins, which is where a `let g =` binding would sit.
fn receiver_before(s: &Scrubbed, line_no: usize, dot: usize) -> (String, usize, usize) {
    let mut recv = String::new();
    let mut cur = line_no;
    let mut end = dot;
    let (mut stmt_line, mut stmt_col) = (line_no, dot);
    for _ in 0..4 {
        let line = &s.code[cur];
        let start = recv_walk(line.as_bytes(), end);
        if start < end {
            recv.insert_str(0, &line[start..end]);
            stmt_line = cur;
            stmt_col = start;
        }
        // Keep joining only while the chain segment begins the line
        // (nothing but indentation before it) and the previous line
        // ends in something a receiver could continue from.
        if start > 0 && !line[..start].chars().all(char::is_whitespace) {
            break;
        }
        if cur == 0 {
            break;
        }
        let prev_trim = s.code[cur - 1].trim_end();
        let Some(&pc) = prev_trim.as_bytes().last() else { break };
        if !(is_ident_byte(pc) || pc == b')') {
            break;
        }
        cur -= 1;
        end = prev_trim.len();
    }
    (recv, stmt_line, stmt_col)
}

/// Detects a guard binding in the statement prefix before a receiver:
/// `let [mut] g =`, a plain `g =` reassignment, or a `.. => g =`
/// match-arm rebinding. Comparison operators (`==`, `>=`, `=>` …) and
/// compound assignments never match.
fn bound_before(prefix: &str) -> Option<String> {
    let t = prefix.trim_end().strip_suffix('=')?;
    if t.ends_with(['=', '<', '>', '!', '+', '-', '*', '/', '%', '&', '|', '^']) {
        return None;
    }
    let t = t.trim_end();
    let b = t.as_bytes();
    let mut e = b.len();
    while e > 0 && is_ident_byte(b[e - 1]) {
        e -= 1;
    }
    if e == t.len() || t.as_bytes()[e].is_ascii_digit() {
        return None;
    }
    let var = &t[e..];
    let mut rest = t[..e].trim_end();
    if let Some(r) = rest.strip_suffix("mut") {
        if r.is_empty() || !is_ident_byte(*r.as_bytes().last().unwrap_or(&b' ')) {
            rest = r.trim_end();
        }
    }
    if let Some(r) = rest.strip_suffix("let") {
        if r.is_empty() || !is_ident_byte(*r.as_bytes().last().unwrap_or(&b' ')) {
            rest = r.trim_end();
        }
    }
    (rest.is_empty() || rest.ends_with('{') || rest.ends_with(';') || rest.ends_with("=>"))
        .then(|| var.to_string())
}

/// First argument of a `wait*` call as a plain identifier (`&`, `mut`
/// stripped); `None` when the argument is not a simple variable.
fn first_arg_ident(after: &str) -> Option<String> {
    let t = after.trim_start().trim_start_matches('&').trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let b = t.as_bytes();
    let mut e = 0;
    while e < b.len() && is_ident_byte(b[e]) {
        e += 1;
    }
    if e == 0 || b[0].is_ascii_digit() {
        return None;
    }
    Some(t[..e].to_string())
}

/// First argument of the bare `lock(&expr)` helper form, as a `.`
/// path with `&`/`mut` stripped.
fn bare_arg(after: &str) -> String {
    let t = after.trim_start();
    let t = t.strip_prefix('&').unwrap_or(t);
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let b = t.as_bytes();
    let mut e = 0;
    while e < b.len() && (is_ident_byte(b[e]) || b[e] == b'.') {
        e += 1;
    }
    t[..e].trim_end_matches('.').to_string()
}

/// Extracts every lock-acquisition and condvar site from the scrubbed
/// code channel. Purely lexical: `.lock()` / zero-argument `.read()` /
/// `.write()` / `.wait*( … )` / `.notify_*()` method calls plus the
/// bare `lock(&mutex)` helper-call form, each with its receiver path,
/// guard binding, and (for waits) guard argument. Classification —
/// whether a `.read()` is really an `RwLock`, whether a receiver is a
/// wrapper method — is [`crate::locks`]'s job; decoys like `unlock()`
/// or `io::Write::write(&buf)` are already excluded here by the
/// word-boundary and zero-arg rules.
pub fn extract_locks(s: &Scrubbed) -> Vec<LockSite> {
    let mut out = Vec::new();
    for (line_no, line) in s.code.iter().enumerate() {
        let b = line.as_bytes();
        for p in 0..b.len() {
            if b[p] == b'.' {
                let Some(&(pat, op, zero_args)) =
                    METHOD_OPS.iter().find(|(pat, ..)| line[p..].starts_with(pat))
                else {
                    continue;
                };
                let after = p + pat.len();
                if zero_args && !line[after..].trim_start().starts_with(')') {
                    continue;
                }
                let (recv, stmt_line, stmt_col) = receiver_before(s, line_no, p);
                if recv.is_empty() || recv.starts_with('.') || recv.as_bytes()[0].is_ascii_digit() {
                    continue;
                }
                let arg = if op == LockOp::Wait { first_arg_ident(&line[after..]) } else { None };
                let bound = if op == LockOp::Notify {
                    None
                } else {
                    bound_before(&s.code[stmt_line][..stmt_col])
                };
                out.push(LockSite { line: line_no, op, recv, bound, arg });
            } else if line[p..].starts_with("lock(")
                && (p == 0 || (!is_ident_byte(b[p - 1]) && b[p - 1] != b'.' && b[p - 1] != b':'))
            {
                // `fn lock(` is a declaration, not a call.
                let before = line[..p].trim_end();
                if before.ends_with("fn")
                    && (before.len() == 2 || !is_ident_byte(before.as_bytes()[before.len() - 3]))
                {
                    continue;
                }
                let recv = bare_arg(&line[p + "lock(".len()..]);
                if recv.is_empty() {
                    continue;
                }
                let bound = bound_before(&line[..p]);
                out.push(LockSite { line: line_no, op: LockOp::Lock, recv, bound, arg: None });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub;

    fn parse(text: &str) -> Items {
        parse_items(&scrub(text))
    }

    #[test]
    fn fn_mod_impl_spans_with_names() {
        let text = "mod outer {\n    impl Foo {\n        fn bar(&self) {\n            body();\n        }\n    }\n}\n";
        let items = parse(text);
        let kinds: Vec<_> = items.items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![(ItemKind::Mod, "outer"), (ItemKind::Impl, "Foo"), (ItemKind::Fn, "bar")]
        );
        let f = items.enclosing_fn(3).expect("body line inside fn");
        assert_eq!(f.name, "bar");
        assert_eq!((f.start, f.end), (2, 4));
        assert_eq!(f.owner.as_deref(), Some("Foo"));
    }

    #[test]
    fn cfg_test_gating_is_span_based_not_column_based() {
        let text = "fn real() {\n    work();\n}\n\n    #[cfg(test)]\n    mod tests {\n        fn helper() {\n            x();\n        }\n    }\n";
        let items = parse(text);
        assert!(!items.in_test(1), "real fn body is not test code");
        assert!(items.in_test(7), "indented #[cfg(test)] mod still gates its span");
    }

    #[test]
    fn unsafe_blocks_and_unsafe_fns_are_contexts_but_unsafe_impl_is_not() {
        let text = "fn f() {\n    unsafe {\n        p.add(1);\n    }\n    q.add(2);\n}\nunsafe fn g() {\n    r();\n}\nunsafe impl Send for X {\n    \n}\n";
        let items = parse(text);
        assert!(items.in_unsafe(2), "inside unsafe block");
        assert!(!items.in_unsafe(4), "after the block closes");
        assert!(items.in_unsafe(7), "unsafe fn body");
        assert!(!items.in_unsafe(10), "unsafe impl is a marker, not a context");
        let g = items.enclosing_fn(7).expect("g");
        assert!(g.is_unsafe);
    }

    #[test]
    fn fn_pointer_types_and_impl_trait_returns_are_not_items() {
        let text = "struct S {\n    build: fn(&mut W) -> I,\n}\nfn mk() -> impl Iterator<Item = u32> {\n    it()\n}\n";
        let items = parse(text);
        let fns: Vec<_> = items
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(fns, vec!["mk"], "{:?}", items.items);
    }

    #[test]
    fn trait_method_signatures_produce_no_spans() {
        let text = "trait T {\n    fn a(&self);\n    fn b(&self) {\n        default();\n    }\n}\n";
        let items = parse(text);
        let fns: Vec<_> = items
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.as_str(), i.owner.as_deref()))
            .collect();
        assert_eq!(fns, vec![("b", Some("T"))]);
    }

    #[test]
    fn array_type_semicolons_do_not_cancel_a_pending_fn() {
        let text = "fn pack(name: &str) -> [u64; 3] {\n    body();\n}\n";
        let items = parse(text);
        assert_eq!(items.enclosing_fn(1).expect("fn with array return type").name, "pack");
    }

    #[test]
    fn nested_fn_resolution_picks_innermost() {
        let text = "fn outer() {\n    fn inner() {\n        x();\n    }\n    y();\n}\n";
        let items = parse(text);
        assert_eq!(items.enclosing_fn(2).expect("inner").name, "inner");
        assert_eq!(items.enclosing_fn(4).expect("outer").name, "outer");
        assert_eq!(items.enclosing_fn(2).expect("inner").owner, None, "nested fns are free");
    }

    #[test]
    fn impl_self_types_are_extracted() {
        let text = "impl<'a> Menu<'a> {\n    fn pick(&self) {}\n}\nimpl fmt::Display for CsrKernel {\n    fn fmt(&self) {}\n}\nimpl Drop\n    for Guard<'_>\n{\n    fn drop(&mut self) {}\n}\n";
        let items = parse(text);
        let owners: Vec<_> = items
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| i.owner.as_deref().unwrap_or("-"))
            .collect();
        assert_eq!(owners, vec!["Menu", "CsrKernel", "Guard"]);
    }

    #[test]
    fn visibility_tracks_unrestricted_pub_only() {
        let text = "pub fn api() {}\npub(crate) fn internal() {}\nfn private() {}\npub struct S { pub x: u32 }\nfn after_struct() {}\npub const fn cexpr() {}\n";
        let items = parse(text);
        let vis: Vec<_> = items
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.as_str(), i.is_pub))
            .collect();
        assert_eq!(
            vis,
            vec![
                ("api", true),
                ("internal", false),
                ("private", false),
                ("after_struct", false),
                ("cexpr", true)
            ]
        );
    }

    #[test]
    fn call_extraction_classifies_bare_method_and_qualified() {
        let s = scrub(
            "fn f(x: &[u64]) {\n    helper(x);\n    x.iter().sum::<u64>();\n    schedule::execute(x);\n    Self::claim(x);\n    spmv_telemetry::metrics::engine_dispatch();\n    let _ = Some(3);\n    vec![0; n];\n    assert!(g(x));\n}\n",
        );
        let calls = extract_calls(&s);
        let got: Vec<_> = calls.iter().map(|c| (c.line, c.name.as_str(), c.kind.clone())).collect();
        assert!(got.contains(&(1, "helper", CallKind::Bare)), "{got:?}");
        assert!(got.contains(&(2, "iter", CallKind::Method)), "{got:?}");
        assert!(got.contains(&(3, "execute", CallKind::Qualified("schedule".into()))), "{got:?}");
        assert!(got.contains(&(4, "claim", CallKind::Qualified("Self".into()))), "{got:?}");
        assert!(
            got.contains(&(
                5,
                "engine_dispatch",
                CallKind::Qualified("spmv_telemetry::metrics".into())
            )),
            "{got:?}"
        );
        assert!(got.contains(&(8, "g", CallKind::Bare)), "inner macro args still scanned");
        // Constructors, macros, and the `sum::<u64>()` turbofish must
        // not appear as calls.
        assert!(!got.iter().any(|(_, n, _)| *n == "Some"), "{got:?}");
        assert!(!got.iter().any(|(_, n, _)| *n == "vec"), "{got:?}");
        assert!(!got.iter().any(|(_, n, _)| *n == "sum"), "{got:?}");
        assert!(!got.iter().any(|(_, n, _)| *n == "f"), "declaration is not a call");
    }

    #[test]
    fn call_extraction_skips_ranges_and_declarations() {
        let s =
            scrub("fn g(n: usize) {\n    for i in 0..count(n) {\n        use_it(i);\n    }\n}\n");
        let calls = extract_calls(&s);
        let count = calls.iter().find(|c| c.name == "count").expect("count call");
        assert_eq!(count.kind, CallKind::Bare, "`..count(` is a bare call, not a method");
    }

    #[test]
    fn lock_extraction_method_and_bare_forms() {
        let s = scrub(
            "fn f(&self) {\n    let mut state = self.state.lock().unwrap();\n    let _d = lock(&self.dispatch);\n    let g = REGISTRY.lock().unwrap();\n    drop(g);\n}\n",
        );
        let sites = extract_locks(&s);
        let got: Vec<_> =
            sites.iter().map(|l| (l.line, l.op, l.recv.as_str(), l.bound.as_deref())).collect();
        assert_eq!(
            got,
            vec![
                (1, LockOp::Lock, "self.state", Some("state")),
                (2, LockOp::Lock, "self.dispatch", Some("_d")),
                (3, LockOp::Lock, "REGISTRY", Some("g")),
            ]
        );
    }

    #[test]
    fn lock_extraction_joins_rustfmt_broken_chains() {
        let s = scrub(
            "fn obs(&self) -> Vec<Obs> {\n    self.observations\n        .lock()\n        .unwrap_or_else(|p| p.into_inner())\n        .clone()\n}\n",
        );
        let sites = extract_locks(&s);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].recv, "self.observations");
        assert_eq!(sites[0].line, 2, "site reported at the `.lock()` line");
        assert_eq!(sites[0].bound, None, "expression position, not a binding");
    }

    #[test]
    fn lock_extraction_wait_captures_guard_arg_and_match_arm_rebinding() {
        let s = scrub(
            "fn w(&self) {\n    let mut st = self.state.lock().unwrap();\n    loop {\n        match st.job {\n            Some(_) => break,\n            None => st = self.work.wait(st).unwrap(),\n        }\n    }\n    self.done.notify_all();\n}\n",
        );
        let sites = extract_locks(&s);
        let wait = sites.iter().find(|l| l.op == LockOp::Wait).expect("wait site");
        assert_eq!(wait.recv, "self.work");
        assert_eq!(wait.arg.as_deref(), Some("st"));
        assert_eq!(wait.bound.as_deref(), Some("st"), "match-arm rebinding is a binding");
        let notify = sites.iter().find(|l| l.op == LockOp::Notify).expect("notify site");
        assert_eq!(notify.recv, "self.done");
    }

    #[test]
    fn lock_extraction_rejects_io_and_name_decoys() {
        let s = scrub(
            "fn d(&self, out: &mut TcpStream) {\n    out.write(b\"x\").unwrap();\n    out.read(&mut self.buf).unwrap();\n    self.cell.unlock();\n    relock(self);\n    let n = 0..lock_step(3);\n    let r = self.shared.read();\n}\n",
        );
        let sites = extract_locks(&s);
        let got: Vec<_> = sites.iter().map(|l| (l.op, l.recv.as_str())).collect();
        // Only the zero-arg `.read()` survives; whether it is really
        // an RwLock is the classifier's problem, not the extractor's.
        assert_eq!(got, vec![(LockOp::Read, "self.shared")], "{sites:?}");
    }

    #[test]
    fn lock_extraction_zero_arg_rule_admits_rwlock_read_write() {
        let s = scrub(
            "fn rw(l: &RwLock<u32>) {\n    let r = l.read().unwrap();\n    drop(r);\n    *l.write().unwrap() += 1;\n}\n",
        );
        let sites = extract_locks(&s);
        let got: Vec<_> = sites.iter().map(|l| (l.line, l.op)).collect();
        assert_eq!(got, vec![(1, LockOp::Read), (3, LockOp::Write)]);
    }
}

/// Property coverage for the item parser: random interleavings of
/// real functions with decoy `fn` tokens and braces hidden inside
/// strings, raw strings, char literals, and (nested) comments. The
/// invariant under test is the one every policy depends on: the
/// parsed `Fn` spans cover exactly the real `fn` tokens, once each.
#[cfg(test)]
mod span_proptests {
    use super::*;
    use crate::{has_token, scrub};
    use proptest::prelude::*;

    /// Appends chunk `i` of the given kind to `src`, recording any
    /// real function name it introduces.
    fn render(i: usize, kind: u8, src: &mut String, expected: &mut Vec<String>) {
        match kind {
            0 => {
                src.push_str(&format!("fn f{i}() {{ let _x = {i}; }}\n"));
                expected.push(format!("f{i}"));
            }
            1 => {
                src.push_str(&format!(
                    "fn f{i}() {{\n    if true {{\n        let _ = [0u8; 3];\n    }}\n}}\n"
                ));
                expected.push(format!("f{i}"));
            }
            2 => src.push_str(&format!("const S{i}: &str = \" fn bogus{i}() {{ }} \";\n")),
            3 => src.push_str(&format!("const R{i}: &str = r#\" fn decoy{i}() {{\n}} \"#;\n")),
            4 => src.push_str(&format!("const C{i}: (char, char) = ('{{', '}}');\n")),
            5 => src.push_str(&format!("// fn ghost{i}() {{\n")),
            6 => src.push_str(&format!("/* fn ghost{i}() {{ /* inner }} */ }} */\n")),
            _ => {
                src.push_str(&format!(
                    "struct T{i};\nimpl T{i} {{ fn m{i}(&self) -> u32 {{ 7 }} }}\n"
                ));
                expected.push(format!("m{i}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn fn_spans_cover_every_fn_token_exactly_once(
            kinds in proptest::collection::vec(0u8..8, 1..16)
        ) {
            let mut src = String::new();
            let mut expected = Vec::new();
            for (i, &k) in kinds.iter().enumerate() {
                render(i, k, &mut src, &mut expected);
            }
            let s = scrub(&src);
            let items = parse_items(&s);
            let got: Vec<String> = items
                .items
                .iter()
                .filter(|it| it.kind == ItemKind::Fn)
                .map(|it| it.name.clone())
                .collect();
            prop_assert_eq!(&got, &expected, "parsed fns diverge from generated fns");

            // Every surviving `fn` token in the scrubbed code starts
            // exactly one span; every decoy was scrubbed away.
            let mut starts: Vec<usize> = items
                .items
                .iter()
                .filter(|it| it.kind == ItemKind::Fn)
                .map(|it| it.start)
                .collect();
            starts.sort_unstable();
            let fn_lines: Vec<usize> = s
                .code
                .iter()
                .enumerate()
                .filter(|(_, c)| has_token(c, "fn"))
                .map(|(l, _)| l)
                .collect();
            prop_assert_eq!(starts, fn_lines);
        }
    }
}

/// Property coverage for the lock-site extractor: random
/// interleavings of real acquisition shapes (guards bound in match
/// arms, shadowed guard bindings, `drop(guard)` early release,
/// rustfmt-broken chains, the bare helper form) with decoys
/// (`unlock`/`relock` names, lock calls inside strings and comments,
/// argument-taking `read`/`write`). The invariant: extraction finds
/// every generated acquisition site exactly once — never a miss,
/// never a double count — with the expected op and binding.
#[cfg(test)]
mod lock_proptests {
    use super::*;
    use crate::scrub;
    use proptest::prelude::*;

    type Expect = (usize, LockOp, &'static str, Option<&'static str>);

    /// Appends chunk `i` of the given kind to `src`, recording every
    /// real acquisition site it introduces as
    /// (line, op, recv-suffix, bound).
    fn render(i: usize, kind: u8, src: &mut String, expected: &mut Vec<Expect>) {
        let base = src.lines().count();
        match kind {
            0 => {
                src.push_str(&format!(
                    "fn a{i}(m: &Mutex<u32>) {{\n    let mut g = m.lock().unwrap();\n    *g += 1;\n}}\n"
                ));
                expected.push((base + 1, LockOp::Lock, "m", Some("g")));
            }
            1 => {
                // Guard rebound in a match arm inside a wait loop.
                src.push_str(&format!(
                    "fn b{i}(m: &Mutex<u32>, c: &Condvar) {{\n    let mut g = m.lock().unwrap();\n    loop {{\n        match *g {{\n            0 => g = c.wait(g).unwrap(),\n            _ => break,\n        }}\n    }}\n}}\n"
                ));
                expected.push((base + 1, LockOp::Lock, "m", Some("g")));
                expected.push((base + 4, LockOp::Wait, "c", Some("g")));
            }
            2 => {
                // Shadowed guard bindings: two distinct sites.
                src.push_str(&format!(
                    "fn c{i}(m: &Mutex<u32>, n: &Mutex<u32>) {{\n    let g = m.lock().unwrap();\n    let g = n.lock().unwrap();\n    drop(g);\n}}\n"
                ));
                expected.push((base + 1, LockOp::Lock, "m", Some("g")));
                expected.push((base + 2, LockOp::Lock, "n", Some("g")));
            }
            3 => {
                // drop(guard) early release between two acquisitions.
                src.push_str(&format!(
                    "fn d{i}(&self) {{\n    let g = self.first.lock().unwrap();\n    drop(g);\n    let h = self.second.lock().unwrap();\n    drop(h);\n}}\n"
                ));
                expected.push((base + 1, LockOp::Lock, "self.first", Some("g")));
                expected.push((base + 3, LockOp::Lock, "self.second", Some("h")));
            }
            4 => {
                // rustfmt-broken chain: receiver on the previous line.
                src.push_str(&format!(
                    "fn e{i}(&self) -> u32 {{\n    self.observations\n        .lock()\n        .unwrap()\n        .len()\n}}\n"
                ));
                expected.push((base + 2, LockOp::Lock, "self.observations", None));
            }
            5 => {
                // Bare poison-stripping helper form.
                src.push_str(&format!(
                    "fn h{i}(&self) {{\n    let st = lock(&self.shared.state);\n    drop(st);\n}}\n"
                ));
                expected.push((base + 1, LockOp::Lock, "self.shared.state", Some("st")));
            }
            6 => src.push_str(&format!(
                "const S{i}: &str = \" m.lock() c.wait(g) \";\n// ghost{i}: g = m.lock();\n"
            )),
            _ => {
                // Name and io decoys: none of these are lock sites.
                src.push_str(&format!(
                    "fn z{i}(b: &mut Buf{i}) {{\n    b.unlock();\n    relock(b);\n    b.write(&[{i}]).unwrap();\n    b.read(&mut [0]).unwrap();\n}}\n"
                ));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn lock_sites_are_extracted_exactly_once(
            kinds in proptest::collection::vec(0u8..8, 1..16)
        ) {
            let mut src = String::new();
            let mut expected = Vec::new();
            for (i, &k) in kinds.iter().enumerate() {
                render(i, k, &mut src, &mut expected);
            }
            let sites = extract_locks(&scrub(&src));
            let got: Vec<(usize, LockOp, String, Option<String>)> = sites
                .iter()
                .map(|l| (l.line, l.op, l.recv.clone(), l.bound.clone()))
                .collect();
            let want: Vec<(usize, LockOp, String, Option<String>)> = expected
                .iter()
                .map(|&(line, op, recv, bound)| {
                    (line, op, recv.to_string(), bound.map(str::to_string))
                })
                .collect();
            prop_assert_eq!(&got, &want, "lock sites diverge from generated sites");
        }
    }
}
