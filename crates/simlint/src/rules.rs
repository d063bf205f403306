//! The passes. Five legacy rules (map-iter, counter-arith, float-cmp,
//! hot-unwrap, metric-lookup) reimplemented on the lexer + call-graph
//! engine, the three scale-arc passes (determinism-taint, hot-alloc,
//! shard-safety), unused-pub, which reads every other file of the
//! workspace as a caller of netsim, and owner, which keeps each
//! mechanism of the [`OWNERS`] table in its one home. Hot-path-scoped
//! rules consult the computed reachable set — no hard-coded file lists —
//! and carry an example call chain from the dispatch root in their
//! message.

use crate::callgraph::{CallGraph, FnId};
use crate::items::{receiver_type, ParsedFile, PubDecl, TYPE_KINDS};
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One diagnostic. Findings order by (file, line, rule, message), the
/// order every report lists them in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
    /// Call chain from a dispatch root (hot-path rules only).
    pub chain: Option<String>,
}

/// Byte/occupancy counter identifiers covered by counter-arith. The rule
/// applies in every file that declares at least one of them as a
/// `u64`-typed struct field (computed, not a file list).
pub const COUNTER_TOKENS: [&str; 8] = [
    "occupied",
    "ingress",
    "queued_bytes",
    "egress_depth",
    "bytes_since_sample",
    "q_old",
    "wire",
    "free",
];

/// Map methods that iterate in unspecified order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// The crate whose public surface `unused-pub` audits.
pub const SURFACE: &str = "crates/netsim/src/";

/// Every rule, with a one-line description (used by `--help` and docs).
pub const RULES: [(&str, &str); 11] = [
    (
        "map-iter",
        "no iteration over HashMap/HashSet (or aliases) in library code — std hash order is per-process random",
    ),
    (
        "counter-arith",
        "byte/occupancy counters use netsim::units::checked, not bare +/-/as",
    ),
    (
        "float-cmp",
        "no partial_cmp().unwrap() (NaN panic); no ==/!= against float literals in stats code",
    ),
    (
        "hot-unwrap",
        "no unwrap()/expect() in dispatch-reachable functions",
    ),
    (
        "metric-lookup",
        "no by-name counter lookup (`.metric(…)`) in dispatch-reachable functions",
    ),
    (
        "determinism-taint",
        "no ambient nondeterminism (Instant, SystemTime, env, RandomState, pointer-identity casts) reachable from dispatch",
    ),
    (
        "hot-alloc",
        "no steady-state allocation (Vec::new, Box::new, format!, clone, collect, …) in dispatch-reachable functions",
    ),
    (
        "shard-safety",
        "inventory of shared-mutable constructs (Rc, RefCell, Cell, static mut, thread_local!) in hot files",
    ),
    (
        "unused-pub",
        "a `pub` item or field of netsim that no other crate, test, example or doctest names; make it `pub(crate)`",
    ),
    (
        "owner",
        "a construct of the `OWNERS` table (transmitter, trace record, NP, go-back-N state, registry count, paper formula, …) outside its one home",
    ),
    (
        "unused-allow",
        "a `simlint: allow(…)` comment that silences no finding, or gives no reason after the `)`",
    ),
];

/// One `// simlint: allow(rule[, rule…]) reason` comment: the one way
/// to tolerate a finding. It covers its own line and the next one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line of the comment.
    pub line: u32,
    /// The text between the parentheses, as written.
    pub rules: String,
    /// Why the finding is tolerated: the text after the `)`. An allow
    /// without one suppresses nothing.
    pub reason: String,
    /// Has it silenced a finding yet? One that never does is reported.
    pub used: bool,
}

impl Allow {
    /// Does this comment tolerate a `rule` finding on `line`? Rule names
    /// match **exactly** (sharing a prefix with another rule does not
    /// count); `allow(all)` names every rule.
    pub fn covers(&self, line: u32, rule: &str) -> bool {
        (self.line == line || self.line + 1 == line)
            && !self.reason.is_empty()
            && self
                .rules
                .split(',')
                .map(str::trim)
                .any(|r| r == rule || r == "all")
    }
}

/// Every allow comment of a file, in line order (one per line).
pub fn collect_allows(raw_lines: &[String]) -> Vec<Allow> {
    const MARKER: &str = "simlint: allow(";
    let mut out = Vec::new();
    for (i, l) in raw_lines.iter().enumerate() {
        let Some(pos) = l.find(MARKER) else { continue };
        let inner = &l[pos + MARKER.len()..];
        let Some(close) = inner.find(')') else {
            continue;
        };
        out.push(Allow {
            line: i as u32 + 1,
            rules: inner[..close].to_owned(),
            reason: inner[close + 1..].trim().to_owned(),
            used: false,
        });
    }
    out
}

/// Context shared by the passes.
pub struct PassCtx<'a> {
    /// All linted files.
    pub files: &'a [ParsedFile],
    /// Files read only for what they name (`unused-pub`): integration
    /// tests, examples, benches, and the code blocks of doc comments.
    pub callers: &'a [ParsedFile],
    /// The computed call graph.
    pub graph: &'a CallGraph,
    /// Identifiers bound to map types anywhere in non-test code.
    pub map_names: &'a BTreeSet<String>,
    /// Workspace-wide `(struct, field) → type head` table.
    pub field_ty: &'a BTreeMap<(String, String), String>,
    /// Workspace-wide `type → method names` table.
    pub methods_of: &'a BTreeMap<String, Vec<String>>,
}

/// Collects identifiers bound to `HashMap`/`HashSet` (or an alias of
/// them) across all non-test code: type ascriptions (`name: RouteTable`)
/// and constructor bindings (`name = HashMap::new()`).
pub fn collect_map_names(files: &[ParsedFile]) -> BTreeSet<String> {
    let mut types: BTreeSet<String> = ["HashMap", "HashSet"]
        .into_iter()
        .map(str::to_owned)
        .collect();
    for f in files {
        for a in &f.map_aliases {
            types.insert(a.clone());
        }
    }
    let mut names = BTreeSet::new();
    for f in files {
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            if f.test_tok[i] || t.kind != TokKind::Ident || !types.contains(&t.text) {
                continue;
            }
            // Walk back over path qualifiers (`std::collections::HashMap`).
            let mut j = i;
            while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            }
            if j == 0 {
                continue;
            }
            let prev = &toks[j - 1];
            let binder = if prev.is_punct(":") || prev.is_punct("=") {
                // `::` path segments were consumed above, so a lone `:`
                // here is a real type ascription.
                toks.get(j.wrapping_sub(2))
            } else {
                None
            };
            if let Some(b) = binder {
                if b.kind == TokKind::Ident
                    && !b.text.is_empty()
                    && !types.contains(&b.text)
                    && b.text != "type"
                {
                    names.insert(b.text.clone());
                }
            }
        }
    }
    names
}

/// All passes, in rule order. Suppressions are applied by the caller.
pub fn run_all(ctx: &PassCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    map_iter(ctx, &mut out);
    counter_arith(ctx, &mut out);
    float_cmp(ctx, &mut out);
    hot_unwrap(ctx, &mut out);
    metric_lookup(ctx, &mut out);
    determinism_taint(ctx, &mut out);
    hot_alloc(ctx, &mut out);
    shard_safety(ctx, &mut out);
    unused_pub(ctx, &mut out);
    owner(ctx, &mut out);
    out.sort();
    out
}

// ---- map-iter -----------------------------------------------------------

fn map_iter(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for f in ctx.files {
        let toks = &f.tokens;
        for i in 0..toks.len() {
            if f.test_tok[i] {
                continue;
            }
            let t = &toks[i];
            // `recv.iter()` forms.
            if t.kind == TokKind::Ident
                && ctx.map_names.contains(&t.text)
                && matches!(toks.get(i + 1), Some(d) if d.is_punct("."))
                && matches!(toks.get(i + 2), Some(m) if m.kind == TokKind::Ident
                    && ITER_METHODS.contains(&m.text.as_str()))
                && matches!(toks.get(i + 3), Some(p) if p.is_punct("("))
            {
                out.push(Finding {
                    rule: "map-iter",
                    file: f.rel.clone(),
                    line: t.line,
                    msg: format!(
                        "`{}.{}()` iterates a HashMap/HashSet in unspecified order; \
                         use a BTreeMap, a sorted Vec, or an insertion-order list",
                        t.text,
                        toks[i + 2].text
                    ),
                    chain: None,
                });
            }
            // `for … in [&[mut]] name {` forms.
            if t.is_ident("for") {
                // Find `in` at bracket depth 0, then the `{` opening the body.
                let mut j = i + 1;
                let mut depth = 0isize;
                let mut in_at = None;
                while j < toks.len() && j < i + 24 {
                    let tj = &toks[j];
                    if tj.is_punct("(") || tj.is_punct("[") {
                        depth += 1;
                    } else if tj.is_punct(")") || tj.is_punct("]") {
                        depth -= 1;
                    } else if depth == 0 && tj.is_ident("in") {
                        in_at = Some(j);
                        break;
                    }
                    j += 1;
                }
                let Some(in_at) = in_at else { continue };
                let mut k = in_at + 1;
                depth = 0;
                let mut body_at = None;
                while k < toks.len() {
                    let tk = &toks[k];
                    if tk.is_punct("(") || tk.is_punct("[") {
                        depth += 1;
                    } else if tk.is_punct(")") || tk.is_punct("]") {
                        depth -= 1;
                    } else if depth == 0 && tk.is_punct("{") {
                        body_at = Some(k);
                        break;
                    }
                    k += 1;
                }
                let Some(body_at) = body_at else { continue };
                if body_at == in_at + 1 {
                    continue;
                }
                let last = &toks[body_at - 1];
                let before = &toks[body_at - 2];
                if last.kind == TokKind::Ident
                    && ctx.map_names.contains(&last.text)
                    && (before.is_punct(".")
                        || before.is_punct("&")
                        || before.is_ident("in")
                        || before.is_ident("mut"))
                {
                    out.push(Finding {
                        rule: "map-iter",
                        file: f.rel.clone(),
                        line: t.line,
                        msg: format!(
                            "`for .. in {}` iterates a HashMap/HashSet in unspecified order",
                            last.text
                        ),
                        chain: None,
                    });
                }
            }
        }
    }
}

// ---- counter-arith ------------------------------------------------------

fn counter_arith(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for f in ctx.files {
        // The rule applies in files that declare a u64-typed counter field.
        let declares = f
            .fields
            .iter()
            .any(|fd| fd.is_u64 && COUNTER_TOKENS.contains(&fd.name.as_str()));
        if !declares {
            continue;
        }
        for (line, range) in line_ranges(&f.tokens) {
            if f.test_tok[range.start] {
                continue;
            }
            let toks = &f.tokens[range.clone()];
            let touches = toks
                .iter()
                .any(|t| t.kind == TokKind::Ident && COUNTER_TOKENS.contains(&t.text.as_str()));
            if !touches {
                continue;
            }
            let kind = if toks.iter().any(|t| t.is_punct("+=") || t.is_punct("-=")) {
                Some("compound assignment")
            } else if toks.iter().any(|t| t.is_punct("+")) {
                Some("bare `+`")
            } else if has_binary_minus(toks) {
                Some("bare `-`")
            } else if toks.iter().any(|t| t.is_ident("as")) {
                Some("bare `as` cast")
            } else {
                None
            };
            if let Some(kind) = kind {
                out.push(Finding {
                    rule: "counter-arith",
                    file: f.rel.clone(),
                    line,
                    msg: format!(
                        "{kind} on a byte/occupancy counter; use netsim::units::checked \
                         (checked_accum, checked_drain, scale_bytes) or a \
                         saturating_* method"
                    ),
                    chain: None,
                });
            }
        }
    }
}

/// `-` used as a binary operator within a line's tokens (the lexer makes
/// `->` a separate token, so only real minus signs are seen here).
fn has_binary_minus(toks: &[Tok]) -> bool {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct("-") {
            continue;
        }
        if i == 0 {
            continue;
        }
        let prev = &toks[i - 1];
        let binary = matches!(prev.kind, TokKind::Ident | TokKind::Num)
            || prev.is_punct(")")
            || prev.is_punct("]");
        if binary && !prev.is_ident("return") && !prev.is_ident("as") {
            return true;
        }
    }
    false
}

// ---- float-cmp ----------------------------------------------------------

fn float_cmp(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for f in ctx.files {
        let is_stats = f.rel.ends_with("stats.rs");
        for (line, range) in line_ranges(&f.tokens) {
            if f.test_tok[range.start] {
                continue;
            }
            let toks = &f.tokens[range.clone()];
            let has_pc = toks.iter().any(|t| t.is_ident("partial_cmp"));
            let has_unwrap = toks
                .iter()
                .any(|t| t.is_ident("unwrap") || t.is_ident("expect"));
            if has_pc && has_unwrap {
                out.push(Finding {
                    rule: "float-cmp",
                    file: f.rel.clone(),
                    line,
                    msg: "`partial_cmp().unwrap()` panics on NaN; use `total_cmp`".into(),
                    chain: None,
                });
            }
            if is_stats {
                for (i, t) in toks.iter().enumerate() {
                    if !(t.is_punct("==") || t.is_punct("!=")) {
                        continue;
                    }
                    let float_side = [i.checked_sub(1), Some(i + 1)]
                        .into_iter()
                        .flatten()
                        .filter_map(|k| toks.get(k))
                        .any(|n| n.is_float());
                    if float_side {
                        out.push(Finding {
                            rule: "float-cmp",
                            file: f.rel.clone(),
                            line,
                            msg: "exact equality against a float literal in stats code; \
                                  use an epsilon or integer domain"
                                .into(),
                            chain: None,
                        });
                        break;
                    }
                }
            }
        }
    }
}

// ---- hot-path passes ----------------------------------------------------

/// Iterates all hot, non-test functions with their file and chain.
fn for_hot_fns(ctx: &PassCtx<'_>, mut visit: impl FnMut(&ParsedFile, FnId, &str)) {
    for &id in &ctx.graph.hot {
        let file = &ctx.files[id.0];
        let f = &file.fns[id.1];
        if f.is_test {
            continue;
        }
        let chain = ctx.graph.chain(ctx.files, id);
        visit(file, id, &chain);
    }
}

fn hot_unwrap(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for_hot_fns(ctx, |file, id, chain| {
        let body = &file.fns[id.1].body;
        let toks = &file.tokens;
        for i in body.clone() {
            if !toks[i].is_punct(".") {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if (m.is_ident("unwrap") || m.is_ident("expect"))
                && matches!(toks.get(i + 2), Some(p) if p.is_punct("("))
            {
                out.push(Finding {
                    rule: "hot-unwrap",
                    file: file.rel.clone(),
                    line: m.line,
                    msg: "`unwrap()`/`expect()` in a dispatch-reachable function; use \
                          let-else with a degrade path (drop + debug_assert)"
                        .into(),
                    chain: Some(chain.to_owned()),
                });
            }
        }
    });
}

fn metric_lookup(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for_hot_fns(ctx, |file, id, chain| {
        let body = &file.fns[id.1].body;
        let toks = &file.tokens;
        for i in body.clone() {
            if !toks[i].is_punct(".") {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if m.is_ident("metric") && matches!(toks.get(i + 2), Some(p) if p.is_punct("(")) {
                out.push(Finding {
                    rule: "metric-lookup",
                    file: file.rel.clone(),
                    line: m.line,
                    msg: "`.metric(…)` reads a counter by name, scanning the counter \
                          table, in a dispatch-reachable function; read the owner's \
                          field, or resolve the reader once at configuration \
                          (`find_counter`) and call it"
                        .into(),
                    chain: Some(chain.to_owned()),
                });
            }
        }
    });
}

fn determinism_taint(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for_hot_fns(ctx, |file, id, chain| {
        let body = &file.fns[id.1].body;
        let toks = &file.tokens;
        for i in body.clone() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let what: Option<&str> = match t.text.as_str() {
                "Instant" => Some("wall-clock `Instant` read"),
                "SystemTime" => Some("wall-clock `SystemTime` read"),
                "RandomState" | "DefaultHasher" => Some("per-process randomized hasher"),
                "FxHashMap" | "FxHasher" | "fxhash" => Some("address-sensitive fxhash"),
                "env" if matches!(toks.get(i + 1), Some(n) if n.is_punct("::")) => {
                    Some("process-environment read")
                }
                "thread"
                    if matches!(toks.get(i + 1), Some(n) if n.is_punct("::"))
                        && matches!(toks.get(i + 2), Some(m) if m.is_ident("current")
                            || m.is_ident("available_parallelism")
                            || m.is_ident("sleep")
                            || m.is_ident("spawn")) =>
                {
                    Some("thread-identity/scheduling dependence")
                }
                "as" if matches!(toks.get(i + 1), Some(s) if s.is_punct("*"))
                    && matches!(toks.get(i + 2), Some(c) if c.is_ident("const") || c.is_ident("mut")) =>
                {
                    Some("pointer-identity cast (addresses as values)")
                }
                _ => None,
            };
            if let Some(what) = what {
                out.push(Finding {
                    rule: "determinism-taint",
                    file: file.rel.clone(),
                    line: t.line,
                    msg: format!(
                        "{what} reachable from the dispatch loop breaks \
                         byte-identical replay (run = f(config, seed))"
                    ),
                    chain: Some(chain.to_owned()),
                });
            }
        }
    });
}

fn hot_alloc(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    const ALLOC_TYPES: [&str; 8] = [
        "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String", "Box",
    ];
    const ALLOC_MACROS: [&str; 4] = ["vec", "format", "println", "eprintln"];
    const ALLOC_METHODS: [&str; 5] = ["to_string", "to_owned", "to_vec", "collect", "clone"];
    for_hot_fns(ctx, |file, id, chain| {
        let body = &file.fns[id.1].body;
        let toks = &file.tokens;
        for i in body.clone() {
            let t = &toks[i];
            let what: Option<String> = if t.kind == TokKind::Ident
                && ALLOC_TYPES.contains(&t.text.as_str())
                && matches!(toks.get(i + 1), Some(n) if n.is_punct("::"))
                && matches!(toks.get(i + 2), Some(m) if m.is_ident("new")
                    || m.is_ident("with_capacity")
                    || m.is_ident("from"))
            {
                Some(format!("`{}::{}`", t.text, toks[i + 2].text))
            } else if t.kind == TokKind::Ident
                && ALLOC_MACROS.contains(&t.text.as_str())
                && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"))
            {
                Some(format!("`{}!`", t.text))
            } else if t.is_punct(".")
                && matches!(toks.get(i + 1), Some(m) if m.kind == TokKind::Ident
                    && ALLOC_METHODS.contains(&m.text.as_str()))
                && matches!(toks.get(i + 2), Some(p) if p.is_punct("(") || p.is_punct("::"))
            {
                Some(format!("`.{}()`", toks[i + 1].text))
            } else {
                None
            };
            if let Some(what) = what {
                let line = if t.is_punct(".") {
                    toks[i + 1].line
                } else {
                    t.line
                };
                out.push(Finding {
                    rule: "hot-alloc",
                    file: file.rel.clone(),
                    line,
                    msg: format!(
                        "{what} in a dispatch-reachable function allocates in steady \
                         state; reuse a scratch buffer, reserve capacity up front, or \
                         move the work off the hot path"
                    ),
                    chain: Some(chain.to_owned()),
                });
            }
        }
    });
}

fn shard_safety(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    // Whole hot *files* (module-level statics live outside any fn).
    let hot_files: BTreeSet<&str> = ctx.graph.hot_files.iter().map(String::as_str).collect();
    for f in ctx.files {
        if !hot_files.contains(f.rel.as_str()) {
            continue;
        }
        let toks = &f.tokens;
        // `use` lines only import names; the construct is flagged where
        // it is declared or stored.
        let use_lines: BTreeSet<u32> = line_ranges(toks)
            .into_iter()
            .filter(|(_, r)| toks[r.start].is_ident("use"))
            .map(|(l, _)| l)
            .collect();
        for i in 0..toks.len() {
            if f.test_tok[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident || use_lines.contains(&t.line) {
                continue;
            }
            let what: Option<&str> = match t.text.as_str() {
                "Rc" if followed_by_type_use(toks, i) => Some("`Rc` (non-atomic shared ownership)"),
                "RefCell" => Some("`RefCell` (unsynchronized interior mutability)"),
                "UnsafeCell" => Some("`UnsafeCell`"),
                "Cell" if followed_by_type_use(toks, i) => {
                    Some("`Cell` (unsynchronized interior mutability)")
                }
                "static" if matches!(toks.get(i + 1), Some(m) if m.is_ident("mut")) => {
                    Some("`static mut` (global mutable state)")
                }
                "thread_local" if matches!(toks.get(i + 1), Some(n) if n.is_punct("!")) => {
                    Some("`thread_local!` (per-worker divergence)")
                }
                _ => None,
            };
            if let Some(what) = what {
                out.push(Finding {
                    rule: "shard-safety",
                    file: f.rel.clone(),
                    line: t.line,
                    msg: format!(
                        "{what} in a hot-path module would poison deterministic \
                         sharded execution; use per-shard state or a \
                         message-passing boundary"
                    ),
                    chain: None,
                });
            }
        }
    }
}

// ---- unused-pub ---------------------------------------------------------

/// What the callers name: bare identifiers, `Type::member` pairs (paths,
/// and method calls or field reads whose receiver types), and the
/// structs they build by literal.
#[derive(Default)]
struct Named {
    bare: BTreeSet<String>,
    members: BTreeSet<(String, String)>,
    literals: BTreeSet<String>,
}

/// Tokens that make a following `Name {` a declaration or a type rather
/// than a struct literal.
const NOT_LITERAL: [&str; 9] = [
    "struct", "enum", "union", "trait", "impl", "for", "->", "dyn", "mod",
];

/// A type-like path segment: capitalized, and not `Self`.
fn is_type_name(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && t.text != "Self"
        && t.text.starts_with(|c: char| c.is_ascii_uppercase())
}

impl Named {
    fn read(&mut self, file: &ParsedFile, ctx: &PassCtx<'_>) {
        let toks = &file.tokens;
        let enclosing = enclosing_fns(file);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            if prev.is_some_and(|p| p.is_punct("::")) && i >= 2 && is_type_name(&toks[i - 2]) {
                self.members
                    .insert((toks[i - 2].text.clone(), t.text.clone()));
                continue;
            }
            if prev.is_some_and(|p| p.is_punct(".")) {
                let is_member = |ty: &String| {
                    ctx.methods_of
                        .get(ty)
                        .is_some_and(|ms| ms.contains(&t.text))
                        || ctx.field_ty.contains_key(&(ty.clone(), t.text.clone()))
                };
                let typed = enclosing[i]
                    .map(|k| &file.fns[k])
                    .and_then(|f| receiver_type(toks, i, &f.owner, &f.params, ctx.field_ty))
                    .filter(is_member);
                if let Some(ty) = typed {
                    self.members.insert((ty, t.text.clone()));
                    continue;
                }
            }
            if is_type_name(t)
                && toks.get(i + 1).is_some_and(|n| n.is_punct("{"))
                && !prev.is_some_and(|p| NOT_LITERAL.contains(&p.text.as_str()))
            {
                self.literals.insert(t.text.clone());
            }
            self.bare.insert(t.text.clone());
        }
    }
}

fn unused_pub(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    let mut named = Named::default();
    let outside = ctx.files.iter().filter(|f| !f.rel.starts_with(SURFACE));
    for f in ctx.callers.iter().chain(outside) {
        named.read(f, ctx);
    }
    let decls: Vec<(&ParsedFile, &PubDecl)> = ctx
        .files
        .iter()
        .filter(|f| f.rel.starts_with(SURFACE))
        .flat_map(|f| f.pub_decls.iter().map(move |d| (f, d)))
        .collect();

    // Grow the used set to a fixpoint. A type is public when a caller
    // names it or a used declaration's signature exposes it; a member
    // counts only once its owner is public.
    let mut used = vec![false; decls.len()];
    let mut exposed: BTreeSet<&str> = BTreeSet::new();
    let mut public_types: BTreeSet<&str> = BTreeSet::new();
    loop {
        let mut grew = false;
        for (k, &(file, d)) in decls.iter().enumerate() {
            let name = d.name.as_str();
            let is_type = TYPE_KINDS.contains(&d.kind);
            let hit = match &d.owner {
                None => named.bare.contains(name) || (is_type && exposed.contains(name)),
                Some(o) => {
                    public_types.contains(o.as_str())
                        && (named.bare.contains(name)
                            || named.members.contains(&(o.clone(), d.name.clone()))
                            || (d.kind == "field" && named.literals.contains(o)))
                }
            };
            if used[k] || !hit {
                continue;
            }
            used[k] = true;
            grew = true;
            if is_type {
                public_types.insert(name);
            }
            let sig = &file.tokens[d.sig.clone()];
            exposed.extend(
                sig.iter()
                    .filter(|t| is_type_name(t))
                    .map(|t| t.text.as_str()),
            );
        }
        if !grew {
            break;
        }
    }

    for (&(file, d), _) in decls.iter().zip(&used).filter(|(_, &u)| !u) {
        let what = match &d.owner {
            Some(o) => format!("{o}::{}", d.name),
            None => d.name.clone(),
        };
        out.push(Finding {
            rule: "unused-pub",
            file: file.rel.clone(),
            line: d.line,
            msg: format!(
                "`pub {} {what}` is named by no other crate, test, example or \
                 doctest; make it `pub(crate)`, or delete it if nothing uses it",
                d.kind
            ),
            chain: None,
        });
    }
}

// ---- owner --------------------------------------------------------------

/// A construct with one home. `pattern` is matched on the non-test tokens
/// of every file under `scope`; a match outside `owners` is a finding.
pub struct Owner {
    /// Space-separated elements, each matching one token (`a|b`: either
    /// text; `!a|b`: neither; `#`: any number) or a balanced `{…}` group.
    /// String and char literals never match, and comments are not tokens.
    pub pattern: &'static str,
    /// Path prefixes of the files searched, `|`-separated.
    pub scope: &'static str,
    /// Where the construct may appear: a file, or one function written
    /// as in the report's `hot_fns` (`Type::name (file)`). Empty when it
    /// has no place under `scope`.
    pub owners: &'static [&'static str],
    /// The one-line reason.
    pub why: &'static str,
}

/// The library sources that model the paper (simbench's frozen kernels
/// are not among them).
const PAPER: &str = "src/|crates/netsim/src/|crates/dcqcn/src/|crates/fluid/src/|\
                     crates/baselines/src/|crates/experiments/src/|crates/workloads/src/";

/// One copy of each mechanism: where each one lives, and why.
pub const OWNERS: [Owner; 17] = [
    Owner {
        pattern: "Event :: TxDone|Deliver {…} !=>",
        scope: SURFACE,
        owners: &["crates/netsim/src/port.rs"],
        why: "one transmitter: only Port schedules a frame's TxDone and Deliver",
    },
    Owner {
        pattern: "Event :: TxDone|Deliver {…} =>",
        scope: SURFACE,
        owners: &["crates/netsim/src/event.rs", "crates/netsim/src/network.rs"],
        why: "TxDone and Deliver are matched only by Event::kind_index and Network::dispatch",
    },
    Owner {
        pattern: "!struct|impl|-> TraceEvent {",
        scope: SURFACE,
        owners: &["Ctx::record_trace (crates/netsim/src/network.rs)"],
        why: "one trace record: Ctx::record_trace feeds the tracer and the flight recorder",
    },
    Owner {
        pattern: "last_cnp",
        scope: SURFACE,
        owners: &["crates/netsim/src/cc.rs"],
        why: "one NP: its state lives in cc.rs",
    },
    Owner {
        pattern: "unacked|last_nack|consecutive_timeouts",
        scope: SURFACE,
        owners: &["crates/netsim/src/qp.rs"],
        why: "one go-back-N transport: its state lives in qp.rs, not in Host",
    },
    Owner {
        pattern: "metrics . inc|add (",
        scope: SURFACE,
        owners: &["Network::check_convergence (crates/netsim/src/network/converge.rs)"],
        why: "one count per event: a switch, flow or fault field owns every other counter, \
              so Metrics counts only the two convergence counters",
    },
    Owner {
        pattern: "fault_drops",
        scope: "crates/netsim/src/audit.rs",
        owners: &[],
        why: "the auditor keeps no fault count: FaultStats owns it",
    },
    Owner {
        pattern: "fn dispatch_inner|banner|run_all",
        scope: "crates/experiments/src/",
        owners: &[],
        why: "an experiment is one row of experiments::{ALL, EXT}, and dispatch reads the row",
    },
    Owner {
        pattern: "Vec < Json",
        scope: "crates/netsim/src/telemetry/spans.rs",
        owners: &[],
        why: "the Chrome trace streams from the recorder through simjson::Writer, \
              not through a vector of per-event trees",
    },
    Owner {
        pattern: "Network|Json|shrink_case|run_case|chaos_host_config",
        scope: "crates/netsim/src/chaos.rs",
        owners: &[],
        why: "a chaos case is data in netsim: experiments::chaos executes, shrinks and files it",
    },
    Owner {
        pattern: "kmax_bytes|kmax_pkts -",
        scope: PAPER,
        owners: &[
            "crates/netsim/src/ecn.rs",
            "crates/fluid/src/params.rs",
            "crates/fluid/src/fixedpoint.rs",
        ],
        why: "Eq. 5's ramp is RedConfig::mark_probability; fluid's transcription of the §5 DDEs \
              is the one declared second copy",
    },
    Owner {
        pattern: "1.0 - self . alpha|params /|. 2.0|g",
        scope: PAPER,
        owners: &["crates/dcqcn/src/rp.rs", "crates/baselines/src/dctcp.rs"],
        why: "DCQCN's 1 − α/2 cut and α's EWMA live in dcqcn::rp; dctcp.rs is DCTCP's own \
              W(1 − α/2), a separate algorithm",
    },
    Owner {
        pattern: "Duration :: from_micros ( 50 )",
        scope: PAPER,
        owners: &["crates/netsim/src/cc.rs"],
        why: "N = 50 µs is written once, as netsim::cc::CNP_INTERVAL, beside the NP",
    },
    Owner {
        pattern: "shared_pool|Static ( )|#",
        scope: PAPER,
        owners: &[
            "crates/dcqcn/src/thresholds.rs",
            "SharedBuffer::pfc_threshold (crates/netsim/src/buffer.rs)",
        ],
        why: "§4's arithmetic divides the shared pool only in dcqcn::thresholds (and the dynamic \
              t_PFC in SharedBuffer), and a static t_PFC is its call, not a typed number",
    },
    Owner {
        pattern: "clamp ( 0.0 , 100.0 )",
        scope: "crates/netsim/src/",
        owners: &["crates/netsim/src/stats.rs"],
        why: "one quantile definition: every percentile reads its rank from stats::nearest_rank",
    },
    Owner {
        pattern: "Queued :: new",
        scope: "crates/netsim/src/switch.rs",
        owners: &["Switch::receive (crates/netsim/src/switch.rs)"],
        why: "every frame a switch queues was admitted by its shared buffer",
    },
    Owner {
        pattern: "env :: set_var|remove_var",
        scope: "src/|crates/",
        owners: &[],
        why: "the process environment is read-only: repro reads REPRO_THREADS once, and \
              tests hand the harness a thread count",
    },
];

fn owner(ctx: &PassCtx<'_>, out: &mut Vec<Finding>) {
    for f in ctx.files {
        let rows = OWNERS
            .iter()
            .filter(|r| r.scope.split('|').any(|p| f.rel.starts_with(p)));
        let enclosing = enclosing_fns(f);
        for row in rows {
            let elems: Vec<&str> = row.pattern.split(' ').collect();
            for i in (0..f.tokens.len()).filter(|&i| !f.test_tok[i]) {
                let Some(at) = match_at(&f.tokens, i, &elems) else {
                    continue;
                };
                let home = enclosing[at].map(|k| format!("{} ({})", f.fns[k].label(), f.rel));
                if row
                    .owners
                    .iter()
                    .any(|o| *o == f.rel || Some(*o) == home.as_deref())
                {
                    continue;
                }
                let msg = match row.owners {
                    [] => format!(
                        "`{}` has no place under {}: {}",
                        row.pattern, row.scope, row.why
                    ),
                    homes => format!(
                        "`{}` belongs in {} only: {}",
                        row.pattern,
                        homes.join(", "),
                        row.why
                    ),
                };
                out.push(Finding {
                    rule: "owner",
                    file: f.rel.clone(),
                    line: f.tokens[at].line,
                    msg,
                    chain: None,
                });
            }
        }
    }
}

/// Matches an [`Owner::pattern`]'s elements starting at token `i`, and
/// returns the index of the first token a positive element matched.
fn match_at(toks: &[Tok], mut i: usize, elems: &[&str]) -> Option<usize> {
    let mut first = None;
    for e in elems {
        let t = toks.get(i)?;
        if !e.starts_with('!') {
            first.get_or_insert(i);
        }
        let is = |alts: &str| {
            alts.split('|').any(|a| match t.kind {
                TokKind::Num => a == "#" || a == t.text,
                TokKind::Ident | TokKind::Punct => a == t.text,
                _ => false,
            })
        };
        if *e == "{…}" {
            if !t.is_punct("{") {
                return None;
            }
            let mut depth = 0usize;
            loop {
                let t = toks.get(i)?;
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i += 1;
            }
        } else if let Some(alts) = e.strip_prefix('!') {
            if is(alts) {
                return None;
            }
        } else if !is(e) {
            return None;
        }
        i += 1;
    }
    first
}

/// The innermost fn around each token of `file` (fns are in source
/// order, so a nested fn overwrites its parent).
fn enclosing_fns(file: &ParsedFile) -> Vec<Option<usize>> {
    let mut enclosing = vec![None; file.tokens.len()];
    for (k, f) in file.fns.iter().enumerate() {
        enclosing[f.body.clone()].fill(Some(k));
    }
    enclosing
}

/// `Rc`/`Cell` only count when used as a type or constructor (`Rc<`,
/// `Rc::new`) — a local variable merely *named* `rc` stays an `Ident`
/// with different text, but an enum variant `Cell` in a match arm should
/// not fire.
fn followed_by_type_use(toks: &[Tok], i: usize) -> bool {
    matches!(toks.get(i + 1), Some(n) if n.is_punct("<") || n.is_punct("::"))
}

/// Groups a token stream into per-line index ranges.
fn line_ranges(toks: &[Tok]) -> Vec<(u32, std::ops::Range<usize>)> {
    let mut out: Vec<(u32, std::ops::Range<usize>)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match out.last_mut() {
            Some((line, range)) if *line == t.line => range.end = i + 1,
            _ => out.push((t.line, i..i + 1)),
        }
    }
    out
}
