//! simlint v2 — static analysis for the netsim workspace.
//!
//! A real lexer ([`lexer`]) feeds an item-recovery parser ([`items`])
//! that rebuilds `fn` definitions, struct fields, and call sites; a call
//! graph ([`callgraph`]) rooted at the event dispatch loop *computes*
//! the hot-path function/file set (no hard-coded lists); and the passes
//! ([`rules`]) run over tokens and reachability. Integration tests,
//! examples, benches and doc-comment code blocks are read only as
//! callers, by `unused-pub`. A reviewed finding is
//! tolerated one way: a `// simlint: allow(<rule>) <reason>` comment at
//! its site ([`rules::Allow`]), listed with its reason in the report.
//!
//! The crate is a library so the rules are testable against fixtures;
//! `src/main.rs` is a thin CLI over [`analyze_sources`].

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod rules;

pub use rules::Finding;

use simjson::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The dispatch roots hot-path reachability starts from, as `(type,
/// method)`.
pub const DISPATCH_ROOTS: [(&str, &str); 3] = [
    ("Network", "run_until"),
    ("EventQueue", "pop_batch"),
    // The chaos campaign's per-case loop: the convergence audit
    // (`network/converge.rs`) and everything it reaches (port scans,
    // `network/faults.rs` route recomputation, `audit.rs` drain checks)
    // runs once per generated case, hundreds of times per campaign.
    ("Network", "check_convergence"),
];

/// A finding tolerated by an allow comment, with the comment's reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Why it is tolerated.
    pub reason: String,
}

/// The outcome of one analysis run.
pub struct Analysis {
    /// Findings no allow comment covers, plus one `unused-allow` per
    /// comment that silenced nothing; sorted by (file, line, rule, msg).
    pub findings: Vec<Finding>,
    /// Findings silenced by allow comments, in the same order.
    pub suppressed: Vec<Suppressed>,
    /// Computed hot-path files, sorted.
    pub hot_files: Vec<String>,
    /// Computed hot-path function labels (`Type::name (file)`), sorted.
    pub hot_fns: Vec<String>,
    /// Files analyzed.
    pub files: usize,
    /// Functions recovered.
    pub fns: usize,
    /// Call edges resolved.
    pub edges: usize,
}

/// Runs the full analysis over `(relative path, source)` pairs.
pub fn analyze_sources(sources: &[(String, String)]) -> Analysis {
    let (caller_only, linted): (Vec<_>, Vec<_>) =
        sources.iter().partition(|(rel, _)| is_caller_only(rel));
    let mut files: Vec<items::ParsedFile> = linted
        .iter()
        .map(|(rel, src)| items::parse_file(rel, src))
        .collect();
    // Caller-only files and every doc comment's code blocks are read by
    // `unused-pub` alone.
    let docs = sources
        .iter()
        .map(|(rel, src)| (format!("{rel} (doc)"), items::doc_code(src)))
        .filter(|(_, code)| !code.is_empty());
    let callers: Vec<items::ParsedFile> = caller_only
        .iter()
        .map(|(rel, src)| items::parse_file(rel, src))
        .chain(docs.map(|(rel, code)| items::parse_file(&rel, &code)))
        .collect();

    // Workspace-wide receiver-typing tables.
    let mut field_ty: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut methods_of: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for f in files.iter().chain(&callers) {
        for fd in &f.fields {
            field_ty.insert((fd.owner.clone(), fd.name.clone()), fd.ty.clone());
        }
        for fun in &f.fns {
            if let Some(o) = &fun.owner {
                methods_of
                    .entry(o.clone())
                    .or_default()
                    .push(fun.name.clone());
            }
        }
    }
    for f in &mut files {
        items::type_calls(f, &field_ty, &methods_of);
    }

    let graph = callgraph::build(&files, &DISPATCH_ROOTS);
    let map_names = rules::collect_map_names(&files);
    let ctx = rules::PassCtx {
        files: &files,
        callers: &callers,
        graph: &graph,
        map_names: &map_names,
        field_ty: &field_ty,
        methods_of: &methods_of,
    };
    let all = rules::run_all(&ctx);

    // An allow that covers a finding moves it to `suppressed`; one that
    // covers none (or has no reason) becomes a finding itself, so the
    // tolerated set can only shrink.
    let mut allows: BTreeMap<&str, Vec<rules::Allow>> = files
        .iter()
        .map(|p| (p.rel.as_str(), rules::collect_allows(&p.raw_lines)))
        .collect();
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in all {
        let allow = allows
            .get_mut(f.file.as_str())
            .and_then(|v| v.iter_mut().find(|a| a.covers(f.line, f.rule)));
        match allow {
            Some(a) => {
                a.used = true;
                suppressed.push(Suppressed {
                    file: f.file,
                    line: f.line,
                    rule: f.rule,
                    reason: a.reason.clone(),
                });
            }
            None => findings.push(f),
        }
    }
    for (file, allows) in allows {
        for a in allows.into_iter().filter(|a| !a.used) {
            let why = if a.reason.is_empty() {
                "gives no reason after the `)` and suppresses nothing; say why the finding is tolerated"
            } else {
                "silences no finding on its own or the next line; remove it"
            };
            findings.push(Finding {
                rule: "unused-allow",
                file: file.to_owned(),
                line: a.line,
                msg: format!("`simlint: allow({})` {why}", a.rules),
                chain: None,
            });
        }
    }
    findings.sort();

    let fns = files.iter().map(|f| f.fns.len()).sum();

    Analysis {
        findings,
        suppressed,
        hot_files: graph.hot_files.clone(),
        hot_fns: graph.hot_fn_labels(&files),
        files: files.len(),
        fns,
        edges: graph.edges,
    }
}

/// Directories never scanned: build output, and simlint itself — its
/// fixtures *contain* findings.
pub const SKIP_DIRS: [&str; 3] = ["simlint", "target", ".git"];

/// Is `rel` in a directory whose files only call the libraries
/// (integration tests, examples, benches)? `unused-pub` reads such files
/// for what they name; no other rule lints them.
fn is_caller_only(rel: &str) -> bool {
    rel.split('/')
        .any(|c| ["tests", "examples", "benches"].contains(&c))
}

/// Collects `(relative path, source)` for every workspace `.rs` file
/// under `<root>/crates` and the root package's `src`, `tests` and
/// `examples`, sorted by path for deterministic output.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut stack: Vec<_> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let src = std::fs::read_to_string(&path)?;
                out.push((rel, src));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Renders the full JSON report. Output is byte-stable: sorted findings,
/// sorted keys, fixed formatting.
pub fn render_report(analysis: &Analysis) -> String {
    let findings: Vec<Json> = analysis
        .findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                (
                    "chain".into(),
                    match &f.chain {
                        Some(c) => Json::Str(c.clone()),
                        None => Json::Null,
                    },
                ),
                ("file".into(), Json::Str(f.file.clone())),
                ("line".into(), Json::UInt(f.line as u64)),
                ("msg".into(), Json::Str(f.msg.clone())),
                ("rule".into(), Json::Str(f.rule.to_owned())),
            ])
        })
        .collect();
    let suppressed: Vec<Json> = analysis
        .suppressed
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("file".into(), Json::Str(s.file.clone())),
                ("line".into(), Json::UInt(s.line as u64)),
                ("reason".into(), Json::Str(s.reason.clone())),
                ("rule".into(), Json::Str(s.rule.to_owned())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("findings".into(), Json::Arr(findings)),
        (
            "hot_files".into(),
            Json::Arr(analysis.hot_files.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "hot_fns".into(),
            Json::Arr(analysis.hot_fns.iter().cloned().map(Json::Str).collect()),
        ),
        ("schema".into(), Json::Str("simlint-v4".into())),
        (
            "summary".into(),
            Json::Obj(vec![
                ("edges".into(), Json::UInt(analysis.edges as u64)),
                ("files".into(), Json::UInt(analysis.files as u64)),
                (
                    "findings".into(),
                    Json::UInt(analysis.findings.len() as u64),
                ),
                ("fns".into(), Json::UInt(analysis.fns as u64)),
                ("hot_fns".into(), Json::UInt(analysis.hot_fns.len() as u64)),
                (
                    "suppressed".into(),
                    Json::UInt(analysis.suppressed.len() as u64),
                ),
            ]),
        ),
        ("suppressed".into(), Json::Arr(suppressed)),
    ])
    .render()
}
