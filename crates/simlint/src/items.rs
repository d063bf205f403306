//! Item recovery on top of the lexer: function definitions (with owner
//! type, parameter types, and body token ranges), struct fields (with
//! type heads, for receiver-type resolution), map-type aliases, and
//! `#[cfg(test)]` regions tracked by brace depth — an inner non-test
//! module after a test module correctly leaves the exemption (the old
//! scanner assumed tests always sat at the bottom of the file).

use crate::lexer::{lex, Tok, TokKind};

/// A call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `recv.name(…)` whose receiver could not be typed; resolved by
    /// method name across the workspace (minus std-shadowed names).
    Method(String),
    /// `recv.name(…)` whose receiver chain resolved to a workspace type:
    /// `(type, method)`.
    Typed(String, String),
    /// `Qualifier::name(…)`.
    Path(String, String),
    /// `name(…)` with no receiver or qualifier.
    Free(String),
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro(String),
}

/// A recovered `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Owning type when defined inside `impl Type` / `impl Trait for
    /// Type`.
    pub owner: Option<String>,
    /// Does the parameter list contain `self`?
    pub has_self: bool,
    /// Typed parameters: `(name, type-head)` — `ctx: &mut Ctx` yields
    /// `("ctx", "Ctx")`.
    pub params: Vec<(String, String)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (empty for bodyless trait methods).
    pub body: std::ops::Range<usize>,
    /// Inside a `#[cfg(test)]` region or carrying `#[test]`.
    pub is_test: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `Type::name` for a method, `name` for a free function.
    pub fn label(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A struct field: `(struct, field, type-head)`. Container heads
/// (`Vec<Node>`) record the *element* type (`Node`), since calls through
/// an index expression dispatch on the element.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// The struct the field belongs to.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Resolved type head (element type for Vec/VecDeque/Option/Box).
    pub ty: String,
    /// Is the declared type `u64`-based (`u64`, `Vec<u64>`, `[u64; N]`)?
    pub is_u64: bool,
    /// 1-based declaration line.
    pub line: u32,
}

/// A declaration visible outside its crate: written exactly `pub` (not
/// `pub(crate)` / `pub(super)`) and outside `#[cfg(test)]`.
#[derive(Debug, Clone)]
pub struct PubDecl {
    /// `fn`, `const`, `static`, `struct`, `enum`, `union`, `type`,
    /// `trait` or `field`.
    pub kind: &'static str,
    /// The declared name.
    pub name: String,
    /// The impl type of a method or associated const, the struct of a
    /// field; `None` for module-level items.
    pub owner: Option<String>,
    /// 1-based line of the name.
    pub line: u32,
    /// Token range of what the declaration exposes: a fn's parameters,
    /// return type and bounds; a field's, const's or alias's type; a
    /// struct's generics (and tuple fields); an enum's or trait's body.
    pub sig: std::ops::Range<usize>,
}

/// Declaration kinds that name a type (and can own members).
pub const TYPE_KINDS: [&str; 5] = ["struct", "enum", "union", "type", "trait"];

/// One parsed source file.
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Raw source lines (for `simlint: allow(…)` comments only — rules
    /// never scan these).
    pub raw_lines: Vec<String>,
    /// The token stream.
    pub tokens: Vec<Tok>,
    /// Per-token flag: inside a `#[cfg(test)]` region.
    pub test_tok: Vec<bool>,
    /// Recovered functions.
    pub fns: Vec<FnDef>,
    /// Struct fields (for receiver typing and counter-field discovery).
    pub fields: Vec<FieldDef>,
    /// Names aliased to `HashMap`/`HashSet` in this file.
    pub map_aliases: Vec<String>,
    /// `pub` declarations outside test code, in source order.
    pub pub_decls: Vec<PubDecl>,
}

/// Container types whose first generic argument is the interesting type
/// for receiver resolution (`nodes: Vec<Node>` → calls through
/// `nodes[i]` dispatch on `Node`).
const CONTAINER_HEADS: [&str; 4] = ["Vec", "VecDeque", "Option", "Box"];

/// Method names shared with std collections/primitives: never resolved
/// by bare name (an untyped `.push(…)` is almost always `Vec::push`, and
/// resolving it to some workspace method named `push` would drag cold
/// code into the hot set). Typed receivers (`self.pool.take(…)`) bypass
/// this list entirely.
pub const STD_SHADOWED: [&str; 40] = [
    "push",
    "pop",
    "insert",
    "get",
    "get_mut",
    "remove",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "entry",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "drain",
    "take",
    "last",
    "first",
    "split_off",
    "resize",
    "retain",
    "reserve",
    "sort",
    "sort_by",
    "sort_by_key",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "binary_search",
    "map_or",
    "unwrap_or",
    "max",
    "min",
    "clone",
    "to_owned",
    "to_string",
];

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "unsafe", "move", "as", "in", "let", "else",
    "break", "continue",
];

enum Scope {
    /// `impl … { … }`: owner type, depth before `{`.
    Impl(String, usize),
    /// `struct Name { … }`.
    Struct(String, usize),
    /// `#[cfg(test)]`-gated item body.
    Test(usize),
    /// A function body: index into `fns`, depth before `{`.
    Fn(usize, usize),
}

/// Parses one file.
pub fn parse_file(rel: &str, src: &str) -> ParsedFile {
    let tokens = lex(src);
    let raw_lines: Vec<String> = src.lines().map(str::to_owned).collect();
    let n = tokens.len();
    let mut test_tok = vec![false; n];
    let mut fns: Vec<FnDef> = Vec::new();
    let mut fields: Vec<FieldDef> = Vec::new();
    let mut map_aliases: Vec<String> = Vec::new();
    let mut pub_decls: Vec<PubDecl> = Vec::new();

    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    let mut pending_test = false;
    let mut i = 0usize;

    while i < n {
        let t = &tokens[i];
        // Mark tokens inside any test scope.
        if scopes.iter().any(|s| matches!(s, Scope::Test(_))) {
            test_tok[i] = true;
        }

        if t.is_punct("#") && matches!(tokens.get(i + 1), Some(t1) if t1.is_punct("[")) {
            // Attribute: scan balanced brackets; `#[test]` / `#[cfg(test)]`
            // (and `#[cfg(any(test, …))]`) set the pending flag. Strings
            // inside attributes are opaque tokens, so `feature = "test-x"`
            // cannot trip it.
            let mut j = i + 2;
            let mut bdepth = 1usize;
            let mut saw_test_ident = false;
            while j < n && bdepth > 0 {
                if tokens[j].is_punct("[") {
                    bdepth += 1;
                } else if tokens[j].is_punct("]") {
                    bdepth -= 1;
                } else if tokens[j].is_ident("test")
                    && !(j >= 2 && tokens[j - 1].is_punct("(") && tokens[j - 2].is_ident("not"))
                {
                    // `#[cfg(not(test))]` is production-only code, not a
                    // test region.
                    saw_test_ident = true;
                }
                j += 1;
            }
            if saw_test_ident {
                pending_test = true;
            }
            i = j;
            continue;
        }

        match t.kind {
            TokKind::Punct if t.text == "{" => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct if t.text == "}" => {
                depth = depth.saturating_sub(1);
                while let Some(last) = scopes.last() {
                    let close = match last {
                        Scope::Impl(_, d) | Scope::Struct(_, d) | Scope::Test(d) => *d,
                        Scope::Fn(_, d) => *d,
                    };
                    if close == depth {
                        if let Scope::Fn(idx, _) = last {
                            fns[*idx].body.end = i;
                        }
                        scopes.pop();
                    } else {
                        break;
                    }
                }
                i += 1;
            }
            TokKind::Punct if t.text == ";" => {
                // An item without a body consumed the pending attribute.
                pending_test = false;
                i += 1;
            }
            TokKind::Ident if t.text == "mod" => {
                // `mod name {` or `mod name;`
                let brace = tokens.get(i + 2).is_some_and(|t2| t2.is_punct("{"));
                if brace && pending_test {
                    scopes.push(Scope::Test(depth));
                    // Mark the `mod` tokens themselves.
                    test_tok[i] = true;
                }
                pending_test = false;
                i += 1;
            }
            TokKind::Ident if t.text == "impl" => {
                let (owner, at_brace) = parse_impl_header(&tokens, i + 1);
                if pending_test {
                    scopes.push(Scope::Test(depth));
                }
                pending_test = false;
                if let Some(owner) = owner {
                    scopes.push(Scope::Impl(owner, depth));
                }
                i = at_brace; // positioned at `{` (or past end)
            }
            TokKind::Ident if t.text == "struct" || t.text == "enum" || t.text == "union" => {
                let name = tokens
                    .get(i + 1)
                    .filter(|t1| t1.kind == TokKind::Ident)
                    .map(|t1| t1.text.clone());
                // Find the body `{` (skipping generics/where); tuple structs
                // end at `;` or `(` first.
                let mut j = i + 2;
                let mut adepth = 0usize;
                let mut opens_brace = false;
                while j < n {
                    let tj = &tokens[j];
                    if tj.is_punct("<") {
                        adepth += 1;
                    } else if tj.is_punct(">") {
                        adepth = adepth.saturating_sub(1);
                    } else if adepth == 0 && (tj.is_punct(";") || tj.is_punct("(")) {
                        break;
                    } else if adepth == 0 && tj.is_punct("{") {
                        opens_brace = true;
                        break;
                    }
                    j += 1;
                }
                if pending_test && opens_brace {
                    scopes.push(Scope::Test(depth));
                }
                pending_test = false;
                if t.text == "struct" && opens_brace {
                    if let Some(name) = name {
                        scopes.push(Scope::Struct(name, depth));
                    }
                }
                i = if opens_brace { j } else { i + 1 };
            }
            TokKind::Ident if t.text == "type" => {
                // `type Alias = …;` — map aliases feed the map-iter rule.
                if let Some(alias) = tokens.get(i + 1).filter(|t1| t1.kind == TokKind::Ident) {
                    let mut j = i + 2;
                    let mut is_map = false;
                    while j < n && !tokens[j].is_punct(";") {
                        if tokens[j].is_ident("HashMap") || tokens[j].is_ident("HashSet") {
                            is_map = true;
                        }
                        j += 1;
                    }
                    if is_map {
                        map_aliases.push(alias.text.clone());
                    }
                    i = j;
                } else {
                    i += 1;
                }
                pending_test = false;
            }
            TokKind::Ident if t.text == "fn" => {
                let in_test = pending_test || scopes.iter().any(|s| matches!(s, Scope::Test(_)));
                pending_test = false;
                let owner = scopes.iter().rev().find_map(|s| match s {
                    Scope::Impl(o, _) => Some(o.clone()),
                    _ => None,
                });
                if let Some((def, body_open)) = parse_fn(&tokens, i, owner, in_test) {
                    let idx = fns.len();
                    let has_body = body_open < n && tokens[body_open].is_punct("{");
                    fns.push(def);
                    if has_body {
                        // Jump to the body `{`; the main loop will bump depth.
                        scopes.push(Scope::Fn(idx, depth));
                        fns[idx].body.start = body_open + 1;
                        fns[idx].body.end = body_open + 1;
                        i = body_open;
                    } else {
                        i = body_open; // at `;` or end
                    }
                } else {
                    i += 1;
                }
            }
            TokKind::Ident => {
                if t.text == "pub"
                    && !pending_test
                    && !scopes.iter().any(|s| matches!(s, Scope::Test(_)))
                {
                    pub_decls.extend(pub_decl(&tokens, i, &scopes, depth));
                }
                // Field declarations inside a struct body.
                if let Some(Scope::Struct(sname, sdepth)) = scopes
                    .iter()
                    .rev()
                    .find(|s| matches!(s, Scope::Struct(_, _) | Scope::Fn(_, _)))
                {
                    if depth == sdepth + 1
                        && matches!(tokens.get(i + 1), Some(t1) if t1.is_punct(":"))
                    {
                        let (ty, is_u64) = field_type(&tokens, i + 2);
                        fields.push(FieldDef {
                            owner: sname.clone(),
                            name: t.text.clone(),
                            ty,
                            is_u64,
                            line: t.line,
                        });
                    }
                }
                // Call extraction inside the innermost open fn.
                if let Some(fn_idx) = scopes.iter().rev().find_map(|s| match s {
                    Scope::Fn(idx, _) => Some(*idx),
                    _ => None,
                }) {
                    if let Some(call) = call_at(&tokens, i, &fns, &scopes) {
                        fns[fn_idx].calls.push(call);
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    // Close any fn bodies left open at EOF.
    for s in &scopes {
        if let Scope::Fn(idx, _) = s {
            fns[*idx].body.end = n;
        }
    }

    ParsedFile {
        rel: rel.to_owned(),
        raw_lines,
        tokens,
        test_tok,
        fns,
        fields,
        map_aliases,
        pub_decls,
    }
}

/// Recovers the declaration that the `pub` at `at` introduces. `None`
/// for `pub(…)`, `pub mod`, `pub use` and tuple-struct fields (those are
/// part of their struct's signature).
fn pub_decl(tokens: &[Tok], at: usize, scopes: &[Scope], depth: usize) -> Option<PubDecl> {
    if tokens.get(at + 1)?.is_punct("(") {
        return None;
    }
    let innermost = scopes.iter().rev().find(|s| !matches!(s, Scope::Test(_)));
    if let Some(Scope::Struct(owner, sdepth)) = innermost {
        let name = tokens.get(at + 1).filter(|t| t.kind == TokKind::Ident)?;
        if depth != sdepth + 1 || !tokens.get(at + 2)?.is_punct(":") {
            return None;
        }
        return Some(PubDecl {
            kind: "field",
            name: name.text.clone(),
            owner: Some(owner.clone()),
            line: name.line,
            sig: at + 3..sig_end(tokens, at + 3, &[",", "}"]),
        });
    }
    let mut j = at + 1;
    while let Some(t) = tokens.get(j) {
        let qualifier = t.is_ident("unsafe")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.kind == TokKind::Str
            || (t.is_ident("const") && tokens.get(j + 1).is_some_and(|n| n.is_ident("fn")));
        if !qualifier {
            break;
        }
        j += 1;
    }
    let kw = tokens.get(j)?;
    let kind = [
        "fn", "const", "static", "struct", "enum", "union", "type", "trait",
    ]
    .into_iter()
    .find(|k| kw.is_ident(k))?;
    let mut n = j + 1;
    if kind == "static" && tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    let name = tokens.get(n).filter(|t| t.kind == TokKind::Ident)?;
    let owner = match innermost {
        Some(Scope::Impl(o, _)) => Some(o.clone()),
        _ => None,
    };
    let end = match kind {
        "fn" | "struct" | "union" => sig_end(tokens, n + 1, &["{", ";"]),
        "const" | "static" => sig_end(tokens, n + 1, &["=", ";"]),
        "type" => sig_end(tokens, n + 1, &[";"]),
        _ => body_end(tokens, n + 1),
    };
    Some(PubDecl {
        kind,
        name: name.text.clone(),
        owner,
        line: name.line,
        sig: n + 1..end,
    })
}

/// Index of the first token in `stops` at bracket depth 0 from `i` on
/// (or the end of the stream).
fn sig_end(tokens: &[Tok], mut i: usize, stops: &[&str]) -> usize {
    let mut depth = 0isize;
    while let Some(t) = tokens.get(i) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                ">>" => depth -= 2,
                s if depth <= 0 && stops.contains(&s) => return i,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Index just past the `}` closing the first `{` from `i` on.
fn body_end(tokens: &[Tok], i: usize) -> usize {
    let open = sig_end(tokens, i, &["{"]);
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    tokens.len()
}

/// The Rust code blocks of a file's `///` and `//!` comments, as one
/// source: a doctest compiles against the public API like any other
/// caller. Blocks fenced as `text`, `ignore` or another language are
/// skipped; rustdoc's hidden `# ` lines are kept.
pub fn doc_code(src: &str) -> String {
    let mut out = String::new();
    // `Some(is_rust)` inside a fence.
    let mut fence: Option<bool> = None;
    for line in src.lines() {
        let t = line.trim_start();
        let Some(doc) = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")) else {
            fence = None;
            continue;
        };
        let doc = doc.strip_prefix(' ').unwrap_or(doc);
        if let Some(info) = doc.trim_start().strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|w| {
                    matches!(w, "" | "rust" | "no_run" | "should_panic") || w.starts_with("edition")
                })),
            };
            continue;
        }
        if fence == Some(true) {
            let code = if doc == "#" {
                ""
            } else {
                doc.strip_prefix("# ").unwrap_or(doc)
            };
            out.push_str(code);
            out.push('\n');
        }
    }
    out
}

/// Parses an `impl` header starting after the `impl` keyword. Returns the
/// owner type name (the type after `for` when present, else the first
/// type) and the index of the opening `{`.
fn parse_impl_header(tokens: &[Tok], mut i: usize) -> (Option<String>, usize) {
    let n = tokens.len();
    // Skip generic params `<…>`.
    if i < n && tokens[i].is_punct("<") {
        let mut adepth = 1usize;
        i += 1;
        while i < n && adepth > 0 {
            if tokens[i].is_punct("<") || tokens[i].is_punct("<<") {
                adepth += if tokens[i].text == "<<" { 2 } else { 1 };
            } else if tokens[i].is_punct(">") || tokens[i].is_punct(">>") {
                adepth = adepth.saturating_sub(if tokens[i].text == ">>" { 2 } else { 1 });
            }
            i += 1;
        }
    }
    let mut first_type: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut adepth = 0usize;
    while i < n {
        let t = &tokens[i];
        if adepth == 0 && (t.is_punct("{") || t.is_ident("where")) {
            // `where` clause: scan on to `{`.
            if t.is_ident("where") {
                let mut j = i + 1;
                let mut ad = 0usize;
                while j < n && !(ad == 0 && tokens[j].is_punct("{")) {
                    if tokens[j].is_punct("<") {
                        ad += 1;
                    } else if tokens[j].is_punct(">") {
                        ad = ad.saturating_sub(1);
                    }
                    j += 1;
                }
                i = j;
            }
            break;
        }
        if t.is_punct("<") {
            adepth += 1;
        } else if t.is_punct(">") {
            adepth = adepth.saturating_sub(1);
        } else if adepth == 0 && t.is_ident("for") {
            saw_for = true;
        } else if adepth == 0 && t.kind == TokKind::Ident && !t.text.is_empty() {
            // Track the last plain ident at angle-depth 0 as the type head
            // (path segments overwrite, so `fmt::Display` resolves to
            // `Display`, `crate::Foo` to `Foo`).
            let slot = if saw_for {
                &mut after_for
            } else {
                &mut first_type
            };
            if !["dyn", "mut", "const"].contains(&t.text.as_str()) {
                *slot = Some(t.text.clone());
            }
        }
        i += 1;
    }
    (after_for.or(first_type), i)
}

/// Parses a `fn` starting at the `fn` keyword. Returns the def (body
/// range is set by the caller) and the index of the body `{` or
/// terminating `;`.
fn parse_fn(
    tokens: &[Tok],
    at: usize,
    owner: Option<String>,
    is_test: bool,
) -> Option<(FnDef, usize)> {
    let n = tokens.len();
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut i = at + 2;
    // Skip generics.
    if i < n && tokens[i].is_punct("<") {
        let mut adepth = 1usize;
        i += 1;
        while i < n && adepth > 0 {
            if tokens[i].is_punct("<") {
                adepth += 1;
            } else if tokens[i].is_punct(">") {
                adepth = adepth.saturating_sub(1);
            } else if tokens[i].is_punct(">>") {
                adepth = adepth.saturating_sub(2);
            }
            i += 1;
        }
    }
    if i >= n || !tokens[i].is_punct("(") {
        return None;
    }
    // Parameter list.
    let mut pdepth = 1usize;
    let mut has_self = false;
    let mut params: Vec<(String, String)> = Vec::new();
    let mut j = i + 1;
    while j < n && pdepth > 0 {
        let t = &tokens[j];
        if t.is_punct("(") {
            pdepth += 1;
        } else if t.is_punct(")") {
            pdepth -= 1;
        } else if pdepth == 1 {
            if t.is_ident("self") {
                has_self = true;
            } else if t.kind == TokKind::Ident
                && matches!(tokens.get(j + 1), Some(t1) if t1.is_punct(":"))
                && (j == i + 1 || tokens[j - 1].is_punct(",") || tokens[j - 1].is_ident("mut"))
            {
                let (ty, _) = field_type(tokens, j + 2);
                params.push((t.text.clone(), ty));
            }
        }
        j += 1;
    }
    // Scan to body `{` or `;` at paren/angle depth 0.
    let mut adepth = 0usize;
    while j < n {
        let t = &tokens[j];
        if t.is_punct("<") {
            adepth += 1;
        } else if t.is_punct(">") {
            adepth = adepth.saturating_sub(1);
        } else if adepth == 0 && (t.is_punct("{") || t.is_punct(";")) {
            break;
        }
        j += 1;
    }
    Some((
        FnDef {
            name: name_tok.text.clone(),
            owner,
            has_self,
            params,
            line: tokens[at].line,
            body: 0..0,
            is_test,
            calls: Vec::new(),
        },
        j,
    ))
}

/// Extracts a type head starting at `i` (after a `:`). Strips `&`,
/// `mut`, path qualifiers; unwraps one container level (`Vec<Node>` →
/// `Node`). Returns `(head, is_u64)`.
fn field_type(tokens: &[Tok], mut i: usize) -> (String, bool) {
    let n = tokens.len();
    let mut head = String::new();
    let mut is_u64 = false;
    let mut adepth = 0usize;
    let mut container: Option<String> = None;
    while i < n {
        let t = &tokens[i];
        if adepth == 0 && (t.is_punct(",") || t.is_punct(")") || t.is_punct("}") || t.is_punct(";"))
        {
            break;
        }
        match t.kind {
            TokKind::Punct if t.text == "<" => adepth += 1,
            TokKind::Punct if t.text == ">" => adepth = adepth.saturating_sub(1),
            TokKind::Ident if t.text == "u64" => {
                is_u64 = true;
                if head.is_empty() {
                    head = "u64".to_owned();
                }
            }
            TokKind::Ident
                if !["mut", "dyn", "const", "impl", "r"].contains(&t.text.as_str())
                    && !t.text.is_empty() =>
            {
                if adepth == 0 {
                    if CONTAINER_HEADS.contains(&t.text.as_str()) {
                        container = Some(t.text.clone());
                    } else {
                        head = t.text.clone();
                    }
                } else if adepth == 1
                    && container.is_some()
                    && head.is_empty()
                    && !["dyn", "mut", "const", "impl"].contains(&t.text.as_str())
                {
                    // First generic argument of a container.
                    head = t.text.clone();
                }
            }
            _ => {}
        }
        i += 1;
    }
    if head.is_empty() {
        head = container.unwrap_or_default();
    }
    (head, is_u64)
}

/// Classifies the identifier at `i` as a call site, if it is one.
/// `fns`/`scopes` provide the enclosing context for receiver typing
/// (performed later — here we only capture shape).
fn call_at(tokens: &[Tok], i: usize, _fns: &[FnDef], _scopes: &[Scope]) -> Option<Call> {
    let t = &tokens[i];
    if KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    let next = tokens.get(i + 1)?;
    if next.is_punct("!") {
        // Macro invocation.
        if matches!(tokens.get(i + 2), Some(t2) if t2.is_punct("(") || t2.is_punct("[") || t2.is_punct("{"))
        {
            return Some(Call::Macro(t.text.clone()));
        }
        return None;
    }
    if !next.is_punct("(") {
        return None;
    }
    let prev = if i > 0 { Some(&tokens[i - 1]) } else { None };
    match prev {
        Some(p) if p.is_ident("fn") => None,
        Some(p) if p.is_punct(".") => Some(Call::Method(t.text.clone())),
        Some(p) if p.is_punct("::") => {
            // Qualifier is the ident before the `::` (skipping one more
            // `::`-joined segment is unnecessary: the *nearest* segment is
            // the type for `Type::method`, and for `a::b::Type::method`
            // the nearest is still `Type`).
            let q = if i >= 2 {
                &tokens[i - 2]
            } else {
                return Some(Call::Method(t.text.clone()));
            };
            if q.kind == TokKind::Ident {
                Some(Call::Path(q.text.clone(), t.text.clone()))
            } else {
                // `<T as Trait>::method(` and friends.
                Some(Call::Method(t.text.clone()))
            }
        }
        _ => Some(Call::Free(t.text.clone())),
    }
}

/// Second pass over a parsed file: retype `Method` calls whose receiver
/// chain is resolvable (`self.f.m(…)`, `param.m(…)`, `param.f.m(…)`,
/// `self.m(…)`), using the workspace-wide field table. `all_fields`
/// maps struct → fields; `fn_owners` is the set of `(type, method)`
/// pairs defined anywhere in the workspace.
pub fn type_calls(
    file: &mut ParsedFile,
    field_ty: &std::collections::BTreeMap<(String, String), String>,
    methods_of: &std::collections::BTreeMap<String, Vec<String>>,
) {
    let tokens = &file.tokens;
    for f in &mut file.fns {
        let owner = f.owner.clone();
        let params = f.params.clone();
        let mut call_cursor = 0usize;
        // Re-walk the body to find the receiver chain for each Method call
        // in order. Calls were recorded in source order.
        let mut i = f.body.start;
        while i < f.body.end && call_cursor < f.calls.len() {
            let t = &tokens[i];
            if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                let next = tokens.get(i + 1);
                let is_macro = next.is_some_and(|n| n.is_punct("!"))
                    && matches!(tokens.get(i + 2), Some(t2) if t2.is_punct("(") || t2.is_punct("[") || t2.is_punct("{"));
                let is_call = next.is_some_and(|n| n.is_punct("("));
                if is_macro || is_call {
                    // Does this token correspond to the next recorded call?
                    let matches_record = match &f.calls[call_cursor] {
                        Call::Method(m) | Call::Free(m) | Call::Macro(m) | Call::Path(_, m) => {
                            m == &t.text
                        }
                        Call::Typed(_, m) => m == &t.text,
                    };
                    if matches_record {
                        if let Call::Method(name) = f.calls[call_cursor].clone() {
                            if let Some(ty) = receiver_type(tokens, i, &owner, &params, field_ty) {
                                if methods_of.get(&ty).is_some_and(|ms| ms.contains(&name)) {
                                    f.calls[call_cursor] = Call::Typed(ty, name);
                                }
                                // Else: the receiver typed to something
                                // without that method (a std container, or
                                // a trait object whose name is not an impl
                                // owner) — keep the name-based fallback,
                                // which the std-shadow list guards.
                            }
                        }
                        call_cursor += 1;
                    }
                }
            }
            i += 1;
        }
    }
}

/// Resolves the type of the receiver chain ending at the `.` before the
/// method ident at `i`. Handles `self.m(`, `self.field.m(`, `param.m(`,
/// `param.field.m(`, and one trailing index (`self.field[i].m(`).
pub(crate) fn receiver_type(
    tokens: &[Tok],
    i: usize,
    owner: &Option<String>,
    params: &[(String, String)],
    field_ty: &std::collections::BTreeMap<(String, String), String>,
) -> Option<String> {
    // Walk backwards collecting the chain of idents joined by `.`
    // (skipping one balanced `[…]` suffix per segment).
    let mut chain: Vec<String> = Vec::new();
    let mut j = i as isize - 1; // at the `.`
    loop {
        if j < 0 || !tokens[j as usize].is_punct(".") {
            break;
        }
        j -= 1;
        // Skip an index suffix.
        if j >= 0 && tokens[j as usize].is_punct("]") {
            let mut bd = 1usize;
            j -= 1;
            while j >= 0 && bd > 0 {
                if tokens[j as usize].is_punct("]") {
                    bd += 1;
                } else if tokens[j as usize].is_punct("[") {
                    bd -= 1;
                }
                j -= 1;
            }
        }
        if j >= 0 && tokens[j as usize].kind == TokKind::Ident {
            chain.push(tokens[j as usize].text.clone());
            j -= 1;
        } else {
            return None; // `)` receiver, literal, etc. — untypable
        }
        // Continue only through a further `.`; a `&`/`(`/start ends the chain.
        if j >= 0 && tokens[j as usize].is_punct(".") {
            continue;
        }
        break;
    }
    if chain.is_empty() {
        return None;
    }
    chain.reverse();
    // Head of the chain: self → owner type, a typed parameter, or a
    // field of the owner type (destructuring like
    // `let Network { ctx, .. } = self;` binds locals named after
    // fields — resolving them as fields keeps such calls typed).
    let mut ty = if chain[0] == "self" {
        owner.clone()?
    } else if let Some((_, t)) = params.iter().find(|(p, _)| p == &chain[0]) {
        if t.is_empty() {
            return None;
        }
        t.clone()
    } else if let Some(t) = owner
        .as_ref()
        .and_then(|o| field_ty.get(&(o.clone(), chain[0].clone())))
    {
        t.clone()
    } else {
        return None; // local variable — untyped
    };
    for seg in &chain[1..] {
        ty = field_ty.get(&(ty, seg.clone()))?.clone();
    }
    Some(ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("x.rs", src)
    }

    #[test]
    fn recovers_fns_with_owner_and_self() {
        let p = parse(
            "pub struct Network;\n\
             impl Network {\n\
                 pub fn run_until(&mut self, until: Time) { self.step(); }\n\
             }\n\
             fn free_helper(x: u64) -> u64 { x }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "run_until");
        assert_eq!(p.fns[0].owner.as_deref(), Some("Network"));
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[1].name, "free_helper");
        assert_eq!(p.fns[1].owner, None);
        assert!(!p.fns[1].has_self);
    }

    #[test]
    fn trait_impl_owner_is_the_type_after_for() {
        let p = parse("impl fmt::Display for Finding { fn fmt(&self) {} }");
        assert_eq!(p.fns[0].owner.as_deref(), Some("Finding"));
    }

    #[test]
    fn calls_are_classified() {
        let p = parse(
            "impl A { fn f(&mut self, ctx: &mut Ctx) {\n\
                 self.g();\n\
                 helper(1);\n\
                 Foo::make();\n\
                 ctx.queue.schedule(t, e);\n\
                 format!(\"x\");\n\
             } }",
        );
        let calls = &p.fns[0].calls;
        assert!(calls.contains(&Call::Method("g".into())));
        assert!(calls.contains(&Call::Free("helper".into())));
        assert!(calls.contains(&Call::Path("Foo".into(), "make".into())));
        assert!(calls.contains(&Call::Method("schedule".into())));
        assert!(calls.contains(&Call::Macro("format".into())));
    }

    #[test]
    fn cfg_test_region_ends_at_its_closing_brace() {
        let p = parse(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() {}\n\
             }\n\
             mod after {\n\
                 pub fn still_prod() {}\n\
             }\n",
        );
        let by_name: Vec<(&str, bool)> =
            p.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            by_name,
            vec![("prod", false), ("t", true), ("still_prod", false)]
        );
    }

    #[test]
    fn test_attr_on_fn_marks_only_that_fn() {
        let p = parse("#[test]\nfn check() {}\nfn prod() {}\n");
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
    }

    #[test]
    fn struct_fields_record_type_heads() {
        let p = parse(
            "pub struct Ctx {\n\
                 pub queue: EventQueue,\n\
                 pub nodes: Vec<Node>,\n\
                 pub occupied: u64,\n\
                 pub ingress: Vec<[u64; 3]>,\n\
             }\n",
        );
        let f: Vec<(&str, &str, bool)> = p
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str(), f.is_u64))
            .collect();
        assert_eq!(
            f,
            vec![
                ("queue", "EventQueue", false),
                ("nodes", "Node", false),
                ("occupied", "u64", true),
                ("ingress", "u64", true),
            ]
        );
    }

    #[test]
    fn map_aliases_are_collected() {
        let p = parse("pub type RouteTable = HashMap<NodeId, Vec<PortId>>;\n");
        assert_eq!(p.map_aliases, vec!["RouteTable"]);
    }

    #[test]
    fn receiver_typing_resolves_fields_and_params() {
        let mut p = parse(
            "pub struct Ctx { pub queue: EventQueue, pub free: Vec<u32> }\n\
             pub struct EventQueue;\n\
             impl EventQueue { pub fn schedule(&mut self) {} }\n\
             pub struct Host { pub sub: Ctx }\n\
             impl Host {\n\
                 fn go(&mut self, ctx: &mut Ctx) {\n\
                     ctx.queue.schedule();\n\
                     self.sub.queue.schedule();\n\
                     ctx.free.push(1);\n\
                     mystery.schedule();\n\
                 }\n\
             }\n",
        );
        let mut field_ty = std::collections::BTreeMap::new();
        for f in &p.fields {
            field_ty.insert((f.owner.clone(), f.name.clone()), f.ty.clone());
        }
        let mut methods_of: std::collections::BTreeMap<String, Vec<String>> =
            std::collections::BTreeMap::new();
        methods_of
            .entry("EventQueue".into())
            .or_default()
            .push("schedule".into());
        type_calls(&mut p, &field_ty, &methods_of);
        let go = p.fns.iter().find(|f| f.name == "go").unwrap();
        let typed: Vec<&Call> = go
            .calls
            .iter()
            .filter(|c| matches!(c, Call::Typed(..)))
            .collect();
        // ctx.queue.schedule and self.sub.queue.schedule resolve.
        assert_eq!(
            typed,
            vec![
                &Call::Typed("EventQueue".into(), "schedule".into()),
                &Call::Typed("EventQueue".into(), "schedule".into()),
            ]
        );
        // ctx.free.push typed to a method-less type keeps its name form
        // (the std-shadow list will drop it at resolution); the untypable
        // receiver stays a name-resolved Method call.
        assert!(go.calls.contains(&Call::Method("push".into())));
        assert!(go.calls.contains(&Call::Method("schedule".into())));
    }

    #[test]
    fn std_shadowed_list_guards_fallback() {
        assert!(STD_SHADOWED.contains(&"push"));
        assert!(!STD_SHADOWED.contains(&"receive"));
    }
}
