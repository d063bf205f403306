//! The intra-workspace call graph, rooted at the event dispatch loop.
//!
//! The hot-path file/function set is **computed** here instead of being
//! a hard-coded file list: every function reachable from the roots
//! ([`crate::DISPATCH_ROOTS`]) is hot, and each hot function carries one
//! example call chain from a root for diagnostics.
//!
//! Resolution is deliberately over-approximate where types are unknown —
//! a lint would rather check a cold function than miss a hot one — but
//! three mechanisms keep the over-approximation tight:
//!
//! 1. `self.method(…)` resolves exactly against the enclosing impl type.
//! 2. `self.field.method(…)` / `param.method(…)` / `param.field.method(…)`
//!    chains resolve through the workspace-wide struct-field table.
//! 3. Untyped method calls resolve by name across workspace `&self`
//!    methods — except names shadowed by std collections (`push`, `get`,
//!    `take`, …), which would otherwise drag cold code into the hot set
//!    through every `Vec::push`.

use crate::items::{Call, FnDef, ParsedFile, STD_SHADOWED};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A function's globally unique id: (file index, fn index).
pub type FnId = (usize, usize);

/// The computed graph and reachability.
pub struct CallGraph {
    /// Hot (dispatch-reachable) functions.
    pub hot: BTreeSet<FnId>,
    /// BFS parent of each hot function (roots map to themselves).
    parent: BTreeMap<FnId, FnId>,
    /// Files containing at least one hot function, sorted.
    pub hot_files: Vec<String>,
    /// Total resolved call edges (for the summary).
    pub edges: usize,
}

/// Builds the call graph over all parsed files and computes reachability
/// from `roots`, each a `(type, method)` pair.
pub fn build(files: &[ParsedFile], roots: &[(&str, &str)]) -> CallGraph {
    // Index non-test defs three ways.
    let mut by_owner: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
    let mut by_method: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let id = (fi, gi);
            if let Some(owner) = &f.owner {
                by_owner
                    .entry((owner.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
            if f.has_self {
                by_method.entry(f.name.clone()).or_default().push(id);
            }
            if f.owner.is_none() {
                free_by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
    }

    let def = |id: FnId| -> &FnDef { &files[id.0].fns[id.1] };

    // Resolve one call from within `from` to target defs.
    let resolve = |from: FnId, call: &Call, out: &mut Vec<FnId>| {
        match call {
            Call::Typed(ty, name) => {
                if let Some(ids) = by_owner.get(&(ty.clone(), name.clone())) {
                    out.extend(ids.iter().copied());
                }
            }
            Call::Path(q, name) => {
                let owner = if q == "Self" {
                    match &def(from).owner {
                        Some(o) => o.clone(),
                        None => return,
                    }
                } else {
                    q.clone()
                };
                if let Some(ids) = by_owner.get(&(owner, name.clone())) {
                    out.extend(ids.iter().copied());
                }
            }
            Call::Method(name) => {
                // Exact self-dispatch first: the enclosing type's own method.
                if let Some(owner) = &def(from).owner {
                    if let Some(ids) = by_owner.get(&(owner.clone(), name.clone())) {
                        out.extend(ids.iter().copied());
                        // Self-dispatch does not suppress other candidates:
                        // the receiver may not have been `self`.
                    }
                }
                if !STD_SHADOWED.contains(&name.as_str()) {
                    if let Some(ids) = by_method.get(name) {
                        out.extend(ids.iter().copied());
                    }
                }
            }
            Call::Free(name) => {
                if let Some(ids) = free_by_name.get(name) {
                    out.extend(ids.iter().copied());
                }
            }
            Call::Macro(_) => {}
        }
    };

    // Roots.
    let mut queue: VecDeque<FnId> = VecDeque::new();
    let mut hot: BTreeSet<FnId> = BTreeSet::new();
    let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
    for &(owner, method) in roots {
        if let Some(ids) = by_owner.get(&(owner.to_owned(), method.to_owned())) {
            for &id in ids {
                if hot.insert(id) {
                    parent.insert(id, id);
                    queue.push_back(id);
                }
            }
        }
    }

    // BFS.
    let mut edges = 0usize;
    let mut targets: Vec<FnId> = Vec::new();
    while let Some(from) = queue.pop_front() {
        for call in &def(from).calls {
            targets.clear();
            resolve(from, call, &mut targets);
            edges += targets.len();
            for &t in &targets {
                if hot.insert(t) {
                    parent.insert(t, from);
                    queue.push_back(t);
                }
            }
        }
    }

    let mut hot_files: BTreeSet<String> = BTreeSet::new();
    for &(fi, _) in &hot {
        hot_files.insert(files[fi].rel.clone());
    }

    CallGraph {
        hot,
        parent,
        hot_files: hot_files.into_iter().collect(),
        edges,
    }
}

impl CallGraph {
    /// Is this function dispatch-reachable?
    pub fn is_hot(&self, id: FnId) -> bool {
        self.hot.contains(&id)
    }

    /// One example call chain from a root to `id`, rendered as
    /// `Network::run_until → Host::receive → …`.
    pub fn chain(&self, files: &[ParsedFile], id: FnId) -> String {
        let label = |id: FnId| files[id.0].fns[id.1].label();
        let mut parts = vec![label(id)];
        let mut cur = id;
        // Bounded walk (cycles map roots to themselves).
        for _ in 0..64 {
            match self.parent.get(&cur) {
                Some(&p) if p != cur => {
                    parts.push(label(p));
                    cur = p;
                }
                _ => break,
            }
        }
        parts.reverse();
        parts.join(" → ")
    }

    /// Sorted labels of all hot functions (`Type::name` or `name`).
    pub fn hot_fn_labels(&self, files: &[ParsedFile]) -> Vec<String> {
        let mut v: Vec<String> = self
            .hot
            .iter()
            .map(|&(fi, gi)| format!("{} ({})", files[fi].fns[gi].label(), files[fi].rel))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn graph(srcs: &[(&str, &str)], root: (&str, &str)) -> (Vec<ParsedFile>, CallGraph) {
        let mut files: Vec<ParsedFile> = srcs.iter().map(|(rel, s)| parse_file(rel, s)).collect();
        let mut field_ty = BTreeMap::new();
        let mut methods_of: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for f in &files {
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
            crate::items::type_calls(f, &field_ty, &methods_of);
        }
        let g = build(&files, &[root]);
        (files, g)
    }

    #[test]
    fn reaches_through_self_field_and_name_dispatch() {
        let (files, g) = graph(
            &[
                (
                    "a.rs",
                    "pub struct Network { pub ctx: Ctx }\n\
                     pub struct Ctx { pub queue: EventQueue }\n\
                     impl Network {\n\
                         pub fn run_until(&mut self) { self.dispatch(); }\n\
                         fn dispatch(&mut self) { self.ctx.queue.schedule(); unrelated.receive(); }\n\
                         fn cold(&mut self) { }\n\
                     }\n",
                ),
                (
                    "b.rs",
                    "pub struct EventQueue;\n\
                     impl EventQueue { pub fn schedule(&mut self) { helper(); } }\n\
                     fn helper() {}\n\
                     pub struct Host;\n\
                     impl Host { pub fn receive(&mut self) {} }\n\
                     pub struct Cold;\n\
                     impl Cold { pub fn never(&mut self) {} }\n",
                ),
            ],
            ("Network", "run_until"),
        );
        let labels = g.hot_fn_labels(&files);
        let names: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        assert!(names.iter().any(|s| s.starts_with("Network::run_until")));
        assert!(names.iter().any(|s| s.starts_with("Network::dispatch")));
        assert!(names.iter().any(|s| s.starts_with("EventQueue::schedule")));
        assert!(names.iter().any(|s| s.starts_with("helper")));
        // Name-based dispatch on an untyped receiver.
        assert!(names.iter().any(|s| s.starts_with("Host::receive")));
        // Unreached code stays cold.
        assert!(!names.iter().any(|s| s.starts_with("Network::cold")));
        assert!(!names.iter().any(|s| s.starts_with("Cold::never")));
    }

    #[test]
    fn std_shadowed_names_do_not_leak_heat() {
        let (files, g) = graph(
            &[(
                "a.rs",
                "pub struct Q;\n\
                 impl Q { pub fn pop_batch(&mut self) { self.items.push(1); } }\n\
                 pub struct Json;\n\
                 impl Json { pub fn push(&mut self) { } }\n",
            )],
            ("Q", "pop_batch"),
        );
        let labels = g.hot_fn_labels(&files);
        assert_eq!(labels.len(), 1, "only the root is hot: {labels:?}");
    }

    #[test]
    fn trait_object_calls_resolve_to_all_impls() {
        let (files, g) = graph(
            &[(
                "a.rs",
                "pub struct Host { pub cc: Box<dyn CongestionControl> }\n\
                 impl Host { pub fn run_until(&mut self) { self.cc.on_ecn(); } }\n\
                 pub struct Dcqcn;\n\
                 impl CongestionControl for Dcqcn { fn on_ecn(&mut self) {} }\n\
                 pub struct Timely;\n\
                 impl CongestionControl for Timely { fn on_ecn(&mut self) {} }\n",
            )],
            ("Host", "run_until"),
        );
        let labels = g.hot_fn_labels(&files);
        assert!(labels.iter().any(|s| s.starts_with("Dcqcn::on_ecn")));
        assert!(labels.iter().any(|s| s.starts_with("Timely::on_ecn")));
    }

    #[test]
    fn chains_trace_back_to_a_root() {
        let (files, g) = graph(
            &[(
                "a.rs",
                "pub struct N;\n\
                 impl N {\n\
                     pub fn run_until(&mut self) { self.dispatch(); }\n\
                     fn dispatch(&mut self) { leaf(); }\n\
                 }\n\
                 fn leaf() {}\n",
            )],
            ("N", "run_until"),
        );
        let leaf = g
            .hot
            .iter()
            .copied()
            .find(|&id| files[id.0].fns[id.1].name == "leaf")
            .unwrap();
        assert_eq!(g.chain(&files, leaf), "N::run_until → N::dispatch → leaf");
    }

    #[test]
    fn test_fns_are_invisible_to_the_graph() {
        let (files, g) = graph(
            &[(
                "a.rs",
                "pub struct N;\n\
                 impl N { pub fn run_until(&mut self) {} }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                     fn run_until() { horror(); }\n\
                     fn horror() {}\n\
                 }\n",
            )],
            ("N", "run_until"),
        );
        assert_eq!(g.hot.len(), 1);
        let _ = files;
    }
}
