//! Name-resolved intra-workspace call graph and the transitive
//! panic-reachability pass.
//!
//! Clippy's lints in each boundary module's header prove the *parser
//! files themselves* cannot panic; this pass closes the gap they leave: a
//! helper in some other file that a decoder calls. Resolution is
//! name-based over the [`crate::items::FnItem`] table — no types — so it
//! is deliberately an over-approximation with narrow, documented tiers:
//!
//! * `path::name(..)` / `Type::name(..)` — items whose `impl` type
//!   matches the qualifier anywhere in the workspace, else free items in
//!   a file named after the qualifier (`wire::read_frame` → `wire.rs`).
//! * bare `name(..)` — free items: same file, else same crate, else
//!   anywhere in the workspace.
//! * `.name(..)` method calls — `impl` items: same file, else same
//!   crate. No workspace-wide tier: a bare method name is too weak a key
//!   to resolve across crates without drowning in false edges.
//!
//! Panic sites reached from a configured entry point are reported *at
//! the site*, with the call chain in the message. Sites inside boundary
//! files are skipped — clippy already denies them there — so this pass
//! reports exactly the complement.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::FnItem;
use crate::lexer::Tok;
use crate::Finding;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Rust keywords that may directly precede `[` without it being an index
/// expression (`return [..]`, `in [..]`, `let [a, b] = …`, `&mut [..]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "loop",
    "while", "for", "move", "as", "const", "static", "fn", "impl", "trait", "type", "struct",
    "enum", "union", "mod", "use", "pub", "crate", "super", "where", "unsafe", "dyn", "async",
    "await", "yield", "box", "extern", "true", "false",
];

/// One potentially-panicking token site inside a fn body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub line: u32,
    pub what: String,
}

/// Direct panic sites in a fn body: `.unwrap()` / `.expect()`,
/// panic-family macros, and slice indexing.
pub fn direct_panic_sites(item: &FnItem) -> Vec<PanicSite> {
    let body = &item.body;
    let mut out = Vec::new();
    for i in 0..body.len() {
        match &body[i].tok {
            Tok::Ident(name)
                if (name == "unwrap" || name == "expect")
                    && i > 0
                    && body[i - 1].is_punct('.')
                    && body.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                out.push(PanicSite { line: body[i].line, what: format!(".{name}()") });
            }
            Tok::Ident(name)
                if PANIC_MACROS.contains(&name.as_str())
                    && body.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                out.push(PanicSite { line: body[i].line, what: format!("{name}!") });
            }
            Tok::Punct('[') if i > 0 => {
                let indexes = match &body[i - 1].tok {
                    Tok::Ident(name) => !NON_INDEX_KEYWORDS.contains(&name.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                    _ => false,
                };
                if indexes {
                    out.push(PanicSite { line: body[i].line, what: "slice indexing".into() });
                }
            }
            _ => {}
        }
    }
    out
}

/// A call expression as it appears in a fn body.
#[derive(Clone, Debug, PartialEq)]
pub enum Callee {
    /// `name(..)`
    Bare(String),
    /// `.name(..)`
    Method(String),
    /// `qual::name(..)` — `qual` is the segment immediately before the
    /// final `::` (`a::b::c(..)` records `b`).
    Qualified(String, String),
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] =
    &["if", "else", "while", "match", "return", "for", "in", "loop", "as", "move", "fn"];

/// Extracts every call expression from a fn body.
pub fn call_sites(item: &FnItem) -> Vec<Callee> {
    let body = &item.body;
    let mut out = Vec::new();
    for i in 0..body.len() {
        let Some(name) = body[i].ident() else { continue };
        if !body.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a nested definition, not a call.
        if i > 0 && body[i - 1].ident() == Some("fn") {
            continue;
        }
        if i >= 2 && body[i - 1].is_punct(':') && body[i - 2].is_punct(':') {
            if let Some(q) = body.get(i.wrapping_sub(3)).and_then(|t| t.ident()) {
                out.push(Callee::Qualified(q.to_string(), name.to_string()));
            }
            continue;
        }
        if i > 0 && body[i - 1].is_punct('.') {
            out.push(Callee::Method(name.to_string()));
            continue;
        }
        out.push(Callee::Bare(name.to_string()));
    }
    out
}

/// Crate key for resolution tiers: `crates/net/...` → `crates/net`,
/// `src/...` → `src`.
fn crate_of(file: &str) -> &str {
    if let Some(rest) = file.strip_prefix("crates/") {
        match rest.find('/') {
            Some(i) => &file[.."crates/".len() + i],
            None => file,
        }
    } else {
        file.split('/').next().unwrap_or(file)
    }
}

/// File stem (`crates/net/src/wire.rs` → `wire`) for module-path calls.
fn file_stem(file: &str) -> &str {
    let base = file.rsplit('/').next().unwrap_or(file);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// The call-graph index over every parsed fn item.
pub struct CallGraph<'a> {
    items: &'a [FnItem],
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    pub fn new(items: &'a [FnItem]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (ix, it) in items.iter().enumerate() {
            if !it.test_only {
                by_name.entry(it.name.as_str()).or_default().push(ix);
            }
        }
        CallGraph { items, by_name }
    }

    /// Candidate item indices a call from `from` may land on.
    fn resolve(&self, from: &FnItem, call: &Callee) -> Vec<usize> {
        let pick = |name: &str, tiers: &[&dyn Fn(&FnItem) -> bool]| -> Vec<usize> {
            let Some(cands) = self.by_name.get(name) else { return Vec::new() };
            for tier in tiers {
                let hits: Vec<usize> =
                    cands.iter().copied().filter(|&ix| tier(&self.items[ix])).collect();
                if !hits.is_empty() {
                    return hits;
                }
            }
            Vec::new()
        };
        let same_file = |it: &FnItem| it.file == from.file;
        let same_crate = |it: &FnItem| crate_of(&it.file) == crate_of(&from.file);
        match call {
            Callee::Bare(name) => pick(
                name,
                &[
                    &|it: &FnItem| it.impl_of.is_none() && same_file(it),
                    &|it: &FnItem| it.impl_of.is_none() && same_crate(it),
                    &|it: &FnItem| it.impl_of.is_none(),
                ],
            ),
            Callee::Method(name) => pick(
                name,
                &[
                    &|it: &FnItem| it.impl_of.is_some() && same_file(it),
                    &|it: &FnItem| it.impl_of.is_some() && same_crate(it),
                ],
            ),
            Callee::Qualified(q, name) => match q.as_str() {
                "self" | "Self" => pick(
                    name,
                    &[&|it: &FnItem| it.impl_of == from.impl_of && same_file(it)],
                ),
                "crate" | "super" => pick(
                    name,
                    &[
                        &|it: &FnItem| it.impl_of.is_none() && same_file(it),
                        &|it: &FnItem| it.impl_of.is_none() && same_crate(it),
                        &|it: &FnItem| it.impl_of.is_none(),
                    ],
                ),
                _ => pick(
                    name,
                    &[
                        &|it: &FnItem| it.impl_of.as_deref() == Some(q.as_str()),
                        &|it: &FnItem| it.impl_of.is_none() && file_stem(&it.file) == q,
                    ],
                ),
            },
        }
    }
}

/// Transitive panic-reachability from the configured entry points.
///
/// `entries` are `(file, fn name)` pairs; `report` is asked once for each
/// reached fn that has panic sites, and gates whether they become
/// findings (boundary files and exempted fns answer `false`).
pub fn check_reachability(
    items: &[FnItem],
    entries: &[(String, String)],
    mut report: impl FnMut(&FnItem) -> bool,
) -> Vec<Finding> {
    let graph = CallGraph::new(items);
    let mut findings = Vec::new();
    // BFS; the first discovery's chain is kept for the message.
    let mut chain: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (file, name) in entries {
        let mut matched = false;
        for (ix, it) in items.iter().enumerate() {
            if &it.file == file && &it.name == name && !it.test_only {
                chain.entry(ix).or_insert_with(|| vec![ix]);
                queue.push_back(ix);
                matched = true;
            }
        }
        if !matched {
            // A stale entry would silently stop covering its subgraph.
            findings.push(Finding {
                file: file.clone(),
                line: 1,
                rule: "panic-reachability",
                message: format!(
                    "reachability entry point `{name}` not found in this file; update the \
                     lint config's entry list"
                ),
            });
        }
    }
    while let Some(ix) = queue.pop_front() {
        let path = chain[&ix].clone();
        for call in call_sites(&items[ix]) {
            for next in graph.resolve(&items[ix], &call) {
                if let std::collections::btree_map::Entry::Vacant(e) = chain.entry(next) {
                    let mut p = path.clone();
                    p.push(next);
                    e.insert(p);
                    queue.push_back(next);
                }
            }
        }
    }

    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (&ix, path) in &chain {
        let it = &items[ix];
        let sites = direct_panic_sites(it);
        if it.test_only || sites.is_empty() || !report(it) {
            continue;
        }
        let via: Vec<String> = path.iter().map(|&p| items[p].qualified_name()).collect();
        for site in sites {
            if !seen.insert((it.file.clone(), site.line, site.what.clone())) {
                continue;
            }
            findings.push(Finding {
                file: it.file.clone(),
                line: site.line,
                rule: "panic-reachability",
                message: format!(
                    "{} in `{}` is reachable from untrusted input via {}; return a typed \
                     error along the chain or add an exemption with its reason",
                    site.what,
                    it.qualified_name(),
                    via.join(" -> "),
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_fn_items;
    use crate::lexer::lex;

    fn items_of(files: &[(&str, &str)]) -> Vec<FnItem> {
        files
            .iter()
            .flat_map(|(file, src)| parse_fn_items(file, &lex(src)))
            .collect()
    }

    #[test]
    fn call_extraction_classifies_kinds() {
        let items = items_of(&[(
            "a.rs",
            "fn f() { bare(); x.method(); wire::qual(); if x { g() } }",
        )]);
        assert_eq!(
            call_sites(&items[0]),
            vec![
                Callee::Bare("bare".into()),
                Callee::Method("method".into()),
                Callee::Qualified("wire".into(), "qual".into()),
                Callee::Bare("g".into()),
            ]
        );
    }

    #[test]
    fn reachability_crosses_files_and_reports_at_the_site() {
        let items = items_of(&[
            ("net/wire.rs", "pub fn decode(b: &[u8]) -> u64 { helper(b) }"),
            ("net/util.rs", "pub fn helper(b: &[u8]) -> u64 { b[0] as u64 }"),
        ]);
        let entries = vec![("net/wire.rs".to_string(), "decode".to_string())];
        // The entry file is a boundary file: its own sites are not ours.
        let f = check_reachability(&items, &entries, |it| it.file != "net/wire.rs");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "net/util.rs");
        assert_eq!(f[0].rule, "panic-reachability");
        assert!(f[0].message.contains("decode -> helper"), "{}", f[0].message);
    }

    #[test]
    fn method_calls_do_not_resolve_across_crates() {
        let items = items_of(&[
            ("crates/a/src/lib.rs", "pub fn entry(x: T) { x.poke() }"),
            ("crates/b/src/lib.rs", "impl Other { pub fn poke(&self) { panic!() } }"),
        ]);
        let entries = vec![("crates/a/src/lib.rs".to_string(), "entry".to_string())];
        assert!(check_reachability(&items, &entries, |_| true).is_empty());
    }

    #[test]
    fn test_only_helpers_are_not_edges() {
        let items = items_of(&[
            ("a.rs", "pub fn entry() { helper() }"),
            ("b.rs", "#[cfg(test)]\nmod t {\n  pub fn helper() { panic!() }\n}\n"),
        ]);
        let entries = vec![("a.rs".to_string(), "entry".to_string())];
        assert!(check_reachability(&items, &entries, |_| true).is_empty());
    }
}
