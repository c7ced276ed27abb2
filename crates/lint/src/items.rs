//! A flat item model over the token stream: `#[cfg(test)]` extents and
//! `fn` items with their enclosing `impl` type.
//!
//! This is deliberately not an AST. Brace matching plus "which `impl`
//! block am I inside" is enough to name-resolve intra-workspace calls,
//! and it keeps the crate zero-dep.

use crate::lexer::{Tok, Token};

/// Inclusive line ranges covered by `#[cfg(test)]` items (test modules,
/// test-only functions and imports). Their fns are never call-graph
/// edges: test code may unwrap.
fn test_exempt_ranges(sig: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if let Some((attr_is_test, after_attr)) = parse_attribute(sig, i) {
            if attr_is_test {
                let start_line = sig[i].line;
                // Skip any further attributes on the same item.
                let mut j = after_attr;
                while let Some((_, next)) = parse_attribute(sig, j) {
                    j = next;
                }
                let end_line = item_end_line(sig, j);
                ranges.push((start_line, end_line));
            }
            i = after_attr;
        } else {
            i += 1;
        }
    }
    ranges
}

/// If `sig[i]` opens an attribute (`#[…]` or `#![…]`), returns whether it
/// is a `cfg(test)`-style attribute and the index just past its `]`.
pub(crate) fn parse_attribute(sig: &[Token], i: usize) -> Option<(bool, usize)> {
    if !sig.get(i)?.is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    if sig.get(j)?.is_punct('!') {
        j += 1;
    }
    if !sig.get(j)?.is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    for (k, t) in sig.iter().enumerate().skip(j) {
        match &t.tok {
            Tok::Punct('[') | Tok::Punct('(') | Tok::Punct('{') => depth += 1,
            Tok::Punct(']') | Tok::Punct(')') | Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some((saw_cfg && saw_test, k + 1));
                }
            }
            Tok::Ident(s) if s == "cfg" => saw_cfg = true,
            Tok::Ident(s) if s == "test" => saw_test = true,
            _ => {}
        }
    }
    Some((false, sig.len()))
}

/// Line where the item starting at `sig[i]` ends: the matching `}` of its
/// first brace, or the first `;` before any brace opens.
fn item_end_line(sig: &[Token], i: usize) -> u32 {
    let mut depth = 0usize;
    let mut last_line = sig.get(i).map_or(1, |t| t.line);
    for t in sig.iter().skip(i) {
        last_line = t.line;
        match &t.tok {
            Tok::Punct(';') if depth == 0 => return t.line,
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return t.line;
                }
            }
            _ => {}
        }
    }
    last_line
}

fn line_is_exempt(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// One `fn` item with a body, as parsed out of the token stream.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// The `impl` type this fn belongs to (`impl Trait for Type` records
    /// `Type`); `None` for free functions.
    pub impl_of: Option<String>,
    /// Workspace-root-relative file holding the fn.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` extent.
    pub test_only: bool,
    /// Body tokens including both braces.
    pub body: Vec<Token>,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified_name(&self) -> String {
        match &self.impl_of {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// `(start, end, type)` signature-token index ranges of `impl` blocks.
fn impl_regions(sig: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if sig[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        // Header scan: pick up the implemented type (the one after `for`
        // when present; the self type otherwise — last path segment wins
        // so `impl fmt::Display for CommError` records `CommError`).
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut collecting = true;
        let mut after_for = false;
        let mut ty: Option<String> = None;
        let mut ty_for: Option<String> = None;
        while j < sig.len() {
            match &sig[j].tok {
                Tok::Punct('{') | Tok::Punct(';') => break,
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Ident(s) if collecting && angle <= 0 => match s.as_str() {
                    "for" => after_for = true,
                    "where" => collecting = false,
                    "dyn" | "mut" | "const" | "unsafe" => {}
                    _ => {
                        if after_for {
                            ty_for = Some(s.clone());
                        } else {
                            ty = Some(s.clone());
                        }
                    }
                },
                _ => {}
            }
            j += 1;
        }
        if j < sig.len() && sig[j].is_punct('{') {
            let (open, end) = brace_match(sig, j);
            if let Some(name) = ty_for.or(ty) {
                out.push((open, end, name));
            }
            i = open + 1;
        } else {
            i = j + 1;
        }
    }
    out
}

/// Index of `sig[open]`'s matching `}` (or the last token if unclosed).
fn brace_match(sig: &[Token], open: usize) -> (usize, usize) {
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return (open, k);
                }
            }
            _ => {}
        }
    }
    (open, sig.len().saturating_sub(1))
}

/// Parses every `fn` item (free, method, nested) with a body out of the
/// token stream. Bodyless trait declarations are skipped.
pub fn parse_fn_items(file: &str, sig: &[Token]) -> Vec<FnItem> {
    let exempt = test_exempt_ranges(sig);
    let impls = impl_regions(sig);
    let mut out = Vec::new();
    for i in 0..sig.len() {
        if sig[i].ident() != Some("fn") {
            continue;
        }
        // `fn(` is a fn-pointer type, not an item.
        let Some(name) = sig.get(i + 1).and_then(|t| t.ident()) else { continue };
        // Find the body brace, or bail on `;` (trait method declaration).
        // `;` inside `[u8; 8]`-style signature types is depth-guarded.
        let mut j = i + 2;
        let mut nest = 0i32;
        let mut body = None;
        while j < sig.len() {
            match &sig[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => nest += 1,
                Tok::Punct(')') | Tok::Punct(']') => nest -= 1,
                Tok::Punct(';') if nest <= 0 => break,
                Tok::Punct('{') => {
                    body = Some(brace_match(sig, j));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some((open, end)) = body else { continue };
        let impl_of = impls
            .iter()
            .rfind(|(s, e, _)| (*s..=*e).contains(&i))
            .map(|(_, _, n)| n.clone());
        out.push(FnItem {
            name: name.to_string(),
            impl_of,
            file: file.to_string(),
            line: sig[i].line,
            test_only: line_is_exempt(&exempt, sig[i].line),
            body: sig[open..=end].to_vec(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_module_lines_are_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let ranges = test_exempt_ranges(&lex(src));
        assert_eq!(ranges, vec![(2, 5)]);
        assert!(line_is_exempt(&ranges, 4));
        assert!(!line_is_exempt(&ranges, 1));
        assert!(!line_is_exempt(&ranges, 6));
    }

    #[test]
    fn cfg_test_semicolon_item_is_exempt() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let ranges = test_exempt_ranges(&lex(src));
        assert_eq!(ranges, vec![(1, 2)]);
    }

    #[test]
    fn non_test_cfg_is_not_exempt() {
        let src = "#[cfg(feature = \"x\")]\nmod m {}\n";
        assert!(test_exempt_ranges(&lex(src)).is_empty());
    }

    #[test]
    fn fn_items_carry_impl_context() {
        let src = "\
fn free(x: u32) -> u32 { x }
struct S;
impl S {
    fn method(&self) -> u32 { helper() }
    pub unsafe fn danger(&self) {}
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"s\") }
}
trait T { fn decl(&self); }
#[cfg(test)]
mod tests { fn t_only() {} }
";
        let items = parse_fn_items("a.rs", &lex(src));
        let by_name: Vec<(String, Option<String>)> =
            items.iter().map(|it| (it.name.clone(), it.impl_of.clone())).collect();
        assert_eq!(
            by_name,
            vec![
                ("free".into(), None),
                ("method".into(), Some("S".into())),
                ("danger".into(), Some("S".into())),
                ("fmt".into(), Some("S".into())),
                ("t_only".into(), None),
            ]
        );
        assert!(items.iter().find(|i| i.name == "t_only").unwrap().test_only);
        assert!(!items.iter().find(|i| i.name == "method").unwrap().test_only);
        assert_eq!(items.iter().find(|i| i.name == "method").unwrap().line, 4);
        assert_eq!(items.iter().find(|i| i.name == "free").unwrap().qualified_name(), "free");
        assert_eq!(
            items.iter().find(|i| i.name == "fmt").unwrap().qualified_name(),
            "S::fmt"
        );
    }

    #[test]
    fn signature_array_semicolons_do_not_end_the_item() {
        let src = "fn f(x: [u8; 4]) -> [f64; 3] { body() }\n";
        let items = parse_fn_items("a.rs", &lex(src));
        assert_eq!(items.len(), 1);
        assert!(items[0].body.iter().any(|t| t.ident() == Some("body")));
    }
}
