//! The rule passes, one module per family, plus the shared suppression
//! machinery.
//!
//! Every pass works on the flat token stream (or the item table built
//! from it); none needs type information, which is exactly why these
//! invariants live here and not in clippy: they are *project* rules
//! ("no wall clock in remap decisions", "this file parses untrusted
//! bytes") that only make sense with the workspace's invariant map
//! ([`crate::config`]).

pub mod boundary;
pub mod casts;
pub mod determinism;
pub mod unsafe_check;

use std::cell::Cell;
use std::collections::BTreeSet;

use crate::allow::{parse_allow, AllowParse};
use crate::diag::Finding;
use crate::lexer::{Tok, Token};

/// Every rule identifier `lint:allow` may name. (`allow-syntax` and
/// `allow-stale` are deliberately absent: findings about the suppression
/// mechanism itself cannot be suppressed.)
pub const KNOWN_RULES: &[&str] = &[
    "determinism-clock",
    "determinism-hash",
    "determinism-thread",
    "boundary-panic",
    "boundary-index",
    "cast-truncation",
    "panic-reachability",
    "unsafe-containment",
];

/// One `// lint:allow(rule, reason)` site with its covered line range.
struct AllowSite {
    rule: String,
    /// Line of the allow comment itself.
    line: u32,
    /// Inclusive covered range: the comment's line through the first
    /// non-allow line after it — so allows stack when one site violates
    /// several rules.
    covered: (u32, u32),
    /// Set when the site actually suppressed a finding; unused sites
    /// become `allow-stale` findings.
    used: Cell<bool>,
}

/// Suppressions for one file, built from `lint:allow` comments.
///
/// `covers` records usage, so staleness can be audited after every pass
/// (per-file *and* workspace-wide) has run: call [`Suppressions::stale`]
/// last.
#[derive(Default)]
pub struct Suppressions {
    sites: Vec<AllowSite>,
}

impl Suppressions {
    /// True when an allow for `rule` covers `line` (marking it used).
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for s in &self.sites {
            if s.rule == rule && (s.covered.0..=s.covered.1).contains(&line) {
                s.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// `allow-stale` findings for sites that never suppressed anything.
    /// Only meaningful after every pass has been filtered through
    /// [`Suppressions::covers`].
    pub fn stale(&self, file: &str) -> Vec<Finding> {
        self.sites
            .iter()
            .filter(|s| !s.used.get())
            .map(|s| Finding {
                file: file.to_string(),
                line: s.line,
                rule: "allow-stale",
                message: format!(
                    "lint:allow({}) suppresses nothing here; remove the stale allow (or \
                     fix the rule name)",
                    s.rule
                ),
            })
            .collect()
    }
}

/// Extracts suppressions from comment tokens; malformed or unknown-rule
/// allows become `allow-syntax` findings (never themselves suppressible).
pub fn collect_suppressions(file: &str, tokens: &[Token]) -> (Suppressions, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    // Lines holding a *valid* allow, so stacked allows extend coverage
    // through each other down to the first real code line.
    let mut allow_lines: BTreeSet<u32> = BTreeSet::new();
    for t in tokens {
        let Tok::LineComment(text) = &t.tok else { continue };
        if let AllowParse::Valid(a) = parse_allow(text) {
            if KNOWN_RULES.contains(&a.rule.as_str()) {
                allow_lines.insert(t.line);
            }
        }
    }
    for t in tokens {
        let Tok::LineComment(text) = &t.tok else { continue };
        match parse_allow(text) {
            AllowParse::NotAllow => {}
            AllowParse::Valid(a) => {
                if KNOWN_RULES.contains(&a.rule.as_str()) {
                    let mut end = t.line + 1;
                    while allow_lines.contains(&end) {
                        end += 1;
                    }
                    sites.push(AllowSite {
                        rule: a.rule,
                        line: t.line,
                        covered: (t.line, end),
                        used: Cell::new(false),
                    });
                } else {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "allow-syntax",
                        message: format!(
                            "lint:allow names unknown rule '{}'; known rules: {}",
                            a.rule,
                            KNOWN_RULES.join(", ")
                        ),
                    });
                }
            }
            AllowParse::Malformed(why) => findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: "allow-syntax",
                message: why,
            }),
        }
    }
    (Suppressions { sites }, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// lint:allow(boundary-panic, helper panics by contract)\nx.unwrap();\n\ny.unwrap();\n";
        let toks = lex(src);
        let (sup, bad) = collect_suppressions("f.rs", &toks);
        assert!(bad.is_empty());
        assert!(sup.covers("boundary-panic", 1));
        assert!(sup.covers("boundary-panic", 2));
        assert!(!sup.covers("boundary-panic", 4));
        assert!(!sup.covers("boundary-index", 2));
    }

    #[test]
    fn stacked_allows_cover_through_each_other() {
        let src = "\
// lint:allow(boundary-index, masked to the table size)
// lint:allow(cast-truncation, masked to 0xFF first)
crc = table[((crc ^ b) & 0xFF) as usize];
";
        let (sup, bad) = collect_suppressions("f.rs", &lex(src));
        assert!(bad.is_empty());
        // Both rules cover line 3, the first code line under the stack.
        assert!(sup.covers("boundary-index", 3));
        assert!(sup.covers("cast-truncation", 3));
        assert!(!sup.covers("boundary-index", 4));
    }

    #[test]
    fn unused_allows_surface_as_stale() {
        let src = "// lint:allow(boundary-panic, obsolete reason)\nlet x = 1;\n";
        let (sup, bad) = collect_suppressions("f.rs", &lex(src));
        assert!(bad.is_empty());
        let stale = sup.stale("f.rs");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "allow-stale");
        assert_eq!(stale[0].line, 1);
        // Once it suppresses something it is no longer stale.
        assert!(sup.covers("boundary-panic", 2));
        assert!(sup.stale("f.rs").is_empty());
    }

    #[test]
    fn malformed_and_unknown_allows_are_findings() {
        let src = "// lint:allow(boundary-panic)\n// lint:allow(no-such-rule, because)\n";
        let (_, bad) = collect_suppressions("f.rs", &lex(src));
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|f| f.rule == "allow-syntax"));
    }
}
