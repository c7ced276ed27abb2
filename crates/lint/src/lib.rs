#![forbid(unsafe_code)]
//! # microslip-lint — static invariant checking for the workspace
//!
//! A zero-dependency linter enforcing the project rules clippy cannot
//! express, because they are about *this* system's guarantees:
//!
//! * **determinism** (`determinism-clock` / `determinism-hash` /
//!   `determinism-thread`) — the bitwise serial/threaded/multi-process
//!   equivalence results rest on decision and kernel code never reading a
//!   wall clock, iterating a hash-ordered collection, or branching on
//!   thread identity. Timing modules are allowlisted by name.
//! * **panic-freedom at the trust boundary** (`boundary-panic` /
//!   `boundary-index` / `cast-truncation`) — files that parse untrusted
//!   bytes (TCP frames, JSONL traces, config blobs) must return typed
//!   errors, never panic, and never narrow integers with `as`.
//! * **transitive panic-reachability** (`panic-reachability`) — a
//!   name-resolved call graph over every `fn` in the workspace; panic
//!   sites reachable from the decode entry points are findings even when
//!   they live outside the boundary files ([`callgraph`]).
//! * **unsafe containment** (`unsafe-containment`) — `unsafe` only in
//!   explicitly registered kernel files, each with a justification whose
//!   named fns are re-verified against the file.
//!
//! Drift between the byte codecs, the frame-kind table and the trace
//! schema is not checked here: each encoder destructures its type
//! exhaustively, `FrameKind`'s `#[repr(u8)]` discriminants are the one
//! code table, and the round-trip tests beside each format cover every
//! variant, so that drift is a compile error or a failing test.
//!
//! Findings can be suppressed inline with `// lint:allow(<rule>,
//! <reason>)`; a missing reason is itself a violation (`allow-syntax`),
//! and an allow that no longer suppresses anything is one too
//! (`allow-stale`). The binary prints rustc-style `file:line: rule:
//! message` diagnostics (or JSON with `--json`), diffs against a
//! committed baseline with `--baseline`, and exits nonzero on any new
//! finding.

pub mod allow;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod rules;

use std::path::{Path, PathBuf};

pub use allow::{format_allow, parse_allow, Allow, AllowParse};
pub use config::{default_config, LintConfig, ReachabilityCheck, UnsafeEntry};
pub use diag::{diff_baseline, parse_baseline, sort_findings, to_json, BaselineEntry, Finding};

use items::FnItem;
use passes::Suppressions;

/// One scanned file: its item table, per-file findings (already filtered
/// through suppressions), and the suppressions themselves so the
/// workspace passes can consult them before the staleness audit.
struct FileScan {
    rel: String,
    items: Vec<FnItem>,
    suppressions: Suppressions,
    findings: Vec<Finding>,
    has_unsafe: bool,
}

/// Runs every per-file rule the config scopes `rel_path` into.
fn scan_file(rel_path: &str, src: &str, cfg: &LintConfig) -> FileScan {
    let tokens = lexer::lex(src);
    let (suppressions, mut findings) = passes::collect_suppressions(rel_path, &tokens);
    let mut raw = Vec::new();
    if cfg.in_determinism_paths(rel_path) {
        raw.extend(passes::determinism::check_determinism(rel_path, &tokens));
    }
    if cfg.in_boundary_paths(rel_path) {
        raw.extend(passes::boundary::check_boundary(rel_path, &tokens));
        raw.extend(passes::casts::check_casts(rel_path, &tokens));
    }
    let registered = cfg.unsafe_justification(rel_path).is_some();
    raw.extend(passes::unsafe_check::check_unsafe_containment(rel_path, &tokens, registered));
    findings.extend(raw.into_iter().filter(|f| !suppressions.covers(f.rule, f.line)));
    let has_unsafe = !passes::unsafe_check::unsafe_lines(&tokens).is_empty();
    let items = items::parse_fn_items(rel_path, &tokens);
    FileScan { rel: rel_path.to_string(), items, suppressions, findings, has_unsafe }
}

/// Lints one file's source in isolation (per-file rules only — the
/// cross-file passes need the whole workspace). Returns the surviving
/// findings (including `allow-stale` for suppressions nothing used) and
/// whether the file contains `unsafe` at all.
pub fn lint_source(rel_path: &str, src: &str, cfg: &LintConfig) -> (Vec<Finding>, bool) {
    let scan = scan_file(rel_path, src, cfg);
    let mut findings = scan.findings;
    findings.extend(scan.suppressions.stale(rel_path));
    (findings, scan.has_unsafe)
}

/// Lints the whole workspace under `root`: walks the configured scan
/// roots, runs the per-file rules, then the cross-file passes (unsafe
/// registry staleness, panic reachability), filters everything through
/// the inline suppressions, and finally audits the suppressions
/// themselves for staleness. Findings come back sorted.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for scan_root in &cfg.scan_roots {
        collect_rs_files(root, Path::new(scan_root), cfg, &mut files)?;
    }
    files.sort();

    let mut scans = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        scans.push(scan_file(rel, &src, cfg));
    }
    let mut findings: Vec<Finding> = scans.iter().flat_map(|s| s.findings.clone()).collect();

    // Workspace passes collect raw findings here, then go through the
    // owning file's suppressions in one place at the end.
    let mut raw: Vec<Finding> = Vec::new();

    // Unsafe registry: an entry whose file no longer uses unsafe is a
    // hole waiting to hide a future violation; a justification naming a
    // fn that no longer exists (or no longer touches unsafe) has drifted
    // from the code it vouches for.
    for entry in &cfg.unsafe_registry {
        let scan = scans.iter().find(|s| s.rel == entry.path);
        if !scan.is_some_and(|s| s.has_unsafe) {
            raw.push(Finding {
                file: entry.path.clone(),
                line: 1,
                rule: "unsafe-containment",
                message: "registered in the unsafe registry but contains no `unsafe` \
                          (or was not scanned); remove the stale registry entry"
                    .to_string(),
            });
            continue;
        }
        let scan = scan.expect("checked above");
        let names = passes::unsafe_check::unsafe_fn_names(&scan.items);
        for expected in &entry.expect_fns {
            if !names.iter().any(|n| n == expected) {
                raw.push(Finding {
                    file: entry.path.clone(),
                    line: 1,
                    rule: "unsafe-containment",
                    message: format!(
                        "the registry justification names `fn {expected}` but no such \
                         unsafe-using fn exists here; the rationale has drifted from the \
                         code"
                    ),
                });
            }
        }
    }

    if let Some(rc) = &cfg.reachability {
        let all_items: Vec<FnItem> = scans.iter().flat_map(|s| s.items.clone()).collect();
        raw.extend(callgraph::check_reachability(&all_items, &rc.entries, |file| {
            !cfg.in_boundary_paths(file)
        }));
    }

    findings.extend(raw.into_iter().filter(|f| {
        !scans
            .iter()
            .find(|s| s.rel == f.file)
            .is_some_and(|s| s.suppressions.covers(f.rule, f.line))
    }));

    // Last, once every pass has had its chance to use each allow: the
    // staleness audit.
    for scan in &scans {
        findings.extend(scan.suppressions.stale(&scan.rel));
    }

    sort_findings(&mut findings);
    Ok(findings)
}

/// Recursively collects `.rs` files under `root/dir` (paths returned
/// root-relative with forward slashes), honoring the exclude list.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &LintConfig,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    let abs = root.join(dir);
    if !abs.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(&abs)? {
        let entry = entry?;
        let rel: PathBuf = dir.join(entry.file_name());
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if cfg.is_excluded(&rel_str) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &rel, cfg, out)?;
        } else if ty.is_file() && rel_str.ends_with(".rs") {
            out.push(rel_str);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_scopes_rules_by_path() {
        let cfg = LintConfig {
            determinism_paths: vec!["kernel".into()],
            boundary_paths: vec!["parser/wire.rs".into()],
            ..LintConfig::default()
        };
        let src = "fn f() { let t = Instant::now(); x.unwrap(); }";
        let (in_kernel, _) = lint_source("kernel/k.rs", src, &cfg);
        assert_eq!(in_kernel.iter().map(|f| f.rule).collect::<Vec<_>>(), ["determinism-clock"]);
        let (in_parser, _) = lint_source("parser/wire.rs", src, &cfg);
        assert_eq!(in_parser.iter().map(|f| f.rule).collect::<Vec<_>>(), ["boundary-panic"]);
        let (elsewhere, _) = lint_source("docs/example.rs", src, &cfg);
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn suppression_silences_exactly_its_rule_and_site() {
        let cfg = LintConfig { boundary_paths: vec!["p.rs".into()], ..LintConfig::default() };
        let src = "fn f() {\n    // lint:allow(boundary-panic, infallible by construction)\n    \
                   x.unwrap();\n    y.unwrap();\n}\n";
        let (findings, _) = lint_source("p.rs", src, &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn unsafe_flag_reported_per_file() {
        let cfg = LintConfig::default();
        let (findings, has_unsafe) = lint_source("a.rs", "unsafe fn f() {}", &cfg);
        assert!(has_unsafe);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unsafe-containment");
    }

    #[test]
    fn unused_allow_is_stale_in_lint_source() {
        let cfg = LintConfig::default();
        let src = "// lint:allow(boundary-panic, nothing here panics anymore)\nfn f() {}\n";
        let (findings, _) = lint_source("a.rs", src, &cfg);
        assert_eq!(findings.iter().map(|f| f.rule).collect::<Vec<_>>(), ["allow-stale"]);
    }
}
