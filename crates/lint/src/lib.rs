#![forbid(unsafe_code)]
//! # microslip-lint — panic-reachability from the decode entry points
//!
//! Most of the workspace's invariants are rustc and clippy lints:
//!
//! * **panic-freedom at the trust boundary** — every module that parses
//!   untrusted bytes (TCP frames, JSONL traces, config blobs, sealed
//!   files) opens with a `#![deny(clippy::unwrap_used, …)]` header
//!   ([`BOUNDARY_LINTS`]): no panics, no unchecked indexing, no narrowing
//!   casts;
//! * **determinism** — `clippy.toml` in `balance`, `cluster`, `lbm` and
//!   `runtime` disallows wall clocks, hash-ordered collections and thread
//!   identity;
//! * **unsafe containment** — `unsafe_code` is denied workspace-wide, the
//!   files that need it say why in an `#![expect(unsafe_code)]`, and
//!   every block carries a `// SAFETY:` line and one unsafe operation;
//! * **suppressions** — `#[expect(lint, reason = "…")]`: a missing reason
//!   and an expectation nothing fulfils are both errors.
//!
//! What no tool in the toolchain sees is the call graph. This crate keeps
//! that one rule, `panic-reachability` ([`callgraph`]): a name-resolved
//! call graph over every `fn` in the workspace, walked from the decode
//! entry points, reports panic sites reachable from untrusted input that
//! live *outside* the boundary files. The accepted ones are exemptions
//! with a reason ([`config::default_config`]); an exemption that
//! suppresses nothing is a finding too. The binary prints rustc-style
//! `file:line: rule: message` diagnostics and exits nonzero on any
//! finding.

pub mod callgraph;
pub mod config;
pub mod items;
pub mod lexer;

use std::fmt;
use std::path::{Path, PathBuf};

pub use config::{default_config, Exemption, LintConfig, BOUNDARY_LINTS};

/// One rule violation at one source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-root-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// `panic-reachability` or `unused-exemption`.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// True when the file's leading inner attributes include a `deny` of
/// every [`BOUNDARY_LINTS`] entry.
fn opens_with_boundary_header(src: &str) -> bool {
    let sig = lexer::lex(src);
    let mut i = 0;
    while sig.get(i + 1).is_some_and(|t| t.is_punct('!')) {
        let Some((_, end)) = items::parse_attribute(&sig, i) else { break };
        let attr = &sig[i..end];
        if attr.get(3).and_then(|t| t.ident()) == Some("deny")
            && BOUNDARY_LINTS.iter().all(|l| attr.iter().any(|t| t.ident() == Some(l)))
        {
            return true;
        }
        i = end;
    }
    false
}

/// The `lib.rs` whose inner attributes govern `file`: `crates/X/src/…` →
/// `crates/X/src/lib.rs`, `src/…` → `src/lib.rs`. Binary roots and
/// everything outside `src/` (tests, examples) are crates of their own.
fn crate_lib(file: &str) -> Option<String> {
    let (krate, rest) = match file.strip_prefix("crates/") {
        Some(rest) => {
            let (name, rest) = rest.split_once('/')?;
            (format!("crates/{name}/"), rest)
        }
        None => (String::new(), file),
    };
    let module = rest.strip_prefix("src/")?;
    (module != "main.rs" && !module.starts_with("bin/")).then(|| format!("{krate}src/lib.rs"))
}

/// Whether clippy's boundary header governs `rel`: the file, or its
/// crate's `lib.rs`, opens with it.
pub fn is_boundary_file(root: &Path, rel: &str) -> std::io::Result<bool> {
    let opens = |rel: &str| -> std::io::Result<bool> {
        Ok(opens_with_boundary_header(&std::fs::read_to_string(root.join(rel))?))
    };
    Ok(opens(rel)? || crate_lib(rel).map_or(Ok(false), |lib| opens(&lib))?)
}

/// Lints the whole workspace under `root`: walks the configured scan
/// roots, parses every fn and which files are boundary files, and runs
/// [`lint_items`].
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for scan_root in &cfg.scan_roots {
        collect_rs_files(root, Path::new(scan_root), cfg, &mut files)?;
    }
    files.sort();

    let mut items = Vec::new();
    let mut boundary = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        items.extend(items::parse_fn_items(rel, &lexer::lex(&src)));
        if is_boundary_file(root, rel)? {
            boundary.push(rel.as_str());
        }
    }
    Ok(lint_items(&items, &boundary, cfg))
}

/// Reports the panic sites reachable from the entry points outside the
/// `boundary` files and the exemptions, then the exemptions that
/// suppressed nothing. Findings come back sorted.
pub fn lint_items(items: &[items::FnItem], boundary: &[&str], cfg: &LintConfig) -> Vec<Finding> {
    let mut used = vec![false; cfg.exemptions.len()];
    let mut findings = callgraph::check_reachability(items, &cfg.entries, |it| {
        if boundary.contains(&it.file.as_str()) {
            return false;
        }
        let name = it.qualified_name();
        match cfg.exemptions.iter().position(|e| e.file == it.file && e.func == name) {
            Some(k) => {
                used[k] = true;
                false
            }
            None => true,
        }
    });
    for (e, _) in cfg.exemptions.iter().zip(&used).filter(|(_, &u)| !u) {
        findings.push(Finding {
            file: e.file.clone(),
            line: 1,
            rule: "unused-exemption",
            message: format!(
                "the exemption for `{}` suppresses nothing (not reached, or no panic site \
                 left); remove it from the lint config",
                e.func
            ),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
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
    fn the_header_is_recognized_among_leading_inner_attributes() {
        let header = format!(
            "#![deny({})]",
            BOUNDARY_LINTS.iter().map(|l| format!("clippy::{l}")).collect::<Vec<_>>().join(", ")
        );
        assert!(opens_with_boundary_header(&format!("{header}\n//! Docs.\nfn f() {{}}")));
        assert!(opens_with_boundary_header(&format!(
            "//! Docs.\n#![forbid(unsafe_code)]\n{header}\nfn f() {{}}"
        )));
        // After the first item it is not the file's header any more.
        assert!(!opens_with_boundary_header(&format!("fn f() {{}}\n{header}")));
        // Every lint must be denied, and denied rather than allowed.
        assert!(!opens_with_boundary_header("#![deny(clippy::unwrap_used)]"));
        assert!(!opens_with_boundary_header(&header.replace("deny", "allow")));
    }

    #[test]
    fn crate_lib_covers_library_modules_only() {
        assert_eq!(
            crate_lib("crates/codec/src/crc.rs").as_deref(),
            Some("crates/codec/src/lib.rs")
        );
        assert_eq!(crate_lib("src/serve.rs").as_deref(), Some("src/lib.rs"));
        assert_eq!(crate_lib("src/bin/microslip.rs"), None);
        assert_eq!(crate_lib("crates/lint/src/main.rs"), None);
        assert_eq!(crate_lib("crates/codec/tests/crc.rs"), None);
        assert_eq!(crate_lib("tests/seal_golden.rs"), None);
    }
}
