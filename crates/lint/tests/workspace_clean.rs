//! The workspace must produce no findings — the same gate `just lint`
//! (and therefore `just tier1`) runs, embedded in the test suite so plain
//! `cargo test` enforces it too.

use std::path::Path;

#[test]
fn workspace_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = microslip_lint::lint_workspace(&root, &microslip_lint::default_config())
        .expect("workspace scan must be able to read every source file");
    assert!(
        findings.is_empty(),
        "the workspace has lint findings:\n{}",
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}
