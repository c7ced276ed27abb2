//! Self-tests: the reachability rule fires on its deliberately-violating
//! fixture and stays silent on its clean twin, an exemption that
//! suppresses nothing is a finding, and the facts the rule shares with
//! clippy's configuration have not drifted apart.
//!
//! The fixtures live under `tests/fixtures/` (excluded from the
//! workspace scan precisely because one violates the rule on purpose).

use std::path::Path;

use microslip_lint::items::{parse_fn_items, FnItem};
use microslip_lint::lexer::lex;
use microslip_lint::{default_config, is_boundary_file, lint_items, Exemption, LintConfig};

/// The entry fixture at `parser/entry.rs` plus `helper_src` at
/// `helpers/helper.rs`.
fn fixture_items(helper_src: &str) -> Vec<FnItem> {
    let mut items =
        parse_fn_items("parser/entry.rs", &lex(include_str!("fixtures/reachability_entry.rs")));
    items.extend(parse_fn_items("helpers/helper.rs", &lex(helper_src)));
    items
}

fn fixture_config(exemptions: Vec<Exemption>) -> LintConfig {
    LintConfig {
        entries: vec![("parser/entry.rs".into(), "decode".into())],
        exemptions,
        ..LintConfig::default()
    }
}

/// The entry file is a boundary file: clippy owns its sites.
const BOUNDARY: &[&str] = &["parser/entry.rs"];

#[test]
fn reachability_fixture_pair() {
    let cfg = fixture_config(Vec::new());
    let clean =
        lint_items(&fixture_items(include_str!("fixtures/reachability_pass.rs")), BOUNDARY, &cfg);
    assert!(clean.is_empty(), "typed-error helper must be clean: {clean:?}");

    let dirty =
        lint_items(&fixture_items(include_str!("fixtures/reachability_fail.rs")), BOUNDARY, &cfg);
    assert_eq!(dirty.len(), 1, "{dirty:?}");
    assert_eq!(dirty[0].rule, "panic-reachability");
    assert_eq!(dirty[0].file, "helpers/helper.rs");
    assert!(dirty[0].message.contains("decode -> header_word"), "{}", dirty[0].message);
}

#[test]
fn an_exemption_suppresses_its_fn_and_is_a_finding_once_it_suppresses_nothing() {
    let cfg = fixture_config(vec![Exemption {
        file: "helpers/helper.rs".into(),
        func: "header_word".into(),
        reason: "fixture".into(),
    }]);
    let used =
        lint_items(&fixture_items(include_str!("fixtures/reachability_fail.rs")), BOUNDARY, &cfg);
    assert!(used.is_empty(), "{used:?}");

    // The helper returns typed errors now: the exemption is stale.
    let stale =
        lint_items(&fixture_items(include_str!("fixtures/reachability_pass.rs")), BOUNDARY, &cfg);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].rule, "unused-exemption");
    assert_eq!(stale[0].file, "helpers/helper.rs");
}

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The pass skips sites inside boundary files, so an entry outside them
/// would leave its own body checked by nothing.
#[test]
fn every_entry_point_is_in_a_boundary_file() {
    for (file, f) in &default_config().entries {
        let boundary = is_boundary_file(workspace_root(), file)
            .unwrap_or_else(|e| panic!("entry {file}::{f}: {e}"));
        assert!(boundary, "entry {file}::{f} is not governed by the boundary header");
    }
}

/// A crate-local clippy.toml replaces the root one instead of merging
/// with it: the four determinism crates must carry the same file, and it
/// must repeat every line of the root one.
#[test]
fn crate_local_clippy_configs_agree_with_the_root_one() {
    let read = |rel: &str| {
        std::fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let root = read("clippy.toml");
    let local = read("crates/lbm/clippy.toml");
    for krate in ["balance", "cluster", "runtime"] {
        assert_eq!(read(&format!("crates/{krate}/clippy.toml")), local, "crates/{krate}");
    }
    for line in root.lines() {
        assert!(local.lines().any(|l| l == line), "crate-local clippy.toml lacks {line:?}");
    }
}
