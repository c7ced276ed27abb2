//! Fixture-based self-tests: every rule family must fire on its
//! deliberately-violating fixture and stay silent on its clean twin.
//!
//! The fixtures live under `tests/fixtures/` (excluded from the
//! workspace scan precisely because they violate rules on purpose) and
//! are linted here through the public `lint_source` /
//! `check_reachability` entry points with small synthetic configs, so
//! each rule is exercised exactly as the binary would.

use microslip_lint::items::parse_fn_items;
use microslip_lint::lexer::lex;
use microslip_lint::rules::check_reachability;
use microslip_lint::{diff_baseline, lint_source, parse_baseline, Finding, LintConfig, UnsafeEntry};

/// Lints a fixture as if it were at `path` under the given config.
fn lint(path: &str, src: &str, cfg: &LintConfig) -> Vec<(u32, &'static str)> {
    let (findings, _) = lint_source(path, src, cfg);
    findings.into_iter().map(|f| (f.line, f.rule)).collect()
}

fn determinism_cfg() -> LintConfig {
    LintConfig { determinism_paths: vec!["kernel".into()], ..LintConfig::default() }
}

fn boundary_cfg() -> LintConfig {
    LintConfig { boundary_paths: vec!["parser".into()], ..LintConfig::default() }
}

#[test]
fn determinism_fixture_pair() {
    let cfg = determinism_cfg();
    let clean = lint(
        "kernel/pass.rs",
        include_str!("fixtures/determinism_pass.rs"),
        &cfg,
    );
    assert_eq!(clean, [], "clean fixture must produce no findings");

    let dirty = lint(
        "kernel/fail.rs",
        include_str!("fixtures/determinism_fail.rs"),
        &cfg,
    );
    let rules: Vec<&str> = dirty.iter().map(|&(_, r)| r).collect();
    assert!(rules.contains(&"determinism-clock"), "clock rule must fire: {dirty:?}");
    assert!(rules.contains(&"determinism-hash"), "hash rule must fire: {dirty:?}");
    assert!(rules.contains(&"determinism-thread"), "thread rule must fire: {dirty:?}");
}

#[test]
fn boundary_fixture_pair() {
    let cfg = boundary_cfg();
    let clean = lint(
        "parser/pass.rs",
        include_str!("fixtures/boundary_pass.rs"),
        &cfg,
    );
    assert_eq!(clean, [], "clean fixture must produce no findings");

    let dirty = lint(
        "parser/fail.rs",
        include_str!("fixtures/boundary_fail.rs"),
        &cfg,
    );
    let count = |rule: &str| dirty.iter().filter(|&&(_, r)| r == rule).count();
    assert_eq!(count("boundary-index"), 1, "{dirty:?}");
    // `.unwrap()`, `panic!` and `.expect()` are three distinct sites.
    assert_eq!(count("boundary-panic"), 3, "{dirty:?}");
}

#[test]
fn boundary_rules_only_fire_inside_boundary_paths() {
    let cfg = boundary_cfg();
    let elsewhere = lint(
        "other/fail.rs",
        include_str!("fixtures/boundary_fail.rs"),
        &cfg,
    );
    assert_eq!(elsewhere, [], "boundary rules are path-scoped");
}

#[test]
fn unsafe_fixture_pair() {
    let cfg = LintConfig::default(); // empty registry: nothing may be unsafe
    let clean = lint("any/pass.rs", include_str!("fixtures/unsafe_pass.rs"), &cfg);
    assert_eq!(clean, []);

    let dirty = lint("any/fail.rs", include_str!("fixtures/unsafe_fail.rs"), &cfg);
    assert_eq!(dirty.iter().map(|&(_, r)| r).collect::<Vec<_>>(), ["unsafe-containment"]);

    // The same file is clean once registered.
    let registered = LintConfig {
        unsafe_registry: vec![UnsafeEntry {
            path: "any/fail.rs".into(),
            why: "fixture kernel".into(),
            expect_fns: Vec::new(),
        }],
        ..LintConfig::default()
    };
    let ok = lint("any/fail.rs", include_str!("fixtures/unsafe_fail.rs"), &registered);
    assert_eq!(ok, []);
}

#[test]
fn allow_fixture_pair() {
    let cfg = boundary_cfg();
    let clean = lint("parser/pass.rs", include_str!("fixtures/allow_pass.rs"), &cfg);
    assert_eq!(clean, [], "a well-formed allow must silence its finding");

    let dirty = lint("parser/fail.rs", include_str!("fixtures/allow_fail.rs"), &cfg);
    let count = |rule: &str| dirty.iter().filter(|&&(_, r)| r == rule).count();
    // Both malformed comments are findings, and neither suppresses the
    // indexing below them.
    assert_eq!(count("allow-syntax"), 2, "{dirty:?}");
    assert_eq!(count("boundary-index"), 1, "{dirty:?}");
}

#[test]
fn cast_fixture_pair() {
    let cfg = boundary_cfg();
    let clean = lint("parser/pass.rs", include_str!("fixtures/cast_pass.rs"), &cfg);
    assert_eq!(clean, [], "widening casts and try_from must not fire");

    let dirty = lint("parser/fail.rs", include_str!("fixtures/cast_fail.rs"), &cfg);
    assert_eq!(
        dirty.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
        ["cast-truncation", "cast-truncation"],
        "{dirty:?}"
    );
}

#[test]
fn stale_allow_fixture_fires() {
    let cfg = boundary_cfg();
    let findings = lint("parser/stale.rs", include_str!("fixtures/allow_stale.rs"), &cfg);
    assert_eq!(findings, [(5, "allow-stale")], "{findings:?}");
}

#[test]
fn reachability_fixture_pair() {
    let entries = vec![("parser/entry.rs".to_string(), "decode".to_string())];
    // The entry file is a boundary file: the token rules own its sites.
    let report_in = |file: &str| file != "parser/entry.rs";
    let items_with = |helper_src: &str| {
        let mut items = parse_fn_items(
            "parser/entry.rs",
            &lex(include_str!("fixtures/reachability_entry.rs")),
        );
        items.extend(parse_fn_items("helpers/helper.rs", &lex(helper_src)));
        items
    };

    let clean = check_reachability(
        &items_with(include_str!("fixtures/reachability_pass.rs")),
        &entries,
        report_in,
    );
    assert!(clean.is_empty(), "typed-error helper must be clean: {clean:?}");

    let dirty = check_reachability(
        &items_with(include_str!("fixtures/reachability_fail.rs")),
        &entries,
        report_in,
    );
    assert_eq!(dirty.len(), 1, "{dirty:?}");
    assert_eq!(dirty[0].rule, "panic-reachability");
    assert_eq!(dirty[0].file, "helpers/helper.rs");
    assert!(dirty[0].message.contains("decode -> header_word"), "{}", dirty[0].message);
}

#[test]
fn baseline_fixture_diffs_by_content_not_line() {
    let baseline = parse_baseline(include_str!("fixtures/baseline.json"))
        .expect("fixture baseline must parse");
    assert_eq!(baseline.len(), 2);
    let findings = vec![
        // Same finding as the baseline's first entry, moved 30 lines.
        Finding {
            file: "crates/net/src/wire.rs".into(),
            line: 40,
            rule: "boundary-panic",
            message: "`unwrap()` on the frame length".into(),
        },
        // Brand new.
        Finding {
            file: "crates/net/src/tcp.rs".into(),
            line: 7,
            rule: "boundary-index",
            message: "direct slice index".into(),
        },
    ];
    let (new, resolved) = diff_baseline(&findings, &baseline);
    assert_eq!(new.len(), 1, "{new:?}");
    assert_eq!(new[0].file, "crates/net/src/tcp.rs");
    // The serve.rs entry no longer occurs: stale baseline entry.
    assert_eq!(resolved, 1);
}
