//! What the lint checks *where* — the decode entry points and the few
//! panic sites the reachability pass accepts.
//!
//! All paths are workspace-root-relative with forward slashes. The
//! [`default_config`] is the single source of truth for microslip's own
//! entry points; the self-tests build small synthetic configs instead.
//! Which files are boundary files is not listed here: a file is one when
//! it, or its crate's `lib.rs`, opens with the [`BOUNDARY_LINTS`] header
//! (see [`crate::is_boundary_file`]).

/// The clippy lints a boundary module denies in its opening
/// `#![deny(clippy::…)]` header: no panics, no unchecked indexing and no
/// narrowing casts in code that parses untrusted bytes. Clippy enforces
/// them inside the file; the reachability pass leaves such files to it.
pub const BOUNDARY_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
    "cast_possible_truncation",
    "cast_sign_loss",
    "cast_possible_wrap",
];

/// One panic-reachability scan.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Directories walked for the scan.
    pub scan_roots: Vec<String>,
    /// Path prefixes excluded from the walk (vendored shims, build output,
    /// and the lint's own deliberately-violating fixtures).
    pub exclude: Vec<String>,
    /// `(file, fn name)` pairs through which untrusted bytes enter; every
    /// same-named fn in the file counts.
    pub entries: Vec<(String, String)>,
    /// Reachable fns whose panic sites are accepted, each with its reason.
    pub exemptions: Vec<Exemption>,
}

/// A reachable fn whose panic sites are accepted. An exemption that
/// suppresses nothing is itself a finding, so the list cannot go stale.
#[derive(Clone, Debug)]
pub struct Exemption {
    pub file: String,
    /// Qualified name as the findings print it: `Type::name` or `name`.
    pub func: String,
    pub reason: String,
}

/// True when `path` equals `prefix` or lives under it.
pub fn path_matches(path: &str, prefix: &str) -> bool {
    path == prefix || path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

impl LintConfig {
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path_matches(path, p))
    }
}

/// The microslip workspace's entry points and exemptions.
pub fn default_config() -> LintConfig {
    LintConfig {
        scan_roots: vec!["src".into(), "crates".into(), "examples".into(), "tests".into()],
        exclude: vec![
            "vendor".into(),
            "target".into(),
            // The fixtures violate the rule on purpose — that is their job
            // (see crates/lint/tests/self_test.rs).
            "crates/lint/tests/fixtures".into(),
        ],
        // The decode fns through which client/peer bytes enter. The serve
        // loop and mp driver are *not* entries: everything they feed into
        // decoders is covered via these, and the run itself operates on
        // validated configs.
        entries: vec![
            ("crates/net/src/wire.rs".into(), "read_frame".into()),
            ("crates/net/src/wire.rs".into(), "bytes_payload".into()),
            ("src/scenario.rs".into(), "decode".into()),
            ("src/serve.rs".into(), "decode".into()),
            ("crates/lbm/src/config_codec.rs".into(), "decode_config".into()),
            ("crates/lbm/src/boundary/codec.rs".into(), "decode_wall_bc".into()),
            ("crates/lbm/src/artifact.rs".into(), "decode".into()),
            ("crates/lbm/src/artifact.rs".into(), "unseal".into()),
            ("crates/obs/src/export.rs".into(), "event_from_json".into()),
            ("crates/obs/src/export.rs".into(), "from_jsonl".into()),
            ("crates/obs/src/json.rs".into(), "parse".into()),
        ],
        // None: every panic site the entry points reach is a checked API
        // or lives in a boundary file.
        exemptions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_matching_requires_component_boundaries() {
        assert!(path_matches("crates/net/src/wire.rs", "crates/net/src/wire.rs"));
        assert!(path_matches("crates/net/src/wire.rs", "crates/net/src"));
        assert!(path_matches("crates/net/src/wire.rs", "crates/net"));
        assert!(!path_matches("crates/network/src/wire.rs", "crates/net"));
        assert!(!path_matches("crates/net", "crates/net/src"));
    }
}
