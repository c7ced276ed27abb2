//! Drift guards for the facts clippy's configuration rests on.
//!
//! Panic-freedom on the decode paths is clippy's boundary header,
//! `#![deny(clippy::unwrap_used, …)]`, at the top of the `lib.rs` of every
//! crate a decoder lives in or calls into — `codec`, `config`, `obs`, `net`
//! and this package — plus two byte-parsing files inside `lbm`. The header
//! is only as good as where it sits and what the header crates can reach,
//! and the determinism rules are only as good as the crate-local
//! `clippy.toml` copies: these tests pin all three.

use std::path::{Path, PathBuf};

/// The header, exactly as every boundary file opens with it.
const HEADER: &str = "#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
";

/// The files that open with [`HEADER`]: the crate roots whose every fn is
/// under it, and the two files of `lbm` that parse bytes.
const BOUNDARY_FILES: &[&str] = &[
    "crates/codec/src/lib.rs",
    "crates/config/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/net/src/lib.rs",
    "src/lib.rs",
    "crates/lbm/src/artifact.rs",
    "crates/lbm/src/store.rs",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under `dir`, root-relative with forward slashes.
fn rust_files(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path: PathBuf = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn the_boundary_header_opens_exactly_the_boundary_files() {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    for file in BOUNDARY_FILES {
        assert!(read(file).starts_with(HEADER), "{file} must open with the boundary header");
    }
    // A copy anywhere else is either redundant (under a header crate) or a
    // file-level exception the inventory above does not know about.
    let mut headed: Vec<String> =
        files.into_iter().filter(|f| read(f).starts_with(HEADER)).collect();
    headed.sort();
    let mut expected: Vec<String> = BOUNDARY_FILES.iter().map(|f| f.to_string()).collect();
    expected.sort();
    assert_eq!(headed, expected, "files opening with the boundary header");
}

/// The config crate is under the header, and so is everything it calls:
/// its only dependency is the codec, itself a header crate.
#[test]
fn the_config_crate_depends_on_the_codec_alone() {
    let manifest = read("crates/config/Cargo.toml");
    let dependencies: Vec<&str> = manifest
        .split("\n[")
        .find_map(|section| section.strip_prefix("dependencies]"))
        .expect("crates/config/Cargo.toml has a [dependencies] table")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(dependencies, ["microslip-codec.workspace = true"]);
    assert!(!manifest.contains("[build-dependencies]"), "no build script reaches around the header");
}

/// A crate-local clippy.toml replaces the root one instead of merging
/// with it: the determinism crates — the kernel and decision crates plus
/// the configuration the kernels read — must carry the same file, and it
/// must repeat every line of the root one.
#[test]
fn crate_local_clippy_configs_agree_with_the_root_one() {
    let root = read("clippy.toml");
    let local = read("crates/lbm/clippy.toml");
    for krate in ["balance", "cluster", "config", "runtime"] {
        assert_eq!(read(&format!("crates/{krate}/clippy.toml")), local, "crates/{krate}");
    }
    for line in root.lines() {
        assert!(local.lines().any(|l| l == line), "crate-local clippy.toml lacks {line:?}");
    }
}
