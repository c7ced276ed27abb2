//! What the lint checks *where* — the project's invariant map.
//!
//! All paths are workspace-root-relative with forward slashes. The
//! [`default_config`] is the single source of truth for microslip's own
//! invariants; the fixture self-tests build small synthetic configs
//! instead, so every rule stays testable in isolation.

/// Per-rule path scoping for one lint run.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Directories (or files) whose code must be deterministic: no wall
    /// clocks, no hash-order-dependent collections, no thread identity.
    pub determinism_paths: Vec<String>,
    /// Files inside the determinism paths that are *allowed* to read wall
    /// clocks, with a justification each. These are the timing modules:
    /// they measure, they never decide.
    pub timing_allowlist: Vec<(String, String)>,
    /// Untrusted-input parser files: `unwrap`/`expect`/`panic!`-family
    /// macros, direct slice indexing, and narrowing `as` casts are
    /// banned; failures must surface as typed `Result` errors.
    pub boundary_paths: Vec<String>,
    /// The only files permitted to contain `unsafe`, with a one-line
    /// justification each. Everything else walked by the scanner must be
    /// unsafe-free (most crates additionally `#![forbid(unsafe_code)]`).
    pub unsafe_registry: Vec<UnsafeEntry>,
    /// Directories walked for the workspace-wide scans (unsafe
    /// containment and suppression-syntax checking).
    pub scan_roots: Vec<String>,
    /// Path prefixes excluded from all scanning (vendored shims, build
    /// output, and the lint's own deliberately-violating fixtures).
    pub exclude: Vec<String>,
    /// The call-graph panic-reachability pass, if enabled.
    pub reachability: Option<ReachabilityCheck>,
}

/// One unsafe-registry entry: the file, why its unsafe is sound, and the
/// fns the justification talks about — the scan verifies each named fn
/// still exists and still uses `unsafe`, so the rationale cannot drift
/// from the file silently.
#[derive(Clone, Debug)]
pub struct UnsafeEntry {
    pub path: String,
    pub why: String,
    /// Unsafe fns the justification is written against (empty = only the
    /// file-level presence check applies).
    pub expect_fns: Vec<String>,
}

/// Entry points for transitive panic-reachability: the fns through which
/// untrusted bytes enter the workspace. Reachable panic sites *outside*
/// the boundary-path files (which the token rules already cover) are
/// findings.
#[derive(Clone, Debug, Default)]
pub struct ReachabilityCheck {
    /// `(file, fn name)` pairs; every same-named fn in the file counts.
    pub entries: Vec<(String, String)>,
}

/// True when `path` equals `prefix` or lives under it.
pub fn path_matches(path: &str, prefix: &str) -> bool {
    path == prefix || path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

impl LintConfig {
    pub fn in_determinism_paths(&self, path: &str) -> bool {
        self.determinism_paths.iter().any(|p| path_matches(path, p))
            && !self.timing_allowlist.iter().any(|(p, _)| path_matches(path, p))
    }

    pub fn in_boundary_paths(&self, path: &str) -> bool {
        self.boundary_paths.iter().any(|p| path_matches(path, p))
    }

    pub fn unsafe_justification(&self, path: &str) -> Option<&str> {
        self.unsafe_registry
            .iter()
            .find(|e| path_matches(path, &e.path))
            .map(|e| e.why.as_str())
    }

    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path_matches(path, p))
    }
}

/// A registry entry with no named fns — the common case.
fn unsafe_file(path: &str, why: &str) -> UnsafeEntry {
    UnsafeEntry { path: path.into(), why: why.into(), expect_fns: Vec::new() }
}

/// The microslip workspace's invariant map.
pub fn default_config() -> LintConfig {
    LintConfig {
        // Decision and kernel code: the bitwise serial/threaded/mp
        // equivalence tests (tests/parallel_equivalence.rs, tests/
        // mp_runs.rs) and the cluster byte-determinism tests only hold if
        // nothing in these crates consults a wall clock, iterates a
        // randomized-order collection, or branches on thread identity.
        determinism_paths: vec![
            "crates/balance/src".into(),
            "crates/cluster/src".into(),
            "crates/lbm/src".into(),
            "crates/runtime/src".into(),
        ],
        timing_allowlist: vec![
            (
                "crates/runtime/src/throttle.rs".into(),
                "injects and measures wall-clock padding; feeds observability, not decisions"
                    .into(),
            ),
            (
                "crates/runtime/src/trace.rs".into(),
                "stamps trace events with wall time relative to the run epoch".into(),
            ),
            (
                "crates/runtime/src/driver.rs".into(),
                "run-level timing (epoch, wall totals) around the workers, outside the \
                 decision loop"
                    .into(),
            ),
        ],
        // Untrusted bytes cross these files: TCP frames, rank-merged
        // JSONL, and the config blob a parent ships to worker processes.
        // A malformed input must come back as CommError::Protocol / a
        // parse error, never as a panic that kills the rank.
        boundary_paths: vec![
            // The one CRC-32 and seal: every frame `read_frame` accepts,
            // every artifact `unseal` opens and every sealed file a rank
            // or the daemon reads back passes through it unverified. Also
            // the one bounded byte cursor every unsealed decoder below
            // (config, wall BC, scenario, sweep request, artifact) reads
            // through.
            "crates/codec/src".into(),
            "crates/net/src/wire.rs".into(),
            "crates/net/src/rendezvous.rs".into(),
            "crates/net/src/tcp.rs".into(),
            "crates/net/src/serve.rs".into(),
            "crates/obs/src/json.rs".into(),
            // The JSONL exporter/parser: event_from_json and the trace
            // re-readers consume rank-merged files a crashed or hostile
            // rank may have truncated mid-record.
            "crates/obs/src/export.rs".into(),
            "crates/lbm/src/config_codec.rs".into(),
            // Wall-BC codec: decoded as part of every channel config that
            // crosses the wire, so out-of-range slip parameters must come
            // back as typed errors.
            "crates/lbm/src/boundary/codec.rs".into(),
            // The serve daemon's request path: scenario and sweep-request
            // codecs, sealed artifacts, the cache store, and the server
            // loop itself all parse bytes a client controls.
            "crates/lbm/src/artifact.rs".into(),
            "crates/lbm/src/store.rs".into(),
            "src/scenario.rs".into(),
            "src/serve.rs".into(),
            // The one child-process layer: it interprets exit statuses
            // and error files a crashed rank or job left behind, and a
            // panic here would take the driver or the daemon down with
            // every child it holds.
            "src/supervisor.rs".into(),
        ],
        unsafe_registry: vec![
            UnsafeEntry {
                path: "crates/codec/src/crc.rs".into(),
                why: "one dispatch call into the CRC-32 fold after runtime detection of \
                      pclmulqdq and sse4.1; the kernel uses no raw pointers"
                    .into(),
                expect_fns: vec!["update".into()],
            },
            unsafe_file(
                "crates/lbm/src/field.rs",
                "madvise on memory the array owns exclusively: MADV_DONTNEED on whole pages \
                 of storage planes a slab's window has just left, MADV_HUGEPAGE on the \
                 2 MiB-aligned interior of each channel's window (a paging hint that keeps \
                 every value); mincore in a residency test",
            ),
            unsafe_file(
                "crates/lbm/src/streaming.rs",
                "raw-pointer sweep over the x-planes of the slab's window (window base + \
                 storage channel stride, the window inside the capacity): each plane is \
                 collided out of place into a three-slot ring of post-collision planes (or \
                 copied in, if collided before the sweep), and f is written only by \
                 streaming, from ring slots or ghost planes, never a plane of f being \
                 written; psi and the ueq slots of the streamed plane are written row block \
                 by row block, after that plane's collision read them",
            ),
            unsafe_file(
                "crates/lbm/src/collision.rs",
                "BGK/TRT collision kernels via raw pointers, one src/dst body each: in place \
                 over disjoint cell ranges of the window (window base + storage channel \
                 stride), or from the window into a ring slot that aliases nothing",
            ),
            UnsafeEntry {
                path: "crates/lbm/src/simd.rs".into(),
                why: "runtime-dispatched core::arch AVX2 kernels (src/dst BGK collide, psi/momentum \
                      moments, ueq update, interaction gradient, force assembly) plus \
                      their raw-pointer scalar references, addressing window-local cells \
                      from a window base with the storage channel stride; every pair is \
                      held bitwise identical by the in-file proptests"
                    .into(),
                expect_fns: vec![
                    "collide_bgk_into_avx2".into(),
                    "moments_avx2".into(),
                    "update_ueq_avx2".into(),
                    "gvec_plane".into(),
                    "gvec_plane_avx2".into(),
                    "force_assemble_scalar".into(),
                    "force_assemble_avx2".into(),
                ],
            },
            unsafe_file(
                "crates/lbm/src/mrt.rs",
                "MRT collision kernel via raw pointers, one src/dst body: in place over \
                 disjoint cell ranges of the window (window base + storage channel \
                 stride), or from the window into a ring slot that aliases nothing",
            ),
            unsafe_file(
                "crates/lbm/src/macroscopic.rs",
                "the moments kernel (psi and momentum of a run of cells) through raw \
                 pointers: disjoint cell ranges of the window (window base + storage \
                 channel stride) into psi/ueq, or one plane into a snapshot's scratch; \
                 the force kernel into the snapshot's plane scratch",
            ),
            unsafe_file(
                "crates/lbm/src/force.rs",
                "the force kernel computes one plane at a time through raw pointers: it reads \
                 psi from the window base and per-plane gradient and adhesion buffers it \
                 owns, and writes each component's forces once into a plane the caller \
                 names (a plane scratch, or a plane of a reference array) that aliases \
                 nothing it reads",
            ),
            unsafe_file(
                "crates/lbm/src/multicomponent.rs",
                "per-component raw pointers in the velocity update: psi and ueq at the \
                 window base or at one plane of it (one shared storage channel stride), \
                 the force in a plane scratch or a reference array (its own stride); each \
                 cell's ueq slots are read (momentum) for every component before any is \
                 overwritten, and the plane scratch is written by the force kernel only \
                 before the update reads it",
            ),
        ],
        scan_roots: vec![
            "src".into(),
            "crates".into(),
            "examples".into(),
            "tests".into(),
        ],
        exclude: vec![
            "vendor".into(),
            "target".into(),
            // The fixtures violate every rule on purpose — that is their
            // job (see crates/lint/tests/self_test.rs).
            "crates/lint/tests/fixtures".into(),
        ],
        // The decode fns through which client/peer bytes enter. The serve
        // loop and mp driver are *not* entries: everything they feed into
        // decoders is covered via these, and the run itself operates on
        // validated configs.
        reachability: Some(ReachabilityCheck {
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
        }),
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

    #[test]
    fn timing_allowlist_carves_out_of_determinism_paths() {
        let cfg = default_config();
        assert!(cfg.in_determinism_paths("crates/runtime/src/worker.rs"));
        assert!(!cfg.in_determinism_paths("crates/runtime/src/throttle.rs"));
        assert!(!cfg.in_determinism_paths("crates/net/src/tcp.rs"));
        // The boundary-condition module is kernel code: the bitwise
        // equivalence of slip runs across substrates rests on it.
        assert!(cfg.in_determinism_paths("crates/lbm/src/boundary.rs"));
        assert!(cfg.in_determinism_paths("crates/lbm/src/boundary/codec.rs"));
    }

    #[test]
    fn wall_bc_codec_is_on_the_panic_freedom_boundary() {
        let cfg = default_config();
        assert!(cfg.in_boundary_paths("crates/lbm/src/boundary/codec.rs"));
        assert!(cfg.in_boundary_paths("crates/lbm/src/config_codec.rs"));
        assert!(cfg.in_boundary_paths("crates/obs/src/export.rs"));
    }

    #[test]
    fn default_config_is_internally_consistent() {
        let cfg = default_config();
        for (path, why) in cfg
            .timing_allowlist
            .iter()
            .map(|(p, w)| (p, w))
            .chain(cfg.unsafe_registry.iter().map(|e| (&e.path, &e.why)))
        {
            assert!(!why.trim().is_empty(), "{path} needs a justification");
        }
        for (path, _) in &cfg.timing_allowlist {
            assert!(
                cfg.determinism_paths.iter().any(|p| path_matches(path, p)),
                "{path} is allowlisted but not inside any determinism path"
            );
        }
        // Reachability entries must name scanned boundary files: the pass
        // skips sites inside boundary paths, so a non-boundary entry would
        // leave its own body uncovered by any rule.
        for (file, f) in &cfg.reachability.as_ref().unwrap().entries {
            assert!(cfg.in_boundary_paths(file), "reachability entry {file}::{f} must be a boundary path");
            assert!(
                cfg.scan_roots.iter().any(|r| path_matches(file, r)),
                "reachability entry {file}::{f} is outside the scan roots"
            );
        }
    }
}
