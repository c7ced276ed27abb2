#![forbid(unsafe_code)]
//! The `microslip-lint` binary: runs the panic-reachability scan over the
//! workspace and exits nonzero on any finding.
//!
//! ```text
//! microslip-lint [--root <dir>]
//! ```
//!
//! Without `--root`, it scans the workspace it was built from.
//! Diagnostics go to stdout, the summary line to stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use microslip_lint::{default_config, lint_workspace};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("microslip-lint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: microslip-lint [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("microslip-lint: unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));

    let started = std::time::Instant::now();
    let findings = match lint_workspace(&root, &default_config()) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("microslip-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("microslip-lint: workspace clean [{elapsed_ms} ms]");
        ExitCode::SUCCESS
    } else {
        eprintln!("microslip-lint: {} finding(s) [{elapsed_ms} ms]", findings.len());
        ExitCode::FAILURE
    }
}
