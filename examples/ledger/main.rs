//! The performance ledger: five workloads from sequential kernels to a
//! served sweep, end-to-end numbers that decompose into layers. See
//! `README.md` in this directory for the workloads, the layer → metric →
//! end-to-end map and how the bounds were calibrated.
//!
//! ```console
//! $ cargo build --release --offline --bin microslip
//! $ cargo run --release --offline --example ledger -- --seed 1 --out ledger.json [--traced] [--quick]
//! $ cargo run --release --offline --example ledger -- --compare a.json b.json
//! ```
//!
//! One workload alone, the way the benchmark contract (`BENCHMARK.json`,
//! `bash examples/ledger/run.sh`) runs it — every workload of the full run
//! is such a child process, so peak memory is per workload:
//!
//! ```console
//! $ ledger --workload seq_paper --seed 1 --seconds 6 --trace 0
//! ```

mod catalog;
mod compare;
mod host;
mod lattice;
mod probes;
mod report;
mod scratch;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use microslip::obs::json::{self, Value};

use lattice::{Kind, RemapPins};
use report::ChildResult;

/// Sizes of one run of the ledger. `quick` is a smoke profile that drives
/// every workload and check in seconds; its numbers are never compared
/// with the full profile's.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub quick: bool,
    /// Lattice of the four lattice workloads.
    pub dims: (usize, usize, usize),
    /// Phases per run (`P`).
    pub phases: u64,
    /// What `threaded_remap` must reproduce on this lattice.
    pub remap_pins: RemapPins,
    /// `serve_sweep`: lattice and length of one job, distinct points and
    /// in-sweep duplicates per cold sweep, warm resubmits, fetch rounds.
    pub job_dims: (usize, usize, usize),
    pub job_phases: u64,
    pub sweep_points: usize,
    pub sweep_dups: usize,
    pub warm_sweeps: usize,
    pub fetch_rounds: usize,
}

impl Profile {
    /// The paper's 400×200×20 lattice. `P` is what the benchmark's time
    /// cap leaves room for; shrink it for all four lattice workloads
    /// together, never the grid.
    const FULL: Profile = Profile {
        quick: false,
        dims: (400, 200, 20),
        phases: 8,
        remap_pins: RemapPins {
            decisions: 8,
            applied: 6,
            planes_migrated: 185,
            final_counts: [245, 155],
        },
        job_dims: (100, 50, 20),
        job_phases: 100,
        sweep_points: 4,
        sweep_dups: 2,
        warm_sweeps: 50,
        fetch_rounds: 5,
    };

    const QUICK: Profile = Profile {
        quick: true,
        dims: (48, 24, 8),
        phases: 8,
        remap_pins: RemapPins {
            decisions: 8,
            applied: 4,
            planes_migrated: 21,
            final_counts: [29, 19],
        },
        job_dims: (24, 12, 8),
        job_phases: 20,
        sweep_points: 1,
        sweep_dups: 1,
        warm_sweeps: 5,
        fetch_rounds: 2,
    };

    fn name(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// `--key value` pairs and bare `--key` switches.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> (Flags, Vec<String>) {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it
                        .next_if(|v| !v.starts_with("--"))
                        .cloned()
                        .unwrap_or_else(|| "true".into());
                    flags.insert(key.to_string(), value);
                }
                None => positional.push(arg.clone()),
            }
        }
        (Flags(flags), positional)
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: '{v}'")),
        }
    }
}

/// Runs one workload in this process and prints its result.
fn run_workload(
    name: &str,
    f: &Flags,
    profile: &Profile,
    seed: u64,
    seconds: f64,
) -> Result<bool, String> {
    let traced = f.get("trace", 0u8)? != 0;
    let kind = match name {
        "seq_paper" => Some(Kind::Seq),
        "threaded_paper" => Some(Kind::Threaded),
        "threaded_remap" => Some(Kind::Remap),
        "mp_paper" => Some(Kind::Mp),
        "serve_sweep" => None,
        other => {
            let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload '{other}' (known: {})",
                known.join(", ")
            ));
        }
    };
    println!(
        "workload {name}: {}",
        catalog::workload_why(name).unwrap_or("")
    );
    println!(
        "profile {} seed {seed} seconds {seconds} trace {}",
        profile.name(),
        u8::from(traced)
    );
    let mut measured = match (kind, traced) {
        (Some(kind), false) => lattice::run(kind, profile, seed, seconds)?,
        (Some(kind), true) => lattice::trace(kind, profile, seed)?,
        (None, traced) => sweep::run(profile, seed, seconds, traced)?,
    };
    measured.print(traced, f.has("extras"));
    Ok(measured.failed == 0)
}

/// Runs `workload` as a child of this driver and parses its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    profile: &Profile,
) -> Result<ChildResult, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut cmd = Command::new(me);
    cmd.args(["--workload", workload, "--extras"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if profile.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("  {workload}: {line}");
    }
    report::parse_child(&stdout).map_err(|e| {
        format!(
            "{workload} child ({}): {e}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// With fewer than two CPUs a two-worker run time-shares one core: its
/// timings say nothing about the parallel path, so they are reported as
/// unresolved. Counts and byte sizes stay exact.
fn unresolved(workload: &str, unit: &str, nproc: usize) -> bool {
    nproc < 2 && workload != "seq_paper" && !matches!(unit, "count" | "B")
}

fn metrics_json(workload: &str, r: &ChildResult, nproc: usize) -> String {
    let fields: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (value, unit, spread))| {
            let mut field = format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"",
                json::num(*value)
            );
            if let Some(s) = spread {
                field.push_str(&format!(", \"spread\": {}", json::num(*s)));
            }
            if unresolved(workload, unit, nproc) {
                field.push_str(", \"unresolved\": true");
            }
            field + "}"
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_metrics(workload: &str, r: &ChildResult, nproc: usize) {
    for (name, (value, unit, spread)) in &r.metrics {
        let shown = if unresolved(workload, unit, nproc) {
            "unresolved".into()
        } else {
            json::num(*value)
        };
        let spread = spread.map_or(String::new(), |s| format!("  (spread {:.1} %)", 100.0 * s));
        println!("  {name:<28} {shown:>18} {unit}{spread}");
    }
}

/// The full run: every workload untraced, then (with `--traced`) traced,
/// each in a child process; prints every metric and writes `--out`.
fn run_all(f: &Flags, profile: &Profile, seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = scratch::microslip_exe()?;
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        compare::manifest_check(&text)?;
    }
    let nproc = host::nproc();
    let copy = host::copy_probe(profile.quick);
    let provenance = format!(
        "\"profile\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"host\": {{\"nproc\": {nproc}, \
         \"llc_bytes\": {}, \"copy_array_bytes\": {}, \"copy_gbps\": {}, \"git_commit\": \"{}\", \
         \"rustc\": \"{}\", \"microslip_exe\": \"{}\"}}",
        profile.name(),
        json::num(seconds),
        copy.llc_bytes,
        copy.array_bytes,
        json::num(copy.gbps),
        json::escape(&host::git_commit()),
        json::escape(&host::rustc_version()),
        json::escape(&exe.display().to_string()),
    );
    println!("ledger: {provenance}");
    if nproc < 2 {
        println!("ledger: {nproc} CPU — timings of the two-worker workloads are unresolved");
    }

    let mut all_ok = true;
    let mut sections = Vec::new();
    for (workload, _) in catalog::WORKLOADS {
        println!("{workload} (untraced)");
        let plain = run_child(workload, seed, seconds, false, profile)?;
        print_metrics(workload, &plain, nproc);
        println!(
            "  operations: {} attempted, {} failed",
            plain.attempted, plain.failed
        );
        all_ok &= plain.correct && plain.failed == 0;
        let mut section = format!(
            "\"{workload}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}",
            plain.correct,
            plain.attempted,
            plain.failed,
            metrics_json(workload, &plain, nproc)
        );
        if f.has("traced") {
            println!("{workload} (traced)");
            let traced = run_child(workload, seed, seconds, true, profile)?;
            print_metrics(workload, &traced, nproc);
            println!(
                "  operations: {} attempted, {} failed",
                traced.attempted, traced.failed
            );
            all_ok &= traced.correct && traced.failed == 0;
            section.push_str(&format!(
                ", \"traced_attempted\": {}, \"traced_failed\": {}, \"per_layer\": {}",
                traced.attempted,
                traced.failed,
                metrics_json(workload, &traced, nproc)
            ));
        }
        sections.push(section + "}");
    }
    let document = format!(
        "{{{provenance}, \"workloads\": {{{}}}}}\n",
        sections.join(", ")
    );
    Value::parse(&document).map_err(|e| format!("the ledger wrote invalid JSON: {e}"))?;
    if let Some(path) = f.0.get("out") {
        std::fs::write(path, &document).map_err(|e| format!("writing {path}: {e}"))?;
        println!("ledger: wrote {path}");
    }
    println!(
        "ledger: {}",
        if all_ok {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (f, positional) = Flags::parse(args);
    let profile = if f.has("quick") {
        Profile::QUICK
    } else {
        Profile::FULL
    };
    if f.has("compare") {
        // `--compare A.json B.json`: the flag parser took A as the value.
        let a = f.0.get("compare").filter(|v| *v != "true");
        return match (a, positional.as_slice()) {
            (Some(a), [b]) => compare::run(a, b, &f.get("manifest", "BENCHMARK.json".to_string())?),
            _ => Err("usage: --compare A.json B.json [--manifest BENCHMARK.json]".into()),
        };
    }
    if !positional.is_empty() {
        return Err(format!(
            "unexpected argument '{}' (flags are --key value)",
            positional[0]
        ));
    }
    let seed: u64 = f.get("seed", 1)?;
    let seconds: f64 = f.get("seconds", if profile.quick { 1.0 } else { 6.0 })?;
    match f.0.get("workload") {
        Some(name) => run_workload(name, &f, &profile, seed, seconds),
        None => run_all(&f, &profile, seed, seconds),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
