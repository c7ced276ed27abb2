//! `microslip` — command-line front end.
//!
//! ```console
//! $ microslip figure fig7                        # a paper figure or table
//!                                                #   (no NAME lists them)
//! $ microslip parallel --workers 4 --throttle 1:4 # threaded runtime demo
//! $ microslip trace --mode cluster --out run     # traced run -> run.jsonl,
//!                                                #   run.trace.json (Perfetto),
//!                                                #   run.summary.json
//! $ microslip serve --dir target/serve           # sweep daemon with result cache
//! $ microslip submit --addr-file target/serve/serve.addr \
//!     --grid "wall-amplitude=0.1,0.2" --wait     # submit a sweep, wait for it
//! $ microslip info                               # model & calibration info
//! ```

use std::collections::HashMap;

use microslip::cluster::{ClusterConfig, FixedSlowNodes, RunResult, Scheme};
use microslip::figure::{self, Size, FIGURES};
use microslip::lbm::{ChannelConfig, Dims, WallBc};
use microslip::obs::{
    remap_fingerprints, to_chrome_trace, to_jsonl, validate_chrome_trace, validate_jsonl,
    Event, TraceSink, TraceSummary, DEFAULT_CAPACITY,
};
use microslip::comm::Tag;
use microslip::mp::{MpFault, MpWorkerArgs};
use microslip::runtime::{LoadModel, RunOutcome};
use microslip::serve::{self, RunJobArgs, ServeConfig, SweepRequest};
use microslip::Scenario;

// The flags each subcommand reads; any other is refused before it runs.
const PARALLEL_FLAGS: &[&str] =
    &["workers", "phases", "scheme", "trace", "throttle", "checkpoint-every", "checkpoint-dir"];
const MP_FLAGS: &[&str] = &[
    "ranks", "phases", "scheme", "nx", "ny", "nz", "trace", "remap-every", "predictor-window", "throttle",
    "synthetic-load", "checkpoint-every", "resume-phase", "dir", "chaos", "recover", "check",
];
const MP_WORKER_FLAGS: &[&str] = &["rank", "dir", "checkpoint-every", "resume-phase", "die-on"];
const SERVE_FLAGS: &[&str] = &["dir", "addr", "max-workers", "cache-capacity", "chaos-die"];
/// `submit`'s own flags, [`resolve_addr`]'s and [`scenario_from_flags`]'s.
const SUBMIT_FLAGS: &[&str] = &[
    "list-axes", "grid", "checkpoint-every", "dump", "wait", "wait-secs", "addr", "addr-file", "nx", "ny", "nz",
    "workers", "phases", "remap-every", "predictor-window", "scheme", "synthetic-load", "slip-r", "patch-period",
    "patch-phase", "rough-height", "rough-period",
];
const STATUS_FLAGS: &[&str] = &["addr", "addr-file", "shutdown", "sweep"];
const FETCH_FLAGS: &[&str] = &["addr", "addr-file", "key", "out"];
const RUN_JOB_FLAGS: &[&str] = &["scenario", "out", "checkpoint-dir", "checkpoint-every", "resume", "die-at-phase"];
const TRACE_FLAGS: &[&str] = &["mode", "out", "scheme", "nodes", "phases", "slow", "workers", "throttle", "check"];

/// Parsed `--key value` flags (and bare `--key` booleans) of one
/// subcommand.
struct Flags {
    values: HashMap<String, String>,
    /// The flags the subcommand reads.
    known: &'static [&'static str],
}

impl Flags {
    /// Parses `args`, refusing a flag outside `known` with the list of
    /// those it takes.
    fn parse(args: &[String], known: &'static [&'static str]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{arg}' (flags are --key value)"))?;
            if !known.contains(&key) {
                let takes = match known {
                    [] => "no flags".to_string(),
                    _ => known.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(" "),
                };
                return Err(format!("unknown flag --{key} (this command takes {takes})"));
            }
            let value = match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => v.clone(),
                None => "true".to_string(),
            };
            values.insert(key.to_string(), value);
        }
        Ok(Flags { values, known })
    }

    /// The value of `--key` when present; `key` must be one the command
    /// names.
    fn value(&self, key: &str) -> Option<&String> {
        debug_assert!(self.known.contains(&key), "--{key} is read but not among the command's flags");
        self.values.get(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: '{v}'")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.value(key).is_some()
    }

    /// The value of a flag the (internal) command cannot run without.
    fn need(&self, key: &str) -> Result<String, String> {
        self.value(key).cloned().ok_or_else(|| format!("missing required --{key}"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("help", &args[..]),
    };
    let result = match cmd {
        "figure" => cmd_figure(rest),
        "parallel" => cmd_parallel(rest),
        "mp" => cmd_mp(rest),
        "mp-worker" => cmd_mp_worker(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "fetch" => cmd_fetch(rest),
        "run-job" => cmd_run_job(rest),
        "trace" => cmd_trace(rest),
        "info" => cmd_info(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'microslip help')")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn print_help() {
    println!("microslip — parallel LBM simulation of fluid slip in a microchannel");
    println!("  (reproduction of Zhou, Zhu, Petzold & Yang, IPDPS 2004)");
    println!();
    println!("commands:");
    println!("  figure    a paper figure or table          [NAME --quick; no NAME lists them]");
    println!("  parallel  threaded runtime with remapping  [--workers --phases --throttle R:F --scheme --trace PREFIX");
    println!("                                              --checkpoint-every N --checkpoint-dir DIR]");
    println!("  mp        multi-process runtime over TCP   [--ranks --phases --throttle R:F --scheme --dir DIR");
    println!("                                              --checkpoint-every N --synthetic-load P --trace PREFIX");
    println!("                                              --resume-phase P  (restore every rank's phase-P checkpoint in");
    println!("                                              DIR and run on to --phases, numbering phases from P)");
    println!("                                              --chaos kill:RANK@TAG:N  (kill that rank just before its N-th");
    println!("                                              send or receive on TAG — f_halo psi_halo load migrate_count");
    println!("                                              migrate_data; the driver restarts every rank from the newest");
    println!("                                              checkpoint they all hold)");
    println!("                                              --check  (compare against the threaded runtime)]");
    println!("  mp-worker one rank of an mp run (internal; spawned by 'mp')");
    println!("  serve     sweep daemon with content-addressed result cache");
    println!("            [--addr HOST:PORT --dir DIR --max-workers N --cache-capacity N");
    println!("             --chaos-die JOB@PHASE]  resolved address -> DIR/serve.addr");
    println!("  submit    submit a parameter sweep to a serve daemon");
    println!("            [--addr HOST:PORT | --addr-file FILE  --grid \"axis=v1,v2;axis2=...\"");
    println!("             --nx --ny --nz --phases --workers --scheme --checkpoint-every N");
    println!("             --slip-r R --patch-period N --patch-phase N (tunable/patterned wall slip)");
    println!("             --rough-height H --rough-period P (geometric wall roughness)");
    println!("             --dump DIR (write each unique scenario to DIR/KEY.scenario) --wait]");
    println!("            --list-axes prints the grid-axis catalog and exits");
    println!("  status    query a serve daemon             [--addr|--addr-file  --sweep N]");
    println!("  fetch     download a sealed result artifact [--addr|--addr-file --key K --out FILE]");
    println!("  run-job   one scenario, serial reference (internal; spawned by 'serve')");
    println!("            [--scenario FILE --out FILE --checkpoint-dir DIR --checkpoint-every N --resume]");
    println!("  trace     traced run -> PREFIX.jsonl + PREFIX.trace.json + PREFIX.summary.json");
    println!("            [--mode cluster|parallel --out PREFIX --scheme --phases --check");
    println!("             cluster: --nodes --slow   parallel: --workers --throttle]");
    println!("  info      model parameters and calibration anchors");
}

/// `--trace` given without the PREFIX its artifacts are written to.
#[derive(Debug)]
struct TraceNeedsPrefix;

impl std::fmt::Display for TraceNeedsPrefix {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(out, "--trace needs a file prefix (--trace PREFIX)")
    }
}

/// `--trace PREFIX`: the prefix, or `None` when the flag is absent.
fn trace_prefix(f: &Flags) -> Result<Option<&str>, TraceNeedsPrefix> {
    match f.value("trace").map(String::as_str) {
        Some("true") => Err(TraceNeedsPrefix),
        prefix => Ok(prefix),
    }
}

/// Writes the three trace artifacts for `prefix` and prints what landed.
fn write_trace_artifacts(prefix: &str, events: &[Event]) -> Result<(), String> {
    let jsonl = to_jsonl(events);
    let chrome = to_chrome_trace(events);
    let summary = TraceSummary::from_events(events).to_json();
    for (suffix, body) in
        [(".jsonl", &jsonl), (".trace.json", &chrome), (".summary.json", &summary)]
    {
        let path = format!("{prefix}{suffix}");
        std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "trace: {} events -> {prefix}.jsonl, {prefix}.trace.json (Perfetto), {prefix}.summary.json",
        events.len()
    );
    Ok(())
}

fn cmd_figure(args: &[String]) -> Result<(), String> {
    print!("{}", figure_text(args)?);
    Ok(())
}

/// What `microslip figure [NAME [--quick]]` prints: the figure's table at
/// the paper's size (or the quick size its golden pins), or the list of
/// figures when no name is given.
fn figure_text(args: &[String]) -> Result<String, String> {
    let (name, size) = match args {
        [] => {
            let mut out = String::from("figures (microslip figure NAME [--quick]):\n");
            for (name, _) in FIGURES {
                out += &format!("  {name}\n");
            }
            return Ok(out);
        }
        [name] => (name, Size::Paper),
        [name, quick] if quick == "--quick" => (name, Size::Quick),
        _ => return Err("usage: microslip figure [NAME [--quick]]".to_string()),
    };
    Ok(figure::find(name).map_err(|e| e.to_string())?(size))
}

/// The `trace --mode cluster` run: the paper's 400×200×20 channel on
/// `nodes` virtual nodes, `slow` of them under a 70 % competing job.
/// Node and slow-node counts are checked before the engine runs.
fn cluster_run(
    nodes: usize,
    phases: u64,
    slow: usize,
    scheme: Scheme,
    sink: TraceSink,
) -> Result<RunResult, String> {
    let ex = Scenario::paper_scaled(400, 200, 20)
        .workers(nodes)
        .phases(phases)
        .scheme(scheme)
        .trace(sink)
        .cluster()?;
    let max = FixedSlowNodes::paper_max(nodes);
    if slow > max {
        return Err(format!("--slow {slow}: at most {max} slow node(s) on {nodes} nodes"));
    }
    Ok(if slow == 0 { ex.run_dedicated() } else { ex.run(&FixedSlowNodes::paper(nodes, slow)) })
}

/// `trace --mode parallel`'s run on the 32×8×4 channel: worker 1 (worker 0
/// when it runs alone) is slowed by `throttled`. The scenario refuses a
/// worker count of 0 before anything runs.
fn parallel_run(
    workers: usize,
    phases: u64,
    throttled: f64,
    scheme: Scheme,
    sink: TraceSink,
) -> Result<RunOutcome, String> {
    Ok(Scenario::paper_scaled(32, 8, 4)
        .workers(workers)
        .phases(phases)
        .remap_every(4)
        .predictor_window(3)
        .scheme(scheme)
        .throttle(usize::from(workers > 1), throttled)
        .trace(sink)
        .runtime()?
        .run())
}

/// `--throttle RANK:FACTOR[,RANK:FACTOR…]` → the scenario's sparse
/// `(rank, factor)` pairs; the scenario's finalizer checks their values.
fn throttle_spec(spec: &str) -> Result<Vec<(usize, f64)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (rank, factor) = part
            .split_once(':')
            .ok_or_else(|| format!("--throttle wants RANK:FACTOR, got '{part}'"))?;
        let rank: usize = rank.parse().map_err(|_| format!("bad rank '{rank}'"))?;
        let factor: f64 = factor.parse().map_err(|_| format!("bad factor '{factor}'"))?;
        out.push((rank, factor));
    }
    Ok(out)
}

fn cmd_parallel(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, PARALLEL_FLAGS)?;
    let workers = f.get("workers", 4usize)?;
    let phases = f.get("phases", 100u64)?;
    let scheme = Scheme::from_name(&f.get("scheme", "filtered".to_string())?)?;
    let recording = trace_prefix(&f)
        .map_err(|e| e.to_string())?
        .map(|prefix| (prefix, TraceSink::recorder(DEFAULT_CAPACITY)));
    let sink = recording.as_ref().map_or_else(TraceSink::null, |(_, (sink, _))| sink.clone());
    let mut scenario = Scenario::new(ChannelConfig::paper_scaled(Dims::new(48, 24, 8)))
        .workers(workers)
        .phases(phases)
        .scheme(scheme)
        .trace(sink);
    if let Some(spec) = f.value("throttle") {
        scenario.throttle = throttle_spec(spec)?;
    }
    let mut runtime = scenario.runtime()?;
    runtime.config_mut().checkpoint_every = f.get("checkpoint-every", 0u64)?;
    if let Some(dir) = f.value("checkpoint-dir") {
        runtime.config_mut().checkpoint_dir = Some(dir.into());
    }
    let outcome = runtime.run();
    println!(
        "{} on {workers} workers, {phases} phases: wall {:.2}s, planes {:?}, migrated {}",
        scheme.name(),
        outcome.wall_seconds,
        outcome.final_counts(),
        outcome.planes_migrated()
    );
    for r in &outcome.reports {
        println!(
            "  worker {}: compute {:.2}s ({:.2}s pad)  comm {:.2}s  remap {:.2}s",
            r.rank, r.profile.compute, r.profile.pad, r.profile.comm, r.profile.remap
        );
    }
    if let Some((prefix, (_, rec))) = recording {
        write_trace_artifacts(prefix, &rec.events())?;
    }
    Ok(())
}

fn cmd_mp(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, MP_FLAGS)?;
    let ranks = f.get("ranks", 2usize)?;
    let phases = f.get("phases", 20u64)?;
    let scheme = Scheme::from_name(&f.get("scheme", "filtered".to_string())?)?;
    let dims = (f.get("nx", 32usize)?, f.get("ny", 8usize)?, f.get("nz", 4usize)?);
    let trace = trace_prefix(&f).map_err(|e| e.to_string())?;
    let mut scenario = Scenario::paper_scaled(dims.0, dims.1, dims.2)
        .workers(ranks)
        .phases(phases)
        .remap_every(f.get("remap-every", 10u64)?)
        .predictor_window(f.get("predictor-window", 3usize)?)
        .scheme(scheme);
    if let Some(spec) = f.value("throttle") {
        scenario.throttle = throttle_spec(spec)?;
    }
    if f.has("synthetic-load") {
        let per_point = f.get("synthetic-load", 1.0f64)?;
        scenario = scenario.load_model(LoadModel::Synthetic { per_point });
    }
    let mut mp = scenario.clone().multiprocess()?;
    let cfg = mp.config_mut();
    cfg.checkpoint_every = f.get("checkpoint-every", 0u64)?;
    if f.has("resume-phase") {
        cfg.resume_phase = Some(f.get("resume-phase", 0u64)?);
    }
    if let Some(dir) = f.value("dir") {
        cfg.dir = Some(dir.into());
    }
    if let Some(spec) = f.value("chaos") {
        cfg.fault = Some(chaos_spec(spec, ranks)?);
    }
    // A chaos kill only makes sense with the supervisor on.
    cfg.recover = f.has("recover") || cfg.fault.is_some();
    // A chaos kill or a resume starts (part of) the run over with an empty
    // predictor history.
    let restarted = cfg.fault.is_some() || cfg.resume_phase.is_some();
    let outcome = mp.run().map_err(|e| e.to_string())?;
    println!(
        "{} on {ranks} processes, {phases} phases: planes {:?}, migrated {}",
        scheme.name(),
        outcome.final_counts(),
        outcome.planes_migrated()
    );
    println!("artifacts in {}", outcome.dir.display());
    if let Some(prefix) = trace {
        write_trace_artifacts(prefix, &outcome.events)?;
    }
    if f.has("check") {
        // Re-run the exact scenario on the threaded runtime and hold the
        // two substrates to the equivalence bar: bitwise-identical fields,
        // and (under a synthetic load model) identical remap decisions.
        let (sink, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
        let synthetic = matches!(scenario.load, LoadModel::Synthetic { .. });
        let reference = scenario.trace(sink).runtime()?.run();
        if outcome.snapshot != reference.snapshot {
            return Err("check failed: mp fields differ from the threaded reference".to_string());
        }
        // Remap decisions are only held equal on uninterrupted runs: after
        // a restart from a checkpoint the predictor's history starts empty,
        // so later decisions may differ while the physics may not.
        if !restarted {
            let mp_prints = remap_fingerprints(&outcome.events);
            let threaded_prints = remap_fingerprints(&rec.events());
            if synthetic && mp_prints != threaded_prints {
                return Err("check failed: mp remap decisions differ from the threaded reference".to_string());
            }
            println!(
                "check: bitwise-identical to the threaded reference ({} remap decisions match)",
                mp_prints.len()
            );
        } else {
            println!("check: fields bitwise-identical to the threaded reference across the restart");
        }
    }
    Ok(())
}

/// `--chaos kill:RANK@TAG:N` → an [`MpFault`].
fn chaos_spec(spec: &str, ranks: usize) -> Result<MpFault, String> {
    let err = || format!("--chaos wants kill:RANK@TAG:N, got '{spec}'");
    let body = spec.strip_prefix("kill:").ok_or_else(err)?;
    let (rank, on) = body.split_once('@').ok_or_else(err)?;
    let rank: usize = rank.parse().map_err(|_| err())?;
    let (tag, nth) = tag_count(on).ok_or_else(err)?;
    if rank >= ranks {
        return Err(format!("--chaos rank {rank} out of range for {ranks} ranks"));
    }
    Ok(MpFault { rank, tag, nth })
}

/// `TAG:N` — a tag by its trace name and a count from 1.
fn tag_count(spec: &str) -> Option<(Tag, u64)> {
    let (tag, nth) = spec.split_once(':')?;
    let nth: u64 = nth.parse().ok().filter(|&n| n > 0)?;
    Some((Tag::from_name(tag)?, nth))
}

/// `--key N` when present.
fn optional<T: std::str::FromStr>(f: &Flags, key: &str) -> Result<Option<T>, String> {
    f.value(key).map(|v| v.parse().map_err(|_| format!("bad --{key} '{v}'"))).transpose()
}

/// One rank of a multi-process run — spawned by `microslip mp`, not meant
/// for direct use. What to run is the `scenario.bin` in `--dir`; the flags
/// are what differs per process.
fn cmd_mp_worker(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, MP_WORKER_FLAGS)?;
    let a = MpWorkerArgs {
        rank: f.need("rank")?.parse().map_err(|_| "bad --rank".to_string())?,
        dir: f.need("dir")?.into(),
        checkpoint_every: f.get("checkpoint-every", 0u64)?,
        resume_phase: optional(&f, "resume-phase")?,
        die_on: f
            .value("die-on")
            .map(|spec| tag_count(spec).ok_or_else(|| format!("bad --die-on '{spec}' (TAG:N)")))
            .transpose()?,
    };
    microslip::mp::run_worker(&a)
}

/// Resolves the daemon address: `--addr HOST:PORT` literally, or
/// `--addr-file FILE` reading the `serve.addr` a daemon published (the
/// way scripts find an ephemeral port).
fn resolve_addr(f: &Flags) -> Result<String, String> {
    if let Some(path) = f.value("addr-file") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading --addr-file {path}: {e}"))?;
        let addr = text.trim();
        if addr.is_empty() {
            return Err(format!("--addr-file {path} is empty"));
        }
        return Ok(addr.to_string());
    }
    match f.value("addr") {
        Some(addr) if addr != "true" => Ok(addr.clone()),
        _ => Err("need --addr HOST:PORT or --addr-file FILE".to_string()),
    }
}

/// `--grid "axis=v1,v2;axis2=v3,…"` → sweep axes.
fn grid_spec(spec: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let mut axes = Vec::new();
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let (name, list) = part
            .split_once('=')
            .ok_or_else(|| format!("--grid wants axis=v1,v2;…, got '{part}'"))?;
        let mut values = Vec::new();
        for v in list.split(',') {
            values.push(
                v.trim().parse::<f64>().map_err(|_| format!("bad grid value '{v}' for axis '{name}'"))?,
            );
        }
        if values.is_empty() {
            return Err(format!("grid axis '{name}' has no values"));
        }
        axes.push((name.trim().to_string(), values));
    }
    Ok(axes)
}

/// The base scenario shared by `submit` flags (and smoke scripts): the
/// same knobs `mp` exposes, on the unified [`Scenario`] type.
fn scenario_from_flags(f: &Flags) -> Result<Scenario, String> {
    let nx = f.get("nx", 16usize)?;
    let ny = f.get("ny", 8usize)?;
    let nz = f.get("nz", 4usize)?;
    let mut s = Scenario::paper_scaled(nx, ny, nz)
        .workers(f.get("workers", 2usize)?)
        .phases(f.get("phases", 30u64)?)
        .remap_every(f.get("remap-every", 10u64)?)
        .predictor_window(f.get("predictor-window", 10usize)?)
        .scheme(Scheme::from_name(&f.get("scheme", "filtered".to_string())?)?);
    if f.has("synthetic-load") {
        s = s.load_model(LoadModel::Synthetic { per_point: f.get("synthetic-load", 1.0f64)? });
    }
    // Wall boundary condition. The slip flags reuse the sweep-axis
    // setters (same names, same validation): --slip-r alone is a uniform
    // tunable-slip wall, adding --patch-period/--patch-phase stripes it.
    for axis in ["slip-r", "patch-period", "patch-phase"] {
        if f.has(axis) {
            serve::apply_axis(&mut s, axis, f.get(axis, 0.0f64)?)?;
        }
    }
    if f.has("rough-height") {
        let height = f.get("rough-height", 1usize)?;
        let period = f.get("rough-period", 2usize)?;
        let dims = s.channel.dims;
        s = s.wall_bc(WallBc::rough_stripes(height, period, dims));
    }
    Ok(s)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, SERVE_FLAGS)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut cfg = ServeConfig::new(f.get("dir", "target/serve".to_string())?, exe);
    cfg.addr = f.get("addr", "127.0.0.1:0".to_string())?;
    cfg.max_workers = f.get("max-workers", 2usize)?;
    cfg.cache_capacity = f.get("cache-capacity", 0usize)?;
    if let Some(spec) = f.value("chaos-die") {
        let err = || format!("--chaos-die wants JOB@PHASE, got '{spec}'");
        let (job, phase) = spec.split_once('@').ok_or_else(err)?;
        let job: usize = job.parse().map_err(|_| err())?;
        let phase: u64 = phase.parse().map_err(|_| err())?;
        cfg.chaos = Some((job, phase));
    }
    serve::run_serve(&cfg)
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, SUBMIT_FLAGS)?;
    if f.has("list-axes") {
        print!("{}", serve::list_axes_text());
        return Ok(());
    }
    let addr = resolve_addr(&f)?;
    let base = scenario_from_flags(&f)?;
    let axes = match f.value("grid") {
        Some(spec) => grid_spec(spec)?,
        None => Vec::new(),
    };
    let checkpoint_every = if f.has("checkpoint-every") {
        Some(f.get("checkpoint-every", 0u64)?)
    } else {
        None
    };
    let req = SweepRequest { base, checkpoint_every, axes };
    if let Some(dir) = f.value("dump") {
        // Write each unique expanded scenario so a script can replay one
        // directly with `run-job` and byte-compare against the fetch.
        std::fs::create_dir_all(dir).map_err(|e| format!("creating --dump {dir}: {e}"))?;
        let mut seen = std::collections::HashSet::new();
        for scenario in req.expand()? {
            let key = scenario.key();
            if seen.insert(key.clone()) {
                let path = format!("{dir}/{key}.scenario");
                std::fs::write(&path, scenario.canonical_bytes())
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
        }
    }
    let ticket = serve::submit(&addr, &req)?;
    println!(
        "sweep {}: {} jobs ({} scheduled, {} served from cache)",
        ticket.sweep, ticket.jobs, ticket.scheduled, ticket.cached
    );
    for key in &ticket.keys {
        println!("  key {key}");
    }
    if f.has("wait") {
        let secs = f.get("wait-secs", 300u64)?;
        let report = serve::wait_idle(&addr, std::time::Duration::from_secs(secs))?;
        print!("{report}");
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, STATUS_FLAGS)?;
    let addr = resolve_addr(&f)?;
    if f.has("shutdown") {
        serve::shutdown(&addr)?;
        println!("daemon at {addr} is draining and will exit");
        return Ok(());
    }
    print!("{}", serve::status(&addr, f.get("sweep", 0u64)?)?);
    Ok(())
}

fn cmd_fetch(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, FETCH_FLAGS)?;
    let addr = resolve_addr(&f)?;
    let key = f.value("key").cloned().ok_or("fetch requires --key")?;
    let out = f.value("out").cloned().ok_or("fetch requires --out FILE")?;
    // Streamed to a temp file renamed into place once the frame's CRC has
    // held: the sealed bytes exactly as the cache holds them, directly
    // comparable against a local `run-job` output.
    let path = std::path::Path::new(&out);
    microslip_codec::publish(path, |file| {
        serve::fetch_to(&addr, &key, file).map_err(std::io::Error::other)
    })
    .map_err(|e| format!("fetching into {out}: {e}"))?;
    let artifact = microslip::lbm::ResultArtifact::check_file(path)?;
    let sealed = std::fs::metadata(path).map_err(|e| format!("{out}: {e}"))?.len();
    println!(
        "{out}: key {} after {} phases, {sealed} bytes sealed (flow rate {:.3e}, mass {:.3})",
        artifact.key,
        artifact.phases,
        artifact.diagnostics.flow_rate,
        artifact.diagnostics.total_mass
    );
    Ok(())
}

/// One scheduled job — spawned by `microslip serve`, also usable directly
/// to reproduce a cached artifact bit for bit.
fn cmd_run_job(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, RUN_JOB_FLAGS)?;
    let a = RunJobArgs {
        scenario_path: f.need("scenario")?.into(),
        out_path: f.need("out")?.into(),
        checkpoint_dir: f.get("checkpoint-dir", "target/run-job-ckpt".to_string())?.into(),
        checkpoint_every: f.get("checkpoint-every", 0u64)?,
        resume: f.has("resume"),
        die_at_phase: optional(&f, "die-at-phase")?,
    };
    serve::run_job(&a)
}

/// A traced run end to end: run, export, optionally re-parse and check.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, TRACE_FLAGS)?;
    let mode = f.get("mode", "cluster".to_string())?;
    let prefix = f.get("out", "trace".to_string())?;
    let scheme = Scheme::from_name(&f.get("scheme", "filtered".to_string())?)?;
    let (sink, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
    match mode.as_str() {
        "cluster" => {
            let nodes = f.get("nodes", 20usize)?;
            let phases = f.get("phases", 200u64)?;
            let r = cluster_run(nodes, phases, f.get("slow", 2usize)?, scheme, sink)?;
            println!(
                "cluster {} on {nodes} nodes, {phases} phases: time {:.1}s, migrated {}",
                scheme.name(),
                r.total_time,
                r.migrated_planes
            );
        }
        "parallel" => {
            let workers = f.get("workers", 4usize)?;
            let phases = f.get("phases", 24u64)?;
            let outcome = parallel_run(workers, phases, f.get("throttle", 4.0f64)?, scheme, sink)?;
            println!(
                "parallel {} on {workers} workers, {phases} phases: wall {:.2}s, migrated {}",
                scheme.name(),
                outcome.wall_seconds,
                outcome.planes_migrated()
            );
        }
        other => return Err(format!("unknown mode '{other}' (cluster, parallel)")),
    }
    if rec.dropped() > 0 {
        eprintln!("warning: ring buffer dropped {} events", rec.dropped());
    }
    let events = rec.events();
    write_trace_artifacts(&prefix, &events)?;
    if f.has("check") {
        let stats = validate_jsonl(&to_jsonl(&events))?;
        let chrome = validate_chrome_trace(&to_chrome_trace(&events))?;
        println!(
            "check: ok ({} events across {} types; {} spans on {} lanes)",
            stats.counts.values().sum::<usize>(),
            stats.counts.len(),
            chrome.spans,
            chrome.nodes
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    Flags::parse(args, &[])?;
    let cfg = ChannelConfig::paper();
    let cluster = ClusterConfig::paper(20, 20_000);
    println!("paper:   Zhou, Zhu, Petzold, Yang — Parallel Simulation of Fluid Slip");
    println!("         in a Microchannel (IPDPS 2004)");
    println!("channel: 2um x 1um x 0.1um at 5nm spacing = {}x{}x{} lattice",
        cfg.dims.nx, cfg.dims.ny, cfg.dims.nz);
    println!("model:   D3Q19 Shan-Chen, {} components, cross coupling g = {}",
        cfg.ncomp(), cfg.coupling.get(0, 1));
    println!("wall:    amplitude {} decay {} l.u. ({} nm)",
        cfg.wall.amplitude, cfg.wall.decay, cfg.wall.decay * 5.0);
    println!("cluster: {} nodes, remap every {} phases, threshold 1 plane = {} points",
        cluster.nodes, cluster.remap_interval, cluster.plane_cells);
    println!("anchors: sequential 20k phases = {:.2} h; dedicated speedup target 18.97",
        cluster.sequential_time() / 3600.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `submit`'s flags from `s`.
    fn flags(s: &[&str]) -> Flags {
        Flags::parse(&args(s), SUBMIT_FLAGS).unwrap()
    }

    #[test]
    fn parses_key_values_and_booleans() {
        let f = flags(&["--ny", "32", "--wait", "--phases", "10"]);
        assert_eq!(f.get("ny", 0usize).unwrap(), 32);
        assert_eq!(f.get("phases", 0u64).unwrap(), 10);
        assert!(f.has("wait"));
        assert!(!f.has("nx"));
        assert_eq!(f.get("nx", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_positional_arguments() {
        let args: Vec<String> = vec!["oops".into()];
        assert!(Flags::parse(&args, SUBMIT_FLAGS).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        let f = flags(&["--phases", "many"]);
        assert!(f.get("phases", 0u64).is_err());
    }

    #[test]
    fn every_command_refuses_an_unknown_flag_before_it_runs() {
        type Command = fn(&[String]) -> Result<(), String>;
        let commands: [Command; 10] = [
            cmd_parallel, cmd_mp, cmd_mp_worker, cmd_serve, cmd_submit, cmd_status, cmd_fetch, cmd_run_job,
            cmd_trace, cmd_info,
        ];
        for cmd in commands {
            let err = cmd(&args(&["--bogus", "3"])).unwrap_err();
            assert!(err.starts_with("unknown flag --bogus (this command takes "), "{err}");
        }
        // A flag another command reads is still unknown here: `parallel`
        // runs a fixed grid, and says which flags it does take.
        let err = cmd_parallel(&args(&["--nx", "400"])).unwrap_err();
        assert!(err.contains("unknown flag --nx"), "{err}");
        for known in PARALLEL_FLAGS {
            assert!(err.contains(&format!("--{known}")), "{err}");
        }
        assert_eq!(cmd_info(&args(&["--nx"])).unwrap_err(), "unknown flag --nx (this command takes no flags)");
    }

    #[test]
    fn the_flags_scripts_pass_are_known() {
        // The smokes', the supervisor's, the mp driver's and the ledger's
        // command lines, by subcommand.
        let lines: [(&[&str], &str); 9] = [
            (
                PARALLEL_FLAGS,
                "--workers 3 --phases 40 --throttle 1:4 --scheme filtered --trace p --checkpoint-every 5 \
                 --checkpoint-dir d",
            ),
            (
                MP_FLAGS,
                "--ranks 2 --nx 24 --ny 200 --nz 20 --phases 6 --remap-every 3 --predictor-window 2 \
                 --throttle 1:6 --synthetic-load 1.0 --checkpoint-every 3 --chaos kill:1@f_halo:18 --dir d \
                 --trace p --check --resume-phase 3 --recover --scheme global",
            ),
            (
                MP_WORKER_FLAGS,
                "--rank 1 --dir d --checkpoint-every 0 --resume-phase 6 --die-on load:8",
            ),
            (
                SERVE_FLAGS,
                "--dir d --max-workers 2 --chaos-die 0@9 --addr 127.0.0.1:0 --cache-capacity 4",
            ),
            (
                SUBMIT_FLAGS,
                "--addr-file f --phases 12 --checkpoint-every 4 --grid wall-amplitude=0.1 --dump d --wait \
                 --list-axes --slip-r 0.3",
            ),
            (STATUS_FLAGS, "--addr-file f --shutdown --sweep 1"),
            (FETCH_FLAGS, "--addr-file f --key k --out o"),
            (
                RUN_JOB_FLAGS,
                "--scenario s --out o --checkpoint-dir d --checkpoint-every 0 --resume --die-at-phase 9",
            ),
            (TRACE_FLAGS, "--mode parallel --out p --phases 12 --workers 3 --check --nodes 8 --slow 3"),
        ];
        for (known, line) in lines {
            let line: Vec<&str> = line.split_whitespace().collect();
            assert!(Flags::parse(&args(&line), known).is_ok(), "{line:?}");
        }
    }

    #[test]
    fn scheme_lookup() {
        assert_eq!(Scheme::from_name("filtered").unwrap(), Scheme::Filtered);
        assert_eq!(Scheme::from_name("global").unwrap(), Scheme::Global);
        assert!(Scheme::from_name("magic").is_err());
    }

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn figure_lists_every_entry_and_rejects_unknown_names() {
        let listing = figure_text(&[]).unwrap();
        let err = figure_text(&args(&["fig11"])).unwrap_err();
        assert!(err.contains("unknown figure 'fig11'"), "{err}");
        for (name, _) in FIGURES {
            let listed = listing.matches(&format!("  {name}\n")).count();
            assert_eq!(listed, 1, "{name} must be listed exactly once: {listing}");
            assert!(err.contains(name), "error misses {name}: {err}");
        }
        assert!(figure_text(&args(&["fig11", "--quick"])).unwrap_err().contains("fig11"));
        assert!(figure_text(&args(&["fig3", "fig8"])).is_err());
        assert!(figure_text(&args(&["fig3", "--quick", "--quick"])).is_err());
    }

    #[test]
    fn trace_without_a_prefix_is_refused_before_a_run() {
        let flags = |s: &[&str]| Flags::parse(&args(s), PARALLEL_FLAGS).unwrap();
        assert_eq!(trace_prefix(&flags(&[])).unwrap(), None);
        assert_eq!(trace_prefix(&flags(&["--trace", "run"])).unwrap(), Some("run"));
        assert!(trace_prefix(&flags(&["--trace"])).is_err());
        assert!(trace_prefix(&flags(&["--trace", "--phases", "2"])).is_err());
        // Both runtimes refuse it before they start a worker or a rank.
        for cmd in [cmd_parallel, cmd_mp] {
            let err = cmd(&args(&["--phases", "1", "--trace"])).unwrap_err();
            assert!(err.contains("--trace needs a file prefix"), "{err}");
        }
    }

    #[test]
    fn trace_cluster_run_rejects_bad_counts_before_running() {
        let run = |nodes, slow| cluster_run(nodes, 4, slow, Scheme::Filtered, TraceSink::null());
        assert!(run(3, 5).unwrap_err().contains("at most 1 slow node"));
        assert!(run(0, 2).unwrap_err().contains("at least one node"));
        assert!(run(500, 2).unwrap_err().contains("at least one plane per node"));
        let r = run(4, 1).unwrap();
        assert_eq!(r.final_counts.iter().sum::<usize>(), 400);
    }

    #[test]
    fn trace_parallel_run_rejects_zero_workers_before_running() {
        let run = |workers| parallel_run(workers, 2, 4.0, Scheme::Filtered, TraceSink::null());
        assert!(run(0).unwrap_err().contains("at least one worker"));
        assert_eq!(run(1).unwrap().final_counts(), vec![32]);
    }

    #[test]
    fn grid_spec_parses_axes() {
        let axes = grid_spec("wall-amplitude=0.1,0.2;body-x=1e-4").unwrap();
        assert_eq!(
            axes,
            vec![
                ("wall-amplitude".to_string(), vec![0.1, 0.2]),
                ("body-x".to_string(), vec![1e-4]),
            ]
        );
        assert!(grid_spec("").unwrap().is_empty());
        assert!(grid_spec("wall-amplitude").is_err(), "missing values");
        assert!(grid_spec("wall-amplitude=a,b").is_err(), "non-numeric");
    }

    #[test]
    fn scenario_flags_build_wall_bcs() {
        let s = scenario_from_flags(&flags(&[])).unwrap();
        assert_eq!(s.channel.wall_bc, WallBc::BounceBack);
        let s = scenario_from_flags(&flags(&["--slip-r", "0.4"])).unwrap();
        assert_eq!(s.channel.wall_bc, WallBc::TunableSlip { r: 0.4 });
        let s =
            scenario_from_flags(&flags(&["--slip-r", "0.4", "--patch-period", "2"])).unwrap();
        assert_eq!(
            s.channel.wall_bc,
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.4, period: 2, phase: 0 }
        );
        let s =
            scenario_from_flags(&flags(&["--rough-height", "1", "--rough-period", "2"])).unwrap();
        assert!(matches!(s.channel.wall_bc, WallBc::RoughWall { .. }));
        assert!(scenario_from_flags(&flags(&["--slip-r", "1.5"])).is_err());
        assert!(scenario_from_flags(&flags(&["--patch-period", "0"])).is_err());
    }

    #[test]
    fn addr_resolution_requires_a_source() {
        assert!(resolve_addr(&flags(&[])).is_err());
        assert_eq!(resolve_addr(&flags(&["--addr", "127.0.0.1:9"])).unwrap(), "127.0.0.1:9");
        assert!(resolve_addr(&flags(&["--addr-file", "/nonexistent/serve.addr"])).is_err());
    }

    #[test]
    fn chaos_spec_parses_a_kill_at_a_tag_and_count() {
        assert_eq!(
            chaos_spec("kill:2@f_halo:26", 4).unwrap(),
            MpFault { rank: 2, tag: Tag::F_HALO, nth: 26 }
        );
        assert_eq!(
            chaos_spec("kill:1@migrate_data:3", 4).unwrap(),
            MpFault { rank: 1, tag: Tag::MIGRATE_DATA, nth: 3 }
        );
        for tag in Tag::ALL {
            let fault = MpFault { rank: 3, tag, nth: 1 };
            assert_eq!(chaos_spec(&fault.to_string(), 4).unwrap(), fault);
        }
        assert!(chaos_spec("kill:1@halo:9", 4).is_err(), "unknown tag");
        assert!(chaos_spec("kill:1@other:9", 4).is_err(), "unnamed tag");
        assert!(chaos_spec("kill:1@gather:2", 4).is_err(), "retired tag: nothing sends it");
        assert!(chaos_spec("kill:1@collective:2", 4).is_err(), "retired tag: nothing sends it");
        assert!(chaos_spec("kill:1@f_halo:0", 4).is_err(), "n counts from 1");
        assert!(chaos_spec("kill:1@f_halo:-2", 4).is_err(), "negative n");
        assert!(chaos_spec("kill:9@f_halo:5", 4).is_err(), "rank out of range");
        assert!(chaos_spec("kill:2@50", 4).is_err(), "a bare phase is the old form");
        assert!(chaos_spec("kill:1@9:remap", 4).is_err(), "the old site suffix");
        assert!(chaos_spec("kill:2", 4).is_err(), "missing tag and count");
        assert!(chaos_spec("spawn:2@f_halo:5", 4).is_err(), "unknown verb");
    }
}
