//! `serve_sweep`: a `microslip serve` daemon on a fresh scratch directory,
//! driven through the public client calls of `microslip::serve`.
//!
//! * cold — a sweep of distinct `wall-amplitude` points plus in-sweep
//!   duplicates, submitted and waited for; every job runs the solver and
//!   writes sealed checkpoints. Repeated until `--seconds` have passed,
//!   each time on a new daemon and a fresh directory (the one before is
//!   drained, shut down and removed first), like every `mp` run;
//! * warm — identical resubmits of the last sweep, all cache hits;
//! * fetch — the artifacts of that sweep, by key;
//! * drain and shut down.
//!
//! Every job and every fetch is one operation.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use microslip::lbm::{ChannelConfig, ResultArtifact, Slab};
use microslip::obs::{from_jsonl, Event, JobStage};
use microslip::serve::{self, SweepRequest, SweepTicket};
use microslip::Scenario;

use crate::host;
use crate::lattice::unit;
use crate::probes;
use crate::report::Measured;
use crate::scratch::{dir_bytes, microslip_exe, Daemon, Scratch};
use crate::stats::{self, median, quantile};
use crate::Profile;

/// Daemon starts per run that are only timed, on top of the one per cold
/// sweep; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 25;
/// Fewest cold sweeps per run: the run reports its best one (see
/// `lattice::MIN_OPS` for why), so it needs a choice.
const MIN_COLD_SWEEPS: usize = 3;
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The sweep: `points` distinct wall amplitudes (generated from the seed)
/// followed by `dups` repeats.
fn request(p: &Profile, seed: u64) -> SweepRequest {
    let (nx, ny, nz) = p.job_dims;
    let jitter = 1.0e-3 * unit(seed);
    let mut amplitudes: Vec<f64> = (0..p.sweep_points)
        .map(|k| 0.05 + 0.03 * k as f64 + jitter)
        .collect();
    amplitudes.extend_from_within(..p.sweep_dups);
    SweepRequest {
        base: Scenario::paper_scaled(nx, ny, nz).phases(p.job_phases),
        checkpoint_every: None,
        axes: vec![("wall-amplitude".into(), amplitudes)],
    }
}

/// Submits `req` and waits until the daemon is idle; seconds from submit
/// to done, and the ticket.
fn submit_and_wait(addr: &str, req: &SweepRequest) -> Result<(f64, SweepTicket), String> {
    let t = Instant::now();
    let ticket = serve::submit(addr, req)?;
    let report = serve::wait_idle(addr, JOB_TIMEOUT)?;
    let secs = t.elapsed().as_secs_f64();
    match report
        .lines()
        .find(|l| l.starts_with("job ") && !l.contains("state=done"))
    {
        Some(line) => Err(format!(
            "sweep {} left a job unfinished: {line}",
            ticket.sweep
        )),
        None => Ok((secs, ticket)),
    }
}

/// Asks the daemon to drain and shut down and waits for it; its verdict
/// (a clean exit) and the seconds it took.
fn stop(daemon: &mut Daemon) -> Result<(Result<(), String>, f64), String> {
    let t = Instant::now();
    serve::shutdown(&daemon.addr)?;
    let exited = daemon.wait_exit(Duration::from_secs(30));
    Ok((exited, t.elapsed().as_secs_f64()))
}

/// One operation per job of the sweep; all fail together when the sweep's
/// scheduled/cache-hit split is not the pinned one.
fn count_jobs(
    out: &mut Measured,
    what: &str,
    ticket: &SweepTicket,
    scheduled: usize,
    cached: usize,
) {
    let ok = (ticket.scheduled, ticket.cached) == (scheduled, cached);
    for _ in 0..scheduled + cached {
        out.operation(if ok {
            Ok(())
        } else {
            Err(format!(
                "{what}: {} scheduled and {} cache hits, pinned {scheduled} and {cached}",
                ticket.scheduled, ticket.cached
            ))
        });
    }
}

/// Runs `scenario` directly through `microslip run-job` (no daemon, no
/// checkpoints) and returns the sealed artifact and the seconds it took.
fn direct_job(exe: &Path, dir: &Path, scenario: &Scenario) -> Result<(Vec<u8>, f64), String> {
    let (input, output) = (dir.join("direct.scenario"), dir.join("direct.artifact"));
    std::fs::write(&input, scenario.canonical_bytes())
        .map_err(|e| format!("write {}: {e}", input.display()))?;
    let t = Instant::now();
    let status = Command::new(exe)
        .arg("run-job")
        .arg("--scenario")
        .arg(&input)
        .arg("--out")
        .arg(&output)
        .arg("--checkpoint-dir")
        .arg(dir.join("direct-ckpt"))
        .args(["--checkpoint-every", "0"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {} run-job: {e}", exe.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("direct run-job exited with {status}"));
    }
    let bytes = std::fs::read(&output).map_err(|e| format!("read {}: {e}", output.display()))?;
    Ok((bytes, secs))
}

/// Stage timestamps of the daemon's `serve.jsonl`: per scheduled job, how
/// long it queued (submitted → started) and ran (started → done). Returns
/// how many jobs ran to completion and how many were cache hits.
fn job_stages(dir: &Path, direct_s: f64, out: &mut Measured) -> Result<(usize, usize), String> {
    let path = dir.join("serve.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let events = from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut submitted = BTreeMap::new();
    let mut started = BTreeMap::new();
    let (mut waits, mut runs) = (Vec::new(), Vec::new());
    let (mut hits, mut restarts, mut failed) = (0usize, 0usize, 0usize);
    for e in &events {
        let Event::Job {
            time, key, stage, ..
        } = e
        else {
            continue;
        };
        match stage {
            JobStage::Submitted => {
                submitted.entry(key.as_str()).or_insert(*time);
            }
            JobStage::Started => {
                if let Some(t0) = submitted.get(key.as_str()) {
                    waits.push(time - t0);
                }
                started.insert(key.as_str(), *time);
            }
            JobStage::Done => {
                if let Some(t0) = started.get(key.as_str()) {
                    runs.push(time - t0);
                }
            }
            JobStage::CacheHit => hits += 1,
            JobStage::Restarted => restarts += 1,
            JobStage::Failed => failed += 1,
        }
    }
    out.set("serve.queue_wait_s_p50", median(&waits));
    out.set("serve.job_run_s_p50", median(&runs));
    if direct_s > 0.0 {
        out.set("serve.job_overhead_ratio", median(&runs) / direct_s);
    }
    out.set("serve.respawns", restarts as f64);
    out.set("serve.jobs_failed", failed as f64);
    Ok((runs.len(), hits))
}

/// The layers a served job crosses, probed at the job's own lattice. A
/// job is a sequential `Simulation`, so its checkpoints hold the whole
/// channel.
fn job_layers(
    p: &Profile,
    req: &SweepRequest,
    channel: &ChannelConfig,
    dir: &Path,
    out: &mut Measured,
) {
    let copy = probes::host_copy(p.quick, out);
    let whole = Slab {
        x0: 0,
        nx_local: channel.dims.nx,
    };
    let stepped = probes::lbm_steps(channel, p.job_phases.min(20), &copy, out);
    let check = probes::lbm_slab(channel, whole, dir, out);
    out.operation(check);
    let check = probes::lbm_artifact(&stepped, p.job_phases, dir, out);
    out.operation(check);
    probes::scenario(req, out);
}

/// Runs the workload. The daemon is its own process and writes its stage
/// log either way, so a traced run times the very same client calls; it
/// adds the per-layer view: the stage log, the direct-job base, and the
/// probes of the layers a served job crosses.
pub fn run(p: &Profile, seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    let mut out = Measured::default();
    let exe = microslip_exe()?;
    // The solver runs in the daemon's job workers, so the workload's peak
    // memory is the process tree's, not this client's.
    let tree = host::TreePeak::start();

    // Set-up: run directory + daemon start until `serve.addr` exists.
    // These daemons are only timed; their guards stop them.
    let mut setups = Vec::with_capacity(SETUP_REPS + MIN_COLD_SWEEPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let daemon = Daemon::start(&exe)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(daemon);
    }

    // Cold sweeps, each on a daemon and a directory of its own: nothing is
    // cached when a sweep is submitted, and a directory holds one sweep.
    let (jobs, unique) = (p.sweep_points + p.sweep_dups, p.sweep_points);
    let (nx, ny, nz) = p.job_dims;
    let updates = (unique * nx * ny * nz) as f64 * p.job_phases as f64;
    let (mut rates, mut job_rates, mut disk) = (Vec::new(), Vec::new(), Vec::new());
    let req = request(p, seed);
    let mut live: Option<(Daemon, SweepTicket)> = None;
    let started = Instant::now();
    while rates.len() < MIN_COLD_SWEEPS || started.elapsed().as_secs_f64() < seconds {
        if let Some((mut daemon, ..)) = live.take() {
            out.operation(stop(&mut daemon)?.0);
        }
        let t = Instant::now();
        let daemon = Daemon::start(&exe)?;
        setups.push(t.elapsed().as_secs_f64());
        let (secs, ticket) = submit_and_wait(&daemon.addr, &req)?;
        count_jobs(&mut out, "cold sweep", &ticket, unique, p.sweep_dups);
        rates.push(updates / secs / 1e6);
        job_rates.push(jobs as f64 / secs);
        // Disk use when the sweep is done, before anything is cleaned up.
        disk.push(dir_bytes(daemon.dir()) as f64 / 1e6);
        live = Some((daemon, ticket));
    }
    let (mut daemon, ticket) = live.expect("at least one cold sweep ran");
    let addr = daemon.addr.clone();
    out.set_median("setup_s", &setups);
    out.set_best("mlups", &rates);
    out.set_best("jobs_per_s", &job_rates);
    out.set_median("disk_mb", &disk);

    // Warm resubmits: every job a cache hit, the solver never runs.
    let mut warm = Vec::with_capacity(p.warm_sweeps);
    let mut rtts = Vec::with_capacity(p.warm_sweeps);
    for _ in 0..p.warm_sweeps {
        let t = Instant::now();
        let again = serve::submit(&addr, &req)?;
        rtts.push(1e3 * t.elapsed().as_secs_f64());
        serve::wait_idle(&addr, JOB_TIMEOUT)?;
        warm.push(1e3 * t.elapsed().as_secs_f64());
        count_jobs(&mut out, "warm sweep", &again, 0, jobs);
    }
    out.set_median("warm_sweep_ms", &warm);

    // Fetches of the last sweep's artifacts, round-robin over its keys.
    let keys = &ticket.keys[..unique];
    let mut fetches = Vec::with_capacity(p.fetch_rounds * unique);
    let mut fetched = BTreeMap::new();
    for _ in 0..p.fetch_rounds {
        for key in keys {
            let t = Instant::now();
            let sealed = serve::fetch(&addr, key);
            fetches.push(1e3 * t.elapsed().as_secs_f64());
            out.operation(sealed.and_then(|bytes| {
                let artifact = ResultArtifact::unseal(&bytes)?;
                if &artifact.key != key || artifact.phases != p.job_phases {
                    return Err(format!(
                        "fetch {key}: artifact is for {} after {} phases",
                        artifact.key, artifact.phases
                    ));
                }
                fetched.insert(key.clone(), bytes);
                Ok(())
            }));
        }
    }
    out.set_median("fetch_ms", &fetches);

    // One fetched artifact must be byte-equal to a direct run of its
    // scenario — a cached result is the result.
    let side = Scratch::new(&exe, "direct")?;
    let scenarios = req.expand()?;
    let direct =
        direct_job(&exe, side.path(), &scenarios[0]).and_then(|(bytes, secs)| {
            match fetched.get(&keys[0]) {
                Some(served) if *served == bytes => Ok(secs),
                Some(_) => Err(format!(
                    "fetched artifact {} differs from a direct run-job of its scenario",
                    keys[0]
                )),
                None => Err(format!("artifact {} was never fetched", keys[0])),
            }
        });
    let direct_s = *direct.as_ref().unwrap_or(&0.0);
    out.operation(direct.map(drop));

    let (exited, shutdown_s) = stop(&mut daemon)?;
    out.operation(exited);
    out.set("peak_rss_mb", tree.finish());

    if traced {
        out.set("serve.submit_rtt_ms", median(&rtts));
        out.set("serve.warm_sweep_ms_p80", quantile(&warm, 0.8));
        out.set("serve.fetch_ms_p80", quantile(&fetches, 0.8));
        out.set(
            "serve.fetch_bytes",
            fetched.get(&keys[0]).map_or(0, Vec::len) as f64,
        );
        out.set("serve.shutdown_s", shutdown_s);
        out.set("serve.direct_job_s", direct_s);
        out.set("base.run_s", jobs as f64 / stats::max(&job_rates));
        // The last daemon's stage log must agree with its tickets: one
        // cold sweep and the warm resubmits.
        let (scheduled, hits) = job_stages(daemon.dir(), direct_s, &mut out)?;
        let expected = (unique, p.sweep_dups + p.warm_sweeps * jobs);
        out.operation(if (scheduled, hits) == expected {
            Ok(())
        } else {
            Err(format!(
                "serve.jsonl logs {scheduled} scheduled jobs and {hits} cache hits, the tickets say {expected:?}"
            ))
        });
        out.set("serve.scheduled", scheduled as f64);
        out.set(
            "serve.cache_hits",
            hits.saturating_sub(p.warm_sweeps * jobs) as f64,
        );
        job_layers(p, &req, &scenarios[0].channel, side.path(), &mut out);
    }
    Ok(out)
}
