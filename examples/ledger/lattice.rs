//! The four lattice workloads. They run the *same* scenario — the paper's
//! physics on one grid for `P` phases — so one sequential snapshot is the
//! bitwise reference for all of them:
//!
//! * `seq_paper` — `lbm::Simulation::run(P)`, one thread;
//! * `threaded_paper` — two slab workers, no remapping;
//! * `threaded_remap` — the same under filtered remapping, a throttled
//!   rank and a transient spike (synthetic load, so decisions repeat);
//! * `mp_paper` — `threaded_paper` with each rank in its own process.
//!
//! Each is a closed loop of whole runs: one operation is one call of the
//! public run function, timed from outside, and checked against the
//! reference before the next one starts.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use microslip::cluster::Scheme;
use microslip::lbm::checkpoint::{load_solver, read_sealed};
use microslip::lbm::diagnostics::FlowDiagnostics;
use microslip::lbm::geometry::even_slabs;
use microslip::lbm::{ChannelConfig, Simulation, SlabSolver, Snapshot};
use microslip::obs::{
    from_jsonl, merge_rank_streams, to_jsonl, Event, TraceSink, DEFAULT_CAPACITY,
};
use microslip::runtime::{LoadModel, Profile as WorkerProfile, RunOutcome};
use microslip::{MpOutcome, Scenario};

use crate::host;
use crate::probes::{self, time_median};
use crate::report::Measured;
use crate::scratch::{dir_bytes, microslip_exe, Scratch};
use crate::stats;
use crate::Profile;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Seq,
    Threaded,
    Remap,
    Mp,
}

/// What `threaded_remap` must reproduce exactly: with the synthetic load
/// model its decisions are a pure function of the schedule, so they are
/// pinned per profile and any change is a failed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemapPins {
    pub decisions: usize,
    pub applied: usize,
    pub planes_migrated: usize,
    pub final_counts: [usize; 2],
}

/// Fewest runs per invocation, however short `--seconds` is. The host's
/// noise is one-sided — runs sit on a stable floor and are pushed off it
/// for seconds at a time — so a run reports its best operation, and four
/// give it a fair chance of touching the floor once.
const MIN_OPS: usize = 4;

/// Untraced/traced pairs of a traced run (its numbers carry no bound).
const TRACE_PAIRS: usize = 2;

/// `threaded_remap`'s schedule, scaled to the profiles' 8 phases: a remap
/// round every 2 phases on a 2-phase predictor window, rank 0 spiked over
/// phases 2–5.
const REMAP_EVERY: u64 = 2;
const PREDICTOR_WINDOW: usize = 2;
const SPIKE: (u64, u64) = (2, 6);

/// A value in `[0, 1)` from the seed (SplitMix64 finalizer).
pub fn unit(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The scenario all four workloads share. The seed perturbs the body
/// force in its fourth digit: different inputs per seed, the same work.
fn base_scenario(p: &Profile, seed: u64) -> Scenario {
    let (nx, ny, nz) = p.dims;
    let mut s = Scenario::paper_scaled(nx, ny, nz).phases(p.phases);
    s.channel.body[0] = 1.0e-4 * (1.0 + 1.0e-3 * unit(seed));
    s
}

/// `base` finalized for `kind`'s schedule (everything but the substrate).
fn scheduled(kind: Kind, base: Scenario) -> Scenario {
    match kind {
        Kind::Seq => base,
        Kind::Threaded | Kind::Mp => base.workers(2).remap_every(0),
        Kind::Remap => base
            .workers(2)
            .scheme(Scheme::Filtered)
            .remap_every(REMAP_EVERY)
            .predictor_window(PREDICTOR_WINDOW)
            .throttle(1, 1.25)
            .spike(0, SPIKE.0, SPIKE.1, 2.0)
            .load_model(LoadModel::Synthetic { per_point: 1.0 }),
    }
}

fn all_finite(s: &Snapshot) -> bool {
    s.velocity
        .iter()
        .chain(s.rho.iter().flatten())
        .all(|v| v.is_finite())
}

fn mass(s: &Snapshot) -> f64 {
    FlowDiagnostics::compute(s).total_mass
}

/// The sequential run every other substrate must match bit for bit.
struct Reference {
    snapshot: Snapshot,
    mass: f64,
    setup_s: f64,
    run_s: f64,
}

/// One sequential run of `phases`: `Simulation::new` (allocation and
/// priming — the set-up), then `run`. Fails on non-finite fields or if
/// mass is not conserved to the repository's own exactness tolerance.
fn sequential(channel: &ChannelConfig, phases: u64) -> Result<Reference, String> {
    let t = Instant::now();
    let mut sim = Simulation::new(channel.clone());
    let setup_s = t.elapsed().as_secs_f64();
    let mass_before = sim.total_mass();
    let t = Instant::now();
    sim.run(phases);
    let run_s = t.elapsed().as_secs_f64();
    let drift = ((sim.total_mass() - mass_before) / mass_before).abs();
    let snapshot = sim.snapshot();
    if !all_finite(&snapshot) {
        return Err("sequential run produced non-finite fields".into());
    }
    if drift.is_nan() || drift > 1e-10 {
        return Err(format!(
            "sequential run lost mass: relative drift {drift:e}"
        ));
    }
    let mass = mass(&snapshot);
    Ok(Reference {
        snapshot,
        mass,
        setup_s,
        run_s,
    })
}

/// A run's snapshot against the reference: bitwise-equal fields, and the
/// same total mass to the bit.
fn check_snapshot(what: &str, got: &Snapshot, reference: &Reference) -> Result<(), String> {
    if !all_finite(got) {
        return Err(format!("{what}: non-finite fields"));
    }
    if got != &reference.snapshot {
        return Err(format!(
            "{what}: snapshot differs from the sequential reference"
        ));
    }
    if mass(got).to_bits() != reference.mass.to_bits() {
        return Err(format!(
            "{what}: total mass differs from the sequential reference"
        ));
    }
    Ok(())
}

fn check_pins(p: &Profile, counts: &[usize], migrated: usize) -> Result<(), String> {
    let pins = p.remap_pins;
    if counts != pins.final_counts || migrated != pins.planes_migrated {
        return Err(format!(
            "threaded_remap: final counts {counts:?} with {migrated} planes migrated, pinned {:?} with {}",
            pins.final_counts, pins.planes_migrated
        ));
    }
    Ok(())
}

/// The set-up of a two-rank run on a clock of its own: each rank
/// allocates its slab of the lattice and primes it, one thread per rank,
/// as the workers of `run()` and the `mp` rank processes do before their
/// first phase (minus the one ψ halo message between the two priming
/// steps). The public run calls have no seam between this and the phase
/// loop — they repeat it inside, so it is part of `run_s` as well — which
/// is why it is timed here, on the same public `SlabSolver` calls.
fn rank_setup(channel: &ChannelConfig) -> f64 {
    let t = Instant::now();
    let solvers: Vec<SlabSolver> = std::thread::scope(|scope| {
        let ranks: Vec<_> = even_slabs(channel.dims.nx, 2)
            .into_iter()
            .map(|slab| {
                scope.spawn(move || {
                    let mut solver = SlabSolver::new(channel, slab);
                    solver.prime_local_psi();
                    solver.prime_finish();
                    solver
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|rank| rank.join().expect("set-up rank panicked"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    // Freed off the clock, and before the run allocates its own.
    drop(black_box(solvers));
    secs
}

/// One threaded run: `run()` is the operation. The seconds before it are
/// the finalizer's share of the set-up ([`rank_setup`] is the rest).
fn threaded_run(scenario: Scenario) -> Result<(f64, f64, RunOutcome), String> {
    let t = Instant::now();
    let runtime = scenario.runtime()?;
    let finalize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcome = runtime.run();
    Ok((finalize_s, t.elapsed().as_secs_f64(), outcome))
}

/// One multi-process run in a scratch directory of its own: `run()` —
/// spawn, rendezvous, phases, state files, stitching — is the operation.
/// The seconds before it are the driver's share of the set-up (scratch
/// directory and finalizer; [`rank_setup`] is the ranks' share). Returns
/// the scratch guard too, so the caller can inspect the run directory
/// before it goes.
fn mp_run(scenario: Scenario, exe: &Path) -> Result<(f64, f64, MpOutcome, Scratch), String> {
    let t = Instant::now();
    let scratch = Scratch::new(exe, "mp")?;
    let mut mp = scenario.multiprocess()?;
    mp.config_mut().worker_exe = Some(exe.to_path_buf());
    mp.config_mut().dir = Some(scratch.path().to_path_buf());
    let prepare_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcome = mp.run().map_err(|e| format!("mp run failed: {e}"))?;
    Ok((prepare_s, t.elapsed().as_secs_f64(), outcome, scratch))
}

fn mlups(p: &Profile, run_s: f64) -> f64 {
    let (nx, ny, nz) = p.dims;
    (nx * ny * nz) as f64 * p.phases as f64 / run_s / 1e6
}

/// The untraced run: end-to-end metrics only.
pub fn run(kind: Kind, p: &Profile, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut out = Measured::default();
    let base = base_scenario(p, seed);
    let exe = microslip_exe()?;
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut disk = Vec::new();
    let mut peaks = Vec::new();

    // `seq_paper` is its own reference: the first run's snapshot is what
    // every later run must reproduce. The others get a sequential run
    // first.
    let mut reference = None;
    if kind != Kind::Seq {
        reference = Some(sequential(&base.channel, p.phases)?);
    }

    let started = Instant::now();
    while runs.len() < MIN_OPS || started.elapsed().as_secs_f64() < seconds {
        let scenario = scheduled(kind, base.clone());
        // Each operation's peak memory is its own: what the checker's
        // reference run or an earlier operation needed must not count.
        host::reset_peak_rss();
        let (setup_s, run_s, peak_mb, check) = match kind {
            Kind::Seq => {
                let r = sequential(&scenario.channel, p.phases)?;
                let (setup_s, run_s) = (r.setup_s, r.run_s);
                let check = match &reference {
                    Some(first) => check_snapshot("seq_paper", &r.snapshot, first),
                    None => {
                        reference = Some(r);
                        Ok(())
                    }
                };
                (setup_s, run_s, host::peak_rss_mb(), check)
            }
            Kind::Threaded | Kind::Remap => {
                let ranks_s = rank_setup(&scenario.channel);
                let (finalize_s, run_s, o) = threaded_run(scenario)?;
                let reference = reference.as_ref().expect("reference precedes the loop");
                let mut check = check_snapshot("threaded run", &o.snapshot, reference);
                if kind == Kind::Remap {
                    check = check.and(check_pins(p, &o.final_counts(), o.planes_migrated()));
                }
                (ranks_s + finalize_s, run_s, host::peak_rss_mb(), check)
            }
            Kind::Mp => {
                let ranks_s = rank_setup(&scenario.channel);
                // The lattice is in the rank processes, so the peak is the
                // process tree's — this process's share of it counted from
                // here, after the set-up slabs are gone.
                host::reset_peak_rss();
                let tree = host::TreePeak::start();
                let (prepare_s, run_s, o, scratch) = mp_run(scenario, &exe)?;
                let peak_mb = tree.finish();
                disk.push(dir_bytes(scratch.path()) as f64 / 1e6);
                let reference = reference.as_ref().expect("reference precedes the loop");
                (
                    ranks_s + prepare_s,
                    run_s,
                    peak_mb,
                    check_snapshot("mp run", &o.snapshot, reference),
                )
            }
        };
        peaks.push(peak_mb);
        out.operation(check);
        setups.push(setup_s);
        runs.push(run_s);
    }

    let rates: Vec<f64> = runs.iter().map(|&s| mlups(p, s)).collect();
    out.set_median("setup_s", &setups);
    out.set_best("mlups", &rates);
    out.set("peak_rss_mb", stats::min(&peaks));
    if !disk.is_empty() {
        out.set_median("disk_mb", &disk);
    }
    Ok(out)
}

/// Writes the `runtime.*` metrics from the workers' profiles.
fn runtime_layers(profiles: &[WorkerProfile], run_s: f64, out: &mut Measured) {
    let max = |f: fn(&WorkerProfile) -> f64| profiles.iter().map(f).fold(0.0, f64::max);
    out.set(
        "runtime.compute_s_max",
        max(WorkerProfile::compute_unpadded),
    );
    out.set("runtime.pad_s_max", max(|p| p.pad));
    out.set("runtime.halo_s_max", max(|p| p.comm));
    out.set("runtime.remap_s_max", max(|p| p.remap));
    let mean = profiles.iter().map(|p| p.compute).sum::<f64>() / profiles.len().max(1) as f64;
    out.set("runtime.imbalance", max(|p| p.compute) / mean);
    out.set("runtime.unexplained_s", run_s - max(WorkerProfile::total));
}

/// Writes the `balance.*` counts from the recorded decisions.
fn balance_layers(
    p: &Profile,
    events: &[Event],
    o: &RunOutcome,
    out: &mut Measured,
) -> Result<(), String> {
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| {
            if let Event::Remap(d) = e {
                Some(d)
            } else {
                None
            }
        })
        .collect();
    let applied = decisions.iter().filter(|d| d.applied).count();
    out.set("balance.decisions", decisions.len() as f64);
    out.set("balance.applied", applied as f64);
    out.set("balance.planes_migrated", o.planes_migrated() as f64);
    out.set("balance.final_planes_rank0", o.final_counts()[0] as f64);
    let pins = p.remap_pins;
    if (decisions.len(), applied) != (pins.decisions, pins.applied) {
        return Err(format!(
            "threaded_remap: {} decisions, {applied} applied; pinned {} and {}",
            decisions.len(),
            pins.decisions,
            pins.applied
        ));
    }
    Ok(())
}

/// Busy seconds of the busiest rank: the sum of its recorded spans.
fn rank_busy_max(events: &[Event]) -> f64 {
    let mut busy = std::collections::BTreeMap::<usize, f64>::new();
    for e in events {
        if let Event::Span(s) = e {
            *busy.entry(s.node).or_default() += s.duration();
        }
    }
    busy.into_values().fold(0.0, f64::max)
}

/// The traced run: per-layer metrics. Runs the workload with tracing on
/// *and* off (the pair is the tracing overhead and the base of every
/// ratio), then the probes of the layers on this workload's path.
pub fn trace(kind: Kind, p: &Profile, seed: u64) -> Result<Measured, String> {
    let mut out = Measured::default();
    let base = base_scenario(p, seed);
    let exe = microslip_exe()?;
    let probe_dir = Scratch::new(&exe, "probe")?;

    let copy = probes::host_copy(p.quick, &mut out);

    let reference = sequential(&base.channel, p.phases)?;
    out.set("base.seq_run_s", reference.run_s);

    // lbm: the stepped solver must land on the reference, which also pins
    // the fused schedule against the classic one `Simulation` runs.
    let stepped = probes::lbm_steps(&base.channel, p.phases, &copy, &mut out);
    out.operation(check_snapshot(
        "stepped fused schedule",
        &stepped,
        &reference,
    ));
    let check = probes::lbm_slab(
        &base.channel,
        probes::half_slab(&base.channel),
        probe_dir.path(),
        &mut out,
    );
    out.operation(check);
    let check = probes::lbm_artifact(&stepped, p.phases, probe_dir.path(), &mut out);
    out.operation(check);
    drop(stepped);

    let scenario = scheduled(kind, base.clone());
    match kind {
        Kind::Seq => {
            out.set("base.run_s", reference.run_s);
            let per_phase = reference.run_s / p.phases as f64;
            out.set(
                "lbm.phase_reconcile",
                out.get("lbm.phase_sum_s").unwrap_or(0.0) / per_phase,
            );
        }
        Kind::Threaded | Kind::Remap => {
            // Untraced/traced pairs of the same length, alternating.
            let (mut plain, mut traced) = (Vec::new(), Vec::new());
            let mut last = None;
            for _ in 0..TRACE_PAIRS {
                let (_, run_s, o) = threaded_run(scenario.clone())?;
                out.operation(check_snapshot(
                    "untraced threaded run",
                    &o.snapshot,
                    &reference,
                ));
                plain.push(run_s);
                let (sink, recorder) = TraceSink::recorder(DEFAULT_CAPACITY);
                let (_, run_s, o) = threaded_run(scenario.clone().trace(sink))?;
                out.operation(check_snapshot(
                    "traced threaded run",
                    &o.snapshot,
                    &reference,
                ));
                traced.push(run_s);
                last = Some((run_s, o, recorder.take()));
            }
            let (run_s, o, events) = last.expect("TRACE_PAIRS is at least one");
            // Best of each side, like the untraced run reports its best.
            let (plain_s, traced_s) = (stats::min(&plain), stats::min(&traced));
            out.set("base.run_s", plain_s);
            out.set("base.traced_run_s", traced_s);
            out.set("obs.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
            out.set("obs.events", events.len() as f64);
            out.set(
                "obs.jsonl_export_s",
                time_median(3, || drop(to_jsonl(&events))),
            );
            let profiles: Vec<_> = o.reports.iter().map(|r| r.profile).collect();
            runtime_layers(&profiles, run_s, &mut out);
            out.set("base.rank_setup_s", rank_setup(&base.channel));
            out.set(
                "runtime.parallel_efficiency",
                reference.run_s / plain_s / 2.0,
            );
            probes::comm(&base.channel, &mut out);
            if kind == Kind::Remap {
                out.operation(check_pins(p, &o.final_counts(), o.planes_migrated()));
                let check = balance_layers(p, &events, &o, &mut out);
                out.operation(check);
                probes::balance_decide(&base.channel, &mut out);
            }
        }
        Kind::Mp => {
            let (_, threaded_s, o) = threaded_run(scenario.clone())?;
            out.operation(check_snapshot("threaded base run", &o.snapshot, &reference));
            drop(o);
            let (_, run_s, o, scratch) = mp_run(scenario, &exe)?;
            out.operation(check_snapshot("mp run", &o.snapshot, &reference));
            out.set("base.run_s", run_s);
            out.set("base.threaded_run_s", threaded_s);
            out.set("mp.vs_threaded", threaded_s / run_s);
            out.set("disk_mb", dir_bytes(scratch.path()) as f64 / 1e6);
            let check = mp_layers(&base.channel, &o, scratch.path(), &exe, run_s, &mut out);
            out.operation(check);
            probes::net(&base.channel, &mut out);
        }
    }
    Ok(out)
}

/// Writes the `mp.*` and `obs.*` metrics of one finished multi-process
/// run from its merged trace and the files it left in `dir`.
fn mp_layers(
    channel: &ChannelConfig,
    o: &MpOutcome,
    dir: &Path,
    exe: &Path,
    run_s: f64,
    out: &mut Measured,
) -> Result<(), String> {
    let ranks = o.reports.len();
    let busy = rank_busy_max(&o.events);
    out.set("mp.rank_busy_s_max", busy);
    let respawns = o
        .events
        .iter()
        .filter(|e| matches!(e, Event::Recovery { .. }))
        .count();
    out.set("mp.respawns", respawns as f64);

    // Process spawn: as many no-op children as ranks, started together
    // and reaped together, like the driver does with its workers.
    let mut spawned = Ok(());
    let spawn_s = time_median(5, || {
        let children: Vec<_> = (0..ranks)
            .map(|_| {
                std::process::Command::new(exe)
                    .arg("info")
                    .stdout(std::process::Stdio::null())
                    .spawn()
            })
            .collect();
        for child in children {
            if let Err(e) = child.and_then(|mut c| c.wait()) {
                spawned = Err(format!("spawning {} info: {e}", exe.display()));
            }
        }
    });
    spawned?;
    out.set("mp.spawn_s", spawn_s);

    // State files: the ranks encode and write them in parallel (taken
    // from the equal-sized slab probe), the driver reads and decodes them
    // one after the other (timed here, on the files themselves).
    let mut state_bytes = 0;
    let mut streams = Vec::with_capacity(ranks);
    let t = Instant::now();
    for rank in 0..ranks {
        let path = dir.join(format!("rank{rank}.state"));
        let bytes = read_sealed(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        state_bytes += bytes.len();
        load_solver(channel, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let gather_s = t.elapsed().as_secs_f64();
    let rank_side = out.get("lbm.checkpoint_save_s").unwrap_or(0.0)
        + out.get("lbm.sealed_write_s").unwrap_or(0.0);
    out.set("mp.state_bytes", state_bytes as f64);
    out.set("mp.state_io_s", rank_side + gather_s);
    out.set(
        "mp.unexplained_s",
        run_s - busy - spawn_s - rank_side - gather_s,
    );

    for rank in 0..ranks {
        let path = dir.join(format!("rank{rank}.jsonl"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        streams.push(from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let mut copies = vec![streams; 3].into_iter();
    out.set(
        "obs.merge_s",
        time_median(3, || drop(copies.next().map(merge_rank_streams))),
    );
    out.set("obs.events", o.events.len() as f64);
    out.set(
        "obs.jsonl_export_s",
        time_median(3, || drop(to_jsonl(&o.events))),
    );
    Ok(())
}
