//! `microslip serve` — the sweep daemon: an async scheduler with a
//! content-addressed result cache, fronted by the unified
//! [`Scenario`] API.
//!
//! Clients submit **sweep requests** (a base scenario plus parameter
//! grids) over the length-prefixed wire protocol ([`microslip_net::serve`],
//! frame kinds 16+). The daemon expands each grid into jobs, keys every
//! job by the FNV-1a hash of its canonical scenario bytes
//! ([`Scenario::key`]), and then:
//!
//! * serves **cache hits** straight from the on-disk [`CacheStore`] of
//!   sealed [`ResultArtifact`]s — duplicate scenarios, within one sweep
//!   or across sweeps, are computed exactly once;
//! * schedules **misses** onto a bounded pool of `microslip run-job`
//!   subprocesses held through [`crate::supervisor`], the layer
//!   [`crate::mp`] holds its ranks through: children are polled, a death
//!   is answered with a bounded respawn that resumes from the newest
//!   CRC-valid checkpoint — a worker dying mid-job restarts *that job*,
//!   it never fails the sweep.
//!
//! **Why the cache is sound.** The solver is bitwise deterministic across
//! substrates (the repository's core invariant), `run-job` executes the
//! serial reference [`Simulation`], and [`ResultArtifact::seal`] is a
//! pure function of the results — so a cached artifact is byte-identical
//! to what recomputing the scenario would produce, and `fetch` can ship
//! stored bytes verbatim.
//!
//! Everything here that parses untrusted input (wire payloads, grid
//! specs, child exit states, checkpoint directories) is panic-free and
//! surfaces typed errors, under the crate's boundary header.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use microslip_codec::{put_f64, put_str, put_u64, Reader};
use microslip_lbm::checkpoint;
use microslip_lbm::store::validate_key;
use microslip_lbm::{CacheStore, FlowDiagnostics, ResultArtifact, Simulation, WallBc};
use microslip_net::serve::{request, Reply, Served, ServeLoop};
use microslip_net::wire::{Frame, FrameError, FrameKind};
use microslip_obs::{to_jsonl, Event, JobStage, TraceSummary};

use crate::scenario::Scenario;
use crate::supervisor::{die_injected, Budget, Child, Verdict};

/// Sweep-request magic ("MSLIPSW1" — microslip sweep v1).
pub const SWEEP_MAGIC: [u8; 8] = *b"MSLIPSW1";

/// Sentinel for "use the derived default cadence" in a sweep request's
/// `checkpoint_every` slot (0 means "no checkpoints").
const CADENCE_DEFAULT: u64 = u64::MAX;

/// Checkpoint cadence used when a request does not pin one.
///
/// Derived from the measured sealed-write cost in EXPERIMENTS.md
/// ("Recovery cost"): dense cadences are dominated by checkpoint I/O
/// (every-5 ran 3.4× slower than no checkpoints on the reference domain,
/// every-10 was close to undisturbed), and replay from a sparse
/// checkpoint costs far less than the writes it avoids. So: roughly six
/// checkpoints per job, never denser than every 10 phases. Those
/// measurements predate the streaming seal and the folded CRC-32 of
/// `crates/codec`. Re-measured on a 2-vCPU x86-64 VM with both: a
/// 100-phase job on the 100×50×20 paper-scaled channel at this default
/// (every 16: six sealed checkpoints, 42 MB each when measured, 32.6 MB
/// since a checkpoint carries only `f` and ψ) spent ~13 % of its wall time
/// checkpointing (median paired difference 0.12 s of 0.92 s against
/// `checkpoint_every = 0`), down from ~24 % with the table-only CRC. The
/// rule itself has not been re-derived (EXPERIMENTS.md "Recovery cost").
/// A job's checkpoints are removed once its result is cached.
pub fn default_checkpoint_every(phases: u64) -> u64 {
    (phases / 6).max(10)
}

// ---------------------------------------------------------------------
// Sweep requests
// ---------------------------------------------------------------------

/// A parameter grid over a base scenario: the cartesian product of the
/// axes, each axis a named list of values.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// The scenario every job starts from.
    pub base: Scenario,
    /// Checkpoint cadence for this sweep's jobs: `Some(0)` disables
    /// checkpoints, `None` uses [`default_checkpoint_every`].
    pub checkpoint_every: Option<u64>,
    /// Grid axes as `(parameter name, values)`; see [`apply_axis`] for
    /// the accepted names.
    pub axes: Vec<(String, Vec<f64>)>,
}

/// The accepted grid axes, as `(name, one-line description)` — the single
/// source of truth shared by [`apply_axis`]'s unknown-axis error and the
/// CLI's `submit --list-axes` output, so the two can never drift apart.
pub const GRID_AXES: &[(&str, &str)] = &[
    ("body-x", "streamwise body force"),
    ("wall-amplitude", "hydrophobic wall force amplitude"),
    ("wall-decay", "hydrophobic wall force decay length"),
    ("coupling", "symmetric cross-component coupling"),
    ("phases", "run length in LBM phases (positive integer)"),
    ("slip-r", "tunable-slip reflection fraction in [0, 1] (1 = no-slip)"),
    ("patch-period", "patterned-slip stripe period in planes (positive integer)"),
    ("patch-phase", "patterned-slip stripe offset in planes (non-negative integer)"),
];

/// Renders the axis catalog for `submit --list-axes`.
pub fn list_axes_text() -> String {
    let mut out = String::from("grid axes (--grid NAME=v1,v2,...):\n");
    for (name, desc) in GRID_AXES {
        out.push_str(&format!("  {name:<16} {desc}\n"));
    }
    out
}

/// Carries existing slip parameters forward when a `patch-*` axis
/// upgrades the wall to a patterned-slip BC: an existing pattern keeps
/// its fields, a tunable wall becomes the slipping stripe material `r_b`
/// against no-slip `r_a` stripes, and bounce-back starts fully no-slip.
fn patterned_parts(bc: &WallBc) -> (f64, f64, usize, usize) {
    match *bc {
        WallBc::PatternedSlip { r_a, r_b, period, phase } => (r_a, r_b, period, phase),
        WallBc::TunableSlip { r } => (1.0, r, 1, 0),
        _ => (1.0, 0.0, 1, 0),
    }
}

/// Sets one grid parameter on a scenario; see [`GRID_AXES`] for the
/// accepted names. The slip axes compose: `slip-r` alone sweeps a uniform
/// tunable-slip wall (or the stripe material of an existing pattern),
/// while `patch-period`/`patch-phase` promote the wall to striped
/// patterned slip, keeping any previously-set `r` as the stripe material.
pub fn apply_axis(s: &mut Scenario, axis: &str, value: f64) -> Result<(), String> {
    match axis {
        "body-x" => {
            let [body_x, _, _] = &mut s.channel.body;
            *body_x = value;
        }
        "wall-amplitude" => s.channel.wall.amplitude = value,
        "wall-decay" => s.channel.wall.decay = value,
        "coupling" => {
            let n = s.channel.coupling.components();
            if n < 2 {
                return Err("coupling axis needs at least two components".into());
            }
            s.channel.coupling.set(0, 1, value);
            s.channel.coupling.set(1, 0, value);
        }
        "phases" => {
            if value.fract() != 0.0 || !(1.0..=1e12).contains(&value) {
                return Err(format!("phases axis value {value} is not a positive integer"));
            }
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "value is validated as an integer in 1..=1e12 just above"
            )]
            let phases = value as u64;
            s.phases = phases;
        }
        "slip-r" => {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!("slip-r axis value {value} is outside [0, 1]"));
            }
            s.channel.wall_bc = match s.channel.wall_bc {
                WallBc::PatternedSlip { r_a, period, phase, .. } => {
                    WallBc::PatternedSlip { r_a, r_b: value, period, phase }
                }
                _ => WallBc::TunableSlip { r: value },
            };
        }
        "patch-period" => {
            if value.fract() != 0.0 || !(1.0..=1e6).contains(&value) {
                return Err(format!("patch-period axis value {value} is not a positive integer"));
            }
            let (r_a, r_b, _, phase) = patterned_parts(&s.channel.wall_bc);
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "value is validated as an integer in 1..=1e6 just above"
            )]
            let period = value as usize;
            s.channel.wall_bc = WallBc::PatternedSlip { r_a, r_b, period, phase };
        }
        "patch-phase" => {
            if value.fract() != 0.0 || !(0.0..=1e6).contains(&value) {
                return Err(format!(
                    "patch-phase axis value {value} is not a non-negative integer"
                ));
            }
            let (r_a, r_b, period, _) = patterned_parts(&s.channel.wall_bc);
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "value is validated as an integer in 0..=1e6 just above"
            )]
            let phase = value as usize;
            s.channel.wall_bc = WallBc::PatternedSlip { r_a, r_b, period, phase };
        }
        other => {
            let names: Vec<&str> = GRID_AXES.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown grid axis '{other}' (valid: {})", names.join(", ")));
        }
    }
    Ok(())
}

impl SweepRequest {
    /// Serializes the request for the [`FrameKind::SweepSubmit`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let SweepRequest { base, checkpoint_every, axes } = self;
        let mut out = Vec::new();
        out.extend_from_slice(&SWEEP_MAGIC);
        let base = base.canonical_bytes();
        put_u64(&mut out, base.len() as u64);
        out.extend_from_slice(&base);
        put_u64(&mut out, checkpoint_every.unwrap_or(CADENCE_DEFAULT));
        put_u64(&mut out, axes.len() as u64);
        for (name, values) in axes {
            put_str(&mut out, name);
            put_u64(&mut out, values.len() as u64);
            for &v in values {
                put_f64(&mut out, v);
            }
        }
        out
    }

    /// Decodes a request from untrusted wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<SweepRequest, String> {
        if !bytes.starts_with(&SWEEP_MAGIC) {
            return Err("not a microslip sweep request (bad magic)".into());
        }
        let mut r = Reader::new("sweep request", bytes, 8);
        let base_len = r.usize()?;
        if base_len > 1 << 24 {
            return Err(format!("implausible scenario length {base_len}"));
        }
        let base = Scenario::decode(r.take(base_len)?)?;
        let checkpoint_every = match r.u64()? {
            CADENCE_DEFAULT => None,
            n => Some(n),
        };
        let naxes = r.usize()?;
        if naxes > 8 {
            return Err(format!("at most 8 grid axes supported, got {naxes}"));
        }
        let mut axes = Vec::with_capacity(naxes);
        for _ in 0..naxes {
            let name = r.str()?;
            let nvalues = r.usize()?;
            if nvalues == 0 || nvalues > 1 << 12 {
                return Err(format!("implausible axis value count {nvalues}"));
            }
            let mut values = Vec::with_capacity(nvalues);
            for _ in 0..nvalues {
                values.push(r.f64()?);
            }
            axes.push((name, values));
        }
        r.finish()?;
        Ok(SweepRequest { base, checkpoint_every, axes })
    }

    /// Expands the grid into concrete scenarios (cartesian product of the
    /// axes, in axis-major order — deterministic, so a sweep's job list
    /// is reproducible). An empty grid is the base scenario alone.
    pub fn expand(&self) -> Result<Vec<Scenario>, String> {
        let mut combos: Vec<Vec<(String, f64)>> = vec![Vec::new()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(combos.len() * values.len());
            for combo in &combos {
                for &v in values {
                    let mut c = combo.clone();
                    c.push((name.clone(), v));
                    next.push(c);
                }
            }
            combos = next;
        }
        if combos.len() > 4096 {
            return Err(format!("grid expands to {} jobs (cap 4096)", combos.len()));
        }
        let mut out = Vec::with_capacity(combos.len());
        for combo in combos {
            let mut s = self.base.clone();
            for (name, v) in combo {
                apply_axis(&mut s, &name, v)?;
            }
            out.push(s);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// run-job: one scenario, serial reference, checkpoint-restart
// ---------------------------------------------------------------------

/// Arguments of `microslip run-job` — the worker subprocess the daemon
/// schedules (one job per process, like `mp-worker` is one rank).
#[derive(Clone, Debug)]
pub struct RunJobArgs {
    /// File holding the job's canonical scenario bytes.
    pub scenario_path: PathBuf,
    /// Where the sealed artifact lands (written atomically).
    pub out_path: PathBuf,
    /// Directory for periodic sealed checkpoints.
    pub checkpoint_dir: PathBuf,
    /// Phases between checkpoints (0 = none).
    pub checkpoint_every: u64,
    /// Resume from the newest CRC-valid checkpoint instead of phase 0.
    pub resume: bool,
    /// Fault injection: die ([`die_injected`]) *before* stepping this
    /// phase (first attempt only; the daemon strips it on respawn).
    pub die_at_phase: Option<u64>,
}

/// The newest checkpoint in `dir` that both unseals (CRC-valid) and
/// restores against `scenario`'s channel — a job is rank 0 of 1. Torn or
/// mismatched files are skipped, not fatal: the job falls back to an
/// older checkpoint or a fresh start, exactly like `mp` recovery. The
/// restore is the CRC check, so only files down to the first good one
/// are read.
fn newest_valid_checkpoint(dir: &Path, scenario: &Scenario) -> Option<Simulation> {
    checkpoint::phases(dir, 0).into_iter().rev().find_map(|phase| {
        Simulation::restore_file(scenario.channel.clone(), &checkpoint::path(dir, 0, phase)).ok()
    })
}

/// The deterministic per-job trace summary embedded in the artifact.
/// Built from virtual-time events (all timestamps zero), so it is a pure
/// function of the scenario — a precondition for cached and fresh
/// artifacts being byte-identical.
fn job_summary(scenario: &Scenario, key: &str) -> String {
    let events = [
        Event::Meta {
            mode: "serve-job".into(),
            nodes: 1,
            phases: scenario.phases,
            policy: scenario.scheme.name().into(),
        },
        Event::Job {
            time: 0.0,
            sweep: 0,
            key: key.into(),
            stage: JobStage::Done,
            phase: scenario.phases,
            detail: String::new(),
        },
    ];
    TraceSummary::from_events(&events).to_json()
}

/// Runs one scenario to completion on the serial reference simulation
/// (bitwise-identical to every parallel substrate), checkpointing on the
/// requested cadence, and seals the result artifact.
pub fn run_job(args: &RunJobArgs) -> Result<(), String> {
    let scenario = Scenario::read_file(&args.scenario_path)?;
    scenario.channel.validate()?;
    let key = scenario.key();
    std::fs::create_dir_all(&args.checkpoint_dir)
        .map_err(|e| format!("creating {}: {e}", args.checkpoint_dir.display()))?;
    let restored = args.resume.then(|| newest_valid_checkpoint(&args.checkpoint_dir, &scenario));
    let mut sim = restored.flatten().unwrap_or_else(|| Simulation::new(scenario.channel.clone()));
    while sim.phase() < scenario.phases {
        if args.die_at_phase == Some(sim.phase()) {
            // Exactly here, after any checkpoints below this phase have
            // been sealed.
            die_injected(&format!("job {key} dies before phase {}", sim.phase()));
        }
        sim.step();
        if args.checkpoint_every > 0 && sim.phase().is_multiple_of(args.checkpoint_every) {
            let path = checkpoint::path(&args.checkpoint_dir, 0, sim.phase());
            checkpoint::write_solver(&path, sim.solver(), sim.phase())
                .map_err(|e| format!("checkpoint at phase {}: {e}", sim.phase()))?;
        }
    }
    // The solver is done: its lattices go before the artifact is encoded,
    // so a job's peak memory is what stepping needed and is reached while
    // it steps, not in the last milliseconds of the process.
    let snapshot = sim.into_snapshot();
    let diagnostics = FlowDiagnostics::compute(&snapshot);
    let artifact = ResultArtifact {
        key: key.clone(),
        phases: scenario.phases,
        snapshot,
        diagnostics,
        summary_json: job_summary(&scenario, &key),
    };
    microslip_codec::publish(&args.out_path, |file| file.write_all(&artifact.seal()))
        .map_err(|e| format!("publishing {}: {e}", args.out_path.display()))
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an OS-assigned port. The resolved
    /// address is written to `<dir>/serve.addr`.
    pub addr: String,
    /// Run directory: cache, per-job scratch, trace artifacts.
    pub dir: PathBuf,
    /// Executable to spawn for jobs (the `microslip` binary itself).
    pub worker_exe: PathBuf,
    /// Bounded worker pool size.
    pub max_workers: usize,
    /// Respawn budget per job (the `mp` default: 3).
    pub max_respawns: usize,
    /// Keep at most this many cache entries (0 = unbounded); oldest are
    /// evicted after each sweep completes.
    pub cache_capacity: usize,
    /// Fault injection for tests/smoke: the Nth scheduled job (0-based)
    /// dies before stepping the given phase, on its first attempt only.
    pub chaos: Option<(usize, u64)>,
}

impl ServeConfig {
    /// Defaults: ephemeral port, 2 workers, 3 respawns, unbounded cache.
    pub fn new(dir: impl Into<PathBuf>, worker_exe: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            dir: dir.into(),
            worker_exe: worker_exe.into(),
            max_workers: 2,
            max_respawns: 3,
            cache_capacity: 0,
            chaos: None,
        }
    }
}

#[derive(Debug)]
enum JobState {
    Queued,
    Running { child: Child },
    Done,
    Failed { detail: String },
}

struct Job {
    key: String,
    sweep: u64,
    state: JobState,
    /// Respawns of this job's worker, bounded by `max_respawns`.
    budget: Budget,
    checkpoint_every: u64,
    die_at_phase: Option<u64>,
}

struct Daemon {
    cfg: ServeConfig,
    store: CacheStore,
    jobs: HashMap<String, Job>,
    /// Scheduling order (submission order — deterministic).
    queue: Vec<String>,
    sweeps: u64,
    scheduled: usize,
    events: Vec<Event>,
    started: Instant,
    shutting_down: bool,
}

impl Daemon {
    fn new(cfg: &ServeConfig, store: CacheStore) -> Daemon {
        Daemon {
            cfg: cfg.clone(),
            store,
            jobs: HashMap::new(),
            queue: Vec::new(),
            sweeps: 0,
            scheduled: 0,
            events: Vec::new(),
            started: Instant::now(),
            shutting_down: false,
        }
    }

    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn record(&mut self, sweep: u64, key: &str, stage: JobStage, phase: u64, detail: &str) {
        let time = self.now();
        self.events.push(Event::Job {
            time,
            sweep,
            key: key.into(),
            stage,
            phase,
            detail: detail.into(),
        });
    }

    fn job_dir(&self, key: &str) -> PathBuf {
        self.cfg.dir.join("jobs").join(key)
    }

    /// Handles one decoded request frame; returns the reply.
    fn handle(&mut self, req: Frame) -> Reply {
        match req.kind {
            FrameKind::SweepSubmit => self.handle_submit(&req),
            FrameKind::StatusQuery => {
                Reply::bytes(FrameKind::StatusReply, self.status_report(req.tag))
            }
            FrameKind::Fetch => self.handle_fetch(&req),
            FrameKind::Shutdown => Reply {
                shutdown: true,
                ..Reply::bytes(FrameKind::StatusReply, "shutting down\n")
            },
            other => Reply::error(&format!("unexpected frame kind {other:?} on the serve port")),
        }
    }

    fn handle_submit(&mut self, req: &Frame) -> Reply {
        if self.shutting_down {
            return Reply::error("daemon is shutting down");
        }
        let bytes = match req.bytes_payload() {
            Ok(b) => b,
            Err(e) => return Reply::error(&format!("malformed submit payload: {e:?}")),
        };
        let request = match SweepRequest::decode(&bytes) {
            Ok(r) => r,
            Err(e) => return Reply::error(&format!("malformed sweep request: {e}")),
        };
        let scenarios = match request.expand() {
            Ok(s) => s,
            Err(e) => return Reply::error(&format!("grid expansion failed: {e}")),
        };
        self.sweeps += 1;
        let sweep = self.sweeps;
        let cadence = request
            .checkpoint_every
            .unwrap_or_else(|| default_checkpoint_every(request.base.phases));
        let total = scenarios.len();
        let mut cached = 0usize;
        let mut scheduled = 0usize;
        let mut keys = Vec::with_capacity(total);
        for scenario in scenarios {
            let key = scenario.key();
            keys.push(key.clone());
            self.record(sweep, &key, JobStage::Submitted, 0, "");
            if self.store.open_sealed(&key).is_some() {
                cached += 1;
                self.record(sweep, &key, JobStage::CacheHit, 0, "served from cache");
                continue;
            }
            // A done job whose entry is gone (evicted, or corrupt and so
            // evicted just now) is computed again; any other job answers.
            if self.jobs.get(&key).is_some_and(|job| !matches!(job.state, JobState::Done)) {
                cached += 1;
                self.record(sweep, &key, JobStage::CacheHit, 0, "deduped against scheduled job");
                continue;
            }
            // Materialize the job's scratch: scenario bytes + checkpoint dir.
            let dir = self.job_dir(&key);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                return Reply::error(&format!("job scratch dir: {e}"));
            }
            if let Err(e) = std::fs::write(dir.join("scenario.bin"), scenario.canonical_bytes()) {
                return Reply::error(&format!("job scenario write: {e}"));
            }
            let ordinal = self.scheduled;
            self.scheduled += 1;
            let die_at_phase = match self.cfg.chaos {
                Some((nth, phase)) if nth == ordinal => Some(phase),
                _ => None,
            };
            let job = Job {
                key: key.clone(),
                sweep,
                state: JobState::Queued,
                budget: Budget::new(self.cfg.max_respawns),
                checkpoint_every: cadence,
                die_at_phase,
            };
            if self.jobs.insert(key.clone(), job).is_none() {
                self.queue.push(key);
            }
            scheduled += 1;
        }
        let mut report = format!(
            "sweep={sweep}\njobs={total}\nscheduled={scheduled}\ncached={cached}\ncadence={cadence}\n"
        );
        for key in &keys {
            report.push_str("key=");
            report.push_str(key);
            report.push('\n');
        }
        Reply::bytes(FrameKind::SweepReply, report)
    }

    fn handle_fetch(&mut self, req: &Frame) -> Reply {
        let bytes = match req.bytes_payload() {
            Ok(b) => b,
            Err(e) => return Reply::error(&format!("malformed fetch payload: {e:?}")),
        };
        let key = match String::from_utf8(bytes) {
            Ok(k) => k,
            Err(_) => return Reply::error("fetch key is not utf-8"),
        };
        if let Err(e) = validate_key(&key) {
            return Reply::error(&e);
        }
        // Verified in one streamed pass, sent from the file in a second.
        match self.store.open_sealed(&key) {
            Some((file, len)) => Reply::file(FrameKind::FetchReply, file, len),
            None => match self.jobs.get(&key) {
                Some(job) if matches!(job.state, JobState::Done) => Reply::error(&format!(
                    "the result of job {key} is no longer cached; submit it again to recompute"
                )),
                Some(job) => Reply::error(&format!("job {key} not finished ({})", state_name(&job.state))),
                None => Reply::error(&format!("unknown key {key}")),
            },
        }
    }

    /// Renders the status report: per-job lines for `sweep` (0 = all),
    /// then the busy count the `--wait` client polls on.
    fn status_report(&self, sweep: u64) -> String {
        let mut out = String::new();
        let mut busy = 0usize;
        for key in &self.queue {
            let Some(job) = self.jobs.get(key) else { continue };
            if matches!(job.state, JobState::Queued | JobState::Running { .. }) {
                busy += 1;
            }
            if sweep != 0 && job.sweep != sweep {
                continue;
            }
            out.push_str(&format!(
                "job key={} sweep={} state={} respawns={}",
                job.key,
                job.sweep,
                state_name(&job.state),
                job.budget.used()
            ));
            if let JobState::Failed { detail } = &job.state {
                out.push_str(&format!(" detail={detail}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("sweeps={}\nbusy={busy}\n", self.sweeps));
        out
    }

    /// Spawns one `run-job` child for `key`.
    fn spawn(&self, key: &str, resume: bool) -> Result<Child, String> {
        let Some(job) = self.jobs.get(key) else {
            return Err(format!("spawn of unknown job {key}"));
        };
        let dir = self.job_dir(key);
        let path = |name: &str| dir.join(name).display().to_string();
        let mut args = vec![
            "run-job".to_string(),
            "--scenario".into(),
            path("scenario.bin"),
            "--out".into(),
            path("result.artifact"),
            "--checkpoint-dir".into(),
            path("ckpt"),
            "--checkpoint-every".into(),
            job.checkpoint_every.to_string(),
        ];
        if resume {
            args.push("--resume".into());
        } else if let Some(phase) = job.die_at_phase {
            // Chaos lands on the first attempt only; the respawn runs clean.
            args.extend(["--die-at-phase".into(), phase.to_string()]);
        }
        Child::spawn(&self.cfg.worker_exe, args, &dir.join("job.stderr"))
            .map_err(|e| format!("run-job for {key}: {e}"))
    }

    /// Moves `key` to `state` and puts the transition on the record.
    fn transition(&mut self, key: &str, state: JobState, stage: JobStage, phase: u64, detail: &str) {
        let Some(job) = self.jobs.get_mut(key) else { return };
        let sweep = job.sweep;
        job.state = state;
        self.record(sweep, key, stage, phase, detail);
    }

    fn fail(&mut self, key: &str, detail: String) {
        self.transition(key, JobState::Failed { detail: detail.clone() }, JobStage::Failed, 0, &detail);
    }

    /// One supervision round, the pool policy over the children's exits:
    /// start queued jobs while pool slots are free, poll running children,
    /// absorb exits — a death is answered by requeueing the job, whose
    /// next attempt runs with `--resume` (checkpoint-restart of *that
    /// job*), until its budget is spent. Returns true when anything
    /// changed (so the caller can skip its idle sleep).
    fn supervise(&mut self) -> bool {
        let mut changed = false;
        // Reap finished children first so their slots free up this round.
        let keys: Vec<String> = self.queue.clone();
        for key in &keys {
            let Some(job) = self.jobs.get_mut(key) else { continue };
            let JobState::Running { child } = &mut job.state else { continue };
            let Some(exit) = child.poll(None) else { continue };
            changed = true;
            match job.budget.judge(exit) {
                Verdict::Done => {
                    if let Err(detail) = self.absorb_result(key) {
                        self.fail(key, detail);
                    }
                }
                Verdict::Respawn { attempt, status } => {
                    let detail = format!("child died ({status}); respawn {attempt} will resume");
                    self.transition(key, JobState::Queued, JobStage::Restarted, 0, &detail);
                }
                Verdict::Fatal(why) => self.fail(key, format!("child {why}")),
            }
        }
        // Fill free pool slots in submission order.
        let running = self
            .jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Running { .. }))
            .count();
        let mut slots = self.cfg.max_workers.saturating_sub(running);
        for key in &keys {
            if slots == 0 {
                break;
            }
            let Some(job) = self.jobs.get(key) else { continue };
            if !matches!(job.state, JobState::Queued) {
                continue;
            }
            let resume = job.budget.used() > 0;
            changed = true;
            match self.spawn(key, resume) {
                Ok(child) => {
                    let stage = if resume { JobStage::Restarted } else { JobStage::Started };
                    self.transition(key, JobState::Running { child }, stage, 0, "");
                    slots -= 1;
                }
                Err(detail) => self.fail(key, detail),
            }
        }
        changed
    }

    /// A child exited zero: check its artifact in one streamed pass and
    /// move it into the cache. The job's checkpoints go then: a cached
    /// result is never resumed, and a job whose entry is evicted later
    /// is computed again from phase 0.
    fn absorb_result(&mut self, key: &str) -> Result<(), String> {
        let dir = self.job_dir(key);
        let info = self.store.put_file(key, &dir.join("result.artifact"))?;
        if let Err(e) = std::fs::remove_dir_all(dir.join("ckpt")) {
            eprintln!("serve: job {key}: removing its checkpoints: {e}");
        }
        self.transition(key, JobState::Done, JobStage::Done, info.phases, "");
        Ok(())
    }

    fn busy(&self) -> bool {
        self.jobs
            .values()
            .any(|j| matches!(j.state, JobState::Queued | JobState::Running { .. }))
    }

    /// Writes `serve.jsonl` and `serve.summary.json` into the run dir.
    fn write_trace(&self) -> Result<(), String> {
        let jsonl = to_jsonl(&self.events);
        std::fs::write(self.cfg.dir.join("serve.jsonl"), jsonl)
            .map_err(|e| format!("writing serve.jsonl: {e}"))?;
        let summary = TraceSummary::from_events(&self.events).to_json();
        std::fs::write(self.cfg.dir.join("serve.summary.json"), summary)
            .map_err(|e| format!("writing serve.summary.json: {e}"))
    }
}

fn state_name(state: &JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Running { .. } => "running",
        JobState::Done => "done",
        JobState::Failed { .. } => "failed",
    }
}

/// Runs the daemon until a client sends [`FrameKind::Shutdown`]: accept
/// one request per poll, then one supervision round, forever. On
/// shutdown the daemon drains its running jobs, trims the cache to
/// capacity, and writes its trace artifacts.
pub fn run_serve(cfg: &ServeConfig) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("run dir: {e}"))?;
    let store = CacheStore::open(cfg.dir.join("cache")).map_err(|e| format!("cache dir: {e}"))?;
    let serve_loop = ServeLoop::bind(&cfg.addr, Duration::from_secs(10))
        .map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    let addr = serve_loop.local_addr().map_err(|e| format!("serve addr: {e}"))?;
    // Publish the resolved address so scripts can find an ephemeral port.
    std::fs::write(cfg.dir.join("serve.addr"), format!("{addr}\n"))
        .map_err(|e| format!("writing serve.addr: {e}"))?;
    println!("serve: listening on {addr}, cache in {}", store.dir().display());
    let mut daemon = Daemon::new(cfg, store);
    loop {
        let served = serve_loop.poll(|req| daemon.handle(req));
        let handled = match served {
            Served::Idle => false,
            Served::Handled => true,
            Served::ShutdownRequested => {
                daemon.shutting_down = true;
                true
            }
            Served::Rejected(detail) => {
                eprintln!("serve: rejected connection: {detail}");
                true
            }
        };
        let progressed = daemon.supervise();
        if daemon.shutting_down && !daemon.busy() {
            break;
        }
        if !handled && !progressed {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    if daemon.cfg.cache_capacity > 0 {
        let evicted = daemon
            .store
            .trim_to(daemon.cfg.cache_capacity)
            .map_err(|e| format!("cache trim: {e}"))?;
        if !evicted.is_empty() {
            println!("serve: evicted {} cache entries", evicted.len());
        }
    }
    daemon.write_trace()?;
    let failed: Vec<&str> = daemon
        .jobs
        .values()
        .filter(|j| matches!(j.state, JobState::Failed { .. }))
        .map(|j| j.key.as_str())
        .collect();
    println!(
        "serve: shut down after {} sweeps, {} jobs scheduled, {} failed",
        daemon.sweeps,
        daemon.scheduled,
        failed.len()
    );
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("jobs failed: {}", failed.join(", ")))
    }
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Sends `frame` to the daemon at `addr` and streams the byte payload of
/// its `want` reply into `sink`; a [`FrameKind::ServeError`] reply comes
/// back as the error it carries. `what` names the call in errors.
fn call(
    addr: &str,
    what: &str,
    frame: &Frame,
    want: FrameKind,
    sink: &mut impl Write,
) -> Result<(), String> {
    let failed = |e: FrameError| format!("{what}: {e:?}");
    let reply = request(addr, frame, CLIENT_TIMEOUT).map_err(failed)?;
    match reply.kind {
        k if k == want => reply.bytes_into(sink).map(drop).map_err(failed),
        FrameKind::ServeError => {
            let mut detail = Vec::new();
            reply.bytes_into(&mut detail).map_err(failed)?;
            Err(format!("daemon refused: {}", String::from_utf8_lossy(&detail)))
        }
        other => Err(format!("unexpected reply kind {other:?}")),
    }
}

/// What `submit` learned from the daemon's sweep reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepTicket {
    pub sweep: u64,
    pub jobs: usize,
    pub scheduled: usize,
    pub cached: usize,
    /// The job keys, in grid-expansion order (duplicates included).
    pub keys: Vec<String>,
}

/// Parses the `key=value` lines of a sweep reply.
fn parse_ticket(text: &str) -> Result<SweepTicket, String> {
    let mut t = SweepTicket::default();
    for line in text.lines() {
        let Some((name, value)) = line.split_once('=') else { continue };
        match name {
            "sweep" => t.sweep = value.parse().map_err(|_| format!("bad sweep id '{value}'"))?,
            "jobs" => t.jobs = value.parse().map_err(|_| format!("bad job count '{value}'"))?,
            "scheduled" => {
                t.scheduled = value.parse().map_err(|_| format!("bad scheduled count '{value}'"))?
            }
            "cached" => {
                t.cached = value.parse().map_err(|_| format!("bad cached count '{value}'"))?
            }
            "key" => t.keys.push(value.to_string()),
            _ => {}
        }
    }
    if t.sweep == 0 {
        return Err(format!("reply carries no sweep id: {text:?}"));
    }
    Ok(t)
}

/// Submits a sweep request; returns the daemon's ticket.
pub fn submit(addr: &str, req: &SweepRequest) -> Result<SweepTicket, String> {
    let frame = Frame::from_bytes(FrameKind::SweepSubmit, 0, &req.encode());
    let mut bytes = Vec::new();
    call(addr, "submit", &frame, FrameKind::SweepReply, &mut bytes)?;
    let text = String::from_utf8(bytes).map_err(|_| "reply is not utf-8".to_string())?;
    parse_ticket(&text)
}

/// Fetches the daemon's status report (`sweep` 0 = all sweeps).
pub fn status(addr: &str, sweep: u64) -> Result<String, String> {
    let frame = Frame { kind: FrameKind::StatusQuery, from: 0, tag: sweep, payload: vec![] };
    let mut bytes = Vec::new();
    call(addr, "status", &frame, FrameKind::StatusReply, &mut bytes)?;
    String::from_utf8(bytes).map_err(|_| "status report is not utf-8".to_string())
}

/// Fetches the sealed artifact for `key`, verbatim as stored.
pub fn fetch(addr: &str, key: &str) -> Result<Vec<u8>, String> {
    let mut sealed = Vec::new();
    fetch_to(addr, key, &mut sealed)?;
    Ok(sealed)
}

/// Streams the sealed artifact for `key` into `sink` as it arrives. The
/// bytes are the artifact only once this returns `Ok` (the frame's CRC is
/// checked last); on an error the caller discards what `sink` got.
pub fn fetch_to(addr: &str, key: &str, sink: &mut impl Write) -> Result<(), String> {
    validate_key(key)?;
    let frame = Frame::from_bytes(FrameKind::Fetch, 0, key.as_bytes());
    call(addr, "fetch", &frame, FrameKind::FetchReply, sink)
}

/// Asks the daemon to drain its queue and exit.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let frame = Frame { kind: FrameKind::Shutdown, from: 0, tag: 0, payload: vec![] };
    call(addr, "shutdown", &frame, FrameKind::StatusReply, &mut std::io::sink())
}

/// Polls the daemon until no job is queued or running (or the deadline
/// passes). Returns the final status report.
pub fn wait_idle(addr: &str, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let report = status(addr, 0)?;
        let busy = report
            .lines()
            .find_map(|l| l.strip_prefix("busy="))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("status report carries no busy count: {report:?}"))?;
        if busy == 0 {
            return Ok(report);
        }
        if Instant::now() >= deadline {
            return Err(format!("jobs still busy after {timeout:?}:\n{report}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microslip_runtime::LoadModel;

    fn base() -> Scenario {
        Scenario::paper_scaled(12, 6, 4)
            .workers(2)
            .phases(6)
            .load_model(LoadModel::Synthetic { per_point: 1.0 })
    }

    /// A pinned and a default cadence, with and without grid axes.
    fn requests() -> [SweepRequest; 2] {
        [
            SweepRequest {
                base: base(),
                checkpoint_every: Some(4),
                axes: vec![
                    ("wall-amplitude".into(), vec![0.1, 0.2]),
                    ("body-x".into(), vec![1e-4]),
                ],
            },
            SweepRequest { base: base(), checkpoint_every: None, axes: vec![] },
        ]
    }

    #[test]
    fn sweep_request_roundtrips() {
        for req in requests() {
            let bytes = req.encode();
            let back = SweepRequest::decode(&bytes).expect("decode");
            assert_eq!(back, req);
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn sweep_request_codec_is_canonical() {
        // Every single-byte change that still decodes re-encodes to exactly
        // the changed bytes: no dead decode arm, no two encodings of one
        // request. Every value is tried where a byte starts a little-endian
        // u64 below 256 (a discriminant, count or flag), every single-bit
        // flip elsewhere.
        for req in requests() {
            let bytes = req.encode();
            for i in 0..bytes.len() {
                let small = bytes.get(i + 1..i + 8).is_some_and(|h| h.iter().all(|&b| b == 0));
                let values: Vec<u8> = if small {
                    (0..=u8::MAX).collect()
                } else {
                    (0..8).map(|bit| bytes[i] ^ (1 << bit)).collect()
                };
                for value in values {
                    let mut changed = bytes.clone();
                    changed[i] = value;
                    if let Ok(back) = SweepRequest::decode(&changed) {
                        assert_eq!(back.encode(), changed, "byte {i} set to {value}");
                    }
                }
            }
        }
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert!(SweepRequest::decode(b"").is_err());
        assert!(SweepRequest::decode(b"XSLIPSW1rest").is_err());
        let bytes =
            SweepRequest { base: base(), checkpoint_every: None, axes: vec![] }.encode();
        for cut in (8..bytes.len()).step_by(9) {
            assert!(SweepRequest::decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn grid_expansion_is_a_deterministic_cartesian_product() {
        let req = SweepRequest {
            base: base(),
            checkpoint_every: None,
            axes: vec![
                ("wall-amplitude".into(), vec![0.1, 0.2]),
                ("wall-decay".into(), vec![1.0, 2.0, 3.0]),
            ],
        };
        let jobs = req.expand().expect("expand");
        assert_eq!(jobs.len(), 6);
        // Axis-major order: wall-amplitude varies slowest.
        assert_eq!(jobs[0].channel.wall.amplitude, 0.1);
        assert_eq!(jobs[0].channel.wall.decay, 1.0);
        assert_eq!(jobs[5].channel.wall.amplitude, 0.2);
        assert_eq!(jobs[5].channel.wall.decay, 3.0);
        // Distinct parameter points get distinct keys; re-expansion is
        // identical.
        let keys: Vec<String> = jobs.iter().map(|j| j.key()).collect();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 6);
        let again: Vec<String> =
            req.expand().unwrap().iter().map(|j| j.key()).collect();
        assert_eq!(keys, again);
    }

    #[test]
    fn duplicate_grid_points_share_keys() {
        let req = SweepRequest {
            base: base(),
            checkpoint_every: None,
            axes: vec![("wall-amplitude".into(), vec![0.1, 0.2, 0.1, 0.2])],
        };
        let keys: Vec<String> =
            req.expand().unwrap().iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0], keys[2]);
        assert_eq!(keys[1], keys[3]);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn unknown_axis_is_a_typed_error_listing_every_axis() {
        let req = SweepRequest {
            base: base(),
            checkpoint_every: None,
            axes: vec![("viscosity-of-dreams".into(), vec![1.0])],
        };
        let err = req.expand().unwrap_err();
        assert!(err.contains("unknown grid axis"));
        for (name, _) in GRID_AXES {
            assert!(err.contains(name), "error does not mention axis {name}: {err}");
            assert!(list_axes_text().contains(name));
        }
        let mut s = base();
        assert!(apply_axis(&mut s, "phases", 2.5).is_err());
        assert!(apply_axis(&mut s, "phases", 12.0).is_ok());
        assert_eq!(s.phases, 12);
    }

    #[test]
    fn slip_axes_build_wall_bcs_with_distinct_keys() {
        // slip-r alone: a uniform tunable-slip wall per grid point.
        let req = SweepRequest {
            base: base(),
            checkpoint_every: None,
            axes: vec![("slip-r".into(), vec![0.3, 0.5, 0.8, 1.0])],
        };
        let jobs = req.expand().expect("expand");
        assert_eq!(jobs[0].channel.wall_bc, WallBc::TunableSlip { r: 0.3 });
        assert_eq!(jobs[3].channel.wall_bc, WallBc::TunableSlip { r: 1.0 });
        let mut keys: Vec<String> = jobs.iter().map(|j| j.key()).collect();
        assert_ne!(keys[0], base().key(), "slip-r must change the cache key");
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4);

        // slip-r composed with the patch axes: striped patterned slip,
        // the swept r as the stripe material.
        let req = SweepRequest {
            base: base(),
            checkpoint_every: None,
            axes: vec![
                ("slip-r".into(), vec![0.2]),
                ("patch-period".into(), vec![2.0, 3.0]),
                ("patch-phase".into(), vec![0.0, 1.0]),
            ],
        };
        let jobs = req.expand().expect("expand");
        assert_eq!(jobs.len(), 4);
        assert_eq!(
            jobs[0].channel.wall_bc,
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 0 }
        );
        assert_eq!(
            jobs[3].channel.wall_bc,
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 3, phase: 1 }
        );
        let mut keys: Vec<String> = jobs.iter().map(|j| j.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4, "every patch point must dedupe separately");
    }

    #[test]
    fn slip_axes_validate_their_ranges() {
        let mut s = base();
        assert!(apply_axis(&mut s, "slip-r", 1.5).unwrap_err().contains("outside [0, 1]"));
        assert!(apply_axis(&mut s, "slip-r", -0.1).is_err());
        assert!(apply_axis(&mut s, "patch-period", 0.0).is_err());
        assert!(apply_axis(&mut s, "patch-period", 2.5).is_err());
        assert!(apply_axis(&mut s, "patch-phase", -1.0).is_err());
        assert!(apply_axis(&mut s, "patch-phase", 0.5).is_err());
        // A patterned wall built by the axes still passes channel
        // validation when the period tiles the extent (nx = 12).
        assert!(apply_axis(&mut s, "slip-r", 0.4).is_ok());
        assert!(apply_axis(&mut s, "patch-period", 2.0).is_ok());
        assert!(s.channel.validate().is_ok());
    }

    #[test]
    fn handle_refuses_every_kind_that_is_not_a_request() {
        let dir = std::env::temp_dir()
            .join(format!("microslip-serve-unit-handle-{}", std::process::id()));
        let store = CacheStore::open(dir.join("cache")).unwrap();
        let mut daemon = Daemon::new(&ServeConfig::new(&dir, "microslip"), store);
        for kind in FrameKind::ALL {
            use FrameKind::{Fetch, Shutdown, StatusQuery, SweepSubmit};
            if matches!(kind, SweepSubmit | StatusQuery | Fetch | Shutdown) {
                continue;
            }
            let reply = daemon.handle(Frame { kind, from: 0, tag: 0, payload: vec![] });
            assert_eq!(reply.kind, FrameKind::ServeError, "{kind:?}");
            assert!(!reply.shutdown, "{kind:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cadence_default_is_sparse() {
        // EXPERIMENTS.md: every-5 cadence was 3.4x slower than none on
        // the reference run — the default must never be that dense.
        assert_eq!(default_checkpoint_every(30), 10);
        assert_eq!(default_checkpoint_every(1200), 200);
        assert!(default_checkpoint_every(1) >= 10);
    }

    #[test]
    fn ticket_parser_reads_the_reply_shape() {
        let t = parse_ticket("sweep=3\njobs=4\nscheduled=2\ncached=2\ncadence=10\nkey=aa\nkey=bb\nkey=aa\nkey=bb\n")
            .expect("parse");
        assert_eq!(t.sweep, 3);
        assert_eq!(t.jobs, 4);
        assert_eq!(t.scheduled, 2);
        assert_eq!(t.cached, 2);
        assert_eq!(t.keys.len(), 4);
        assert!(parse_ticket("nonsense\n").is_err());
    }
}
