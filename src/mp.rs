//! Multi-process rank runtime: the worker protocol of
//! [`microslip_runtime`], with every rank in its own OS process talking
//! over localhost TCP through [`microslip_net`].
//!
//! The threaded runtime shares one address space; this module is the
//! closest reproduction of the paper's actual deployment — separate MPI
//! ranks on a cluster — that a single machine can host. The driver
//! ([`run_multiprocess`]) forks `ranks` copies of the `microslip` binary
//! running the `mp-worker` subcommand and gathers their results from a
//! shared run directory, which is also where the ranks meet:
//!
//! * `rank{r}.port` — the port of rank `r`'s data listener, published by
//!   the rank for the ranks above it to dial ([`microslip_net::join_mesh`]);
//! * `scenario.bin` — the run's [`Scenario`] in its canonical bytes,
//!   written by the driver and decoded by every child: the same file a
//!   `serve` job reads, so a rank's command line carries only what differs
//!   per process ([`MpWorkerArgs`]);
//! * `rank{r}.state` — each rank's end-of-run solver state
//!   ([`microslip_lbm::checkpoint`] format: a record per plane of `f` and
//!   ψ, 20 channels per component, ghost planes included),
//!   captured plane by plane straight off the file into the global
//!   [`Snapshot`] — the driver never rebuilds a rank's solver; its header
//!   is the rank's final slab;
//! * `rank{r}.jsonl` — the rank's structured trace, merged with
//!   [`microslip_obs::merge_rank_streams`]; written even when the rank
//!   fails, so a crashed run still leaves partial evidence behind. Its
//!   `migration` events are the rank's plane moves, which is where the
//!   driver counts each rank's planes sent and received;
//! * `rank{r}.error` — present only on failure, the typed
//!   [`WorkerError`] rendered for the driver;
//! * `rank{r}.stderr` — whatever the rank process printed to stderr
//!   (its own `error: rank N failed: …` line, a panic message), kept off
//!   the driver's terminal; respawns append.
//!
//! Determinism carries over: remapping moves planes, never changes
//! physics, so an `mp` run is bitwise identical to the threaded and
//! sequential runs of the same configuration. With
//! [`microslip_runtime::LoadModel::Synthetic`] the remap *decisions* are
//! a pure function of the configuration too, and the two substrates
//! produce identical decision audit trails (compare with
//! [`microslip_obs::remap_fingerprints`]).
//!
//! Recovery is one rule, the one `serve` applies to a job: when a rank
//! dies, the whole gang restarts from the newest checkpoint every rank
//! holds. A worker knows nothing of it — it runs from its `--resume-phase`
//! checkpoint (or a fresh slab) to the scenario's last phase, or fails.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use microslip_balance::policy::NeighborPolicy;
use microslip_balance::predict::HarmonicMean;
use microslip_comm::{CommError, NodeId, Tag, Transport};
use microslip_lbm::checkpoint::{self, read_solver, write_solver};
use microslip_lbm::geometry::{even_slabs, slabs_tile};
use microslip_lbm::macroscopic::{Snapshot, SnapshotSlab};
use microslip_lbm::{Slab, SlabSolver};
use microslip_net::{join_mesh, port_path, NetConfig};
use microslip_obs::{
    from_jsonl, merge_rank_streams, to_jsonl, Event, RecoveryStage, TraceSink,
    DEFAULT_CAPACITY,
};
use microslip_runtime::worker::{worker_main, WorkerError, WorkerReport};
use microslip_runtime::RuntimeConfig;

use crate::scenario::Scenario;
use crate::supervisor::{die_injected, Budget, Child, Exit, Verdict, MAX_RESPAWNS};

/// How long the driver lets the other ranks exit on their own once one
/// has died: each notices its dead peer within a phase and leaves its
/// typed error and partial trace behind. Whoever is still running after
/// it is killed.
const ABORT_GRACE: Duration = Duration::from_secs(30);

/// The driver's poll interval over its children.
const POLL: Duration = Duration::from_millis(15);

/// Deliberate mid-run death of one rank, for fault-injection tests:
/// `rank` exits hard (no goodbye frame, no flush) just before its `nth`
/// send or receive on `tag`, counting from 1 and including the priming
/// exchange, exactly like a killed cluster node. It strikes in the gang's
/// first attempt only; a restarted gang does not inherit it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpFault {
    pub rank: usize,
    pub tag: Tag,
    pub nth: u64,
}

impl fmt::Display for MpFault {
    /// The `--chaos` spelling, `kill:RANK@TAG:N`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kill:{}@{}:{}", self.rank, self.tag.name(), self.nth)
    }
}

/// A multi-process run: the [`Scenario`] (`workers` = ranks) plus how to
/// execute it here.
#[derive(Clone, Debug)]
pub struct MpConfig {
    /// What to run; every rank reads it back from `scenario.bin`.
    pub scenario: Scenario,
    /// Phases between periodic checkpoints in the run directory; 0
    /// disables them.
    pub checkpoint_every: u64,
    /// Resume every rank from its [`checkpoint::path`] file of this phase
    /// in the run directory and run on to the scenario's last phase,
    /// numbering phases (and checkpoints) from it.
    pub resume_phase: Option<u64>,
    /// Run directory; `None` = a fresh directory under the system temp
    /// dir.
    pub dir: Option<PathBuf>,
    /// Worker executable; `None` = this process's own binary.
    pub worker_exe: Option<PathBuf>,
    /// Optional fault injection (tests).
    pub fault: Option<MpFault>,
    /// Supervise the gang: when a rank dies without leaving a typed error
    /// file, restart every rank from the newest checkpoint they all hold.
    /// Off, a dead rank fails the run.
    pub recover: bool,
}

impl MpConfig {
    /// `scenario` with no checkpoints, no fault and no recovery.
    pub fn new(scenario: Scenario) -> Self {
        MpConfig {
            scenario,
            checkpoint_every: 0,
            resume_phase: None,
            dir: None,
            worker_exe: None,
            fault: None,
            recover: false,
        }
    }
}

/// Per-rank summary of a finished run: the final slab from the header of
/// `rank{r}.state`, the planes moved from the `migration` events of the
/// final attempt's `rank{r}.jsonl` files (a move is recorded once, by its
/// sender: sent by `from`, received by `to`). A rank's ring holds
/// [`DEFAULT_CAPACITY`] = 2^20 events and drops the oldest when full; a
/// 20 000-phase run at the paper's size records about 10^5 per rank.
#[derive(Clone, Debug, PartialEq)]
pub struct MpReport {
    pub rank: usize,
    pub final_slab: Slab,
    pub planes_sent: usize,
    pub planes_received: usize,
}

/// Result of a successful multi-process run.
#[derive(Clone, Debug)]
pub struct MpOutcome {
    /// The stitched global macroscopic state.
    pub snapshot: Snapshot,
    /// Per-rank reports, ordered by rank.
    pub reports: Vec<MpReport>,
    /// The merged trace: one meta (mode `"mp"`), then each rank's events
    /// in rank-major order — a restarted run keeps what every attempt
    /// flushed, oldest first — then the driver's recovery events.
    pub events: Vec<Event>,
    /// The run directory with all artifacts.
    pub dir: PathBuf,
}

impl MpOutcome {
    /// Final plane counts by rank.
    pub fn final_counts(&self) -> Vec<usize> {
        self.reports.iter().map(|r| r.final_slab.nx_local).collect()
    }

    /// Total planes migrated (sum of sends).
    pub fn planes_migrated(&self) -> usize {
        self.reports.iter().map(|r| r.planes_sent).sum()
    }
}

/// Why a multi-process run failed. Per-rank errors are the typed
/// [`WorkerError`]s the workers rendered into their `rank{r}.error`
/// files — partial traces for the failed ranks remain in [`Self::dir`].
#[derive(Clone, Debug)]
pub struct MpFailure {
    pub message: String,
    /// `(rank, error text)` for every rank that failed.
    pub rank_errors: Vec<(usize, String)>,
    /// The run directory (partial artifacts survive for post-mortems).
    pub dir: PathBuf,
}

impl fmt::Display for MpFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        for (rank, e) in &self.rank_errors {
            write!(f, "; rank {rank}: {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for MpFailure {}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_run_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "microslip-mp-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Forks one worker process per rank, supervises them, and stitches their
/// results. A rank's hard death, while the respawn budget lasts (it is
/// empty unless `recover` is on), restarts the whole gang on fresh ports
/// from the newest checkpoint every rank holds; the
/// recovery arc — `death-detected`, `rollback`, one `resumed` per rank,
/// `epoch` = the gang's attempt — joins the merged trace. On failure the
/// error carries every failed rank's typed error text; partial traces stay
/// in the run directory. However this returns, no rank process outlives
/// it.
pub fn run_multiprocess(cfg: &MpConfig) -> Result<MpOutcome, MpFailure> {
    let dir = cfg.dir.clone().unwrap_or_else(fresh_run_dir);
    let fail = |message: String| MpFailure {
        message,
        rank_errors: Vec::new(),
        dir: dir.clone(),
    };
    let ranks = cfg.scenario.workers;
    cfg.scenario.validate_ranks("rank").map_err(&fail)?;
    if let Some(phase) = cfg.resume_phase.filter(|&phase| phase > cfg.scenario.phases) {
        let phases = cfg.scenario.phases;
        return Err(fail(format!("resume phase {phase} is past the run's {phases} phases")));
    }

    fs::create_dir_all(&dir)
        .map_err(|e| fail(format!("create run dir {}: {e}", dir.display())))?;
    let scenario_path = dir.join("scenario.bin");
    fs::write(&scenario_path, cfg.scenario.canonical_bytes())
        .map_err(|e| fail(format!("write {}: {e}", scenario_path.display())))?;
    let exe = match &cfg.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| fail(format!("locate worker executable: {e}")))?,
    };

    let mut budget = Budget::new(if cfg.recover { MAX_RESPAWNS } else { 0 });
    let mut resume = cfg.resume_phase;
    // What earlier attempts' ranks flushed, and the driver's own events.
    let mut flushed: Vec<Vec<Event>> = vec![Vec::new(); ranks];
    let mut recovery = Vec::new();
    let mut attempt: u64 = 1;
    // The driver's clock starts with the first attempt, and each rank's own
    // clock just after its spawn: a later attempt's rank events move onto
    // the driver's clock by the time that attempt started.
    let t0 = Instant::now();
    let offset = loop {
        let offset = if attempt == 1 { 0.0 } else { t0.elapsed().as_secs_f64() };
        // Each attempt starts from a clean slate: whatever error files,
        // traces and port files lie in the directory afterwards are this
        // attempt's.
        for rank in 0..ranks {
            let _ = fs::remove_file(dir.join(format!("rank{rank}.error")));
            let _ = fs::remove_file(dir.join(format!("rank{rank}.jsonl")));
            let _ = fs::remove_file(port_path(&dir, rank));
        }
        let mut gang = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let args = MpWorkerArgs {
                rank,
                dir: dir.clone(),
                checkpoint_every: cfg.checkpoint_every,
                resume_phase: resume,
                die_on: cfg
                    .fault
                    .filter(|f| f.rank == rank && attempt == 1)
                    .map(|f| (f.tag, f.nth)),
            };
            let stderr = dir.join(format!("rank{rank}.stderr"));
            let child = Child::spawn(&exe, args.to_args(), &stderr)
                .map_err(|e| fail(format!("rank {rank}: {e}")))?;
            gang.push(child);
            if attempt > 1 {
                // What the respawned rank starts from, and its slab width.
                let (from, slab) = match resume {
                    Some(phase) => {
                        let path = checkpoint::path(&dir, rank, phase);
                        (path.display().to_string(), checkpoint::read_slab(&path).ok())
                    }
                    None => {
                        let slab = even_slabs(cfg.scenario.channel.dims.nx, ranks).get(rank).copied();
                        ("a fresh slab".to_string(), slab)
                    }
                };
                let detail = format!("respawned from {from}");
                let (phase, planes) = (resume.unwrap_or(0), slab.map_or(0, |s| s.nx_local));
                recovery.push(recovery_event(t0, rank, attempt, RecoveryStage::Resumed, phase, planes, detail));
            }
        }

        let (dead, status) = match supervise(&dir, gang, &mut budget) {
            Ok(()) => break offset,
            Err(Ended::Died { rank, status }) => (rank, status),
            Err(Ended::Failed(rank_errors)) => {
                return Err(MpFailure {
                    message: format!(
                        "{} of {ranks} ranks failed (partial traces in {})",
                        rank_errors.len(),
                        dir.display()
                    ),
                    rank_errors,
                    dir,
                })
            }
        };
        let detail = format!("rank {dead} exited with {status}; restarting the gang");
        recovery.push(recovery_event(t0, dead, attempt, RecoveryStage::DeathDetected, 0, 0, detail));
        keep_traces(&dir, &mut flushed, offset);
        let phase = rollback_phase(&dir, ranks);
        let detail = if phase == 0 {
            format!("no checkpoint every one of {ranks} ranks holds; restarting fresh")
        } else {
            format!("rolling back to phase {phase}, the newest checkpoint every rank holds")
        };
        attempt += 1;
        recovery.push(recovery_event(t0, dead, attempt, RecoveryStage::Rollback, phase, 0, detail));
        resume = (phase > 0).then_some(phase);
    };

    let outcome = gather(&cfg.scenario, &dir, flushed, offset, recovery).map_err(&fail)?;
    let Some(fault) = cfg.fault.filter(|_| attempt == 1) else { return Ok(outcome) };
    // No rank died, so the injected fault never struck and the run proves
    // nothing about recovery: name the rank's actual count on the tag.
    let tag = fault.tag.name();
    let count: u64 = outcome
        .events
        .iter()
        .map(|e| match e {
            Event::Traffic { node, tag: name, sent_messages, recv_messages, .. }
                if *node == fault.rank && name == tag =>
            {
                sent_messages + recv_messages
            }
            _ => 0,
        })
        .sum();
    Err(MpFailure {
        message: format!("injected fault {fault} never fired"),
        rank_errors: vec![(
            fault.rank,
            format!("made {count} sends and receives on {tag}, fewer than {}", fault.nth),
        )],
        dir,
    })
}

/// One stage of the recovery arc, timed on the driver's clock.
fn recovery_event(
    t0: Instant,
    node: usize,
    attempt: u64,
    stage: RecoveryStage,
    phase: u64,
    planes: usize,
    detail: String,
) -> Event {
    let time = t0.elapsed().as_secs_f64();
    Event::Recovery { time, node, epoch: attempt, stage, phase, planes, detail }
}

/// How an attempt of the gang ended, when not every rank finished clean.
enum Ended {
    /// A rank died hard and the budget granted a restart.
    Died { rank: usize, status: String },
    /// The run is lost: `(rank, error)` for every rank that failed.
    Failed(Vec<(usize, String)>),
}

/// The driver's gang policy over its children's exits, for one attempt.
/// Once a rank fails, the others get [`ABORT_GRACE`] to exit on their own
/// — they notice the dead peer within a phase, flushing their traces — and
/// whoever still runs then is killed as its handle drops. A rank that died
/// without leaving a typed `rank{r}.error` file is treated as crashed: the
/// first such death decides the attempt, since the typed errors of the
/// others follow from it, and restarts the gang while the budget lasts.
/// Anything else — typed errors only, a wait failure, an exhausted budget
/// — ends the run.
fn supervise(dir: &Path, mut gang: Vec<Child>, budget: &mut Budget) -> Result<(), Ended> {
    let error_file = |rank: usize| dir.join(format!("rank{rank}.error"));
    let mut exits: Vec<Option<Exit>> = vec![None; gang.len()];
    let mut deadline = None;
    loop {
        for (rank, (child, exit)) in gang.iter_mut().zip(&mut exits).enumerate() {
            if exit.is_none() {
                *exit = child.poll(Some(&error_file(rank)));
            }
        }
        if exits.iter().all(|exit| *exit == Some(Exit::Clean)) {
            return Ok(());
        }
        if exits.iter().flatten().any(|exit| *exit != Exit::Clean) {
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + ABORT_GRACE);
            if exits.iter().all(Option::is_some) || Instant::now() >= deadline {
                break;
            }
        }
        std::thread::sleep(POLL);
    }
    let mut rank_errors = Vec::new();
    let died = exits.iter_mut().enumerate().find(|(_, exit)| matches!(exit, Some(Exit::Died(_))));
    if let Some((rank, Some(exit))) = died.map(|(rank, exit)| (rank, exit.take())) {
        match budget.judge(exit) {
            Verdict::Respawn { status, .. } => return Err(Ended::Died { rank, status }),
            Verdict::Fatal(why) => rank_errors.push((rank, why)),
            Verdict::Done => {}
        }
    }
    for (rank, exit) in exits.into_iter().enumerate() {
        rank_errors.extend(exit.filter(|exit| *exit != Exit::Clean).map(|exit| (rank, exit.to_string())));
    }
    rank_errors.sort_by_key(|&(rank, _)| rank);
    Err(Ended::Failed(rank_errors))
}

/// Appends the traces the ranks of a failed attempt flushed to `flushed`,
/// rank by rank, moved `offset` seconds onto the driver's clock. A rank
/// that died hard flushed none; a trace that does not parse (a straggler
/// killed mid-write) is dropped.
fn keep_traces(dir: &Path, flushed: &mut [Vec<Event>], offset: f64) {
    for (rank, events) in flushed.iter_mut().enumerate() {
        let path = dir.join(format!("rank{rank}.jsonl"));
        let text = fs::read_to_string(&path).unwrap_or_default();
        events.extend(from_jsonl(&text).unwrap_or_default().into_iter().map(|mut e| {
            e.shift(offset);
            e
        }));
    }
}

/// The phase a restarted gang resumes from: the newest phase whose
/// checkpoint passes its CRC on every rank, or 0 (a fresh start) when
/// there is none. The driver sees every rank's files, since all ranks
/// share the run directory.
fn rollback_phase(dir: &Path, ranks: usize) -> u64 {
    (0..ranks)
        .map(|rank| checkpoint::valid_phases(dir, rank))
        .reduce(|common, theirs| common.into_iter().filter(|p| theirs.contains(p)).collect())
        .and_then(|common| common.into_iter().max())
        .unwrap_or(0)
}

/// Captures every rank's final state into the global snapshot and returns
/// it with the ranks' final slabs. The headers say where each rank's slab
/// lies, so the snapshot is split at the slab boundaries first; then each
/// state file streams through
/// [`checkpoint::capture_file`], which holds one plane of state at a time
/// and writes the slab's planes of the snapshot directly, on scoped threads
/// — as many files in flight as the host has CPUs, each costing the driver
/// a few planes of memory, never a slab.
fn gather_snapshot(run: &Scenario, dir: &Path) -> Result<(Snapshot, Vec<Slab>), String> {
    let dims = run.channel.dims;
    let path = |rank: usize| dir.join(format!("rank{rank}.state"));
    let slabs = (0..run.workers)
        .map(|rank| checkpoint::read_slab(&path(rank)).map_err(|e| format!("{}: {e}", path(rank).display())))
        .collect::<Result<Vec<Slab>, String>>()?;
    if !slabs_tile(slabs.iter().copied(), dims.nx) {
        return Err(format!("the rank state files in {} do not tile the channel", dir.display()));
    }
    let mut global = Snapshot::zeros(0, dims.nx, dims.ny, dims.nz, run.channel.ncomp());
    let capture = |rank: usize, planes: SnapshotSlab<'_>| -> Result<(), String> {
        checkpoint::capture_file(&run.channel, &path(rank), planes)
            .map(drop)
            .map_err(|e| format!("{}: {e}", path(rank).display()))
    };
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()).min(run.workers);
    let mut work: Vec<Vec<(usize, SnapshotSlab<'_>)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (rank, planes) in global.split_slabs(&slabs).into_iter().enumerate() {
        if let Some(lane) = work.get_mut(rank % lanes) {
            lane.push((rank, planes));
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|ranks| scope.spawn(move || ranks.into_iter().try_for_each(|(rank, planes)| capture(rank, planes))))
            .collect();
        let joined = |lane: std::thread::ScopedJoinHandle<'_, Result<(), String>>| {
            lane.join().unwrap_or_else(|_| Err("a gather lane panicked".into()))
        };
        handles.into_iter().try_for_each(joined)
    })?;
    Ok((global, slabs))
}

/// Reads every rank's artifacts and assembles the outcome: each rank's
/// final trace, moved `offset` seconds onto the driver's clock, follows
/// what its earlier attempts `flushed`, and the driver's `recovery` events
/// close the merged stream.
fn gather(
    run: &Scenario,
    dir: &Path,
    flushed: Vec<Vec<Event>>,
    offset: f64,
    recovery: Vec<Event>,
) -> Result<MpOutcome, String> {
    let (snapshot, slabs) = gather_snapshot(run, dir)?;
    let mut reports: Vec<MpReport> = slabs
        .into_iter()
        .enumerate()
        .map(|(rank, final_slab)| MpReport { rank, final_slab, planes_sent: 0, planes_received: 0 })
        .collect();
    let mut streams = Vec::with_capacity(run.workers + 1);
    for (rank, mut events) in flushed.into_iter().enumerate() {
        let trace_path = dir.join(format!("rank{rank}.jsonl"));
        let jsonl = fs::read_to_string(&trace_path)
            .map_err(|e| format!("read {}: {e}", trace_path.display()))?;
        let last = from_jsonl(&jsonl).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        for e in &last {
            if let Event::Migration { from, to, planes, .. } = *e {
                let ranks = run.workers;
                let stray = || format!("{}: a migration {from} -> {to} among {ranks} ranks", trace_path.display());
                reports.get_mut(from).ok_or_else(stray)?.planes_sent += planes;
                reports.get_mut(to).ok_or_else(stray)?.planes_received += planes;
            }
        }
        events.extend(last.into_iter().map(|mut e| {
            e.shift(offset);
            e
        }));
        streams.push(events);
    }
    streams.push(recovery);
    Ok(MpOutcome {
        snapshot,
        reports,
        events: merge_rank_streams(streams),
        dir: dir.to_path_buf(),
    })
}

// ---------------------------------------------------------------------------
// Worker side (the `mp-worker` subcommand)
// ---------------------------------------------------------------------------

/// What differs per process in one `mp-worker` invocation; what to run
/// is the `scenario.bin` in [`Self::dir`].
#[derive(Clone, Debug)]
pub struct MpWorkerArgs {
    pub rank: usize,
    pub dir: PathBuf,
    pub checkpoint_every: u64,
    /// Start from this rank's checkpoint of the phase instead of a fresh
    /// slab, and run on to the scenario's last phase.
    pub resume_phase: Option<u64>,
    /// Fault injection: exit hard just before the n-th send or receive
    /// on the tag (see [`MpFault`]).
    pub die_on: Option<(Tag, u64)>,
}

impl MpWorkerArgs {
    /// The `mp-worker` command line the CLI parses back into `self`.
    fn to_args(&self) -> Vec<String> {
        let valued = [
            ("rank", Some(self.rank.to_string())),
            ("dir", Some(self.dir.display().to_string())),
            ("checkpoint-every", Some(self.checkpoint_every.to_string())),
            ("resume-phase", self.resume_phase.map(|phase| phase.to_string())),
            ("die-on", self.die_on.map(|(tag, nth)| format!("{}:{nth}", tag.name()))),
        ];
        let mut args = vec!["mp-worker".to_string()];
        for (name, value) in valued {
            args.extend(value.into_iter().flat_map(|value| [format!("--{name}"), value]));
        }
        args
    }
}

/// A [`Transport`] wrapper that kills the process just before the `nth`
/// send or receive on `tag` — [`die_injected`] runs no destructors, so no
/// goodbye frame is sent and peers see a raw EOF, exactly like a node
/// crash.
struct FaultTransport<T: Transport> {
    inner: T,
    tag: Tag,
    nth: u64,
    /// Operations on `tag` so far, both directions.
    seen: u64,
    /// How the strike dies: [`die_injected`], or a panic under test.
    die: fn(&str) -> !,
}

impl<T: Transport> FaultTransport<T> {
    fn new(inner: T, tag: Tag, nth: u64) -> Self {
        FaultTransport { inner, tag, nth, seen: 0, die: die_injected }
    }

    /// Counts one operation on `tag`; the `nth` on the fault's tag dies
    /// before it starts.
    fn count(&mut self, tag: Tag, op: &str) {
        if tag == self.tag {
            self.seen += 1;
            if self.seen == self.nth {
                let rank = self.inner.rank();
                (self.die)(&format!("rank {rank} dies before {op} {} on {}", self.nth, tag.name()));
            }
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn rank(&self) -> NodeId {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError> {
        self.count(tag, "send");
        self.inner.send(to, tag, payload)
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        self.count(tag, "receive");
        self.inner.recv(from, tag)
    }
}

/// One rank's run: join the mesh, start from the `--resume-phase`
/// checkpoint (`run` numbers phases from it) or a fresh even slab, and
/// run the standard worker protocol to the scenario's last phase, its
/// spans stamped from `epoch`.
fn run_rank(
    a: &MpWorkerArgs,
    run: &RuntimeConfig,
    policy: &dyn NeighborPolicy,
    epoch: Instant,
) -> Result<(WorkerReport, SlabSolver), WorkerError> {
    let transport = join_mesh(&a.dir, a.rank, run.workers, &NetConfig::default()).map_err(WorkerError::Comm)?;
    let solver = match a.resume_phase {
        None => {
            let slabs = even_slabs(run.channel.dims.nx, run.workers);
            let slab = slabs.get(a.rank).copied().ok_or_else(|| {
                WorkerError::Io(format!("rank {} of {} has no slab", a.rank, run.workers))
            })?;
            SlabSolver::new(&run.channel, slab)
        }
        Some(phase) => {
            let path = checkpoint::path(&a.dir, a.rank, phase);
            read_solver(&run.channel, &path)
                .map_err(|e| WorkerError::Io(format!("{}: {e}", path.display())))?
                .0
        }
    };
    let predictor = HarmonicMean { window: run.predictor_window.max(1) };
    let throttle = run.throttle_for(a.rank);
    match a.die_on {
        Some((tag, nth)) => {
            let transport = FaultTransport::new(transport, tag, nth);
            worker_main(run, policy, &predictor, transport, solver, throttle, epoch)
        }
        None => worker_main(run, policy, &predictor, transport, solver, throttle, epoch),
    }
}

/// Entry point of the `mp-worker` subcommand: reads the run's
/// `scenario.bin`, joins the TCP mesh in the run directory, runs the
/// standard worker protocol, and leaves its two results in the run
/// directory: `rank{r}.jsonl`, its trace, and `rank{r}.state`, its final
/// state. On failure the trace is still flushed and `rank{r}.error`
/// carries the typed error.
pub fn run_worker(a: &MpWorkerArgs) -> Result<(), String> {
    let rank = a.rank;
    let scenario = Scenario::read_file(&a.dir.join("scenario.bin"))?;
    if rank >= scenario.workers {
        return Err(format!("rank {rank} out of range for {} ranks", scenario.workers));
    }

    let (sink, recorder) = TraceSink::recorder(DEFAULT_CAPACITY);
    sink.record(Event::Meta {
        mode: "mp".into(),
        nodes: scenario.workers,
        phases: scenario.phases,
        policy: scenario.scheme.name().into(),
    });
    let mut runtime = scenario.trace(sink).runtime()?;
    let cfg = runtime.config_mut();
    cfg.start_phase = a.resume_phase.unwrap_or(0);
    cfg.checkpoint_every = a.checkpoint_every;
    cfg.checkpoint_dir = Some(a.dir.clone());
    let policy = runtime.policy();
    let result = run_rank(a, runtime.config(), policy.as_ref(), Instant::now());

    // The trace lands on disk no matter what: a failed rank must leave
    // its partial evidence (spans, traffic totals) behind.
    let trace_path = a.dir.join(format!("rank{rank}.jsonl"));
    fs::write(&trace_path, to_jsonl(&recorder.events()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    match result {
        Ok((_, solver)) => {
            let state_path = a.dir.join(format!("rank{rank}.state"));
            write_solver(&state_path, &solver, runtime.config().phases)
                .map_err(|e| format!("write {}: {e}", state_path.display()))
        }
        Err(e) => {
            let err_path = a.dir.join(format!("rank{rank}.error"));
            let _ = fs::write(&err_path, format!("{e}\n"));
            Err(format!("rank {rank} failed: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microslip_cluster::Scheme;

    #[test]
    fn driver_validates_before_spawning_anything() {
        let run = |s: Scenario| run_multiprocess(&MpConfig::new(s.phases(2)));
        assert!(run(Scenario::paper_scaled(8, 6, 4).workers(0)).is_err());
        assert!(run(Scenario::paper_scaled(8, 6, 4).workers(16)).is_err());
        let global = Scenario::paper_scaled(8, 6, 4).workers(2).scheme(Scheme::Global);
        let err = run(global).unwrap_err();
        assert!(err.to_string().contains("global"), "{err}");
        let mut past = MpConfig::new(Scenario::paper_scaled(8, 6, 4).workers(2).phases(4));
        past.resume_phase = Some(5);
        let err = run_multiprocess(&past).unwrap_err();
        assert!(err.to_string().contains("resume phase 5 is past the run's 4 phases"), "{err}");
    }

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "microslip-mp-unit-{label}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn worker_command_line_carries_only_per_process_flags() {
        let mut a = MpWorkerArgs {
            rank: 2,
            dir: "/tmp/run".into(),
            checkpoint_every: 3,
            resume_phase: None,
            die_on: None,
        };
        let plain = "mp-worker --rank 2 --dir /tmp/run --checkpoint-every 3";
        assert_eq!(a.to_args().join(" "), plain);
        a.resume_phase = Some(6);
        a.die_on = Some((Tag::LOAD, 8));
        assert_eq!(a.to_args().join(" "), format!("{plain} --resume-phase 6 --die-on load:8"));
    }

    #[test]
    fn rollback_phase_is_the_newest_every_rank_holds_intact() {
        let dir = scratch("rollback");
        let seal = |rank: usize, phase: u64| {
            checkpoint::write_sealed(&checkpoint::path(&dir, rank, phase), vec![7; 64]).unwrap()
        };
        for phase in [3, 6, 9] {
            seal(0, phase);
        }
        for phase in [3, 6] {
            seal(1, phase);
        }
        assert_eq!(rollback_phase(&dir, 2), 6, "rank 1 holds nothing newer than 6");

        // A torn newest file on one rank falls back to the previous phase.
        let torn = checkpoint::path(&dir, 1, 6);
        let bytes = fs::read(&torn).unwrap();
        fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(rollback_phase(&dir, 2), 3);

        // A rank with no checkpoint at all leaves no common phase.
        assert_eq!(rollback_phase(&dir, 3), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rank 0 and rank 1 of a two-rank channel mesh.
    fn two_ranks() -> (microslip_comm::ChannelTransport, microslip_comm::ChannelTransport) {
        let mut mesh = microslip_comm::mesh(2);
        let rank1 = mesh.pop().unwrap();
        (mesh.pop().unwrap(), rank1)
    }

    #[test]
    fn fault_transport_passes_through_below_the_trigger() {
        // The fault only fires at the configured count on its tag, so an
        // early exchange is untouched.
        let (a, b) = two_ranks();
        let mut a = FaultTransport::new(a, Tag::F_HALO, 1000);
        let mut b = FaultTransport::new(b, Tag::F_HALO, 1000);
        a.send(1, Tag::F_HALO, vec![1.0, 2.0]).unwrap();
        assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![1.0, 2.0]);
        assert_eq!((a.seen, b.seen), (1, 1));
        assert_eq!(a.rank(), 0);
        assert_eq!(b.size(), 2);
    }

    fn die_by_panic(what: &str) -> ! {
        panic!("{what}")
    }

    #[test]
    fn fault_transport_strikes_just_before_the_nth_operation_on_its_tag() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Rank 0 dies before its 4th operation on f_halo: two sends and a
        // receive go through, ψ traffic in between is not counted, and the
        // 4th — a send here, a receive below — never reaches the wire.
        for fourth_is_send in [true, false] {
            let (a, mut b) = two_ranks();
            let mut a = FaultTransport::new(a, Tag::F_HALO, 4);
            a.die = die_by_panic;
            a.send(1, Tag::F_HALO, vec![1.0]).unwrap();
            a.send(1, Tag::PSI_HALO, vec![2.0]).unwrap();
            a.send(1, Tag::F_HALO, vec![3.0]).unwrap();
            b.send(0, Tag::F_HALO, vec![4.0]).unwrap();
            b.send(0, Tag::F_HALO, vec![5.0]).unwrap();
            assert_eq!(a.recv(1, Tag::F_HALO).unwrap(), vec![4.0]);
            assert_eq!(a.seen, 3);
            let strike = catch_unwind(AssertUnwindSafe(|| {
                if fourth_is_send {
                    a.send(1, Tag::F_HALO, vec![6.0]).map(drop)
                } else {
                    a.recv(1, Tag::F_HALO).map(drop)
                }
            }));
            let why = strike.expect_err("the 4th operation must strike");
            let why = why.downcast_ref::<String>().unwrap();
            let op = if fourth_is_send { "send" } else { "receive" };
            assert_eq!(*why, format!("rank 0 dies before {op} 4 on f_halo"));
            drop(a);
            assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![1.0]);
            assert_eq!(b.recv(0, Tag::PSI_HALO).unwrap(), vec![2.0]);
            assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![3.0]);
            assert_eq!(b.recv(0, Tag::F_HALO), Err(CommError::Disconnected { peer: 0 }));
        }
    }
}
