//! Multi-process rank runtime: the worker protocol of
//! [`microslip_runtime`], with every rank in its own OS process talking
//! over localhost TCP through [`microslip_net`].
//!
//! The threaded runtime shares one address space; this module is the
//! closest reproduction of the paper's actual deployment — separate MPI
//! ranks on a cluster — that a single machine can host. The driver
//! ([`run_multiprocess`]) forks `ranks` copies of the `microslip` binary
//! running the `mp-worker` subcommand, hands them a rendezvous address,
//! and gathers their results from a shared run directory:
//!
//! * `scenario.bin` — the run's [`Scenario`] in its canonical bytes,
//!   written by the driver and decoded by every child: the same file a
//!   `serve` job reads, so a rank's command line carries only what differs
//!   per process ([`MpWorkerArgs`]);
//! * `rank{r}.state` — each rank's end-of-run solver state
//!   ([`microslip_lbm::checkpoint`] format: a record per plane of `f` and
//!   ψ, 20 channels per component, ghost planes included),
//!   captured plane by plane straight off the file into the global
//!   [`Snapshot`] — the driver never rebuilds a rank's solver;
//! * `rank{r}.report` — a small key/value summary (slab, migration
//!   counts);
//! * `rank{r}.jsonl` — the rank's structured trace, merged with
//!   [`microslip_obs::merge_rank_streams`]; written even when the rank
//!   fails, so a crashed run still leaves partial evidence behind;
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

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use microslip_balance::policy::NeighborPolicy;
use microslip_balance::predict::HarmonicMean;
use microslip_balance::recovery::RecoveryPlan;
use microslip_balance::Partition;
use microslip_comm::{CommError, NodeId, Tag, Transport};
use microslip_lbm::checkpoint::{self, read_solver, write_solver};
use microslip_lbm::geometry::{even_slabs, slabs_tile};
use microslip_lbm::macroscopic::{Snapshot, SnapshotSlab};
use microslip_lbm::{Slab, SlabSolver};
use microslip_net::{connect_epoch, reserve_port, NetConfig};
use microslip_obs::{
    from_jsonl, merge_rank_streams, to_jsonl, Event, RecoveryStage, TraceSink,
    DEFAULT_CAPACITY,
};
use microslip_runtime::worker::{
    worker_main_with_solver, WorkerConfig, WorkerError, WorkerReport,
};
use microslip_runtime::RuntimeConfig;

use crate::scenario::Scenario;
use crate::supervisor::{die_injected, Budget, Child, Exit, Verdict};

/// How many times the driver respawns dead ranks before the run is
/// declared lost.
const MAX_RESPAWNS: usize = 3;

/// How long a supervised survivor waits for the driver to publish the
/// next epoch before giving up — the bound keeps an orphaned survivor
/// (driver died too) from hanging forever.
const EPOCH_WAIT: Duration = Duration::from_secs(30);

/// How long an aborting driver lets unsupervised survivors exit on their
/// own: each notices its dead peer within a phase and leaves its typed
/// error and partial trace behind.
const ABORT_GRACE: Duration = Duration::from_secs(30);

/// The driver's poll interval over its children.
const POLL: Duration = Duration::from_millis(15);

/// Deliberate mid-run death of one rank, for fault-injection tests:
/// `rank` exits hard (no goodbye frame, no flush) just before its `nth`
/// send or receive on `tag`, counting from 1 and including the priming
/// exchange, exactly like a killed cluster node. It strikes in the rank's
/// first attempt only; a replacement does not inherit it.
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
    /// in the run directory and run `phases` *more* phases.
    pub resume_phase: Option<u64>,
    /// Run directory; `None` = a fresh directory under the system temp
    /// dir.
    pub dir: Option<PathBuf>,
    /// Worker executable; `None` = this process's own binary.
    pub worker_exe: Option<PathBuf>,
    /// Optional fault injection (tests).
    pub fault: Option<MpFault>,
    /// Supervise the children: when a rank dies without leaving a typed
    /// error file, bump the membership epoch, respawn it with `--rejoin`,
    /// and let the survivors re-mesh and roll back to the last common
    /// checkpoint. Off, a dead rank fails the run.
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

/// Per-rank summary parsed back from `rank{r}.report`.
#[derive(Clone, Debug, PartialEq)]
pub struct MpReport {
    pub rank: usize,
    /// The membership epoch the rank finished in (1 = no recovery).
    pub epoch: u64,
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
    /// in rank-major order.
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
/// results. On failure the error carries every failed rank's typed error
/// text; partial traces stay in the run directory. However this returns,
/// no rank process outlives it.
pub fn run_multiprocess(cfg: &MpConfig) -> Result<MpOutcome, MpFailure> {
    let dir = cfg.dir.clone().unwrap_or_else(fresh_run_dir);
    let fail = |message: String| MpFailure {
        message,
        rank_errors: Vec::new(),
        dir: dir.clone(),
    };
    let ranks = cfg.scenario.workers;
    cfg.scenario.validate_ranks("rank").map_err(&fail)?;

    fs::create_dir_all(&dir)
        .map_err(|e| fail(format!("create run dir {}: {e}", dir.display())))?;
    let scenario_path = dir.join("scenario.bin");
    fs::write(&scenario_path, cfg.scenario.canonical_bytes())
        .map_err(|e| fail(format!("write {}: {e}", scenario_path.display())))?;

    let port =
        reserve_port().map_err(|e| fail(format!("reserve rendezvous port: {e}")))?;
    let exe = match &cfg.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| fail(format!("locate worker executable: {e}")))?,
    };

    // Shared by the initial spawn (epoch 1) and every rejoin: a rejoining
    // rank gets its epoch's rendezvous and no fault — a replacement must
    // not re-inherit its predecessor's death sentence.
    let spawn_rank = |rank: usize, rendezvous: &str, epoch: u64| {
        let rejoin = epoch > 1;
        let args = MpWorkerArgs {
            rank,
            rendezvous: rendezvous.to_string(),
            dir: dir.clone(),
            checkpoint_every: cfg.checkpoint_every,
            resume_phase: cfg.resume_phase,
            die_on: cfg.fault.filter(|f| f.rank == rank && !rejoin).map(|f| (f.tag, f.nth)),
            supervised: cfg.recover,
            epoch,
            rejoin,
        };
        Child::spawn(&exe, args.to_args(), &dir.join(format!("rank{rank}.stderr")))
            .map_err(|e| format!("rank {rank}: {e}"))
    };

    // A membership change: publish the next epoch — a fresh rendezvous
    // port and the nominal recovery plan for `dead` — and return where it
    // meshes. Survivors poll the epoch file, drop their dead mesh, and
    // rendezvous again at the new address.
    let publish = |dead: usize, epoch: u64| {
        let port = reserve_port().map_err(|e| format!("reserve rejoin port: {e}"))?;
        // The audit plan: where the dead rank's planes would land had the
        // survivors absorbed them (see [`EpochInfo::plan`]).
        let dims = cfg.scenario.channel.dims;
        let nominal = even_slabs(dims.nx, ranks).iter().map(|s| s.nx_local).collect();
        let plan = RecoveryPlan::for_death(&Partition::new(nominal, dims.ny * dims.nz), dead);
        let rendezvous = format!("127.0.0.1:{port}");
        let info = EpochInfo { epoch, rendezvous, dead, plan: plan.summary() };
        write_epoch_file(&dir, &info)?;
        Ok(info.rendezvous)
    };

    let rendezvous = format!("127.0.0.1:{port}");
    let mut live = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        live.push(Some(spawn_rank(rank, &rendezvous, 1).map_err(&fail)?));
    }

    let epoch = supervise(cfg.recover, &dir, live, rendezvous, &publish, &spawn_rank).map_err(
        |rank_errors| MpFailure {
            message: format!(
                "{} of {ranks} ranks failed (partial traces in {})",
                rank_errors.len(),
                dir.display()
            ),
            rank_errors,
            dir: dir.clone(),
        },
    )?;

    let outcome = gather(&cfg.scenario, &dir).map_err(&fail)?;
    let Some(fault) = cfg.fault.filter(|_| epoch == 1) else { return Ok(outcome) };
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

/// The driver's gang policy over its children's exits. A rank that dies
/// without leaving a typed `rank{r}.error` file is treated as crashed:
/// while the respawn budget lasts (it is empty unless `recover` is on) the
/// membership epoch is bumped and a replacement spawned with `--rejoin`.
/// A typed error, a wait failure or an exhausted budget aborts the run:
/// the rest are reaped and whoever still runs is killed, so the caller
/// gets a prompt, complete failure report. Returns the final epoch, or
/// the failed ranks.
fn supervise(
    recover: bool,
    dir: &Path,
    mut live: Vec<Option<Child>>,
    mut rendezvous: String,
    publish: &dyn Fn(usize, u64) -> Result<String, String>,
    spawn: &dyn Fn(usize, &str, u64) -> Result<Child, String>,
) -> Result<u64, Vec<(usize, String)>> {
    let error_file = |rank: usize| dir.join(format!("rank{rank}.error"));
    let mut budget = Budget::new(if recover { MAX_RESPAWNS } else { 0 });
    let mut epoch: u64 = 1;
    // The epoch each rank last exited clean in; 0 until it has.
    let mut finished = vec![0u64; live.len()];
    let first_failure = 'poll: loop {
        for (rank, slot) in live.iter_mut().enumerate() {
            let Some(child) = slot.as_mut() else { continue };
            let Some(exit) = child.poll(Some(&error_file(rank))) else { continue };
            *slot = None;
            match budget.judge(exit) {
                Verdict::Done => finished[rank] = report_epoch(dir, rank).unwrap_or(epoch),
                Verdict::Fatal(why) => break 'poll Some((rank, why)),
                Verdict::Respawn { .. } => {
                    epoch += 1;
                    match publish(rank, epoch) {
                        Ok(next) => rendezvous = next,
                        Err(why) => break 'poll Some((rank, why)),
                    }
                }
            }
        }
        // Whoever is not in the current epoch joins it: the dead rank's
        // replacement, and every rank that exited clean in an earlier
        // epoch — the rollback needs all ranks, and finishing is not a
        // death, so the budget does not pay for it.
        for (rank, slot) in live.iter_mut().enumerate() {
            if slot.is_none() && finished[rank] < epoch {
                match spawn(rank, &rendezvous, epoch) {
                    Ok(child) => *slot = Some(child),
                    Err(why) => break 'poll Some((rank, why)),
                }
            }
        }
        if live.iter().all(Option::is_none) {
            break None;
        }
        std::thread::sleep(POLL);
    };
    let Some(first_failure) = first_failure else { return Ok(epoch) };

    // Abort. A supervised survivor is waiting for an epoch that will not
    // come, so there is nothing to wait for; an unsupervised one exits on
    // its own once it notices the dead peer.
    let deadline = Instant::now() + if recover { Duration::ZERO } else { ABORT_GRACE };
    while Instant::now() < deadline
        && live.iter_mut().flatten().any(|child| child.poll(None).is_none())
    {
        std::thread::sleep(POLL);
    }
    // Every exit of a rank's own is part of the report; whoever still runs
    // is killed as its handle drops.
    let mut rank_errors = vec![first_failure];
    for (rank, slot) in live.iter_mut().enumerate() {
        let exit = slot.as_mut().and_then(|child| child.poll(Some(&error_file(rank))));
        rank_errors.extend(exit.filter(|exit| *exit != Exit::Clean).map(|exit| (rank, exit.to_string())));
    }
    rank_errors.sort_by_key(|&(rank, _)| rank);
    Err(rank_errors)
}

/// The epoch a rank that exited clean finished in, from its report.
fn report_epoch(dir: &Path, rank: usize) -> Option<u64> {
    let text = fs::read_to_string(dir.join(format!("rank{rank}.report"))).ok()?;
    parse_report(rank, &text).ok().map(|report| report.epoch)
}

/// Captures every rank's final state into the global snapshot. The headers
/// say where each rank's slab lies, so the snapshot is split at the slab
/// boundaries first; then each state file streams through
/// [`checkpoint::capture_file`], which holds one plane of state at a time
/// and writes the slab's planes of the snapshot directly, on scoped threads
/// — as many files in flight as the host has CPUs, each costing the driver
/// a few planes of memory, never a slab.
fn gather_snapshot(run: &Scenario, dir: &Path) -> Result<Snapshot, String> {
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
        work[rank % lanes].push((rank, planes));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|ranks| scope.spawn(move || ranks.into_iter().try_for_each(|(rank, planes)| capture(rank, planes))))
            .collect();
        handles.into_iter().try_for_each(|lane| lane.join().expect("a gather lane panicked"))
    })?;
    Ok(global)
}

/// Reads every rank's artifacts and assembles the outcome.
fn gather(run: &Scenario, dir: &Path) -> Result<MpOutcome, String> {
    let snapshot = gather_snapshot(run, dir)?;
    let mut reports = Vec::with_capacity(run.workers);
    let mut streams = Vec::with_capacity(run.workers);
    for rank in 0..run.workers {
        let report_path = dir.join(format!("rank{rank}.report"));
        let text = fs::read_to_string(&report_path)
            .map_err(|e| format!("read {}: {e}", report_path.display()))?;
        reports.push(parse_report(rank, &text)?);

        let trace_path = dir.join(format!("rank{rank}.jsonl"));
        let jsonl = fs::read_to_string(&trace_path)
            .map_err(|e| format!("read {}: {e}", trace_path.display()))?;
        streams
            .push(from_jsonl(&jsonl).map_err(|e| format!("{}: {e}", trace_path.display()))?);
    }
    Ok(MpOutcome {
        snapshot,
        reports,
        events: merge_rank_streams(streams),
        dir: dir.to_path_buf(),
    })
}

fn parse_report(rank: usize, text: &str) -> Result<MpReport, String> {
    let get = |key: &str| -> Result<usize, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|v| v.trim().parse().ok()))
            .ok_or_else(|| format!("rank{rank}.report: missing or invalid '{key}'"))
    };
    let reported = get("rank ")?;
    if reported != rank {
        return Err(format!("rank{rank}.report claims rank {reported}"));
    }
    Ok(MpReport {
        rank,
        epoch: get("epoch ")? as u64,
        final_slab: Slab { x0: get("x0 ")?, nx_local: get("nx_local ")? },
        planes_sent: get("planes_sent ")?,
        planes_received: get("planes_received ")?,
    })
}

// ---------------------------------------------------------------------------
// Membership epochs and recovery support
// ---------------------------------------------------------------------------

/// Contents of the run directory's `epoch` file — the driver's one-way
/// channel to the workers. Published atomically (temp file + rename)
/// whenever the membership changes; survivors poll it after losing a
/// peer to learn where (and as which epoch) to re-mesh.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochInfo {
    /// Membership epoch (1 = initial mesh; each respawn bumps it).
    pub epoch: u64,
    /// Rendezvous address of this epoch's mesh (fresh port per epoch).
    pub rendezvous: String,
    /// The rank whose death triggered the epoch.
    pub dead: usize,
    /// [`RecoveryPlan::summary`] of where the dead rank's planes would
    /// re-home on the survivors — the audit record of the alternative the
    /// runtime deliberately rejects in favor of checkpoint rollback
    /// (rollback is the only scheme that keeps the run bitwise identical).
    pub plan: String,
}

/// Atomically publishes `info` as `dir/epoch`.
pub fn write_epoch_file(dir: &Path, info: &EpochInfo) -> Result<(), String> {
    let text = format!(
        "epoch {}\nrendezvous {}\ndead {}\nplan {}\n",
        info.epoch, info.rendezvous, info.dead, info.plan
    );
    let path = dir.join("epoch");
    microslip_codec::publish(&path, |file| file.write_all(text.as_bytes()))
        .map_err(|e| format!("publish {}: {e}", path.display()))
}

/// Reads `dir/epoch`; `None` when absent or unparseable (a torn write is
/// impossible by construction, but a missing file is the normal state of
/// an undisturbed run).
pub fn read_epoch_file(dir: &Path) -> Option<EpochInfo> {
    let text = fs::read_to_string(dir.join("epoch")).ok()?;
    let get = |key: &str| {
        text.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim().to_string())
    };
    Some(EpochInfo {
        epoch: get("epoch ")?.parse().ok()?,
        rendezvous: get("rendezvous ")?,
        dead: get("dead ")?.parse().ok()?,
        plan: get("plan ")?,
    })
}

/// Post-re-mesh collective: agree on the rollback phase. Every rank
/// reports the checkpoint phases it can restore; rank 0 intersects them
/// and broadcasts the newest common one (0 = none in common, restart
/// fresh). Runs over [`Tag::COLLECTIVE`] — the one place this runtime
/// pays for a collective, because recovery is off the steady-state path.
fn recovery_sync<T: Transport>(t: &mut T, mine: &[u64]) -> Result<u64, CommError> {
    use std::collections::BTreeSet;
    let n = t.size();
    if t.rank() == 0 {
        let mut common: BTreeSet<u64> = mine.iter().copied().collect();
        for from in 1..n {
            let theirs = t.recv(from, Tag::COLLECTIVE)?;
            let theirs = theirs
                .iter()
                .map(|&p| decode_phase(from, p))
                .collect::<Result<BTreeSet<u64>, _>>()?;
            common = common.intersection(&theirs).copied().collect();
        }
        let agreed = common.iter().next_back().copied().unwrap_or(0);
        for to in 1..n {
            t.send(to, Tag::COLLECTIVE, vec![agreed as f64])?;
        }
        Ok(agreed)
    } else {
        t.send(0, Tag::COLLECTIVE, mine.iter().map(|&p| p as f64).collect())?;
        let reply = t.recv(0, Tag::COLLECTIVE)?;
        let &[agreed] = reply.as_slice() else {
            return Err(CommError::Protocol {
                peer: 0,
                detail: format!("recovery broadcast of {} values, expected 1", reply.len()),
            });
        };
        decode_phase(0, agreed)
    }
}

/// A checkpoint phase in a recovery message from `peer`: an integer in
/// [0, 2^53), never a NaN, a negative or a fraction truncated into one.
fn decode_phase(peer: usize, phase: f64) -> Result<u64, CommError> {
    if phase.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&phase) {
        Ok(phase as u64)
    } else {
        Err(CommError::Protocol {
            peer,
            detail: format!("recovery phase {phase} is not a non-negative integer"),
        })
    }
}

// ---------------------------------------------------------------------------
// Worker side (the `mp-worker` subcommand)
// ---------------------------------------------------------------------------

/// What differs per process in one `mp-worker` invocation; what to run
/// is the `scenario.bin` in [`Self::dir`].
#[derive(Clone, Debug)]
pub struct MpWorkerArgs {
    pub rank: usize,
    pub rendezvous: String,
    pub dir: PathBuf,
    pub checkpoint_every: u64,
    pub resume_phase: Option<u64>,
    /// Fault injection: exit hard just before the n-th send or receive
    /// on the tag (see [`MpFault`]).
    pub die_on: Option<(Tag, u64)>,
    /// The driver supervises this run: on a lost peer, poll the epoch
    /// file and re-mesh instead of failing.
    pub supervised: bool,
    /// Membership epoch to rendezvous at (1 = initial mesh; a respawned
    /// replacement starts at the epoch its driver published).
    pub epoch: u64,
    /// This process replaces a dead rank: it recovers from checkpoints
    /// exactly like a survivor instead of starting the run fresh.
    pub rejoin: bool,
}

impl MpWorkerArgs {
    /// The `mp-worker` command line the CLI parses back into `self`.
    fn to_args(&self) -> Vec<String> {
        let valued = [
            ("rank", Some(self.rank.to_string())),
            ("rendezvous", Some(self.rendezvous.clone())),
            ("dir", Some(self.dir.display().to_string())),
            ("epoch", Some(self.epoch.to_string())),
            ("checkpoint-every", Some(self.checkpoint_every.to_string())),
            ("resume-phase", self.resume_phase.map(|phase| phase.to_string())),
            ("die-on", self.die_on.map(|(tag, nth)| format!("{}:{nth}", tag.name()))),
        ];
        let switches = [("supervised", self.supervised), ("rejoin", self.rejoin)];
        let mut args = vec!["mp-worker".to_string()];
        for (name, value) in valued {
            args.extend(value.into_iter().flat_map(|value| [format!("--{name}"), value]));
        }
        args.extend(switches.iter().filter(|(_, on)| *on).map(|(name, _)| format!("--{name}")));
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

/// One rank's view of the run it is part of.
struct RankRun<'a> {
    a: &'a MpWorkerArgs,
    /// The scenario finalized exactly as the threaded runtime would run it.
    run: &'a RuntimeConfig,
    policy: &'a dyn NeighborPolicy,
    t0: Instant,
}

impl RankRun<'_> {
    /// This rank's solver at the start of an attempt — restored from its
    /// checkpoint of `phase`, or a fresh even slab — and what was done.
    fn solver_at(&self, phase: Option<u64>) -> Result<(SlabSolver, String), WorkerError> {
        let Some(phase) = phase else {
            let slab = even_slabs(self.run.channel.dims.nx, self.run.workers)[self.a.rank];
            let how = format!("fresh slab x0={} nx={}", slab.x0, slab.nx_local);
            return Ok((SlabSolver::new(&self.run.channel, slab), how));
        };
        let path = checkpoint::path(&self.a.dir, self.a.rank, phase);
        let (solver, _) = read_solver(&self.run.channel, &path)
            .map_err(|e| WorkerError::Io(format!("{}: {e}", path.display())))?;
        let slab = solver.slab();
        let how = format!("restored {} (slab x0={} nx={})", path.display(), slab.x0, slab.nx_local);
        Ok((solver, how))
    }

    fn recovery_event(&self, epoch: u64, stage: RecoveryStage, phase: u64, planes: usize, detail: String) {
        self.run.trace.record(Event::Recovery {
            time: self.t0.elapsed().as_secs_f64(),
            node: self.a.rank,
            epoch,
            stage,
            phase,
            planes,
            detail,
        });
    }

    /// One attempt over a connected mesh. The first (epoch 1) starts from
    /// a fresh slab or the checkpoint `--resume-phase` names. A recovery
    /// attempt (epoch > 1) agrees on the rollback phase over the fresh
    /// mesh, restores the newest common checkpoint (or restarts fresh) and
    /// runs the remaining phases, emitting the rollback → plan-applied →
    /// resumed stages of the recovery arc.
    fn execute<T: Transport>(
        &self,
        cfg: &mut WorkerConfig,
        epoch: u64,
        mut transport: T,
    ) -> Result<WorkerReport, WorkerError> {
        use RecoveryStage::{PlanApplied, Resumed, Rollback};
        let solver = if epoch == 1 {
            self.solver_at(self.a.resume_phase)?.0
        } else {
            let mine = checkpoint::valid_phases(&self.a.dir, self.a.rank);
            let agreed = recovery_sync(&mut transport, &mine).map_err(WorkerError::Comm)?;
            let (rollback, resumed) = if agreed == 0 {
                let ranks = self.run.workers;
                (
                    format!("no common checkpoint among {ranks} ranks; restarting fresh"),
                    format!("phase loop restarted at 1 of {}", cfg.phases),
                )
            } else {
                (
                    format!("rolling back to the newest common checkpoint, phase {agreed}"),
                    format!("phase loop resumed at {} of {}", agreed + 1, cfg.phases),
                )
            };
            self.recovery_event(epoch, Rollback, agreed, 0, rollback);
            cfg.start_phase = agreed;
            let (solver, how) = self.solver_at((agreed > 0).then_some(agreed))?;
            let planes = solver.slab().nx_local;
            self.recovery_event(epoch, PlanApplied, agreed, planes, how);
            self.recovery_event(epoch, Resumed, agreed, planes, resumed);
            solver
        };
        let predictor = HarmonicMean { window: cfg.predictor_window.max(1) };
        let throttle = self.run.throttle_for(self.a.rank);
        worker_main_with_solver(cfg, self.policy, &predictor, transport, solver, throttle)
    }

    /// The attempt loop: connect at the current epoch and run. A
    /// supervised rank that loses a peer emits the death-detected stage,
    /// waits for the driver to publish the next epoch, and re-meshes; any
    /// other failure — and any failure of an unsupervised rank — is final.
    /// Rollback recovery replays identical deterministic physics from a
    /// bitwise checkpoint of the same run, so the final fields match the
    /// undisturbed run exactly — the property the chaos tests pin. Returns
    /// the report and the epoch it finished in.
    fn attempts(&self, cfg: &mut WorkerConfig) -> Result<(WorkerReport, u64), WorkerError> {
        use RecoveryStage::{DeathDetected, Remesh};
        let a = self.a;
        let ranks = self.run.workers;
        let net = NetConfig::default();
        let mut epoch = a.epoch.max(1);
        let mut rendezvous = a.rendezvous.clone();
        // A rank that finished clean before a peer died learns of the death
        // from the driver, which respawns it into the recovery epoch.
        let published = if a.rejoin { read_epoch_file(&a.dir) } else { None };
        if let Some(info) = published.filter(|i| i.epoch == epoch && i.dead != a.rank) {
            let detail = format!("rank {} died after this rank finished; rejoining", info.dead);
            self.recovery_event(epoch - 1, DeathDetected, 0, 0, detail);
        }
        loop {
            let transport = connect_epoch(Some(a.rank), ranks, &rendezvous, epoch, &net)
                .map_err(WorkerError::Comm)?;
            if epoch > 1 {
                let detail = format!("re-meshed {ranks} ranks at {rendezvous}");
                self.recovery_event(epoch, Remesh, 0, 0, detail);
            }
            // The injected fault belongs to the first attempt only.
            let attempt = match a.die_on.filter(|_| epoch == 1) {
                Some((tag, nth)) => {
                    self.execute(cfg, epoch, FaultTransport::new(transport, tag, nth))
                }
                None => self.execute(cfg, epoch, transport),
            };
            match attempt {
                Err(WorkerError::Comm(CommError::Disconnected { peer })) if a.supervised => {
                    // A peer died mid-protocol. Our own transport was
                    // dropped with the failed attempt, cascading goodbye
                    // frames so every survivor reaches this point within
                    // milliseconds.
                    let detail = format!("lost peer {peer} (epoch {epoch}); awaiting new epoch");
                    self.recovery_event(epoch, DeathDetected, 0, 0, detail);
                    let Some(next) = wait_for_epoch(&a.dir, epoch, EPOCH_WAIT) else {
                        return Err(WorkerError::Comm(CommError::Disconnected { peer }));
                    };
                    epoch = next.epoch;
                    rendezvous = next.rendezvous;
                }
                other => return other.map(|report| (report, epoch)),
            }
        }
    }
}

/// Polls the epoch file until the driver publishes an epoch newer than
/// `current`, up to `wait`.
fn wait_for_epoch(dir: &Path, current: u64, wait: Duration) -> Option<EpochInfo> {
    let deadline = Instant::now() + wait;
    loop {
        if let Some(info) = read_epoch_file(dir) {
            if info.epoch > current {
                return Some(info);
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Entry point of the `mp-worker` subcommand: reads the run's
/// `scenario.bin`, joins the TCP mesh, runs the standard worker protocol,
/// and leaves `rank{r}.state` / `rank{r}.report` / `rank{r}.jsonl` in the
/// run directory. On failure the trace is still flushed and
/// `rank{r}.error` carries the typed error.
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
    runtime.config_mut().checkpoint_every = a.checkpoint_every;
    runtime.config_mut().checkpoint_dir = Some(a.dir.clone());
    let policy = runtime.policy();
    let t0 = Instant::now();
    let mut cfg = runtime.config().worker_config(t0);
    let result =
        RankRun { a, run: runtime.config(), policy: policy.as_ref(), t0 }.attempts(&mut cfg);

    // The trace lands on disk no matter what: a failed rank must leave
    // its partial evidence (spans, traffic totals) behind.
    let trace_path = a.dir.join(format!("rank{rank}.jsonl"));
    fs::write(&trace_path, to_jsonl(&recorder.events()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    match result {
        Ok((report, epoch)) => {
            let state_path = a.dir.join(format!("rank{rank}.state"));
            write_solver(&state_path, &report.solver, runtime.config().phases)
                .map_err(|e| format!("write {}: {e}", state_path.display()))?;
            let summary = format!(
                "rank {}\nepoch {epoch}\nx0 {}\nnx_local {}\nplanes_sent {}\nplanes_received {}\n",
                report.rank,
                report.final_slab.x0,
                report.final_slab.nx_local,
                report.planes_sent,
                report.planes_received,
            );
            let report_path = a.dir.join(format!("rank{rank}.report"));
            fs::write(&report_path, summary)
                .map_err(|e| format!("write {}: {e}", report_path.display()))?;
            Ok(())
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
    fn report_round_trips_through_the_kv_format() {
        let text = "rank 2\nepoch 3\nx0 8\nnx_local 5\nplanes_sent 3\nplanes_received 1\n";
        let r = parse_report(2, text).unwrap();
        assert_eq!(
            r,
            MpReport {
                rank: 2,
                epoch: 3,
                final_slab: Slab { x0: 8, nx_local: 5 },
                planes_sent: 3,
                planes_received: 1,
            }
        );
        assert!(parse_report(1, text).is_err(), "rank mismatch must be caught");
        assert!(parse_report(0, "rank 0\n").is_err(), "missing keys must be caught");
    }

    #[test]
    fn driver_validates_before_spawning_anything() {
        let run = |s: Scenario| run_multiprocess(&MpConfig::new(s.phases(2)));
        assert!(run(Scenario::paper_scaled(8, 6, 4).workers(0)).is_err());
        assert!(run(Scenario::paper_scaled(8, 6, 4).workers(16)).is_err());
        let global = Scenario::paper_scaled(8, 6, 4).workers(2).scheme(Scheme::Global);
        let err = run(global).unwrap_err();
        assert!(err.to_string().contains("global"), "{err}");
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
    fn epoch_file_round_trips_atomically() {
        let dir = scratch("epoch");
        assert_eq!(read_epoch_file(&dir), None, "no epoch before a membership change");
        let info = EpochInfo {
            epoch: 3,
            rendezvous: "127.0.0.1:4501".into(),
            dead: 2,
            plan: "2->1:2@8 2->3:3@10".into(),
        };
        write_epoch_file(&dir, &info).unwrap();
        assert_eq!(read_epoch_file(&dir), Some(info.clone()));
        // Republishing replaces the file in place (rename, never truncate).
        let next = EpochInfo { epoch: 4, ..info };
        write_epoch_file(&dir, &next).unwrap();
        assert_eq!(read_epoch_file(&dir), Some(next));
        assert!(!dir.join("epoch.tmp").exists(), "temp file must not linger");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_command_line_carries_only_per_process_flags() {
        let mut a = MpWorkerArgs {
            rank: 2,
            rendezvous: "127.0.0.1:4501".into(),
            dir: "/tmp/run".into(),
            checkpoint_every: 3,
            resume_phase: None,
            die_on: None,
            supervised: false,
            epoch: 1,
            rejoin: false,
        };
        let plain = "mp-worker --rank 2 --rendezvous 127.0.0.1:4501 --dir /tmp/run --epoch 1 \
                     --checkpoint-every 3";
        assert_eq!(a.to_args().join(" "), plain);
        a.resume_phase = Some(6);
        a.die_on = Some((Tag::LOAD, 8));
        a.supervised = true;
        a.rejoin = true;
        assert_eq!(
            a.to_args().join(" "),
            format!("{plain} --resume-phase 6 --die-on load:8 --supervised --rejoin")
        );
    }

    /// Rank 0 and rank 1 of a two-rank channel mesh.
    fn two_ranks() -> (microslip_comm::ChannelTransport, microslip_comm::ChannelTransport) {
        let mut mesh = microslip_comm::mesh(2);
        let rank1 = mesh.pop().unwrap();
        (mesh.pop().unwrap(), rank1)
    }

    #[test]
    fn recovery_sync_refuses_malformed_phases() {
        // Rank 1 reports phases no checkpoint can have.
        for hostile in [vec![f64::NAN], vec![-3.0], vec![2.5], vec![3.0, f64::INFINITY]] {
            let (mut rank0, mut rank1) = two_ranks();
            rank1.send(0, Tag::COLLECTIVE, hostile.clone()).unwrap();
            match recovery_sync(&mut rank0, &[3, 6]) {
                Err(CommError::Protocol { peer: 1, detail }) => {
                    assert!(detail.contains("not a non-negative integer"), "{detail}")
                }
                other => panic!("{hostile:?}: expected a protocol error, got {other:?}"),
            }
        }
        // Rank 0 broadcasts anything but exactly one such phase.
        for hostile in [vec![], vec![3.0, 6.0], vec![f64::NAN], vec![-1.0], vec![4.5]] {
            let (mut rank0, mut rank1) = two_ranks();
            rank0.send(1, Tag::COLLECTIVE, hostile.clone()).unwrap();
            let outcome = recovery_sync(&mut rank1, &[3, 6]);
            assert!(
                matches!(outcome, Err(CommError::Protocol { peer: 0, .. })),
                "{hostile:?}: expected a protocol error, got {outcome:?}"
            );
        }
    }

    #[test]
    fn recovery_sync_agrees_on_the_newest_common_phase() {
        let (mut rank0, mut rank1) = two_ranks();
        let peer = std::thread::spawn(move || recovery_sync(&mut rank1, &[3, 6, 9]));
        assert_eq!(recovery_sync(&mut rank0, &[3, 6]).unwrap(), 6);
        assert_eq!(peer.join().unwrap().unwrap(), 6);
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
