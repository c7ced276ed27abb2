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
//! * `config.bin` — the [`ChannelConfig`], byte-exact via
//!   [`microslip_lbm::config_codec`], written by the driver and decoded by
//!   every child;
//! * `rank{r}.state` — each rank's end-of-run solver state
//!   ([`microslip_lbm::checkpoint`] format), stitched into the global
//!   [`Snapshot`];
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
//! [`LoadModel::Synthetic`] the remap *decisions* are a pure function of
//! the configuration too, and the two substrates produce identical
//! decision audit trails (compare with
//! [`microslip_obs::remap_fingerprints`]).

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use microslip_balance::recovery::RecoveryPlan;
use microslip_balance::policy::{Conservative, Filtered, NeighborPolicy, NoRemap};
use microslip_balance::predict::HarmonicMean;
use microslip_balance::Partition;
use microslip_cluster::Scheme;
use microslip_comm::{CommError, NodeId, Tag, Transport};
use microslip_lbm::checkpoint::{read_solver, write_solver};
use microslip_lbm::config_codec::{decode_config, encode_config};
use microslip_lbm::geometry::{even_slabs, slabs_tile};
use microslip_lbm::macroscopic::Snapshot;
use microslip_lbm::{ChannelConfig, Slab};
use microslip_net::{connect_epoch, reserve_port, NetConfig};
use microslip_obs::{
    from_jsonl, merge_rank_streams, to_jsonl, Event, RecoveryStage, TraceSink,
    DEFAULT_CAPACITY,
};
use microslip_runtime::worker::{
    worker_main, worker_main_with_solver, WorkerConfig, WorkerError, WorkerReport,
};
use microslip_runtime::{LoadModel, ThrottlePlan};

/// Where in the worker protocol an injected fault strikes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultSite {
    /// Mid F-halo exchange: peers block in `recv` when the rank dies.
    #[default]
    Halo,
    /// Mid load-index exchange of a remap round: peers die holding
    /// partially exchanged balance state.
    Remap,
}

/// Deliberate mid-run death of one rank, for fault-injection tests: the
/// rank exits hard (no goodbye frame, no flush) partway through the
/// protocol step chosen by [`FaultSite`] at `die_at_phase`, exactly like
/// a killed cluster node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpFault {
    pub rank: usize,
    pub die_at_phase: u64,
    pub site: FaultSite,
}

/// Configuration of a multi-process run.
#[derive(Clone, Debug)]
pub struct MpConfig {
    pub channel: ChannelConfig,
    /// Worker processes (one slab each).
    pub ranks: usize,
    pub phases: u64,
    /// Phases between remap rounds; 0 disables remapping.
    pub remap_interval: u64,
    pub predictor_window: usize,
    /// Remapping scheme; [`Scheme::Global`] is rejected (needs a
    /// collective).
    pub scheme: Scheme,
    /// Per-rank slowdown factors (≥ 1). Empty = all full speed.
    pub throttle: Vec<f64>,
    /// Transient spikes `(rank, from_phase, to_phase, factor)`.
    pub spikes: Vec<(usize, u64, u64, f64)>,
    /// Load-index source. Use [`LoadModel::Synthetic`] when comparing
    /// remap decisions against a threaded run of the same configuration.
    pub load: LoadModel,
    /// Phases between periodic checkpoints in the run directory; 0
    /// disables them.
    pub checkpoint_every: u64,
    /// Resume every rank from `ckpt-rank{r}-phase{p}.bin` in the run
    /// directory and run `phases` *more* phases.
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
    /// checkpoint. Off, a dead rank fails the run (the pre-recovery
    /// behavior).
    pub recover: bool,
    /// How many times one rank may be respawned before the run is
    /// declared lost.
    pub max_respawns: u32,
}

impl MpConfig {
    /// A run with no remapping and no throttling.
    pub fn new(channel: ChannelConfig, ranks: usize, phases: u64) -> Self {
        MpConfig {
            channel,
            ranks,
            phases,
            remap_interval: 0,
            predictor_window: 10,
            scheme: Scheme::Filtered,
            throttle: Vec::new(),
            spikes: Vec::new(),
            load: LoadModel::Measured,
            checkpoint_every: 0,
            resume_phase: None,
            dir: None,
            worker_exe: None,
            fault: None,
            recover: false,
            max_respawns: 3,
        }
    }
}

/// Per-rank summary parsed back from `rank{r}.report`.
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

fn policy_by_name(name: &str) -> Result<Arc<dyn NeighborPolicy>, String> {
    match name {
        "no-remap" => Ok(Arc::new(NoRemap)),
        "filtered" => Ok(Arc::new(Filtered::default())),
        "conservative" => Ok(Arc::new(Conservative::default())),
        other => {
            Err(format!("scheme '{other}' not executable on the multi-process runtime"))
        }
    }
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_run_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "microslip-mp-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Forks `cfg.ranks` worker processes, waits for them, and stitches their
/// results. On failure the error carries every failed rank's typed error
/// text; partial traces stay in the run directory.
pub fn run_multiprocess(cfg: &MpConfig) -> Result<MpOutcome, MpFailure> {
    let dir = cfg.dir.clone().unwrap_or_else(fresh_run_dir);
    let fail = |message: String| MpFailure {
        message,
        rank_errors: Vec::new(),
        dir: dir.clone(),
    };

    if cfg.ranks == 0 {
        return Err(fail("need at least one rank".into()));
    }
    if cfg.channel.dims.nx < cfg.ranks {
        return Err(fail(format!(
            "need at least one plane per rank ({} planes < {} ranks)",
            cfg.channel.dims.nx, cfg.ranks
        )));
    }
    if cfg.scheme == Scheme::Global {
        return Err(fail(
            "the global scheme needs a collective exchange and only runs on the \
             virtual cluster"
                .into(),
        ));
    }
    cfg.channel.validate().map_err(&fail)?;
    policy_by_name(cfg.scheme.name()).map_err(&fail)?;

    fs::create_dir_all(&dir)
        .map_err(|e| fail(format!("create run dir {}: {e}", dir.display())))?;
    let config_path = dir.join("config.bin");
    fs::write(&config_path, encode_config(&cfg.channel))
        .map_err(|e| fail(format!("write {}: {e}", config_path.display())))?;

    let port =
        reserve_port().map_err(|e| fail(format!("reserve rendezvous port: {e}")))?;
    let rendezvous = format!("127.0.0.1:{port}");
    let exe = match &cfg.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| fail(format!("locate worker executable: {e}")))?,
    };

    // Shared by the initial spawn and (under supervision) respawns: a
    // rejoining rank gets the new epoch's rendezvous and no fault flags —
    // a replacement must not re-inherit its predecessor's death sentence.
    let spawn_rank = |rank: usize,
                      rendezvous: &str,
                      epoch: u64,
                      rejoin: bool|
     -> Result<Child, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("rank{rank}.stderr")))
            .map_err(|e| format!("rank {rank} stderr file: {e}"))?;
        let mut cmd = Command::new(&exe);
        cmd.arg("mp-worker")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--ranks")
            .arg(cfg.ranks.to_string())
            .arg("--rendezvous")
            .arg(rendezvous)
            .arg("--dir")
            .arg(&dir)
            .arg("--phases")
            .arg(cfg.phases.to_string())
            .arg("--remap-every")
            .arg(cfg.remap_interval.to_string())
            .arg("--predictor-window")
            .arg(cfg.predictor_window.to_string())
            .arg("--scheme")
            .arg(cfg.scheme.name())
            .arg("--checkpoint-every")
            .arg(cfg.checkpoint_every.to_string())
            .stdout(Stdio::null())
            .stderr(stderr);
        if cfg.recover {
            cmd.arg("--supervised").arg("--epoch").arg(epoch.to_string());
        }
        if rejoin {
            cmd.arg("--rejoin");
        }
        let factor = cfg.throttle.get(rank).copied().unwrap_or(1.0);
        if factor > 1.0 {
            // f64 Display is shortest-round-trip, so the child parses the
            // exact same value — synthetic load indices stay bit-equal to
            // the threaded run's.
            cmd.arg("--throttle-factor").arg(factor.to_string());
        }
        let spikes: Vec<String> = cfg
            .spikes
            .iter()
            .filter(|s| s.0 == rank)
            .map(|&(_, from, to, x)| format!("{from}:{to}:{x}"))
            .collect();
        if !spikes.is_empty() {
            cmd.arg("--spikes").arg(spikes.join(","));
        }
        if let LoadModel::Synthetic { per_point } = cfg.load {
            cmd.arg("--synthetic-load").arg(per_point.to_string());
        }
        if let Some(p) = cfg.resume_phase {
            cmd.arg("--resume-phase").arg(p.to_string());
        }
        if !rejoin {
            if let Some(f) = cfg.fault.filter(|f| f.rank == rank) {
                cmd.arg("--die-at-phase").arg(f.die_at_phase.to_string());
                if f.site == FaultSite::Remap {
                    cmd.arg("--die-site").arg("remap");
                }
            }
        }
        cmd.spawn()
            .map_err(|e| format!("spawn rank {rank} ({}): {e}", exe.display()))
    };

    let mut children = Vec::with_capacity(cfg.ranks);
    for rank in 0..cfg.ranks {
        children.push(spawn_rank(rank, &rendezvous, 1, false).map_err(&fail)?);
    }

    let rank_errors = if cfg.recover {
        supervise(cfg, &dir, children, &spawn_rank)
    } else {
        let mut rank_errors = Vec::new();
        for (rank, mut child) in children.into_iter().enumerate() {
            let status = child.wait();
            let err_path = dir.join(format!("rank{rank}.error"));
            if let Ok(text) = fs::read_to_string(&err_path) {
                rank_errors.push((rank, text.trim().to_string()));
                continue;
            }
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => rank_errors.push((rank, format!("exited with {s}"))),
                Err(e) => rank_errors.push((rank, format!("wait failed: {e}"))),
            }
        }
        rank_errors
    };
    if !rank_errors.is_empty() {
        return Err(MpFailure {
            message: format!(
                "{} of {} ranks failed (partial traces in {})",
                rank_errors.len(),
                cfg.ranks,
                dir.display()
            ),
            rank_errors,
            dir,
        });
    }

    gather(cfg, &dir).map_err(|message| MpFailure {
        message,
        rank_errors: Vec::new(),
        dir: dir.clone(),
    })
}

/// The driver's supervision loop (`recover = true`): poll the children; a
/// rank that dies without leaving a typed `rank{r}.error` file is treated
/// as crashed — the membership epoch is bumped, the new rendezvous and
/// nominal recovery plan are published in the epoch file, and a
/// replacement is spawned with `--rejoin`. A typed error, a wait failure,
/// or exhausted respawns abort the run (remaining children are killed so
/// the caller gets a prompt, complete failure report).
type SpawnRank<'a> = &'a dyn Fn(usize, &str, u64, bool) -> Result<Child, String>;

fn supervise(
    cfg: &MpConfig,
    dir: &Path,
    children: Vec<Child>,
    spawn_rank: SpawnRank<'_>,
) -> Vec<(usize, String)> {
    let mut live: Vec<Option<Child>> = children.into_iter().map(Some).collect();
    let mut rank_errors: Vec<(usize, String)> = Vec::new();
    let mut epoch: u64 = 1;
    let mut respawns: u32 = 0;
    'supervision: loop {
        let mut all_done = true;
        for (rank, slot) in live.iter_mut().enumerate() {
            let Some(child) = slot.as_mut() else { continue };
            let status = match child.try_wait() {
                Ok(None) => {
                    all_done = false;
                    continue;
                }
                Ok(Some(s)) => s,
                Err(e) => {
                    rank_errors.push((rank, format!("wait failed: {e}")));
                    break 'supervision;
                }
            };
            if status.success() {
                *slot = None;
                continue;
            }
            let err_path = dir.join(format!("rank{rank}.error"));
            if let Ok(text) = fs::read_to_string(&err_path) {
                *slot = None;
                rank_errors.push((rank, text.trim().to_string()));
                break 'supervision;
            }
            if respawns >= cfg.max_respawns {
                *slot = None;
                rank_errors.push((
                    rank,
                    format!("exited with {status} after {respawns} respawns; giving up"),
                ));
                break 'supervision;
            }
            // Hard death with no typed error: a crash. Publish the next
            // epoch and respawn the rank; survivors poll the epoch file,
            // drop their dead mesh, and rendezvous again at the new
            // address.
            respawns += 1;
            epoch += 1;
            let step = (|| -> Result<Child, String> {
                let port =
                    reserve_port().map_err(|e| format!("reserve rejoin port: {e}"))?;
                let addr = format!("127.0.0.1:{port}");
                // The audit plan: where the dead rank's planes would land
                // had the survivors absorbed them (see [`EpochInfo::plan`]).
                let nominal: Vec<usize> = even_slabs(cfg.channel.dims.nx, cfg.ranks)
                    .iter()
                    .map(|s| s.nx_local)
                    .collect();
                let plane_cells = cfg.channel.dims.ny * cfg.channel.dims.nz;
                let plan =
                    RecoveryPlan::for_death(&Partition::new(nominal, plane_cells), rank);
                write_epoch_file(
                    dir,
                    &EpochInfo {
                        epoch,
                        rendezvous: addr.clone(),
                        dead: rank,
                        plan: plan.summary(),
                    },
                )?;
                spawn_rank(rank, &addr, epoch, true)
            })();
            match step {
                Ok(c) => {
                    *slot = Some(c);
                    all_done = false;
                }
                Err(e) => {
                    *slot = None;
                    rank_errors.push((rank, e));
                    break 'supervision;
                }
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    // On abort, reap everything still running and collect any typed
    // errors the kill shook loose.
    if !rank_errors.is_empty() {
        for (rank, slot) in live.iter_mut().enumerate() {
            if let Some(child) = slot.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
                let err_path = dir.join(format!("rank{rank}.error"));
                if let Ok(text) = fs::read_to_string(&err_path) {
                    rank_errors.push((rank, text.trim().to_string()));
                }
            }
        }
        rank_errors.sort_by_key(|&(r, _)| r);
        rank_errors.dedup_by(|a, b| a.0 == b.0);
    }
    rank_errors
}

/// Restores every rank's final state and stitches the global snapshot.
/// The state files are streamed from disk straight into a solver's arrays
/// and captured straight into the snapshot, on scoped threads — as many
/// slabs in flight as the host has CPUs, so the driver's memory is bounded
/// by that, not by the rank count.
fn gather_snapshot(cfg: &MpConfig, dir: &Path) -> Result<Snapshot, String> {
    let dims = cfg.channel.dims;
    let global = Mutex::new(Snapshot::zeros(0, dims.nx, dims.ny, dims.nz, cfg.channel.ncomp()));
    let restore = |rank: usize| -> Result<Slab, String> {
        let path = dir.join(format!("rank{rank}.state"));
        let (solver, _) = read_solver(&cfg.channel, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        solver.snapshot_into(&mut global.lock().expect("a gather lane panicked"));
        Ok(solver.slab())
    };
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()).min(cfg.ranks);
    let slabs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let ranks = (lane..cfg.ranks).step_by(lanes);
                scope.spawn(move || ranks.map(restore).collect::<Result<Vec<_>, _>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|lane| lane.join().expect("a gather lane panicked"))
            .collect::<Result<Vec<Vec<Slab>>, String>>()
    })?;
    if !slabs_tile(slabs.into_iter().flatten(), dims.nx) {
        return Err(format!("the rank state files in {} do not tile the channel", dir.display()));
    }
    Ok(global.into_inner().expect("a gather lane panicked"))
}

/// Reads every rank's artifacts and assembles the outcome.
fn gather(cfg: &MpConfig, dir: &Path) -> Result<MpOutcome, String> {
    let snapshot = gather_snapshot(cfg, dir)?;
    let mut reports = Vec::with_capacity(cfg.ranks);
    let mut streams = Vec::with_capacity(cfg.ranks);
    for rank in 0..cfg.ranks {
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

/// Phases with a CRC-valid periodic checkpoint for `rank` in `dir`,
/// ascending — each candidate checked in one streaming pass, so a scan
/// allocates nothing slab-sized. Torn or corrupt files (a crash mid-write leaves at worst a
/// stray `.tmp`; a damaged file fails its CRC trailer) are skipped, not
/// errors: recovery rolls back to the newest phase every survivor can
/// actually restore.
pub fn checkpoint_phases(dir: &Path, rank: usize) -> Vec<u64> {
    let prefix = format!("ckpt-rank{rank}-phase");
    let mut phases = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else { return phases };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(p) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|rest| rest.parse::<u64>().ok())
        else {
            continue;
        };
        if microslip_codec::verify(&entry.path()).is_ok() {
            phases.push(p);
        }
    }
    phases.sort_unstable();
    phases
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
            let theirs: BTreeSet<u64> =
                t.recv(from, Tag::COLLECTIVE)?.iter().map(|&p| p as u64).collect();
            common = common.intersection(&theirs).copied().collect();
        }
        let agreed = common.iter().next_back().copied().unwrap_or(0);
        for to in 1..n {
            t.send(to, Tag::COLLECTIVE, vec![agreed as f64])?;
        }
        Ok(agreed)
    } else {
        t.send(0, Tag::COLLECTIVE, mine.iter().map(|&p| p as f64).collect())?;
        Ok(t.recv(0, Tag::COLLECTIVE)?.first().copied().unwrap_or(0.0) as u64)
    }
}

// ---------------------------------------------------------------------------
// Worker side (the `mp-worker` subcommand)
// ---------------------------------------------------------------------------

/// Parsed arguments of one `mp-worker` invocation.
#[derive(Clone, Debug)]
pub struct MpWorkerArgs {
    pub rank: usize,
    pub ranks: usize,
    pub rendezvous: String,
    pub dir: PathBuf,
    pub phases: u64,
    pub remap_interval: u64,
    pub predictor_window: usize,
    /// Policy name ("no-remap", "filtered", "conservative").
    pub scheme: String,
    pub throttle_factor: f64,
    /// `(from_phase, to_phase, factor)` spikes for this rank.
    pub spikes: Vec<(u64, u64, f64)>,
    /// `Some(per_point)` selects [`LoadModel::Synthetic`].
    pub synthetic_load: Option<f64>,
    pub checkpoint_every: u64,
    pub resume_phase: Option<u64>,
    /// Fault injection: exit hard at this phase (site below).
    pub die_at_phase: Option<u64>,
    /// Which protocol step the injected death strikes.
    pub die_site: FaultSite,
    /// The driver supervises this run: on a lost peer, poll the epoch
    /// file and re-mesh instead of failing.
    pub supervised: bool,
    /// Membership epoch to rendezvous at (1 = initial mesh; a respawned
    /// replacement starts at the epoch its driver published).
    pub epoch: u64,
    /// This process replaces a dead rank: it recovers from checkpoints
    /// exactly like a survivor instead of starting the run fresh.
    pub rejoin: bool,
    /// How long a survivor waits for the driver to publish the next
    /// epoch before giving up (milliseconds).
    pub epoch_wait_ms: u64,
}

/// A [`Transport`] wrapper that kills the process partway through a
/// chosen protocol step of a chosen phase — `process::exit` runs no
/// destructors, so no goodbye frame is sent and peers see a raw EOF,
/// exactly like a node crash.
struct FaultTransport<T: Transport> {
    inner: T,
    site: FaultSite,
    f_halo_sends: u64,
    /// Each phase sends two F-halo messages; dying on send `2 × phase`
    /// leaves the right-bound message of `die_at_phase` delivered and the
    /// left-bound one missing. For [`FaultSite::Remap`] the same counter
    /// tells which phase the run has reached, and the kill lands on the
    /// first load-index send at or after it.
    die_on_send: u64,
}

impl<T: Transport> FaultTransport<T> {
    fn new(inner: T, die_at_phase: u64, site: FaultSite) -> Self {
        FaultTransport {
            inner,
            site,
            f_halo_sends: 0,
            die_on_send: 2 * die_at_phase.max(1),
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
        if tag == Tag::F_HALO {
            self.f_halo_sends += 1;
            if self.site == FaultSite::Halo && self.f_halo_sends >= self.die_on_send {
                std::process::exit(13);
            }
        }
        if self.site == FaultSite::Remap
            && tag == Tag::LOAD
            && self.f_halo_sends >= self.die_on_send
        {
            std::process::exit(13);
        }
        self.inner.send(to, tag, payload)
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        self.inner.recv(from, tag)
    }
}

fn throttle_plan(a: &MpWorkerArgs) -> ThrottlePlan {
    let mut throttle = ThrottlePlan::constant(a.throttle_factor.max(1.0));
    for &(from, to, factor) in &a.spikes {
        throttle = throttle.with_spike(from, to, factor);
    }
    throttle
}

fn execute<T: Transport>(
    a: &MpWorkerArgs,
    cfg: &WorkerConfig,
    policy: &dyn NeighborPolicy,
    transport: T,
) -> Result<WorkerReport, WorkerError> {
    let predictor = HarmonicMean { window: cfg.predictor_window.max(1) };
    let throttle = throttle_plan(a);
    match a.resume_phase {
        None => {
            let slab = even_slabs(cfg.channel.dims.nx, a.ranks)[a.rank];
            worker_main(cfg, policy, &predictor, transport, slab, throttle)
        }
        Some(p) => {
            let path = a.dir.join(format!("ckpt-rank{}-phase{p}.bin", a.rank));
            let (solver, _) = read_solver(&cfg.channel, &path)
                .map_err(|e| WorkerError::Io(format!("{}: {e}", path.display())))?;
            worker_main_with_solver(cfg, policy, &predictor, transport, solver, throttle)
        }
    }
}

/// One recovery attempt (epoch > 1): agree on the rollback phase over the
/// fresh mesh, restore the newest common checkpoint (or restart fresh),
/// and run the remaining phases. Emits the rollback → plan-applied →
/// resumed stages of the recovery arc.
fn execute_recovery<T: Transport>(
    a: &MpWorkerArgs,
    cfg: &mut WorkerConfig,
    policy: &dyn NeighborPolicy,
    sink: &TraceSink,
    t0: Instant,
    epoch: u64,
    mut transport: T,
) -> Result<WorkerReport, WorkerError> {
    let rank = a.rank;
    let now = |t0: Instant| t0.elapsed().as_secs_f64();
    let mine = checkpoint_phases(&a.dir, rank);
    let agreed = recovery_sync(&mut transport, &mine).map_err(WorkerError::Comm)?;
    sink.record(Event::Recovery {
        time: now(t0),
        node: rank,
        epoch,
        stage: RecoveryStage::Rollback,
        phase: agreed,
        planes: 0,
        detail: if agreed == 0 {
            format!("no common checkpoint among {} ranks; restarting fresh", a.ranks)
        } else {
            format!("rolling back to the newest common checkpoint, phase {agreed}")
        },
    });
    let predictor = HarmonicMean { window: cfg.predictor_window.max(1) };
    let throttle = throttle_plan(a);
    cfg.start_phase = agreed;
    if agreed == 0 {
        let slab = even_slabs(cfg.channel.dims.nx, a.ranks)[rank];
        sink.record(Event::Recovery {
            time: now(t0),
            node: rank,
            epoch,
            stage: RecoveryStage::PlanApplied,
            phase: 0,
            planes: slab.nx_local,
            detail: format!("fresh slab x0={} nx={}", slab.x0, slab.nx_local),
        });
        sink.record(Event::Recovery {
            time: now(t0),
            node: rank,
            epoch,
            stage: RecoveryStage::Resumed,
            phase: 0,
            planes: slab.nx_local,
            detail: format!("phase loop restarted at 1 of {}", cfg.phases),
        });
        worker_main(cfg, policy, &predictor, transport, slab, throttle)
    } else {
        let path = a.dir.join(format!("ckpt-rank{rank}-phase{agreed}.bin"));
        let (solver, _) = read_solver(&cfg.channel, &path)
            .map_err(|e| WorkerError::Io(format!("{}: {e}", path.display())))?;
        let slab = solver.slab();
        sink.record(Event::Recovery {
            time: now(t0),
            node: rank,
            epoch,
            stage: RecoveryStage::PlanApplied,
            phase: agreed,
            planes: slab.nx_local,
            detail: format!(
                "restored {} (slab x0={} nx={})",
                path.display(),
                slab.x0,
                slab.nx_local
            ),
        });
        sink.record(Event::Recovery {
            time: now(t0),
            node: rank,
            epoch,
            stage: RecoveryStage::Resumed,
            phase: agreed,
            planes: slab.nx_local,
            detail: format!("phase loop resumed at {} of {}", agreed + 1, cfg.phases),
        });
        worker_main_with_solver(cfg, policy, &predictor, transport, solver, throttle)
    }
}

/// Polls the epoch file until the driver publishes an epoch newer than
/// `current`, up to `wait`. The bound keeps an orphaned survivor (driver
/// died too) from hanging forever.
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

/// The supervised attempt loop: connect at the current epoch and run; on
/// a lost peer, emit the death-detected stage, wait for the driver to
/// publish the next epoch, and re-mesh. Any other failure is final.
/// Rollback recovery replays identical deterministic physics from a
/// bitwise checkpoint of the same run, so the final fields match the
/// undisturbed run exactly — the property the chaos tests pin.
fn run_supervised(
    a: &MpWorkerArgs,
    cfg: &mut WorkerConfig,
    policy: &dyn NeighborPolicy,
    sink: &TraceSink,
    net: &NetConfig,
    t0: Instant,
) -> Result<WorkerReport, WorkerError> {
    let rank = a.rank;
    let mut epoch = a.epoch.max(1);
    let mut rendezvous = a.rendezvous.clone();
    loop {
        let transport = connect_epoch(Some(rank), a.ranks, &rendezvous, epoch, net)
            .map_err(WorkerError::Comm)?;
        if epoch > 1 {
            sink.record(Event::Recovery {
                time: t0.elapsed().as_secs_f64(),
                node: rank,
                epoch,
                stage: RecoveryStage::Remesh,
                phase: 0,
                planes: 0,
                detail: format!("re-meshed {} ranks at {rendezvous}", a.ranks),
            });
        }
        let attempt = if epoch == 1 {
            match a.die_at_phase {
                Some(p) => execute(
                    a,
                    cfg,
                    policy,
                    FaultTransport::new(transport, p, a.die_site),
                ),
                None => execute(a, cfg, policy, transport),
            }
        } else {
            execute_recovery(a, cfg, policy, sink, t0, epoch, transport)
        };
        match attempt {
            Err(WorkerError::Comm(CommError::Disconnected { peer })) => {
                // A peer died mid-protocol. Our own transport was dropped
                // with the failed attempt, cascading goodbye frames so
                // every survivor reaches this point within milliseconds.
                sink.record(Event::Recovery {
                    time: t0.elapsed().as_secs_f64(),
                    node: rank,
                    epoch,
                    stage: RecoveryStage::DeathDetected,
                    phase: 0,
                    planes: 0,
                    detail: format!("lost peer {peer} (epoch {epoch}); awaiting new epoch"),
                });
                match wait_for_epoch(
                    &a.dir,
                    epoch,
                    Duration::from_millis(a.epoch_wait_ms.max(1)),
                ) {
                    Some(info) => {
                        epoch = info.epoch;
                        rendezvous = info.rendezvous;
                    }
                    None => {
                        return Err(WorkerError::Comm(CommError::Disconnected { peer }))
                    }
                }
            }
            other => return other,
        }
    }
}

/// Entry point of the `mp-worker` subcommand: joins the TCP mesh, runs
/// the standard worker protocol, and leaves `rank{r}.state` /
/// `rank{r}.report` / `rank{r}.jsonl` in the run directory. On failure
/// the trace is still flushed and `rank{r}.error` carries the typed
/// error.
pub fn run_worker(a: &MpWorkerArgs) -> Result<(), String> {
    let rank = a.rank;
    let config_path = a.dir.join("config.bin");
    let config_bytes = fs::read(&config_path)
        .map_err(|e| format!("read {}: {e}", config_path.display()))?;
    let channel = decode_config(&config_bytes)
        .map_err(|e| format!("{}: {e}", config_path.display()))?;
    let policy = policy_by_name(&a.scheme)?;

    let (sink, recorder) = TraceSink::recorder(DEFAULT_CAPACITY);
    sink.record(Event::Meta {
        mode: "mp".into(),
        nodes: a.ranks,
        phases: a.phases,
        policy: a.scheme.clone(),
    });
    let parallelism = channel.parallelism;
    let t0 = Instant::now();
    let mut cfg = WorkerConfig {
        channel,
        phases: a.phases,
        start_phase: 0,
        remap_interval: a.remap_interval,
        predictor_window: a.predictor_window,
        checkpoint_every: a.checkpoint_every,
        checkpoint_dir: Some(a.dir.clone()),
        load: match a.synthetic_load {
            Some(per_point) => LoadModel::Synthetic { per_point },
            None => LoadModel::Measured,
        },
        parallelism,
        trace: sink.clone(),
        epoch: t0,
    };

    let net = NetConfig::default();
    let result = if a.supervised {
        run_supervised(a, &mut cfg, policy.as_ref(), &sink, &net, t0)
    } else {
        connect_epoch(Some(rank), a.ranks, &a.rendezvous, a.epoch.max(1), &net)
            .map_err(WorkerError::Comm)
            .and_then(|transport| match a.die_at_phase {
                Some(p) => execute(
                    a,
                    &cfg,
                    policy.as_ref(),
                    FaultTransport::new(transport, p, a.die_site),
                ),
                None => execute(a, &cfg, policy.as_ref(), transport),
            })
    };

    // The trace lands on disk no matter what: a failed rank must leave
    // its partial evidence (spans, traffic totals) behind.
    let trace_path = a.dir.join(format!("rank{rank}.jsonl"));
    fs::write(&trace_path, to_jsonl(&recorder.events()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    match result {
        Ok(report) => {
            let state_path = a.dir.join(format!("rank{rank}.state"));
            write_solver(&state_path, &report.solver, a.phases)
                .map_err(|e| format!("write {}: {e}", state_path.display()))?;
            let summary = format!(
                "rank {}\nx0 {}\nnx_local {}\nplanes_sent {}\nplanes_received {}\n",
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
    use microslip_lbm::Dims;

    #[test]
    fn report_round_trips_through_the_kv_format() {
        let text = "rank 2\nx0 8\nnx_local 5\nplanes_sent 3\nplanes_received 1\n";
        let r = parse_report(2, text).unwrap();
        assert_eq!(
            r,
            MpReport {
                rank: 2,
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
        let channel = ChannelConfig::paper_scaled(Dims::new(8, 6, 4));
        let no_ranks = MpConfig::new(channel.clone(), 0, 2);
        assert!(run_multiprocess(&no_ranks).is_err());
        let too_thin = MpConfig::new(channel.clone(), 16, 2);
        assert!(run_multiprocess(&too_thin).is_err());
        let mut global = MpConfig::new(channel, 2, 2);
        global.scheme = Scheme::Global;
        let err = run_multiprocess(&global).unwrap_err();
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
    fn checkpoint_phase_scan_skips_torn_and_foreign_files() {
        use microslip_codec::seal;
        use microslip_lbm::checkpoint::write_sealed;
        let dir = scratch("ckpt-scan");
        write_sealed(&dir.join("ckpt-rank1-phase3.bin"), b"aaaa".to_vec()).unwrap();
        write_sealed(&dir.join("ckpt-rank1-phase6.bin"), b"bbbb".to_vec()).unwrap();
        // Torn write: sealed bytes with the tail sliced off mid-trailer.
        let torn = seal(b"cccc".to_vec());
        fs::write(dir.join("ckpt-rank1-phase9.bin"), &torn[..torn.len() - 2]).unwrap();
        // Other ranks and unrelated files are ignored.
        write_sealed(&dir.join("ckpt-rank2-phase6.bin"), b"dddd".to_vec()).unwrap();
        fs::write(dir.join("ckpt-rank1-phase12.bin.tmp"), b"junk").unwrap();
        assert_eq!(checkpoint_phases(&dir, 1), vec![3, 6]);
        assert_eq!(checkpoint_phases(&dir, 2), vec![6]);
        assert_eq!(checkpoint_phases(&dir, 0), Vec::<u64>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_transport_passes_through_below_the_trigger() {
        // Two channel endpoints; the fault only fires at the configured
        // send count, so an early exchange is untouched.
        let mut mesh = microslip_comm::mesh(2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        let mut a = FaultTransport::new(a, 1000, FaultSite::Halo);
        let mut b = FaultTransport::new(b, 1000, FaultSite::Halo);
        a.send(1, Tag::F_HALO, vec![1.0, 2.0]).unwrap();
        assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![1.0, 2.0]);
        assert_eq!(a.f_halo_sends, 1);
        assert_eq!(a.rank(), 0);
        assert_eq!(b.size(), 2);
    }
}
