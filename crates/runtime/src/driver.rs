#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "run-level timing (epoch, wall totals) around the workers, outside the decision loop"
)]
//! The parallel driver: spawns workers, wires the communicator, joins the
//! reports and stitches the global result.

use std::sync::Arc;
use std::time::Instant;

use microslip_balance::policy::NeighborPolicy;
use microslip_balance::predict::HarmonicMean;
use microslip_comm::channel::mesh;
use microslip_comm::Transport;
use microslip_lbm::geometry::{even_slabs, slabs_tile};
use microslip_lbm::macroscopic::Snapshot;
use microslip_lbm::{ChannelConfig, Slab, SlabSolver};
use microslip_obs::{Event, TraceSink};

use crate::throttle::ThrottlePlan;
use crate::worker::{worker_main, LoadModel, WorkerReport};

/// Configuration of a threaded parallel run, shared by every worker of it:
/// the threads of [`run_parallel`] and the rank processes of a
/// multi-process run alike.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    pub channel: ChannelConfig,
    pub workers: usize,
    pub phases: u64,
    /// First phase already completed: the loop runs `start_phase + 1 ..=
    /// phases`. 0 for a fresh run; a checkpoint's phase when resuming, so
    /// the phase numbering (and periodic checkpoint names) continue where
    /// the interrupted run stopped.
    pub start_phase: u64,
    /// Phases between remap rounds; 0 disables remapping.
    pub remap_interval: u64,
    /// Predictor window for the harmonic load index (paper: 10).
    pub predictor_window: usize,
    /// Per-worker slowdown factors (≥ 1). Empty = all full speed.
    pub throttle: Vec<f64>,
    /// Transient spikes `(rank, from_phase, to_phase, factor)` on top of
    /// the base throttle (the real-thread analogue of the paper's random
    /// spikes).
    pub spikes: Vec<(usize, u64, u64, f64)>,
    /// Phases between periodic on-disk checkpoints
    /// ([`microslip_lbm::checkpoint::path`] in [`Self::checkpoint_dir`]);
    /// 0 disables them.
    pub checkpoint_every: u64,
    /// Directory for periodic checkpoints; `None` = current directory.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Load-index source for the remap predictor (see [`LoadModel`]).
    pub load: LoadModel,
    /// Observability sink (default: disabled). When enabled, the run
    /// emits a meta header plus per-worker activity spans, remap-decision
    /// audits, migrations and end-of-run traffic totals.
    pub trace: TraceSink,
}

impl RuntimeConfig {
    /// A run with no remapping and no throttling.
    pub fn new(channel: ChannelConfig, workers: usize, phases: u64) -> Self {
        RuntimeConfig {
            channel,
            workers,
            phases,
            start_phase: 0,
            remap_interval: 0,
            predictor_window: 10,
            throttle: Vec::new(),
            spikes: Vec::new(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            load: LoadModel::Measured,
            trace: TraceSink::null(),
        }
    }

    /// `rank`'s slowdown schedule: its base factor plus its spikes.
    pub fn throttle_for(&self, rank: usize) -> ThrottlePlan {
        let base = self.throttle.get(rank).copied().unwrap_or(1.0);
        let mut plan = ThrottlePlan::constant(base.max(1.0));
        for &(r, from, to, factor) in &self.spikes {
            if r == rank {
                plan = plan.with_spike(from, to, factor);
            }
        }
        plan
    }
}

/// Result of a parallel run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The stitched global macroscopic state.
    pub snapshot: Snapshot,
    /// Per-worker reports, ordered by rank.
    pub reports: Vec<WorkerReport>,
    /// Wall-clock duration of the parallel section.
    pub wall_seconds: f64,
}

impl RunOutcome {
    /// Final plane counts by rank.
    pub fn final_counts(&self) -> Vec<usize> {
        self.reports.iter().map(|r| r.final_slab.nx_local).collect()
    }

    /// Total planes migrated (sum of sends).
    pub fn planes_migrated(&self) -> usize {
        self.reports.iter().map(|r| r.planes_sent).sum()
    }
}

/// Runs the configured simulation on `cfg.workers` threads under the given
/// neighbor-local remapping policy, each worker building its even slab on
/// its own thread. (A run resumes from checkpoints on rank processes:
/// `microslip mp --resume-phase`.)
pub fn run_parallel(cfg: &RuntimeConfig, policy: Arc<dyn NeighborPolicy>) -> RunOutcome {
    assert!(cfg.workers >= 1);
    assert!(
        cfg.channel.dims.nx >= cfg.workers,
        "need at least one plane per worker"
    );
    cfg.channel.validate().expect("invalid channel configuration");
    let transports = mesh(cfg.workers);
    let start = Instant::now();
    cfg.trace.record_with(|| Event::Meta {
        mode: "runtime".into(),
        nodes: cfg.workers,
        phases: cfg.phases,
        policy: policy.name().into(),
    });
    let policy = policy.as_ref();
    let mut finished: Vec<(WorkerReport, SlabSolver)> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .zip(even_slabs(cfg.channel.dims.nx, cfg.workers))
            .map(|(transport, slab)| {
                let rank = transport.rank();
                let throttle = cfg.throttle_for(rank);
                std::thread::Builder::new()
                    .name(format!("microslip-worker-{rank}"))
                    .spawn_scoped(scope, move || {
                        let predictor = HarmonicMean { window: cfg.predictor_window };
                        let solver = SlabSolver::new(&cfg.channel, slab);
                        worker_main(cfg, policy, &predictor, transport, solver, throttle, start)
                    })
                    .expect("spawn worker")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker panicked")
                    .unwrap_or_else(|e| panic!("worker failed: {e}"))
            })
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    finished.sort_by_key(|(r, _)| r.rank);
    let (reports, solvers): (Vec<WorkerReport>, Vec<SlabSolver>) = finished.into_iter().unzip();
    // Each solver ends in its planes of the global snapshot — no per-rank
    // snapshot in between, and its lattice handed back as the capture
    // passes it — every slab on its own thread.
    let dims = cfg.channel.dims;
    let slabs: Vec<Slab> = solvers.iter().map(SlabSolver::slab).collect();
    assert!(slabs_tile(slabs.iter().copied(), dims.nx), "final slabs do not tile the domain");
    let mut snapshot = Snapshot::zeros(0, dims.nx, dims.ny, dims.nz, cfg.channel.ncomp());
    std::thread::scope(|scope| {
        for (solver, planes) in solvers.into_iter().zip(snapshot.split_slabs(&slabs)) {
            scope.spawn(move || solver.into_capture(planes));
        }
    });
    RunOutcome { snapshot, reports, wall_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microslip_balance::policy::{Filtered, NoRemap};
    use microslip_lbm::{Dims, Simulation};

    fn small_channel() -> ChannelConfig {
        let mut c = ChannelConfig::paper_scaled(Dims::new(16, 6, 4));
        c.body = [1.0e-4, 0.0, 0.0];
        c
    }

    fn sequential_snapshot(channel: &ChannelConfig, phases: u64) -> Snapshot {
        let mut sim = Simulation::new(channel.clone());
        sim.run(phases);
        sim.snapshot()
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let channel = small_channel();
        let want = sequential_snapshot(&channel, 6);
        for workers in [1, 2, 4] {
            let cfg = RuntimeConfig::new(channel.clone(), workers, 6);
            let out = run_parallel(&cfg, Arc::new(NoRemap));
            assert_eq!(out.snapshot, want, "{workers} workers diverged from sequential");
        }
    }

    #[test]
    fn parallel_with_remapping_matches_sequential_bitwise() {
        let channel = small_channel();
        let want = sequential_snapshot(&channel, 12);
        let mut cfg = RuntimeConfig::new(channel, 4, 12);
        cfg.remap_interval = 3;
        cfg.predictor_window = 2;
        // Throttle one worker so migrations actually happen.
        cfg.throttle = vec![1.0, 6.0, 1.0, 1.0];
        let out = run_parallel(&cfg, Arc::new(Filtered::default()));
        assert_eq!(out.snapshot, want, "remapping changed the physics");
        // Work is conserved across migrations.
        assert_eq!(out.final_counts().iter().sum::<usize>(), 16);
    }

    #[test]
    fn filtered_drains_throttled_worker() {
        let channel = {
            let mut c = ChannelConfig::paper_scaled(Dims::new(32, 8, 4));
            c.body = [1.0e-4, 0.0, 0.0];
            c
        };
        let mut cfg = RuntimeConfig::new(channel, 4, 40);
        cfg.remap_interval = 5;
        cfg.predictor_window = 3;
        cfg.throttle = vec![1.0, 8.0, 1.0, 1.0];
        let out = run_parallel(&cfg, Arc::new(Filtered::default()));
        let counts = out.final_counts();
        assert!(
            counts[1] < 8,
            "throttled worker should shed planes: {counts:?}"
        );
        assert!(out.planes_migrated() > 0);
        // Slabs remain contiguous and ordered.
        let mut x = 0;
        for r in &out.reports {
            assert_eq!(r.final_slab.x0, x);
            x = r.final_slab.x_end();
        }
        assert_eq!(x, 32);
    }

    #[test]
    fn profiles_are_populated() {
        let cfg = RuntimeConfig::new(small_channel(), 2, 4);
        let out = run_parallel(&cfg, Arc::new(NoRemap));
        for r in &out.reports {
            assert!(r.profile.compute > 0.0);
            assert!(r.profile.total() <= out.wall_seconds + 0.05);
        }
    }
}
