//! Every name the ledger prints: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` lists the same names, and the regression
//! bounds of the metrics every workload has; the bounds of the four
//! workload-specific ones are in [`WORKLOAD_E2E`], because the contract's
//! per-layer entries cannot carry one. A full run and `--compare` refuse
//! to start when the two files have drifted apart.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Workload names with the reason each exists (the `why` of
/// `BENCHMARK.json`, one line each).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("seq_paper", "single-threaded Simulation::run on the paper grid: lbm kernels are ~100 % of it, so a kernel change shows undiluted"),
    ("threaded_paper", "dedicated 2-worker slab run, no remapping: lbm kernels + comm halo wait + runtime spawn/join/stitch; shows parallel efficiency"),
    ("threaded_remap", "same run with filtered remapping under a throttle and a spike: planes move as bulk migrations, balance + remap path on the clock"),
    ("mp_paper", "same physics as threaded_paper over process spawn, TCP halos, rank state files and trace merge; the gap to threaded is net + mp"),
    ("serve_sweep", "daemon sweep: cold jobs write sealed checkpoints, warm resubmits and fetches bypass the solver; a kernel change must not move the warm path"),
];

/// Metrics every workload reports from its untraced run.
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("mlups", "MLUPS"),
    lo("peak_rss_mb", "MB"),
];

/// End-to-end metrics only some workloads have. The contract wants every
/// end-to-end metric from every workload and never zero, so in
/// `BENCHMARK.json` these ride in the per-layer list (zero where they do
/// not apply); the ledger's own report and `--compare` treat them as
/// end-to-end, with these bounds.
pub const WORKLOAD_E2E: &[(&str, f64)] = &[
    ("disk_mb", 0.01),
    ("jobs_per_s", 0.08),
    ("warm_sweep_ms", 0.25),
    ("fetch_ms", 0.25),
];

/// Metrics of single layers, from the traced run. A layer that is not on
/// a workload's path reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // Workload-specific end-to-end metrics (see WORKLOAD_E2E).
    lo("disk_mb", "MB"),
    hi("jobs_per_s", "1/s"),
    lo("warm_sweep_ms", "ms"),
    lo("fetch_ms", "ms"),
    // Bases of the ratios below, measured in the same traced invocation.
    lo("base.run_s", "s"),
    lo("base.traced_run_s", "s"),
    lo("base.seq_run_s", "s"),
    lo("base.threaded_run_s", "s"),
    lo("base.rank_setup_s", "s"),
    // Host probe.
    hi("host.copy_gbps", "GB/s"),
    hi("host.llc_mb", "MB"),
    hi("host.copy_array_mb", "MB"),
    // lbm: the seven public steps of the fused schedule, per phase.
    lo("lbm.collide_edges_s", "s"),
    lo("lbm.f_ghosts_s", "s"),
    lo("lbm.stream_collide_s", "s"),
    lo("lbm.psi_s", "s"),
    lo("lbm.psi_ghosts_s", "s"),
    lo("lbm.forces_s", "s"),
    lo("lbm.velocities_s", "s"),
    lo("lbm.phase_sum_s", "s"),
    lo("lbm.phase_s_p50", "s"),
    lo("lbm.phase_s_p75", "s"),
    lo("lbm.phase_reconcile", "ratio"),
    lo("lbm.bytes_per_cell", "B"),
    hi("lbm.achieved_gbps", "GB/s"),
    hi("lbm.roofline_fraction", "ratio"),
    // lbm: the other things the lattice is used for.
    lo("lbm.solver_new_s", "s"),
    lo("lbm.snapshot_s", "s"),
    lo("lbm.halo_pack_s", "s"),
    lo("lbm.migrate_plane_s", "s"),
    lo("lbm.migrate_plane_bytes", "B"),
    lo("lbm.checkpoint_save_s", "s"),
    lo("lbm.checkpoint_load_s", "s"),
    lo("lbm.checkpoint_bytes", "B"),
    lo("lbm.sealed_write_s", "s"),
    lo("lbm.sealed_read_s", "s"),
    lo("lbm.artifact_seal_s", "s"),
    lo("lbm.artifact_unseal_s", "s"),
    lo("lbm.artifact_bytes", "B"),
    lo("lbm.store_put_s", "s"),
    lo("lbm.store_get_s", "s"),
    // comm / net: the runtime's per-phase message pattern.
    lo("comm.halo_phase_s", "s"),
    lo("comm.pingpong_us", "us"),
    lo("comm.halo_bytes_per_phase", "B"),
    lo("net.halo_phase_s", "s"),
    lo("net.pingpong_us", "us"),
    lo("net.frame_overhead_bytes", "B"),
    lo("net.mesh_connect_s", "s"),
    // runtime: from WorkerReport.profile.
    lo("runtime.compute_s_max", "s"),
    lo("runtime.halo_s_max", "s"),
    lo("runtime.pad_s_max", "s"),
    lo("runtime.remap_s_max", "s"),
    lo("runtime.imbalance", "ratio"),
    lo("runtime.unexplained_s", "s"),
    hi("runtime.parallel_efficiency", "ratio"),
    // balance: exact counts from the recorded decisions.
    lo("balance.decisions", "count"),
    lo("balance.applied", "count"),
    lo("balance.planes_migrated", "count"),
    lo("balance.final_planes_rank0", "count"),
    lo("balance.decide_us", "us"),
    // obs.
    lo("obs.events", "count"),
    lo("obs.overhead_pct", "%"),
    lo("obs.jsonl_export_s", "s"),
    lo("obs.merge_s", "s"),
    // mp.
    lo("mp.rank_busy_s_max", "s"),
    lo("mp.spawn_s", "s"),
    lo("mp.state_bytes", "B"),
    lo("mp.state_io_s", "s"),
    lo("mp.respawns", "count"),
    hi("mp.vs_threaded", "ratio"),
    lo("mp.unexplained_s", "s"),
    // scenario.
    lo("scenario.encode_us", "us"),
    lo("scenario.decode_us", "us"),
    lo("scenario.key_us", "us"),
    lo("scenario.expand_us", "us"),
    // serve.
    lo("serve.submit_rtt_ms", "ms"),
    lo("serve.queue_wait_s_p50", "s"),
    lo("serve.job_run_s_p50", "s"),
    lo("serve.direct_job_s", "s"),
    lo("serve.job_overhead_ratio", "ratio"),
    hi("serve.scheduled", "count"),
    hi("serve.cache_hits", "count"),
    lo("serve.respawns", "count"),
    lo("serve.jobs_failed", "count"),
    lo("serve.warm_sweep_ms_p80", "ms"),
    lo("serve.fetch_ms_p80", "ms"),
    lo("serve.fetch_bytes", "B"),
    lo("serve.shutdown_s", "s"),
];

pub fn workload_why(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.1)
}

pub fn per_layer(name: &str) -> Option<&'static Def> {
    PER_LAYER.iter().find(|d| d.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}
