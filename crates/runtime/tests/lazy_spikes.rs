//! The lazy-remapping claim on real threads: a transient spike shorter
//! than the harmonic predictor's window must not trigger migration, while
//! a persistent slowdown must — the live analogue of the paper's
//! Table 1 / §3.4 design rationale.

use std::sync::Arc;

use microslip_balance::Filtered;
use microslip_lbm::{ChannelConfig, Dims, Simulation};
use microslip_runtime::{run_parallel, LoadModel, RuntimeConfig};

/// The load index is synthetic — work per plane times the throttle and
/// spike factors — so a spike reaches the predictor exactly as set, and a
/// busy host's wall-clock noise cannot.
fn base_config(phases: u64) -> RuntimeConfig {
    let mut channel = ChannelConfig::paper_scaled(Dims::new(16, 8, 4));
    channel.body = [1e-4, 0.0, 0.0];
    let mut cfg = RuntimeConfig::new(channel, 4, phases);
    cfg.remap_interval = 5;
    cfg.predictor_window = 10;
    cfg.load = LoadModel::Synthetic { per_point: 1e-6 };
    cfg
}

#[test]
fn brief_spike_does_not_trigger_migration() {
    // A 3-phase spike inside a 10-phase harmonic window barely moves the
    // prediction; with the paper's one-plane threshold nothing migrates.
    let mut cfg = base_config(40);
    cfg.spikes = vec![(1, 12, 15, 6.0)];
    let out = run_parallel(&cfg, Arc::new(Filtered::default()));
    assert_eq!(
        out.planes_migrated(),
        0,
        "lazy remapping must shrug off brief spikes: {:?}",
        out.final_counts()
    );
    assert_eq!(out.final_counts(), vec![4, 4, 4, 4]);
}

#[test]
fn persistent_slowdown_does_trigger_migration() {
    // Same spike magnitude, but persistent: migration must happen.
    let mut cfg = base_config(40);
    cfg.throttle = vec![1.0, 6.0, 1.0, 1.0];
    let out = run_parallel(&cfg, Arc::new(Filtered::default()));
    assert!(out.planes_migrated() > 0);
    assert!(out.final_counts()[1] < 4, "{:?}", out.final_counts());
}

#[test]
fn spiked_run_remains_bitwise_correct() {
    let mut cfg = base_config(25);
    cfg.spikes = vec![(2, 8, 12, 5.0), (0, 15, 18, 4.0)];
    let out = run_parallel(&cfg, Arc::new(Filtered::default()));
    let mut sim = Simulation::new(cfg.channel.clone());
    sim.run(25);
    assert_eq!(out.snapshot, sim.snapshot());
}
