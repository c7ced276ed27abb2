//! Periodic on-disk checkpoints: `checkpoint_every` writes
//! `ckpt-rank{r}-phase{p}.bin` files mid-run, and a run restarted from
//! them continues bitwise — same final fields as the uninterrupted run.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use microslip_balance::policy::Filtered;
use microslip_lbm::{ChannelConfig, Dims};
use microslip_runtime::driver::run_parallel_from;
use microslip_runtime::{run_parallel, RuntimeConfig};

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microslip-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn channel() -> ChannelConfig {
    let mut c = ChannelConfig::paper_scaled(Dims::new(20, 6, 4));
    c.body = [1e-4, 0.0, 0.0];
    c
}

#[test]
fn periodic_checkpoints_restart_bitwise() {
    let dir = scratch_dir("ckpt-restart");
    let workers = 4;

    // Uninterrupted 10-phase reference, with remapping + a throttled rank
    // so the slab layout actually changes before the checkpoint.
    let mut cfg = RuntimeConfig::new(channel(), workers, 10);
    cfg.remap_interval = 3;
    cfg.predictor_window = 2;
    cfg.throttle = vec![1.0, 6.0, 1.0, 1.0];
    let want = run_parallel(&cfg, Arc::new(Filtered::default()));

    // Same run, writing checkpoints every 5 phases.
    let mut ckpt_cfg = cfg.clone();
    ckpt_cfg.checkpoint_every = 5;
    ckpt_cfg.checkpoint_dir = Some(dir.clone());
    let full = run_parallel(&ckpt_cfg, Arc::new(Filtered::default()));
    assert_eq!(full.snapshot, want.snapshot, "checkpointing must not perturb the run");

    for phase in [5u64, 10] {
        for rank in 0..workers {
            assert!(
                dir.join(format!("ckpt-rank{rank}-phase{phase}.bin")).exists(),
                "missing checkpoint for rank {rank} phase {phase}"
            );
        }
    }

    // Restart from the phase-5 files (sealed: CRC trailer verified on
    // read) and run the remaining 5 phases.
    let solvers = (0..workers)
        .map(|rank| {
            let path = dir.join(format!("ckpt-rank{rank}-phase5.bin"));
            microslip_lbm::checkpoint::read_solver(&cfg.channel, &path).unwrap().0
        })
        .collect();
    let mut resume_cfg = cfg.clone();
    resume_cfg.phases = 5;
    let resumed = run_parallel_from(&resume_cfg, Arc::new(Filtered::default()), solvers);
    assert_eq!(
        resumed.snapshot, want.snapshot,
        "restart from periodic checkpoints diverged from the uninterrupted run"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn no_checkpoint_files_without_interval() {
    let dir = scratch_dir("ckpt-none");
    let mut cfg = RuntimeConfig::new(channel(), 2, 4);
    cfg.checkpoint_dir = Some(dir.clone());
    // checkpoint_every stays 0: the directory must remain empty.
    run_parallel(&cfg, Arc::new(Filtered::default()));
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&dir);
}
