//! Periodic on-disk checkpoints are written only on request: with
//! `checkpoint_every` at 0 a run leaves its checkpoint directory empty.
//! (That a threaded run's checkpoints restart bitwise on rank processes is
//! `tests/mp_runs.rs::periodic_checkpoints_restart_bitwise` in the root
//! package.)

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use microslip_balance::policy::Filtered;
use microslip_lbm::{ChannelConfig, Dims};
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
fn no_checkpoint_files_without_interval() {
    let dir = scratch_dir("ckpt-none");
    let mut cfg = RuntimeConfig::new(channel(), 2, 4);
    cfg.checkpoint_dir = Some(dir.clone());
    // checkpoint_every stays 0: the directory must remain empty.
    run_parallel(&cfg, Arc::new(Filtered::default()));
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&dir);
}
