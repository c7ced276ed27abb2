#![forbid(unsafe_code)]
//! # microslip-cluster — virtual-time non-dedicated cluster simulator
//!
//! The substitute for the paper's 32-node Linux cluster: a deterministic
//! discrete-time model of the parallel LBM's execution — phase-structured
//! computation, neighbor-synchronized halo exchanges, sluggish
//! communication at loaded nodes, and periodic lattice-point remapping —
//! calibrated against the timing anchors the paper reports (sequential
//! phase cost, dedicated speedup). It reruns the paper's 20-node ×
//! 20,000-phase experiments in milliseconds.
//!
//! * [`disturbance`] — competing-job models (fixed slow nodes, duty-cycle
//!   disturbance, transient spikes).
//! * [`costmodel`] — calibrated compute/communication cost constants.
//! * [`engine`] — the per-phase virtual-time engine with full per-node
//!   compute/communication/remapping accounting (Fig. 9's profile).
//! * [`experiment`] — one function per paper scenario, and one renderer
//!   per performance figure or table of the paper, each the text table
//!   `microslip figure NAME` prints (the registry is `microslip::figure`).
//!
//! ```
//! use microslip_cluster::{fixed_slow_point, Scheme};
//!
//! // One slow node, 600 phases: filtered remapping recovers most of the
//! // speedup that static decomposition loses.
//! let filtered = fixed_slow_point(600, Scheme::Filtered, 1);
//! let stuck = fixed_slow_point(600, Scheme::NoRemap, 1);
//! assert!(filtered.total_time < 0.6 * stuck.total_time);
//! assert!(filtered.final_counts[9] <= 3); // node 9 nearly drained
//! ```


#![allow(
    clippy::needless_range_loop,
    reason = "index loops keep the stencil arithmetic explicit in the numerical kernels"
)]
pub mod costmodel;
pub mod disturbance;
pub mod engine;
pub mod experiment;

pub use costmodel::{CostModel, MessageSizes};
pub use disturbance::{
    work_to_time, BaseSpeeds, Compose, Dedicated, Disturbance, DutyCycle, FixedSlowNodes,
    RankDeath, RankJoin, TransientSpikes, SLOW_SPEED, WINDOW,
};
pub use engine::{run, run_traced, ClusterConfig, NodeAccount, RunResult};
pub use experiment::{
    dedicated_speedup, fig3_point, fixed_slow_point, rank_death_point, run_scheme,
    run_scheme_traced, transient_point, Scheme,
};
