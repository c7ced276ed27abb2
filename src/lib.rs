#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
#![forbid(unsafe_code)]
//! # microslip
//!
//! A Rust reproduction of Zhou, Zhu, Petzold & Yang, *Parallel Simulation
//! of Fluid Slip in a Microchannel* (IPDPS 2004): the multicomponent
//! Shan–Chen lattice Boltzmann method simulating apparent fluid slip at
//! hydrophobic microchannel walls, parallelized by 1-D slab decomposition
//! with **filtered dynamic remapping** of lattice points for load balance
//! on non-dedicated clusters.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`lbm`] — the D3Q19 multicomponent LBM physics core;
//! * [`comm`] — the in-process message-passing substrate (MPI substitute);
//! * [`balance`] — load-index predictors and the four remapping policies
//!   (no-remap / filtered / conservative / global);
//! * [`cluster`] — the calibrated virtual-time non-dedicated-cluster
//!   simulator used to regenerate the paper's performance figures;
//! * [`runtime`] — the threaded parallel runtime with live remapping;
//! * [`obs`] — the zero-dependency structured event-tracing layer (JSONL
//!   and Chrome `trace_event` exporters, derived summaries).
//!
//! Five additions live in the facade itself:
//!
//! * [`figure`] — the one registry of the paper's figures and tables,
//!   virtual-cluster and physics alike, behind `microslip figure NAME`;
//! * [`Scenario`] — the canonical value type describing one run
//!   (geometry + physics + boundary conditions + schedule), with a
//!   canonical binary codec and a content-address [`Scenario::key`];
//!   finalize it onto real threads ([`Scenario::runtime`]), the
//!   virtual-time cluster ([`Scenario::cluster`]), or separate OS
//!   processes over localhost TCP ([`Scenario::multiprocess`]);
//! * [`mp`] — the multi-process rank runtime: a driver that forks
//!   `microslip mp-worker` children meshed by [`microslip_net`] and
//!   stitches their snapshots, reports and JSONL traces back together;
//! * [`serve`] — the sweep daemon behind `microslip serve`: expands
//!   parameter grids into [`Scenario`] jobs, dedupes them through a
//!   content-addressed result cache, and supervises worker subprocesses
//!   with checkpoint-restart;
//! * [`prelude`] — one `use microslip::prelude::*;` for the common types.
//!
//! ## Quickstart
//!
//! ```
//! use microslip::lbm::{ChannelConfig, Dims, Simulation};
//! use microslip::lbm::observables::{apparent_slip_fraction, mean_velocity_y_profile};
//!
//! // A scaled-down hydrophobic microchannel (the paper's physics at
//! // laptop resolution).
//! let cfg = ChannelConfig::paper_scaled(Dims::new(8, 24, 6));
//! let mut sim = Simulation::new(cfg);
//! sim.run(50);
//! let profile = mean_velocity_y_profile(&sim.snapshot());
//! let slip = apparent_slip_fraction(&profile);
//! assert!(slip.is_finite());
//! ```

pub use microslip_balance as balance;
pub use microslip_cluster as cluster;
pub use microslip_comm as comm;
pub use microslip_lbm as lbm;
pub use microslip_obs as obs;
pub use microslip_runtime as runtime;

pub mod figure;
pub mod mp;
pub mod scenario;
pub mod serve;
pub mod supervisor;
pub use mp::{
    run_multiprocess, MpConfig, MpFailure, MpFault, MpOutcome, MpReport,
};
pub use scenario::{ClusterExperiment, Multiprocess, Runtime, Scenario};

/// The types most runs need, in one import.
///
/// ```
/// use microslip::prelude::*;
///
/// let r = Scenario::paper_scaled(8, 6, 4).workers(2).phases(2).runtime().unwrap().run();
/// assert!(r.wall_seconds >= 0.0);
/// ```
pub mod prelude {
    pub use crate::mp::{MpConfig, MpOutcome};
    pub use crate::scenario::{ClusterExperiment, Multiprocess, Runtime, Scenario};
    pub use microslip_cluster::{
        ClusterConfig, Dedicated, Disturbance, DutyCycle, FixedSlowNodes, RunResult, Scheme,
        TransientSpikes,
    };
    pub use microslip_lbm::{ChannelConfig, Dims, Simulation};
    pub use microslip_obs::{
        to_chrome_trace, to_jsonl, Event, Recorder, TraceSink, TraceSummary,
    };
    pub use microslip_runtime::{LoadModel, RunOutcome, RuntimeConfig};
}
