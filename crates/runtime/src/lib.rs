#![forbid(unsafe_code)]
//! # microslip-runtime — threaded parallel LBM with dynamic remapping
//!
//! A real (threaded, message-passing) implementation of the paper's
//! parallel program: each cluster node is an OS thread owning a slab of
//! the channel, exchanging halo planes over `microslip-comm` and executing
//! the distributed filtered-remapping protocol from `microslip-balance`.
//!
//! Two invariants are enforced by the integration tests:
//! * the parallel run is **bitwise identical** to the sequential
//!   [`microslip_lbm::Simulation`], for any worker count;
//! * dynamic remapping (under any throttling) changes *who* computes,
//!   never *what* — snapshots stay bitwise identical.
//!
//! Node slowness is injected deterministically with [`Throttle`] (padding
//! compute sections), mirroring the paper's CPU-stealing background jobs.
//!
//! ```
//! use std::sync::Arc;
//! use microslip_runtime::{run_parallel, RuntimeConfig};
//! use microslip_balance::Filtered;
//! use microslip_lbm::{ChannelConfig, Dims};
//!
//! let channel = ChannelConfig::paper_scaled(Dims::new(12, 6, 4));
//! let mut cfg = RuntimeConfig::new(channel, 3, 6);
//! cfg.remap_interval = 2;
//! cfg.predictor_window = 2;
//! let out = run_parallel(&cfg, Arc::new(Filtered::default()));
//! assert_eq!(out.final_counts().iter().sum::<usize>(), 12);
//! ```


#![allow(
    clippy::needless_range_loop,
    reason = "index loops keep the stencil arithmetic explicit in the numerical kernels"
)]
pub mod driver;
pub mod profile;
pub mod throttle;
pub mod trace;
pub mod worker;

pub use driver::{run_parallel, RunOutcome, RuntimeConfig};
pub use profile::Profile;
pub use throttle::{Throttle, ThrottlePlan};
pub use trace::Tracer;
pub use worker::{LoadModel, WorkerError, WorkerReport};
