//! # microslip-lbm — multicomponent lattice Boltzmann physics core
//!
//! Implements the physics half of Zhou, Zhu, Petzold & Yang, *Parallel
//! Simulation of Fluid Slip in a Microchannel* (IPDPS 2004): the Shan–Chen
//! multicomponent lattice Boltzmann method on the D3Q19 lattice, with
//! hydrophobic wall forces, simulating apparent fluid slip of a water–air
//! mixture in a microchannel.
//!
//! The crate is organized so the same kernels drive both the sequential
//! reference ([`simulation::Simulation`]) and the distributed slab solver
//! ([`solver::SlabSolver`]) used by `microslip-runtime`; decomposition and
//! dynamic lattice-point migration are bitwise transparent to the physics.
//!
//! ```
//! use microslip_lbm::{ChannelConfig, Dims, Simulation};
//!
//! // A toy two-phase hydrophobic channel: water depletes at the walls.
//! let mut sim = Simulation::new(ChannelConfig::paper_scaled(Dims::new(6, 16, 4)));
//! sim.run(150);
//! let snap = sim.snapshot();
//! let wall = snap.rho[0][snap.idx(0, 0, 2)];
//! let bulk = snap.rho[0][snap.idx(0, 8, 2)];
//! assert!(wall < bulk);
//! ```


#![allow(
    clippy::needless_range_loop,
    reason = "index loops keep the stencil arithmetic explicit in the numerical kernels"
)]
pub mod analytic;
pub mod artifact;
pub mod boundary;
pub mod checkpoint;
pub mod collision;
pub mod component;
pub mod diagnostics;
pub mod equilibrium;
pub mod field;
pub mod force;
pub mod geometry;
pub mod lattice;
pub mod macroscopic;
pub mod mrt;
pub mod multicomponent;
pub mod observables;
pub(crate) mod simd;
pub mod simulation;
pub mod solver;
pub mod store;
pub mod streaming;
pub mod units;

// The configuration value types live in `microslip-config`, under clippy's
// boundary header, since decoders build them; they keep their paths here.
pub use microslip_config::{channel as config, config_codec, potential};

pub use boundary::WallBc;
pub use component::{CollisionOperator, ComponentSpec, CouplingMatrix};
pub use config::{ChannelConfig, InitProfile};
pub use force::{WallForce, WallForceMode};
pub use geometry::{Dims, Microchannel, Slab, SolidRegion};
pub use macroscopic::{Snapshot, SnapshotSlab};
pub use potential::PsiFn;
pub use artifact::{ArtifactInfo, ResultArtifact};
pub use checkpoint::CheckpointError;
pub use diagnostics::FlowDiagnostics;
pub use simulation::Simulation;
pub use solver::{Side, SlabSolver};
pub use store::CacheStore;
