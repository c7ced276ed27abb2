#![forbid(unsafe_code)]
//! # microslip-balance — filtered dynamic remapping of lattice points
//!
//! The paper's primary contribution: load-balancing policies that remap
//! y–z lattice planes between the nodes of a 1-D slab decomposition in
//! response to observed node slowness.
//!
//! * [`predict`] — load-index predictors (the paper's lazy harmonic mean
//!   plus literature baselines).
//! * [`partition`] — the contiguous plane partition and its invariants.
//! * [`policy`] — the four remapping schemes of the paper's evaluation:
//!   no-remapping, filtered (lazy + over-redistribution), conservative and
//!   global.
//! * [`plan`] — plane transfers implied by a partition change.
//! * [`trace`] — remap-decision audit events for the observability layer.
//!
//! The crate is substrate-agnostic: the same policies drive the
//! virtual-time cluster simulator (`microslip-cluster`) and the threaded
//! runtime (`microslip-runtime`).
//!
//! ```
//! use microslip_balance::{Filtered, Partition, RemapPolicy};
//!
//! // 20 nodes × 20 planes of 4,000 points (the paper's channel); node 9
//! // is three times slower than the rest.
//! let partition = Partition::even(400, 20, 4000);
//! let predicted: Vec<Option<f64>> = (0..20)
//!     .map(|i| {
//!         let speed = if i == 9 { 0.3 } else { 1.0 };
//!         Some(partition.points(i) as f64 / speed)
//!     })
//!     .collect();
//! let target = Filtered::default().target_counts(&predicted, &partition);
//! // Over-redistribution drains the slow node aggressively…
//! assert!(target[9] < 10);
//! // …while conserving the total work.
//! assert_eq!(target.iter().sum::<usize>(), 400);
//! ```


#![allow(
    clippy::needless_range_loop,
    reason = "index loops keep the stencil arithmetic explicit in the numerical kernels"
)]
pub mod partition;
pub mod plan;
pub mod policy;
pub mod predict;
pub mod trace;

pub use partition::Partition;
pub use plan::{diff, is_neighbor_only, total_moved, Move};
pub use policy::{
    node_speeds, Conservative, FilterParams, Filtered, Global, InfoExchange, NeighborPolicy,
    NoRemap, RemapPolicy,
};
pub use trace::decision_event;
pub use predict::{ArithmeticMean, ExpSmoothing, HarmonicMean, History, LastPhase, Predictor};
