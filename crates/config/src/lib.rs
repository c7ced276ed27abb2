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
//! # microslip-config — what a channel run is, and its bytes
//!
//! The value types a [`ChannelConfig`] is made of — grid [`Dims`],
//! [`SolidRegion`] obstacles, the [`WallBc`] wall law, the fluid
//! components ([`ComponentSpec`], [`CollisionOperator`], [`MrtRates`],
//! [`PsiFn`]), their [`CouplingMatrix`] and the hydrophobic
//! [`WallForce`] — with their checks and the canonical byte codec
//! ([`config_codec`]) that ships them between processes and into
//! scenario keys.
//!
//! Config bytes arrive from sockets and files (a sweep request, a
//! scenario blob, a rank's command file), so every fn a decoder can
//! reach lives here, under the header above: no unwrap, no panic, no
//! unchecked indexing and no narrowing cast anywhere in the crate. The
//! crate depends on `microslip-codec` alone, so nothing it calls can
//! escape the header. The LBM kernels (`microslip-lbm`) read these types
//! and re-export each one at its old path.

pub mod boundary;
pub mod channel;
pub mod component;
pub mod config_codec;
pub mod geometry;
pub mod potential;
pub mod wall_force;

pub use boundary::WallBc;
pub use channel::{ChannelConfig, InitProfile};
pub use component::{CollisionOperator, ComponentSpec, CouplingMatrix, MrtRates};
pub use geometry::{Dims, SolidRegion, WallDistances};
pub use potential::PsiFn;
pub use wall_force::{WallForce, WallForceMode};

/// The lattice speed of sound squared, `c_s² = 1/3` (D3Q19): the
/// viscosity of a relaxation time and the ideal part of the equation of
/// state.
pub const CS2: f64 = 1.0 / 3.0;
