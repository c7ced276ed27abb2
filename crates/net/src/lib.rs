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
//! # microslip-net — TCP socket transport
//!
//! A genuine network backend for the [`microslip_comm::Transport`]
//! contract, built on `std::net` only (the repository vendors no external
//! crates and this one adds none). Where `microslip-comm`'s channel mesh
//! stands in for MPI inside one address space, this crate puts every rank
//! in its own OS process and moves halo planes, load indices, and
//! migration payloads over localhost TCP sockets — the same role MPI over
//! the interconnect plays in the paper's cluster runs.
//!
//! Layers:
//! - [`wire`]: the length-prefixed little-endian frame format with CRC-32
//!   integrity checking;
//! - [`mesh`]: [`join_mesh`], which turns N processes sharing a run
//!   directory into a fully connected mesh with verified ranks: each
//!   publishes its data port as `DIR/rank{r}.port`, dials the ranks below
//!   it and identifies itself;
//! - [`tcp`]: [`TcpTransport`], the steady-state tagged send/receive with
//!   timeout and clean-shutdown semantics;
//! - [`serve`]: [`ServeLoop`], the one-request/one-reply accept loop the
//!   sweep daemon (`microslip serve`) fronts its scheduler with, plus the
//!   matching single-exchange [`request`] client call. Serve frames use
//!   kind codes 16+ — see the versioning notes in [`wire`].
//!
//! The transport passes the generic contract suite in
//! `microslip_comm::contract`, so the worker protocol behaves identically
//! on threads and sockets — which is what makes the multi-process runtime
//! bitwise-equivalent to the threaded one.

pub mod mesh;
pub mod serve;
pub mod tcp;
pub mod wire;

pub use mesh::{join_mesh, localhost_mesh, parse_port, port_path};
pub use serve::{request, Body, Reply, Served, ServeLoop};
pub use tcp::{NetConfig, TcpTransport};
