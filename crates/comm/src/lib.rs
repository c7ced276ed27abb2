#![forbid(unsafe_code)]
//! # microslip-comm — message-passing substrate
//!
//! An in-process substitute for the paper's MPI layer: tagged blocking
//! point-to-point transport ([`transport::Transport`]) with a
//! `std::sync::mpsc` implementation ([`channel::mesh`]), the linear/ring
//! topology of the 1-D slab decomposition ([`topology::LinearTopology`]),
//! the transport contract every backend must pass ([`contract`]) and a
//! traffic-counting wrapper ([`instrument`]). There are no collectives:
//! the filtered scheme's exchanges are neighbour-local, and the Global
//! baseline runs only on the virtual cluster.
//!
//! ```
//! use microslip_comm::{mesh, Tag, Transport};
//!
//! let mut ranks = mesh(2);
//! let mut b = ranks.pop().unwrap();
//! let mut a = ranks.pop().unwrap();
//! let echo = std::thread::spawn(move || {
//!     let msg = b.recv(0, Tag::F_HALO).unwrap();
//!     b.send(0, Tag::F_HALO, msg).unwrap();
//! });
//! a.send(1, Tag::F_HALO, vec![1.0, 2.0]).unwrap();
//! assert_eq!(a.recv(1, Tag::F_HALO).unwrap(), vec![1.0, 2.0]);
//! echo.join().unwrap();
//! ```


#![allow(
    clippy::needless_range_loop,
    reason = "index loops keep the stencil arithmetic explicit in the numerical kernels"
)]
pub mod channel;
pub mod contract;
pub mod instrument;
pub mod topology;
pub mod transport;

pub use channel::{mesh, ChannelTransport};
pub use instrument::{Counter, InstrumentedTransport};
pub use topology::LinearTopology;
pub use transport::{CommError, NodeId, Tag, Transport};
