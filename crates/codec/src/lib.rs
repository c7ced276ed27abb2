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
//! The one checksum and the one seal of the microslip workspace.
//!
//! Checkpoints (`MSLIPCK4`), rank state files, result artifacts
//! (`MSLIPRA1`), cache entries and wire frames (`MSN1`) all protect their
//! bytes with the same CRC-32, and all but the frames carry it the same
//! way: as a four-byte little-endian trailer. This crate owns both — the
//! [`Crc32`] (a carry-less-multiply fold where the CPU has one, table-sliced
//! otherwise) and the streaming [`SealWriter`] / [`SealReader`] pair — plus
//! the bulk little-endian `f64` runs those formats are mostly made of, and
//! the one bounded scalar cursor ([`Reader`] with its `put_*` writers) the
//! unsealed codecs — channel config, scenario, sweep request, artifact body
//! — are built from. It depends on nothing and is on the trust boundary:
//! these bytes come off disks and sockets, so nothing here panics on what it
//! reads. Its one `unsafe` is the call into the fold after the CPU features
//! it needs were detected; the fold itself reads through safe slices.

mod crc;
mod cursor;
mod le;
mod seal;

pub use crc::{crc32, Crc32};
pub use cursor::{put_f64, put_str, put_u64, Reader, MAX_STR_LEN};
pub use le::{f64s_from_le, put_f64s, read_f64s, write_f64s};
pub use seal::{
    open, publish, read_file, seal, unseal, verify, write_file, SealError, SealReader, SealWriter,
    CHUNK, TRAILER_LEN,
};
