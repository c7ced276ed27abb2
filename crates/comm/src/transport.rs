//! The transport abstraction: tagged point-to-point message passing.
//!
//! The paper parallelizes the LBM with MPI; this trait captures the small
//! subset the algorithm needs — blocking tagged send/receive between ranks
//! — so the same protocol code drives the in-process channel implementation
//! (and could drive a real MPI binding unchanged).
//!
//! Payloads are `Vec<f64>`: every message in the algorithm (halo planes,
//! ψ planes, load indices, migration planes, plane counts) is naturally a
//! sequence of doubles; small integers are representable exactly.

use std::fmt;

/// Rank of a node in the communicator, `0 .. size`.
pub type NodeId = usize;

/// Message tag disambiguating concurrent traffic between the same pair of
/// ranks (population halo vs. ψ halo vs. load exchange vs. migration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// Population (distribution function) halo exchange — paper line 8.
    pub const F_HALO: Tag = Tag(1);
    /// Number density halo exchange — paper line 14.
    pub const PSI_HALO: Tag = Tag(2);
    /// Load index (predicted time) exchange — paper line 24.
    pub const LOAD: Tag = Tag(3);
    /// Migration plane count announcement — paper line 26/29.
    pub const MIGRATE_COUNT: Tag = Tag(4);
    /// Migration plane payload — paper line 29.
    pub const MIGRATE_DATA: Tag = Tag(5);
    /// All-rank agreement (the rollback-phase sync after a recovery).
    pub const COLLECTIVE: Tag = Tag(6);
    /// Result gathering at the end of a run.
    pub const GATHER: Tag = Tag(7);

    /// Stable schema name of the traffic class (used in trace events).
    pub fn name(&self) -> &'static str {
        match *self {
            Tag::F_HALO => "f_halo",
            Tag::PSI_HALO => "psi_halo",
            Tag::LOAD => "load",
            Tag::MIGRATE_COUNT => "migrate_count",
            Tag::MIGRATE_DATA => "migrate_data",
            Tag::COLLECTIVE => "collective",
            Tag::GATHER => "gather",
            _ => "other",
        }
    }
}

/// Communication failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer (or the whole mesh) has shut down.
    Disconnected { peer: NodeId },
    /// A rank outside `0 .. size` was addressed.
    InvalidRank { rank: NodeId, size: usize },
    /// A blocking operation on `peer` exceeded the transport's deadline
    /// (the peer is presumed hung, not gone — retrying may succeed).
    Timeout { peer: NodeId },
    /// A rank addressed itself. Loopback is not part of the contract: no
    /// protocol in the slab decomposition self-sends (single-rank runs
    /// use the periodic-ghost fast path instead), and a network transport
    /// has no socket to itself.
    SelfSend { rank: NodeId },
    /// The peer spoke, but not the protocol: bad magic, unsupported
    /// version, CRC mismatch, or an impossible frame.
    Protocol { peer: NodeId, detail: String },
    /// The rendezvous/mesh establishment failed before the communicator
    /// existed (duplicate rank claim, roster mismatch, listener failure).
    Handshake { detail: String },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            CommError::Timeout { peer } => write!(f, "timed out waiting on peer {peer}"),
            CommError::SelfSend { rank } => {
                write!(f, "rank {rank} addressed itself (self-send is not supported)")
            }
            CommError::Protocol { peer, detail } => {
                write!(f, "protocol violation from peer {peer}: {detail}")
            }
            CommError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Blocking, tagged, ordered point-to-point transport.
///
/// Guarantees: messages between a fixed (sender, receiver, tag) triple are
/// delivered in send order; messages with different tags may be consumed in
/// any order (the implementation buffers out-of-order arrivals).
pub trait Transport: Send {
    /// This node's rank.
    fn rank(&self) -> NodeId;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Sends `payload` to `to` with `tag`. Does not block on the receiver.
    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError>;

    /// Receives the next message from `from` with `tag`, blocking until it
    /// arrives.
    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError>;
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn rank(&self) -> NodeId {
        (**self).rank()
    }

    fn size(&self) -> usize {
        (**self).size()
    }

    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError> {
        (**self).send(to, tag, payload)
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        (**self).recv(from, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct() {
        let tags = [
            Tag::F_HALO,
            Tag::PSI_HALO,
            Tag::LOAD,
            Tag::MIGRATE_COUNT,
            Tag::MIGRATE_DATA,
            Tag::COLLECTIVE,
            Tag::GATHER,
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn errors_display() {
        let e = CommError::Disconnected { peer: 3 };
        assert!(e.to_string().contains("3"));
        let e = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("9") && e.to_string().contains("4"));
        assert!(CommError::Timeout { peer: 2 }.to_string().contains("2"));
        assert!(CommError::SelfSend { rank: 1 }.to_string().contains("self-send"));
        let e = CommError::Protocol { peer: 0, detail: "bad magic".into() };
        assert!(e.to_string().contains("bad magic"));
        let e = CommError::Handshake { detail: "duplicate rank".into() };
        assert!(e.to_string().contains("duplicate rank"));
    }
}
