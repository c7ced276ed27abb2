//! [`TcpTransport`]: the [`Transport`] contract over localhost TCP.
//!
//! One socket per peer pair (a fully connected mesh, built by
//! [`crate::mesh`]). Because each peer has its own stream, messages
//! from different senders can never mix; out-of-order *tags* from the same
//! peer are buffered in a local stash, exactly like the in-process channel
//! transport.
//!
//! Failure surface, never panics:
//! - read deadline exceeded → [`CommError::Timeout`] (peer presumed hung);
//! - EOF / reset / GOODBYE frame → [`CommError::Disconnected`];
//! - bad magic / version / CRC / impossible frame → [`CommError::Protocol`].
//!
//! Clean shutdown mirrors the MPI finalize handshake: send a GOODBYE
//! poison frame, `shutdown(Write)` (our FIN), then drain until the peer's
//! FIN so the kernel never turns unread bytes into an RST that would
//! corrupt the peer's view of its last frames.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use microslip_comm::{CommError, NodeId, Tag, Transport};

use crate::wire::{self, Frame, FrameError, FrameKind};

/// Deadlines for mesh establishment and steady-state I/O.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Deadline for a blocking `recv` on an established connection.
    pub read_timeout: Duration,
    /// Deadline for the whole mesh establishment: port files, dials,
    /// accepts and IDENT frames.
    pub handshake_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig { read_timeout: Duration::from_secs(60), handshake_timeout: Duration::from_secs(20) }
    }
}

/// One rank's endpoint of a TCP mesh communicator.
#[derive(Debug)]
pub struct TcpTransport {
    rank: NodeId,
    /// Stream to each peer; `None` at our own index.
    streams: Vec<Option<TcpStream>>,
    /// Arrived-but-unclaimed messages, keyed by (sender, tag).
    stash: HashMap<(NodeId, Tag), VecDeque<Vec<f64>>>,
    /// Peers that said goodbye or whose socket died.
    hung_up: Vec<bool>,
    /// Set once `close` has run, so `Drop` does not repeat the handshake.
    closed: bool,
}

fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    )
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    // Unix reports a hit read deadline as WouldBlock, Windows as TimedOut.
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

impl TcpTransport {
    /// Wraps an established, fully connected mesh. `streams[i]` must be
    /// the socket to rank `i` (and `None` at index `rank`).
    pub(crate) fn new(rank: NodeId, streams: Vec<Option<TcpStream>>) -> TcpTransport {
        let n = streams.len();
        TcpTransport { rank, streams, stash: HashMap::new(), hung_up: vec![false; n], closed: false }
    }

    /// Clean shutdown: GOODBYE to every live peer, FIN, then a bounded
    /// drain of whatever the peer still had in flight. Idempotent; also
    /// invoked from `Drop`.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        // Best-effort farewell: `close` has no error path (it runs from
        // `Drop`), so an absurd rank just becomes a sentinel the peer drops.
        let goodbye = wire::encode(&Frame::goodbye(u32::try_from(self.rank).unwrap_or(u32::MAX)));
        for (peer, slot) in self.streams.iter_mut().enumerate() {
            let Some(stream) = slot else { continue };
            if !self.hung_up.get(peer).copied().unwrap_or(true) {
                use std::io::Write;
                let _ = stream.write_all(&goodbye);
            }
            let _ = stream.shutdown(Shutdown::Write);
            // FIN-drain: consume until the peer's FIN (EOF) or a short
            // deadline, so close() never blocks on a hung peer.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            let mut sink = [0u8; 4096];
            loop {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            *slot = None;
        }
    }

    fn check_peer(&self, peer: NodeId) -> Result<(), CommError> {
        if peer == self.rank {
            return Err(CommError::SelfSend { rank: self.rank });
        }
        if peer >= self.streams.len() {
            return Err(CommError::InvalidRank { rank: peer, size: self.streams.len() });
        }
        Ok(())
    }

    fn map_io(&mut self, peer: NodeId, e: io::Error) -> CommError {
        if is_timeout(e.kind()) {
            CommError::Timeout { peer }
        } else if is_disconnect(e.kind()) {
            self.mark_hung(peer);
            CommError::Disconnected { peer }
        } else {
            CommError::Protocol { peer, detail: format!("socket error: {e}") }
        }
    }

    /// Whether `peer` said goodbye or its socket died. Out-of-range ranks
    /// (pre-filtered by `check_peer`) read as hung so no caller can reach
    /// a live stream through an invalid index.
    fn is_hung(&self, peer: NodeId) -> bool {
        self.hung_up.get(peer).copied().unwrap_or(true)
    }

    fn mark_hung(&mut self, peer: NodeId) {
        if let Some(flag) = self.hung_up.get_mut(peer) {
            *flag = true;
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> NodeId {
        self.rank
    }

    fn size(&self) -> usize {
        self.streams.len()
    }

    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError> {
        self.check_peer(to)?;
        if self.is_hung(to) {
            return Err(CommError::Disconnected { peer: to });
        }
        let from = u32::try_from(self.rank).map_err(|_| CommError::Protocol {
            peer: to,
            detail: format!("local rank {} overflows the wire's u32 rank field", self.rank),
        })?;
        let bytes = wire::encode(&Frame::data(from, tag.0, payload));
        let result = {
            use std::io::Write;
            let Some(stream) = self.streams.get_mut(to).and_then(Option::as_mut) else {
                return Err(CommError::Disconnected { peer: to });
            };
            stream.write_all(&bytes)
        };
        result.map_err(|e| self.map_io(to, e))
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        self.check_peer(from)?;
        // Stash first: messages read while waiting for another tag are
        // still deliverable even after the peer hung up.
        if let Some(queue) = self.stash.get_mut(&(from, tag)) {
            if let Some(payload) = queue.pop_front() {
                return Ok(payload);
            }
        }
        if self.is_hung(from) {
            return Err(CommError::Disconnected { peer: from });
        }
        loop {
            let read = {
                let Some(stream) = self.streams.get_mut(from).and_then(Option::as_mut) else {
                    return Err(CommError::Disconnected { peer: from });
                };
                wire::read_frame(stream)
            };
            let frame = match read {
                Ok(frame) => frame,
                Err(FrameError::Io(e)) => return Err(self.map_io(from, e)),
                Err(FrameError::Protocol(detail)) => {
                    // A desynchronized stream cannot be trusted again.
                    self.mark_hung(from);
                    return Err(CommError::Protocol { peer: from, detail });
                }
            };
            match frame.kind {
                FrameKind::Goodbye => {
                    self.mark_hung(from);
                    return Err(CommError::Disconnected { peer: from });
                }
                FrameKind::Data => {
                    if usize::try_from(frame.from) != Ok(from) {
                        self.mark_hung(from);
                        return Err(CommError::Protocol {
                            peer: from,
                            detail: format!(
                                "frame claims sender {} on the socket to rank {from}",
                                frame.from
                            ),
                        });
                    }
                    if frame.tag == tag.0 {
                        return Ok(frame.payload);
                    }
                    self.stash.entry((from, Tag(frame.tag))).or_default().push_back(frame.payload);
                }
                other => {
                    self.mark_hung(from);
                    return Err(CommError::Protocol {
                        peer: from,
                        detail: format!("unexpected {other:?} frame on established connection"),
                    });
                }
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn every_kind_but_data_and_goodbye_is_a_protocol_error() {
        for kind in FrameKind::ALL {
            if matches!(kind, FrameKind::Data | FrameKind::Goodbye) {
                continue;
            }
            // Rank 0 of two, its socket to rank 1 fed raw frames by the test.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut rank0 = TcpTransport::new(0, vec![None, Some(stream)]);
            peer.write_all(&wire::encode(&Frame { kind, from: 1, tag: 0, payload: vec![] }))
                .unwrap();
            match rank0.recv(1, Tag(0)) {
                Err(CommError::Protocol { peer: 1, detail }) => {
                    assert!(detail.contains(&format!("{kind:?}")), "{detail}")
                }
                other => panic!("{kind:?} frame: expected a protocol error, got {other:?}"),
            }
            // Hang up first so closing rank 0 does not wait out its drain.
            drop(peer);
        }
    }
}
