//! In-process transport over `std::sync::mpsc` channels.
//!
//! [`mesh`] builds a fully connected communicator of `n` ranks; each rank's
//! [`ChannelTransport`] is moved onto its worker thread. Receives match on
//! (sender, tag); out-of-order arrivals are buffered locally so concurrent
//! protocols (halo exchange racing with migration) cannot steal each
//! other's messages.
//!
//! Peer hangup is observable: a transport sends a *goodbye* envelope to
//! every peer when dropped (the in-process analogue of the TCP poison
//! frame), so a rank blocked on a vanished peer gets
//! [`CommError::Disconnected`] instead of hanging forever on a channel
//! whose other senders are still alive.

use std::collections::{HashMap, VecDeque};

use std::sync::mpsc::{channel, Receiver, Sender};

use crate::transport::{CommError, NodeId, Tag, Transport};

enum Payload {
    Data(Vec<f64>),
    /// The sender's transport was dropped; no further traffic will come.
    Goodbye,
}

struct Envelope {
    from: NodeId,
    tag: Tag,
    payload: Payload,
}

/// One rank's endpoint of an in-process communicator.
pub struct ChannelTransport {
    rank: NodeId,
    peers: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Arrived-but-unclaimed messages, keyed by (sender, tag).
    stash: HashMap<(NodeId, Tag), VecDeque<Vec<f64>>>,
    /// Peers that said goodbye (or whose channel endpoint is gone).
    hung_up: Vec<bool>,
}

/// Builds a communicator of `n` ranks. Element `i` of the result is rank
/// `i`'s transport.
pub fn mesh(n: usize) -> Vec<ChannelTransport> {
    assert!(n > 0);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| ChannelTransport {
            rank,
            peers: senders.clone(),
            inbox,
            stash: HashMap::new(),
            hung_up: vec![false; n],
        })
        .collect()
}

impl Transport for ChannelTransport {
    fn rank(&self) -> NodeId {
        self.rank
    }

    fn size(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError> {
        if to == self.rank {
            return Err(CommError::SelfSend { rank: self.rank });
        }
        let sender = self
            .peers
            .get(to)
            .ok_or(CommError::InvalidRank { rank: to, size: self.peers.len() })?;
        if self.hung_up[to] {
            return Err(CommError::Disconnected { peer: to });
        }
        sender
            .send(Envelope { from: self.rank, tag, payload: Payload::Data(payload) })
            .map_err(|_| CommError::Disconnected { peer: to })
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        if from == self.rank {
            return Err(CommError::SelfSend { rank: self.rank });
        }
        if from >= self.peers.len() {
            return Err(CommError::InvalidRank { rank: from, size: self.peers.len() });
        }
        // Check the stash first — messages that arrived before a hangup
        // are still deliverable.
        if let Some(queue) = self.stash.get_mut(&(from, tag)) {
            if let Some(payload) = queue.pop_front() {
                return Ok(payload);
            }
        }
        if self.hung_up[from] {
            return Err(CommError::Disconnected { peer: from });
        }
        // Drain the inbox until the wanted message arrives.
        loop {
            let env =
                self.inbox.recv().map_err(|_| CommError::Disconnected { peer: from })?;
            match env.payload {
                Payload::Goodbye => {
                    self.hung_up[env.from] = true;
                    if env.from == from {
                        return Err(CommError::Disconnected { peer: from });
                    }
                }
                Payload::Data(data) => {
                    if env.from == from && env.tag == tag {
                        return Ok(data);
                    }
                    self.stash.entry((env.from, env.tag)).or_default().push_back(data);
                }
            }
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        for (peer, sender) in self.peers.iter().enumerate() {
            if peer != self.rank {
                // Best effort: a peer already gone cannot hear goodbye.
                let _ = sender.send(Envelope {
                    from: self.rank,
                    tag: Tag(0),
                    payload: Payload::Goodbye,
                });
            }
        }
    }
}

impl ChannelTransport {
    /// Number of stashed (arrived but unclaimed) messages — useful to
    /// assert protocols consume everything they are sent.
    pub fn stashed(&self) -> usize {
        self.stash.values().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ping_pong() {
        let mut m = mesh(2);
        let mut b = m.pop().unwrap();
        let mut a = m.pop().unwrap();
        let h = thread::spawn(move || {
            let x = b.recv(0, Tag::F_HALO).unwrap();
            b.send(0, Tag::F_HALO, vec![x[0] * 2.0]).unwrap();
        });
        a.send(1, Tag::F_HALO, vec![21.0]).unwrap();
        let r = a.recv(1, Tag::F_HALO).unwrap();
        assert_eq!(r, vec![42.0]);
        h.join().unwrap();
    }

    #[test]
    fn dropped_peer_reports_disconnected() {
        let mut m = mesh(3);
        let c = m.pop().unwrap();
        let b = m.pop().unwrap();
        let mut a = m.pop().unwrap();
        drop(b);
        // Rank 2 is still alive, so the inbox channel itself stays open;
        // only the goodbye envelope can unblock this receive.
        assert_eq!(a.recv(1, Tag::F_HALO), Err(CommError::Disconnected { peer: 1 }));
        // Subsequent operations on the dead peer fail fast.
        assert_eq!(
            a.send(1, Tag::F_HALO, vec![1.0]),
            Err(CommError::Disconnected { peer: 1 })
        );
        drop(c);
    }

    #[test]
    fn messages_sent_before_hangup_are_still_delivered() {
        let mut m = mesh(2);
        let mut b = m.pop().unwrap();
        let mut a = m.pop().unwrap();
        b.send(0, Tag::LOAD, vec![7.0]).unwrap();
        drop(b);
        assert_eq!(a.recv(1, Tag::LOAD).unwrap(), vec![7.0]);
        assert_eq!(a.recv(1, Tag::LOAD), Err(CommError::Disconnected { peer: 1 }));
    }

    #[test]
    fn self_send_rejected() {
        let mut m = mesh(2);
        let mut a = m.remove(0);
        assert_eq!(
            a.send(0, Tag::LOAD, vec![7.0]),
            Err(CommError::SelfSend { rank: 0 })
        );
        assert_eq!(a.recv(0, Tag::LOAD), Err(CommError::SelfSend { rank: 0 }));
    }

    #[test]
    fn many_ranks_ring_exchange() {
        let n = 8;
        let m = mesh(n);
        let handles: Vec<_> = m
            .into_iter()
            .map(|mut t| {
                thread::spawn(move || {
                    let rank = t.rank();
                    let right = (rank + 1) % n;
                    let left = (rank + n - 1) % n;
                    t.send(right, Tag::F_HALO, vec![rank as f64]).unwrap();
                    t.send(left, Tag::F_HALO, vec![-(rank as f64)]).unwrap();
                    let from_left = t.recv(left, Tag::F_HALO).unwrap();
                    let from_right = t.recv(right, Tag::F_HALO).unwrap();
                    assert_eq!(from_left, vec![left as f64]);
                    assert_eq!(from_right, vec![-(right as f64)]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
