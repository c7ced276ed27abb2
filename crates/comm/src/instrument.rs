//! Instrumented transport: wraps any [`Transport`] and counts traffic.
//!
//! Used to verify the communication volumes the algorithms are supposed
//! to produce — e.g. that the filtered scheme's load exchange really is
//! neighbor-local (O(1) small messages per remap round) while the global
//! baseline is O(P) — and by tests asserting protocol message budgets.

use std::collections::HashMap;

use crate::transport::{CommError, NodeId, Tag, Transport};

/// Running totals for one message direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    pub messages: u64,
    /// Payload volume in `f64` values (×8 for bytes).
    pub values: u64,
}

/// A [`Transport`] wrapper accumulating per-tag send/receive statistics.
pub struct InstrumentedTransport<T> {
    inner: T,
    sent: HashMap<Tag, Counter>,
    received: HashMap<Tag, Counter>,
}

impl<T: Transport> InstrumentedTransport<T> {
    pub fn new(inner: T) -> Self {
        InstrumentedTransport { inner, sent: HashMap::new(), received: HashMap::new() }
    }

    /// Totals sent with `tag`.
    pub fn sent(&self, tag: Tag) -> Counter {
        self.sent.get(&tag).copied().unwrap_or_default()
    }

    /// Totals received with `tag`.
    pub fn received(&self, tag: Tag) -> Counter {
        self.received.get(&tag).copied().unwrap_or_default()
    }

    /// Total messages sent across all tags.
    pub fn total_sent(&self) -> Counter {
        let mut c = Counter::default();
        for v in self.sent.values() {
            c.messages += v.messages;
            c.values += v.values;
        }
        c
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Emits one [`Traffic`](microslip_obs::Event::Traffic) event per tag
    /// seen in either direction, attributed to `node`. Tags are visited in
    /// ascending order so the emission sequence is deterministic; payload
    /// volumes are converted from `f64` values to bytes (×8) to match the
    /// byte-denominated volumes of the cluster simulator.
    pub fn flush_to(&self, sink: &microslip_obs::TraceSink, node: usize) {
        if !sink.enabled() {
            return;
        }
        let mut tags: Vec<Tag> =
            self.sent.keys().chain(self.received.keys()).copied().collect();
        tags.sort_unstable_by_key(|t| t.0);
        tags.dedup();
        for tag in tags {
            let s = self.sent(tag);
            let r = self.received(tag);
            sink.record(microslip_obs::Event::Traffic {
                node,
                tag: tag.name().to_string(),
                sent_messages: s.messages,
                sent_bytes: s.values * 8,
                recv_messages: r.messages,
                recv_bytes: r.values * 8,
            });
        }
    }
}

impl<T: Transport> Transport for InstrumentedTransport<T> {
    fn rank(&self) -> NodeId {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError> {
        let len = payload.len() as u64;
        self.inner.send(to, tag, payload)?;
        let c = self.sent.entry(tag).or_default();
        c.messages += 1;
        c.values += len;
        Ok(())
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        let payload = self.inner.recv(from, tag)?;
        let c = self.received.entry(tag).or_default();
        c.messages += 1;
        c.values += payload.len() as u64;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::mesh;
    use std::thread;

    #[test]
    fn counts_sends_and_receives_per_tag() {
        let mut m = mesh(2);
        let mut b = m.pop().unwrap();
        let mut a = InstrumentedTransport::new(m.pop().unwrap());
        let h = thread::spawn(move || {
            let _ = b.recv(0, Tag::F_HALO).unwrap();
            let _ = b.recv(0, Tag::PSI_HALO).unwrap();
            b.send(0, Tag::LOAD, vec![1.0]).unwrap();
        });
        a.send(1, Tag::F_HALO, vec![0.0; 10]).unwrap();
        a.send(1, Tag::PSI_HALO, vec![0.0; 4]).unwrap();
        let _ = a.recv(1, Tag::LOAD).unwrap();
        h.join().unwrap();

        assert_eq!(a.sent(Tag::F_HALO), Counter { messages: 1, values: 10 });
        assert_eq!(a.sent(Tag::PSI_HALO), Counter { messages: 1, values: 4 });
        assert_eq!(a.sent(Tag::LOAD), Counter::default());
        assert_eq!(a.received(Tag::LOAD), Counter { messages: 1, values: 1 });
        assert_eq!(a.total_sent(), Counter { messages: 2, values: 14 });
    }

    #[test]
    fn passthrough_preserves_semantics() {
        let mut m = mesh(2);
        let mut b = InstrumentedTransport::new(m.pop().unwrap());
        let mut a = InstrumentedTransport::new(m.pop().unwrap());
        assert_eq!(a.rank(), 0);
        assert_eq!(b.size(), 2);
        let h = thread::spawn(move || {
            let x = b.recv(0, Tag::LOAD).unwrap();
            b.send(0, Tag::LOAD, vec![x[0] + 1.0]).unwrap();
            b
        });
        a.send(1, Tag::LOAD, vec![41.0]).unwrap();
        assert_eq!(a.recv(1, Tag::LOAD).unwrap(), vec![42.0]);
        let b = h.join().unwrap();
        assert_eq!(b.received(Tag::LOAD).messages, 1);
        // into_inner unwraps cleanly.
        let _inner = a.into_inner();
    }

    #[test]
    fn flush_to_emits_sorted_byte_denominated_traffic() {
        use microslip_obs::{Event, TraceSink};

        let mut m = mesh(2);
        let mut b = m.pop().unwrap();
        let mut a = InstrumentedTransport::new(m.pop().unwrap());
        let h = thread::spawn(move || {
            let _ = b.recv(0, Tag::PSI_HALO).unwrap();
            let _ = b.recv(0, Tag::F_HALO).unwrap();
            b.send(0, Tag::LOAD, vec![1.0, 2.0]).unwrap();
        });
        a.send(1, Tag::PSI_HALO, vec![0.0; 4]).unwrap();
        a.send(1, Tag::F_HALO, vec![0.0; 10]).unwrap();
        let _ = a.recv(1, Tag::LOAD).unwrap();
        h.join().unwrap();

        let (sink, rec) = TraceSink::recorder(16);
        a.flush_to(&sink, 0);
        let events = rec.take();
        // Tags emitted in ascending tag order: f_halo(1), psi_halo(2), load(3).
        let tags: Vec<String> = events
            .iter()
            .map(|e| match e {
                Event::Traffic { tag, .. } => tag.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tags, ["f_halo", "psi_halo", "load"]);
        match &events[0] {
            Event::Traffic { sent_bytes, sent_messages, recv_messages, .. } => {
                assert_eq!(*sent_bytes, 80, "10 f64 values = 80 bytes");
                assert_eq!(*sent_messages, 1);
                assert_eq!(*recv_messages, 0);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Disabled sinks record nothing.
        let null = TraceSink::null();
        a.flush_to(&null, 0);
    }
}
