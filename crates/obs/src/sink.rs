//! Event sinks: where recorded events go.
//!
//! A [`TraceSink`] is either disabled or a handle to one shared
//! [`Recorder`], callable concurrently from worker threads. Producers
//! consult [`TraceSink::enabled`] before assembling expensive payloads, so
//! a disabled sink costs one `Option` check per potential event.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::Event;

/// Default [`Recorder`] capacity: plenty for the repo's experiment scales
/// (a 20-node × 2,000-phase cluster run emits ~400k events).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

struct RecorderState {
    events: VecDeque<Event>,
    dropped: u64,
}

/// A ring-buffered in-memory recorder. When the buffer is full the
/// *oldest* events are dropped (the tail of a run — summaries, final
/// traffic — is usually the interesting part) and the drop count is
/// reported so exports can flag truncation.
pub struct Recorder {
    capacity: usize,
    state: Mutex<RecorderState>,
}

impl Recorder {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "recorder capacity must be at least 1");
        Recorder {
            capacity,
            state: Mutex::new(RecorderState { events: VecDeque::new(), dropped: 0 }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ring. A recorder whose mutex a panicking thread poisoned still
    /// answers: its state is a plain ring, whole between any two calls.
    fn state(&self) -> MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.state().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Snapshot of the recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.state().events.iter().cloned().collect()
    }

    /// Drains the buffer, returning the recorded events in record order.
    pub fn take(&self) -> Vec<Event> {
        self.state().events.drain(..).collect()
    }

    /// Records one event, dropping the oldest when the ring is full.
    pub fn record(&self, event: Event) {
        let mut st = self.state();
        if st.events.len() >= self.capacity {
            st.events.pop_front();
            st.dropped += 1;
        }
        st.events.push_back(event);
    }
}

/// A cloneable handle to an optional recorder — the form configuration
/// structs carry. The default is disabled (null), so tracing is strictly
/// opt-in and a disabled handle is a single `Option` check per event site.
#[derive(Clone)]
pub struct TraceSink {
    inner: Option<Arc<Recorder>>,
}

impl TraceSink {
    /// A disabled sink (records nothing).
    pub fn null() -> Self {
        TraceSink { inner: None }
    }

    /// A fresh ring-buffered recorder plus its handle.
    pub fn recorder(capacity: usize) -> (TraceSink, Arc<Recorder>) {
        let rec = Arc::new(Recorder::new(capacity));
        (TraceSink { inner: Some(Arc::clone(&rec)) }, rec)
    }

    /// Whether events will actually be kept.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event` if enabled.
    pub fn record(&self, event: Event) {
        if let Some(rec) = &self.inner {
            rec.record(event);
        }
    }

    /// Records the event built by `f` only when enabled — use when payload
    /// assembly is non-trivial.
    pub fn record_with(&self, f: impl FnOnce() -> Event) {
        if self.enabled() {
            self.record(f());
        }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::null()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceSink({})", if self.enabled() { "enabled" } else { "null" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Span, SpanKind};

    fn span(node: usize, t: f64) -> Event {
        Event::Span(Span { node, kind: SpanKind::Compute, phase: 1, start: t, end: t + 1.0 })
    }

    #[test]
    fn recorder_keeps_events_in_order() {
        let r = Recorder::new(10);
        for i in 0..5 {
            r.record(span(i, i as f64));
        }
        let ev = r.events();
        assert_eq!(ev.len(), 5);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        match &ev[3] {
            Event::Span(s) => assert_eq!(s.node, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let r = Recorder::new(3);
        for i in 0..7 {
            r.record(span(i, i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        let ev = r.events();
        match &ev[0] {
            Event::Span(s) => assert_eq!(s.node, 4, "oldest must be dropped"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn len_survives_a_poisoned_mutex() {
        let r = Arc::new(Recorder::new(4));
        r.record(span(0, 0.0));
        let held = Arc::clone(&r);
        let died = std::thread::spawn(move || {
            let _guard = held.state.lock().unwrap();
            panic!("a recording thread dies holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(r.state.is_poisoned());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn take_drains() {
        let r = Recorder::new(4);
        r.record(span(0, 0.0));
        let taken = r.take();
        assert_eq!(taken.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!TraceSink::null().enabled());
        let t = TraceSink::default();
        assert!(!t.enabled());
        t.record(span(0, 0.0)); // must be a no-op, not a panic
        assert_eq!(format!("{t:?}"), "TraceSink(null)");
    }

    #[test]
    fn trace_sink_records_through() {
        let (t, rec) = TraceSink::recorder(8);
        assert!(t.enabled());
        t.record(span(1, 0.0));
        t.record_with(|| span(2, 1.0));
        assert_eq!(rec.len(), 2);
        assert_eq!(format!("{t:?}"), "TraceSink(enabled)");
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let (t, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        t.record(span(n, i as f64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 400);
    }
}
