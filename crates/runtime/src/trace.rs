#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "stamps trace events with wall time relative to the run epoch"
)]
//! Span-based activity accounting for worker threads.
//!
//! A [`Tracer`] is one worker's clock and event emitter: it stamps
//! activity spans with wall-clock seconds since the run epoch (an
//! [`Instant`] shared by all workers, so their timelines align) and folds
//! every span into a [`Profile`] as it is recorded — the profile a worker
//! reports *is* the derived view over its span stream, by construction.

use std::time::Instant;

use microslip_obs::{Event, Span, SpanKind, TraceSink};

use crate::profile::Profile;

/// One worker's epoch-based clock, event emitter and derived [`Profile`].
pub struct Tracer {
    sink: TraceSink,
    node: usize,
    epoch: Instant,
    /// Activity totals derived from the recorded spans.
    pub profile: Profile,
}

impl Tracer {
    pub fn new(sink: TraceSink, node: usize, epoch: Instant) -> Self {
        Tracer { sink, node, epoch, profile: Profile::default() }
    }

    /// Seconds since the shared run epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records one completed activity span `[start, end)` and books its
    /// duration into the matching profile bucket. Pad spans count into
    /// `compute` *and* `pad` — see the accounting contract on
    /// [`crate::throttle::Throttle::pad_measured`].
    pub fn span(&mut self, kind: SpanKind, phase: u64, start: f64, end: f64) {
        let d = end - start;
        match kind {
            SpanKind::Compute => self.profile.compute += d,
            SpanKind::Pad => {
                self.profile.compute += d;
                self.profile.pad += d;
            }
            SpanKind::Halo => self.profile.comm += d,
            SpanKind::Remap => self.profile.remap += d,
        }
        let node = self.node;
        self.sink.record_with(|| Event::Span(Span { node, kind, phase, start, end }));
    }

    /// Emits a non-span event (decision, migration) as-is.
    pub fn event(&self, event: Event) {
        self.sink.record(event);
    }

    /// Whether event payload assembly is worth doing.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// The underlying sink handle (for end-of-run traffic flushes).
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    pub fn node(&self) -> usize {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_into_profile_buckets() {
        let (sink, rec) = TraceSink::recorder(16);
        let mut tr = Tracer::new(sink, 3, Instant::now());
        tr.span(SpanKind::Compute, 1, 0.0, 1.0);
        tr.span(SpanKind::Pad, 1, 1.0, 1.5);
        tr.span(SpanKind::Halo, 1, 1.5, 1.7);
        tr.span(SpanKind::Remap, 2, 1.7, 1.8);
        // Pad counts into compute (accounting contract) and into pad.
        assert!((tr.profile.compute - 1.5).abs() < 1e-12);
        assert!((tr.profile.pad - 0.5).abs() < 1e-12);
        assert!((tr.profile.comm - 0.2).abs() < 1e-12);
        assert!((tr.profile.remap - 0.1).abs() < 1e-12);
        let events = rec.take();
        assert_eq!(events.len(), 4);
        match &events[0] {
            Event::Span(s) => assert_eq!(s.node, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_sink_still_accounts() {
        let mut tr = Tracer::new(TraceSink::null(), 0, Instant::now());
        assert!(!tr.enabled());
        tr.span(SpanKind::Compute, 1, 0.0, 2.0);
        assert!((tr.profile.compute - 2.0).abs() < 1e-12);
        assert!(tr.now() >= 0.0);
        assert_eq!(tr.node(), 0);
    }
}
