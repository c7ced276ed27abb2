//! Per-worker wall-clock accounting, mirroring the paper's Fig. 9 bars.

/// Seconds spent by one worker in each activity class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Profile {
    /// Lattice updates (collision, streaming, forces, …) including any
    /// injected throttle padding — see the accounting contract on
    /// [`crate::throttle::Throttle::pad`].
    pub compute: f64,
    /// The padding subset of `compute` (0 on unthrottled workers). Spans
    /// attribute it explicitly, so `compute − pad` is pure kernel time.
    pub pad: f64,
    /// Halo exchanges: packing, sending, blocking receives.
    pub comm: f64,
    /// Remap rounds: load exchange, plan evaluation, plane migration.
    pub remap: f64,
}

impl Profile {
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.remap
    }

    /// Kernel time with the injected padding removed.
    pub fn compute_unpadded(&self) -> f64 {
        self.compute - self.pad
    }

    /// Derives the profile of `node` from an event stream — the same fold
    /// a worker's [`Tracer`](crate::trace::Tracer) performs while
    /// recording, so for a traced run this reproduces the reported
    /// profile exactly.
    pub fn from_events(events: &[microslip_obs::Event], node: usize) -> Profile {
        use microslip_obs::{Event, SpanKind};
        let mut p = Profile::default();
        for e in events {
            let Event::Span(s) = e else { continue };
            if s.node != node {
                continue;
            }
            let d = s.duration();
            match s.kind {
                SpanKind::Compute => p.compute += d,
                SpanKind::Pad => {
                    p.compute += d;
                    p.pad += d;
                }
                SpanKind::Halo => p.comm += d,
                SpanKind::Remap => p.remap += d,
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let p = Profile { compute: 1.0, pad: 0.25, comm: 0.5, remap: 0.25 };
        assert!((p.total() - 1.75).abs() < 1e-12, "pad is a subset of compute, not additive");
        assert!((p.compute_unpadded() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_events_reproduces_the_tracer_fold() {
        use microslip_obs::{Event, Span, SpanKind};
        let events = vec![
            Event::Span(Span { node: 0, kind: SpanKind::Compute, phase: 1, start: 0.0, end: 1.0 }),
            Event::Span(Span { node: 0, kind: SpanKind::Pad, phase: 1, start: 1.0, end: 1.5 }),
            Event::Span(Span { node: 0, kind: SpanKind::Halo, phase: 1, start: 1.5, end: 1.6 }),
            Event::Span(Span { node: 1, kind: SpanKind::Compute, phase: 1, start: 0.0, end: 9.0 }),
        ];
        let p = Profile::from_events(&events, 0);
        assert!((p.compute - 1.5).abs() < 1e-12);
        assert!((p.pad - 0.5).abs() < 1e-12);
        assert!((p.comm - 0.1).abs() < 1e-12);
        assert_eq!(p.remap, 0.0);
    }
}
