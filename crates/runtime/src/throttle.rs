#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "injects and measures wall-clock padding; feeds observability, not decisions"
)]
//! Deterministic slowdown injection for the threaded runtime.
//!
//! The paper slows cluster nodes by running a CPU-bound competing job on
//! them. For reproducible laptop-scale experiments we instead *pad* a
//! worker's compute sections: after a section that took `d` of wall time,
//! a throttled worker busy-spins for `d · (factor − 1)`, making its
//! effective compute speed `1 / factor` — the same observable effect the
//! remapping policies react to, without depending on the host scheduler.

use std::time::{Duration, Instant};

/// Multiplies the duration of compute sections of one worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throttle {
    /// Slowdown factor ≥ 1. `1.0` = full speed; the paper's 70 %
    /// competing load corresponds to `1 / 0.3 ≈ 3.33`.
    pub factor: f64,
}

impl Throttle {
    pub fn none() -> Self {
        Throttle { factor: 1.0 }
    }

    pub fn new(factor: f64) -> Self {
        assert!(factor >= 1.0 && factor.is_finite(), "throttle factor must be ≥ 1");
        Throttle { factor }
    }

    fn is_active(&self) -> bool {
        self.factor > 1.0
    }

    /// Busy-spins long enough to stretch a compute section that took
    /// `busy` to `busy · factor` total, and returns the padding actually
    /// spent as *measured* wall time. When the worker is disturbed
    /// mid-spin (host scheduler preemption) the measured value exceeds the
    /// nominal `busy · (factor − 1)`; span-based accounting records the
    /// measured value as an explicit pad span instead of silently folding
    /// the disturbance into a compute lap.
    ///
    /// # Accounting contract
    ///
    /// Padded time **is** simulated compute. The worker loop times each
    /// kernel section as `d = watch.lap()`, pads, then books
    /// `watch.lap() + d` — the second lap measures only the spin, so the
    /// sum is the padded wall time `≈ d · factor`. This is intentional,
    /// not double-counting: a throttled worker must *report* the slow
    /// compute its throttle emulates, so the per-point load index fed to
    /// the harmonic predictor (`microslip_balance::predict`) sees the
    /// same slowdown the remapping policies are supposed to react to.
    /// `Profile::compute` therefore includes padding by design.
    pub fn pad_measured(&self, busy: Duration) -> Duration {
        if !self.is_active() {
            return Duration::ZERO;
        }
        let extra = busy.mul_f64(self.factor - 1.0);
        let start = Instant::now();
        let until = start + extra;
        let mut now = Instant::now();
        while now < until {
            std::hint::spin_loop();
            now = Instant::now();
        }
        now.duration_since(start)
    }
}

/// A phase-dependent throttle: a base slowdown plus transient spikes —
/// the real-thread analogue of the cluster simulator's disturbance
/// models (paper §4.2.4's random 1–4 s spikes).
///
/// See [`Throttle::pad_measured`] for the accounting contract: compute
/// sections padded by a plan are booked at their padded (wall) duration.
#[derive(Clone, Debug, Default)]
pub struct ThrottlePlan {
    /// Base slowdown factor (≥ 1) applied to every phase; 0 entries in
    /// builders normalize to 1.
    pub base: f64,
    /// Spikes as `(from_phase, to_phase, factor)`, `to` exclusive,
    /// 1-based phases as counted by the worker loop.
    pub spikes: Vec<(u64, u64, f64)>,
}

impl ThrottlePlan {
    /// No throttling at all.
    pub fn none() -> Self {
        ThrottlePlan { base: 1.0, spikes: Vec::new() }
    }

    /// Constant slowdown.
    pub fn constant(factor: f64) -> Self {
        assert!(factor >= 1.0);
        ThrottlePlan { base: factor, spikes: Vec::new() }
    }

    /// Adds a transient spike.
    pub fn with_spike(mut self, from: u64, to: u64, factor: f64) -> Self {
        assert!(from < to && factor >= 1.0);
        self.spikes.push((from, to, factor));
        self
    }

    /// The throttle in effect at `phase` (spikes multiply the base).
    pub fn at(&self, phase: u64) -> Throttle {
        let base = self.base.max(1.0);
        let mut factor = base;
        for &(from, to, f) in &self.spikes {
            if phase >= from && phase < to {
                factor *= f;
            }
        }
        Throttle::new(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_throttle_is_free() {
        let t = Throttle::none();
        assert!(!t.is_active());
        let start = Instant::now();
        t.pad_measured(Duration::from_millis(50));
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn pad_stretches_by_factor() {
        let t = Throttle::new(3.0);
        let busy = Duration::from_millis(10);
        let start = Instant::now();
        t.pad_measured(busy);
        let padded = start.elapsed();
        // Expected ≈ 20 ms of padding for 10 ms busy at factor 3.
        assert!(padded >= Duration::from_millis(18), "padded only {padded:?}");
        assert!(padded < Duration::from_millis(200), "padded too long {padded:?}");
    }

    #[test]
    fn pad_measured_reports_at_least_the_nominal_padding() {
        let t = Throttle::new(3.0);
        let busy = Duration::from_millis(5);
        let start = Instant::now();
        let measured = t.pad_measured(busy);
        let elapsed = start.elapsed();
        // Nominal padding is busy · (factor − 1) = 10 ms; the measurement
        // is wall time, so it is at least nominal and at most the whole
        // call duration.
        assert!(measured >= busy.mul_f64(2.0), "measured only {measured:?}");
        assert!(measured <= elapsed);
        // Inactive throttles pad nothing.
        assert_eq!(Throttle::none().pad_measured(busy), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn speedup_rejected() {
        Throttle::new(0.5);
    }

    #[test]
    fn worker_accounting_books_padded_wall_time() {
        // Pins the worker-loop accounting pattern (worker.rs):
        //   d = elapsed(); pad_measured(d); section = elapsed();
        // `section` must be the *padded* duration ≈ d · factor — padded
        // time is simulated compute, counted exactly once.
        let factor = 4.0;
        let t = Throttle::new(factor);
        let start = Instant::now();
        let spin_until = start + Duration::from_millis(10);
        while Instant::now() < spin_until {
            std::hint::spin_loop();
        }
        let d = start.elapsed().as_secs_f64();
        t.pad_measured(Duration::from_secs_f64(d));
        let section = start.elapsed().as_secs_f64();
        assert!(
            section >= 0.95 * factor * d,
            "section {section}s must report the padded time (~{}s)",
            factor * d
        );
        assert!(
            section < 2.0 * factor * d,
            "section {section}s counted more than the padded time (~{}s)",
            factor * d
        );
    }

    #[test]
    fn plan_selects_factor_by_phase() {
        let plan = ThrottlePlan::constant(2.0).with_spike(5, 8, 3.0);
        assert_eq!(plan.at(1).factor, 2.0);
        assert_eq!(plan.at(5).factor, 6.0);
        assert_eq!(plan.at(7).factor, 6.0);
        assert_eq!(plan.at(8).factor, 2.0);
        assert!(!ThrottlePlan::none().at(3).is_active());
        // Default base 0 normalizes to 1.
        assert_eq!(ThrottlePlan::default().at(1).factor, 1.0);
    }
}
