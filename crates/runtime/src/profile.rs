//! Per-worker wall-clock accounting, mirroring the paper's Fig. 9 bars.

/// Seconds spent by one worker in each activity class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Profile {
    /// Lattice updates (collision, streaming, forces, …) including any
    /// injected throttle padding — see the accounting contract on
    /// [`crate::throttle::Throttle::pad_measured`].
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
}
