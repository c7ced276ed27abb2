//! The cluster cost model, calibrated against the paper's measurements.
//!
//! Anchors from §4.2:
//!
//! * sequential run, 400×200×20 lattice, 20,000 phases → 43.56 h, i.e.
//!   7.8408 s per phase → ≈ 204,060 site updates per second per
//!   unit-speed node;
//! * 20 dedicated nodes, 600 phases → ≈ 251 s (0.418 s/phase);
//! * dedicated speedup 18.97 at 20 nodes → per-phase communication +
//!   synchronization ≈ 21 ms.
//!
//! Communication is charged at both endpoints: handling a message costs
//! `α + bytes·β` seconds of CPU, divided by the node's current speed — a
//! loaded node is *sluggish* at communicating, the effect the filtered
//! scheme's over-redistribution targets. On top of that, each
//! communication episode (one halo exchange, one migration round) at a
//! loaded node first waits `load · sched_quantum` to get scheduled past
//! the CPU-bound competitor. This latency is independent of how many
//! lattice points the node holds — which is exactly why *draining* a slow
//! node (filtered over-redistribution) beats *balancing* it
//! (conservative): balancing leaves the slow node's full compute share on
//! the critical path on top of its unavoidable sluggish communication.

/// Cost-model constants (times in seconds, sizes in bytes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Lattice site updates per second at unit speed.
    pub site_update_rate: f64,
    /// Fixed CPU cost of handling one message.
    pub alpha: f64,
    /// Per-byte CPU cost of handling a message (≈ 1/bandwidth).
    pub beta: f64,
    /// Scheduler-quantum scale of the per-episode scheduling latency a
    /// loaded node pays before communicating.
    pub sched_quantum: f64,
    /// Split of a phase's compute across the three compute stages
    /// (collide+stream, bounce-back+ψ, force+velocity); must sum to 1.
    pub compute_fractions: [f64; 3],
}

impl CostModel {
    /// Constants calibrated to the paper's cluster (see module docs).
    pub fn paper() -> Self {
        CostModel {
            site_update_rate: 204_060.0,
            alpha: 0.5e-3,
            beta: 1.0e-8,
            sched_quantum: 0.12,
            compute_fractions: [0.55, 0.15, 0.30],
        }
    }

    /// Seconds of unit-speed CPU to update `points` lattice sites.
    pub fn compute_work(&self, points: usize) -> f64 {
        points as f64 / self.site_update_rate
    }

    /// Seconds of unit-speed CPU to handle one message of `bytes`.
    pub fn message_work(&self, bytes: usize) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }

    /// Scheduling latency before a communication episode at a node whose
    /// competitor holds `load` of the CPU.
    pub fn slot_delay(&self, load: f64) -> f64 {
        self.sched_quantum * load.clamp(0.0, 1.0)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.site_update_rate <= 0.0 {
            return Err("site_update_rate must be positive".into());
        }
        if self.alpha < 0.0 || self.beta < 0.0 || self.sched_quantum < 0.0 {
            return Err("cost constants must be non-negative".into());
        }
        let s: f64 = self.compute_fractions.iter().sum();
        if (s - 1.0).abs() > 1e-12 {
            return Err(format!("compute fractions sum to {s}, not 1"));
        }
        Ok(())
    }
}

/// Message sizes (bytes) for the paper's channel, derived from the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageSizes {
    /// Population halo: 5 boundary-crossing directions × components ×
    /// plane cells × 8 bytes.
    pub f_halo: usize,
    /// ψ halo: components × plane cells × 8 bytes.
    pub psi_halo: usize,
    /// One migrated plane: (19 + 1 + 3 + 3) channels × components ×
    /// plane cells × 8 bytes. Deliberately the paper's plane, which carries
    /// the force field too: the figures model the paper's code, whose
    /// remap costs were measured with it. `lbm::SlabSolver` migrates 23
    /// channels per component (its force is never stored) plus one ψ ghost
    /// plane per message.
    pub migration_per_plane: usize,
    /// A load-index message (one f64).
    pub load_index: usize,
}

impl MessageSizes {
    /// Sizes for `plane_cells` lattice points per y–z plane and
    /// `components` fluid components.
    pub fn new(plane_cells: usize, components: usize) -> Self {
        MessageSizes {
            f_halo: 5 * components * plane_cells * 8,
            psi_halo: components * plane_cells * 8,
            migration_per_plane: 26 * components * plane_cells * 8,
            load_index: 8,
        }
    }

    /// The paper's channel: 200×20 planes, two components.
    pub fn paper() -> Self {
        MessageSizes::new(4000, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_is_valid() {
        CostModel::paper().validate().unwrap();
    }

    #[test]
    fn sequential_phase_time_matches_anchor() {
        let m = CostModel::paper();
        // 1.6M points per phase at the calibrated rate ≈ 7.84 s.
        let t = m.compute_work(1_600_000);
        assert!((t - 7.8408).abs() < 0.01, "sequential phase time {t}");
        // 20,000 phases ≈ 43.56 hours.
        let hours = t * 20_000.0 / 3600.0;
        assert!((hours - 43.56).abs() < 0.1, "sequential run {hours} h");
    }

    #[test]
    fn slab_compute_matches_anchor() {
        let m = CostModel::paper();
        // One of 20 slabs: 80,000 points ≈ 0.392 s.
        let t = m.compute_work(80_000);
        assert!((t - 0.392).abs() < 0.001);
    }

    #[test]
    fn message_work_scales_with_size() {
        let m = CostModel::paper();
        let sizes = MessageSizes::paper();
        // f halo = 5·2·4000·8 = 320 kB ≈ 3.7 ms at 100 MB/s + α.
        assert_eq!(sizes.f_halo, 320_000);
        let t = m.message_work(sizes.f_halo);
        assert!(t > m.message_work(sizes.psi_halo));
        assert!((t - (0.5e-3 + 3.2e-3)).abs() < 1e-9);
    }

    #[test]
    fn slot_delay_vanishes_when_dedicated() {
        let m = CostModel::paper();
        assert_eq!(m.slot_delay(0.0), 0.0);
        // At the paper's 70% competing load: 0.7 of a quantum.
        let p = m.slot_delay(0.7);
        assert!((p - 0.7 * m.sched_quantum).abs() < 1e-12, "delay {p}");
        // Clamped outside [0, 1].
        assert_eq!(m.slot_delay(2.0), m.sched_quantum);
    }

    #[test]
    fn invalid_fractions_rejected() {
        let mut m = CostModel::paper();
        m.compute_fractions = [0.5, 0.2, 0.2];
        assert!(m.validate().is_err());
    }

    #[test]
    fn migration_plane_size() {
        let s = MessageSizes::paper();
        // 26 channels × 2 components × 4000 cells × 8 B = 1.664 MB.
        assert_eq!(s.migration_per_plane, 1_664_000);
        assert_eq!(s.load_index, 8);
    }
}
