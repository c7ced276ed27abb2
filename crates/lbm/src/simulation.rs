//! Sequential simulation driver.
//!
//! [`Simulation`] owns a single [`SlabSolver`] covering the whole channel
//! and advances it phase by phase with periodic ghost self-exchange. It is
//! both the reference implementation the distributed runtime must match
//! bitwise, and the "sequential program" whose execution time defines
//! speedup in the paper's evaluation.

use crate::config::ChannelConfig;
use crate::geometry::Slab;
use crate::macroscopic::Snapshot;
use crate::solver::SlabSolver;

/// A sequential, whole-channel simulation.
#[derive(Clone, Debug)]
pub struct Simulation {
    pub(crate) solver: SlabSolver,
    pub(crate) config: ChannelConfig,
    pub(crate) phase: u64,
}

impl Simulation {
    /// Builds and primes the simulation (initial uniform mixture, initial
    /// forces and equilibrium velocities).
    pub fn new(config: ChannelConfig) -> Self {
        let slab = Slab { x0: 0, nx_local: config.dims.nx };
        let mut solver = SlabSolver::new(&config, slab);
        solver.prime_periodic();
        Simulation { solver, config, phase: 0 }
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Completed phases (LBM steps).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Advances one phase (one LBM step — the paper's unit of
    /// synchronization).
    pub fn step(&mut self) {
        self.solver.phase_periodic();
        self.phase += 1;
    }

    /// Advances `n` phases.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until `probe` reports convergence or `max_phases` elapse,
    /// checking every `check_every` phases. Returns the number of phases
    /// actually run.
    ///
    /// `probe` receives the previous and current snapshot and returns
    /// `true` when the change is small enough to stop.
    pub fn run_until(
        &mut self,
        max_phases: u64,
        check_every: u64,
        mut probe: impl FnMut(&Snapshot, &Snapshot) -> bool,
    ) -> u64 {
        assert!(check_every > 0);
        let mut prev = self.snapshot();
        let mut done = 0;
        while done < max_phases {
            let chunk = check_every.min(max_phases - done);
            self.run(chunk);
            done += chunk;
            let cur = self.snapshot();
            if probe(&prev, &cur) {
                break;
            }
            prev = cur;
        }
        done
    }

    /// Macroscopic snapshot of the whole channel.
    pub fn snapshot(&self) -> Snapshot {
        self.solver.snapshot()
    }

    /// Ends the simulation in its [`snapshot`](Self::snapshot), bit for bit:
    /// the lattices are handed back to the OS plane by plane as the capture
    /// passes them ([`SlabSolver::into_capture`]), so the snapshot fills
    /// while they empty, and a caller that goes on to encode it does so
    /// without them.
    pub fn into_snapshot(self) -> Snapshot {
        let (slab, grid) = (self.solver.slab(), self.solver.grid());
        let mut out = Snapshot::zeros(slab.x0, slab.nx_local, grid.ny, grid.nz, self.config.ncomp());
        self.solver.into_capture(out.slab_mut(slab));
        out
    }

    /// Total mass in the channel.
    pub fn total_mass(&self) -> f64 {
        self.solver.total_mass()
    }

    /// Access to the underlying solver (tests, observables).
    pub fn solver(&self) -> &SlabSolver {
        &self.solver
    }
}

/// Convergence probe: maximum absolute change of the streamwise velocity
/// between snapshots is below `tol`.
pub fn velocity_converged(tol: f64) -> impl FnMut(&Snapshot, &Snapshot) -> bool {
    move |prev: &Snapshot, cur: &Snapshot| {
        prev.velocity
            .iter()
            .zip(&cur.velocity)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max)
            < tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;

    #[test]
    fn phases_count() {
        let cfg = ChannelConfig::single_component(Dims::new(6, 4, 4), 1.0, 0.0);
        let mut sim = Simulation::new(cfg);
        sim.run(7);
        assert_eq!(sim.phase(), 7);
    }

    #[test]
    fn quiescent_fluid_stays_quiescent() {
        let cfg = ChannelConfig::single_component(Dims::new(6, 4, 4), 0.9, 0.0);
        let mut sim = Simulation::new(cfg);
        sim.run(10);
        let snap = sim.snapshot();
        for cell in 0..snap.cells() {
            let u = snap.u(cell);
            assert!(u.iter().all(|v| v.abs() < 1e-14), "spurious flow at cell {cell}");
            assert!((snap.rho_total(cell) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn run_until_stops_on_convergence() {
        let cfg = ChannelConfig::single_component(Dims::new(4, 4, 4), 1.0, 0.0);
        let mut sim = Simulation::new(cfg);
        // A quiescent fluid converges immediately.
        let ran = sim.run_until(1000, 5, velocity_converged(1e-12));
        assert_eq!(ran, 5);
    }

    #[test]
    fn run_until_respects_max() {
        let cfg = ChannelConfig::single_component(Dims::new(4, 4, 4), 1.0, 1e-4);
        let mut sim = Simulation::new(cfg);
        let ran = sim.run_until(12, 5, |_, _| false);
        assert_eq!(ran, 12);
        assert_eq!(sim.phase(), 12);
    }

    #[test]
    fn two_component_mass_per_component_conserved() {
        let cfg = ChannelConfig::paper_scaled(Dims::new(10, 6, 4));
        let mut sim = Simulation::new(cfg);
        let m0: Vec<f64> =
            sim.solver().components().iter().map(|c| c.total_mass()).collect();
        sim.run(15);
        let m1: Vec<f64> =
            sim.solver().components().iter().map(|c| c.total_mass()).collect();
        for (a, b) in m0.iter().zip(&m1) {
            assert!(((a - b) / a.max(1e-30)).abs() < 1e-11, "component mass drift {a} -> {b}");
        }
    }

    #[test]
    fn into_snapshot_is_the_snapshot() {
        let mut sim = Simulation::new(ChannelConfig::paper_scaled(Dims::new(10, 6, 4)));
        sim.run(5);
        let kept = sim.snapshot();
        assert_eq!(sim.into_snapshot(), kept);
    }
}
