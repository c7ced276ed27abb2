//! Flow diagnostics: the integral quantities a production simulation
//! monitors over its days-long runs (paper §1: runs take "days or weeks"),
//! plus the dimensionless numbers the paper discusses (§2: the Knudsen
//! number regime where LBM remains valid but Navier–Stokes does not).

use crate::lattice::CS2;
use crate::macroscopic::Snapshot;

/// Integral diagnostics of a snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowDiagnostics {
    /// Total mass over the domain (all components).
    pub total_mass: f64,
    /// Mass-weighted mean density.
    pub mean_density: f64,
    /// Total momentum (mass-weighted velocity integral).
    pub total_momentum: [f64; 3],
    /// Total kinetic energy ½ Σ ρ u².
    pub kinetic_energy: f64,
    /// Maximum velocity magnitude (lattice units).
    pub max_speed: f64,
    /// Maximum Mach number `|u|/c_s` — should stay ≪ 1 for the
    /// low-Mach expansion of the equilibrium to be valid.
    pub max_mach: f64,
    /// Volumetric flow rate through a y–z cross-section (streamwise
    /// velocity integrated over the mid-channel plane).
    pub flow_rate: f64,
}

impl FlowDiagnostics {
    /// Computes all diagnostics from a snapshot.
    pub fn compute(snap: &Snapshot) -> FlowDiagnostics {
        let mut total_mass = 0.0;
        let mut momentum = [0.0f64; 3];
        let mut kinetic = 0.0;
        let mut max_speed: f64 = 0.0;
        for cell in 0..snap.cells() {
            let rho = snap.rho_total(cell);
            let u = snap.u(cell);
            let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
            total_mass += rho;
            for a in 0..3 {
                momentum[a] += rho * u[a];
            }
            kinetic += 0.5 * rho * uu;
            max_speed = max_speed.max(uu.sqrt());
        }
        // Flow rate through the mid-channel cross-section.
        let x = snap.nx / 2;
        let mut flow_rate = 0.0;
        for y in 0..snap.ny {
            for z in 0..snap.nz {
                flow_rate += snap.u(snap.idx(x, y, z))[0];
            }
        }
        FlowDiagnostics {
            total_mass,
            mean_density: total_mass / snap.cells() as f64,
            total_momentum: momentum,
            kinetic_energy: kinetic,
            max_speed,
            max_mach: max_speed / CS2.sqrt(),
            flow_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChannelConfig;
    use crate::geometry::Dims;
    use crate::simulation::Simulation;

    #[test]
    fn quiescent_fluid_diagnostics() {
        let sim = Simulation::new(ChannelConfig::single_component(Dims::new(6, 4, 4), 1.0, 0.0));
        let d = FlowDiagnostics::compute(&sim.snapshot());
        assert!((d.total_mass - 96.0).abs() < 1e-9);
        assert!((d.mean_density - 1.0).abs() < 1e-12);
        assert_eq!(d.kinetic_energy, 0.0);
        assert_eq!(d.max_speed, 0.0);
        assert_eq!(d.max_mach, 0.0);
        assert_eq!(d.flow_rate, 0.0);
        assert_eq!(d.total_momentum, [0.0; 3]);
    }

    #[test]
    fn driven_flow_diagnostics_grow_then_saturate() {
        let mut sim =
            Simulation::new(ChannelConfig::single_component(Dims::new(6, 8, 8), 1.0, 1e-5));
        sim.run(50);
        let early = FlowDiagnostics::compute(&sim.snapshot());
        sim.run(400);
        let late = FlowDiagnostics::compute(&sim.snapshot());
        assert!(early.flow_rate > 0.0);
        assert!(late.flow_rate > early.flow_rate, "flow accelerates toward steady state");
        assert!(late.kinetic_energy > early.kinetic_energy);
        assert!(late.max_mach < 0.1, "flow must stay low-Mach: {}", late.max_mach);
        // Mass unchanged by driving.
        assert!((late.total_mass - early.total_mass).abs() / early.total_mass < 1e-12);
    }

    #[test]
    fn momentum_matches_flow_rate_for_uniform_flow() {
        // Build a synthetic snapshot with uniform u_x = 0.01, rho = 2.
        let (nx, ny, nz) = (4, 3, 2);
        let n = nx * ny * nz;
        let mut velocity = vec![0.0; 3 * n];
        for c in 0..n {
            velocity[3 * c] = 0.01;
        }
        let snap = Snapshot { x0: 0, nx, ny, nz, rho: vec![vec![2.0; n]], velocity };
        let d = FlowDiagnostics::compute(&snap);
        assert!((d.total_momentum[0] - 2.0 * 0.01 * n as f64).abs() < 1e-12);
        assert!((d.flow_rate - 0.01 * (ny * nz) as f64).abs() < 1e-12);
        assert!((d.kinetic_energy - 0.5 * 2.0 * 1e-4 * n as f64).abs() < 1e-15);
        assert!((d.max_mach - 0.01 / CS2.sqrt()).abs() < 1e-12);
    }
}
