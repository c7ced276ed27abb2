//! Conversion between physical units and lattice units.
//!
//! The paper simulates a 2 µm × 1 µm × 0.1 µm channel with a 5 nm grid
//! spacing (400 × 200 × 20 lattice) and reports physical quantities
//! (densities in g/cm³, forces in dyn/cm³, lengths in µm/nm). This module
//! centralizes the scale factors so observables can be reported in the
//! paper's units.

/// Scale factors mapping lattice quantities to physical ones.
///
/// A quantity `q` in lattice units corresponds to `q * scale` in physical
/// units. Velocity and time scales follow from `dx` and `dt` by the usual
/// diffusive scaling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitScales {
    /// Grid spacing in meters (paper: 5 nm).
    pub dx: f64,
    /// Time step in seconds.
    pub dt: f64,
    /// Mass density scale in kg/m³ per lattice density unit
    /// (paper plots water near 1 g/cm³ = 1000 kg/m³ for lattice density 1).
    pub rho: f64,
}

impl UnitScales {
    /// Scales for the paper's channel: 5 nm spacing, density unit of
    /// 1 g/cm³, and a time step chosen so the lattice viscosity at
    /// `tau = 1.0` (ν = 1/6) matches water's kinematic viscosity
    /// (1.0 × 10⁻⁶ m²/s): `dt = ν_lu · dx² / ν_phys`.
    pub fn paper() -> Self {
        let dx = 5.0e-9;
        let nu_lu = 1.0 / 6.0;
        let nu_phys = 1.0e-6;
        UnitScales { dx, dt: nu_lu * dx * dx / nu_phys, rho: 1000.0 }
    }

    /// Velocity scale in m/s per lattice velocity unit.
    pub fn velocity(&self) -> f64 {
        self.dx / self.dt
    }

    /// Kinematic viscosity scale in m²/s per lattice unit.
    pub fn viscosity(&self) -> f64 {
        self.dx * self.dx / self.dt
    }

    /// Converts a lattice length to meters.
    pub fn length_to_physical(&self, lu: f64) -> f64 {
        lu * self.dx
    }

    /// Converts a lattice density to g/cm³ (assuming `rho` is in kg/m³).
    pub fn density_to_g_cm3(&self, rho_lu: f64) -> f64 {
        rho_lu * self.rho / 1000.0
    }
}

/// Kinematic viscosity (lattice units) of a BGK component with relaxation
/// time `tau`: ν = c_s²(τ − 1/2) = (2τ − 1)/6.
///
/// This is the paper's dimensionless viscosity definition.
pub fn viscosity_of_tau(tau: f64) -> f64 {
    crate::lattice::CS2 * (tau - 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_one_gives_sixth() {
        assert!((viscosity_of_tau(1.0) - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn paper_scales_are_consistent() {
        let s = UnitScales::paper();
        // 5 nm spacing; 2 µm channel length = 400 lattice units.
        assert!((s.length_to_physical(400.0) - 2.0e-6).abs() < 1e-20);
        // Lattice viscosity 1/6 at tau=1 must map back to 1e-6 m²/s.
        assert!((s.viscosity() * (1.0 / 6.0) - 1.0e-6).abs() < 1e-12);
        // Density unit maps to 1 g/cm³.
        assert!((s.density_to_g_cm3(1.0) - 1.0).abs() < 1e-12);
    }
}
