//! The hydrophobic wall force of paper §2 and §4: a repulsive force along
//! the inward normal of each of the four lateral walls, decaying
//! exponentially with wall distance, `c0 · exp(−d / c1)` (the paper's
//! `G(d) = c0 exp(−d/c1)`). The LBM applies it in `microslip_lbm::force`.

use crate::geometry::WallDistances;

/// How the hydrophobic wall magnitude combines with the local fluid state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WallForceMode {
    /// Force per unit mass (acceleration): force density `ρ_σ · G(d)`.
    /// In hydrostatic balance this depletes density exponentially without
    /// ever driving it negative; the default.
    PerMass,
    /// Raw force density `G(d)` independent of the local density, the
    /// literal reading of the paper's `T_σ(x)` formula.
    ForceDensity,
}

/// Exponentially decaying repulsive wall force, paper §2 and §4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WallForce {
    /// Amplitude `c0` (paper: 0.2 nondimensional).
    pub amplitude: f64,
    /// Decay length `c1` in lattice units.
    pub decay: f64,
    pub mode: WallForceMode,
}

impl WallForce {
    /// The paper's wall force: amplitude 0.2, decay length 10 nm = 2 grid
    /// spacings, applied per unit mass.
    pub fn paper() -> Self {
        WallForce { amplitude: 0.2, decay: 2.0, mode: WallForceMode::PerMass }
    }

    /// No wall force (the paper's control case in Fig. 7).
    pub fn off() -> Self {
        WallForce { amplitude: 0.0, decay: 1.0, mode: WallForceMode::PerMass }
    }

    #[inline]
    pub fn is_off(&self) -> bool {
        self.amplitude == 0.0
    }

    /// Signed inward-normal force magnitudes `(F_y, F_z)` (before the
    /// density factor in [`WallForceMode::PerMass`]) at wall distances from
    /// [`Dims::wall_distances`](crate::Dims::wall_distances). Contributions from opposite walls
    /// superpose.
    #[inline]
    pub fn magnitudes(&self, w: WallDistances) -> (f64, f64) {
        if self.is_off() {
            return (0.0, 0.0);
        }
        let g = |d: f64| self.amplitude * (-d / self.decay).exp();
        (g(w.y_low) - g(w.y_high), g(w.z_low) - g(w.z_high))
    }
}
