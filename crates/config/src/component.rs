//! The fluid components of a run: their static parameters, collision
//! operators and the Shan–Chen coupling between them.
//!
//! The paper's two-phase system has `S = 2` components: index 1 models
//! water, index 2 models the dissolved air / water vapor. Each component
//! carries its own relaxation time and molecular mass; they interact
//! through the Shan–Chen interparticle potential ([`CouplingMatrix`]) and
//! through the hydrophobic wall force, which acts on the water component
//! only. The per-slab populations of a component live in
//! `microslip_lbm::component::ComponentState`.

use crate::potential::PsiFn;

/// Collision operator of one component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CollisionOperator {
    /// Single-relaxation-time LBGK (the paper's operator).
    Bgk,
    /// Two-relaxation-time: the symmetric modes relax with 1/τ (fixing the
    /// viscosity), the antisymmetric modes with a rate set by the "magic"
    /// parameter Λ = (τ⁺−½)(τ⁻−½). Λ = 3/16 places the bounce-back wall
    /// exactly halfway between nodes for Poiseuille flow, removing the
    /// viscosity-dependent wall-slip error of BGK.
    Trt {
        /// The magic parameter Λ (> 0).
        magic: f64,
    },
    /// Multiple-relaxation-time (d'Humières): shear and momentum rates
    /// from τ, the non-hydrodynamic mode rates from
    /// [`MrtRates`] — the standard stability upgrade at low
    /// viscosity.
    Mrt(MrtRates),
}

impl CollisionOperator {
    /// The wall-exact TRT configuration.
    pub fn trt_magic() -> Self {
        CollisionOperator::Trt { magic: 3.0 / 16.0 }
    }

    /// MRT with the standard d'Humières ghost rates.
    pub fn mrt_standard() -> Self {
        CollisionOperator::Mrt(MrtRates::standard())
    }
}

/// Static parameters of one fluid component.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentSpec {
    /// Display name, e.g. `"water"`.
    pub name: String,
    /// Molecular mass `m_σ`; mass density is `ρ_σ = m_σ · n_σ`.
    pub mass: f64,
    /// BGK relaxation time `τ_σ` (> 1/2 for positive viscosity).
    pub tau: f64,
    /// Whether the hydrophobic wall force applies to this component
    /// (paper: repulsive to water, neutral to air).
    pub feels_wall_force: bool,
    /// Interaction potential ψ(n) entering the Shan–Chen force (the
    /// paper's water–air mixture uses the ideal ψ(n) = n).
    pub psi_fn: PsiFn,
    /// Collision operator (BGK unless configured otherwise).
    pub collision: CollisionOperator,
    /// Shan–Chen solid–fluid adhesion strength `g_w`: the standard
    /// *alternative* hydrophobicity model (positive = the solid repels
    /// this component, negative = wetting). The paper instead uses the
    /// explicit exponential wall force; both are provided so they can be
    /// compared. Zero disables adhesion.
    pub wall_adhesion: f64,
}

impl ComponentSpec {
    /// The paper's water component: unit mass, `τ = 1`.
    pub fn water() -> Self {
        ComponentSpec {
            name: "water".into(),
            mass: 1.0,
            tau: 1.0,
            feels_wall_force: true,
            psi_fn: PsiFn::Linear,
            collision: CollisionOperator::Bgk,
            wall_adhesion: 0.0,
        }
    }

    /// The paper's air / water-vapor component: unit molecular mass in
    /// lattice units, `τ = 1`, insensitive to the wall force.
    pub fn air() -> Self {
        ComponentSpec {
            name: "air".into(),
            mass: 1.0,
            tau: 1.0,
            feels_wall_force: false,
            psi_fn: PsiFn::Linear,
            collision: CollisionOperator::Bgk,
            wall_adhesion: 0.0,
        }
    }

    /// Kinematic viscosity of this component, `ν = c_s²(τ − 1/2)`.
    pub fn viscosity(&self) -> f64 {
        crate::CS2 * (self.tau - 0.5)
    }

    /// The relaxation time governing the *first moment* (momentum) under
    /// this component's collision operator: τ for BGK, τ⁻ for TRT
    /// (momentum is an odd moment). The Shan–Chen velocity shift must use
    /// this value so a force density `F` injects exactly `F` of momentum
    /// per step.
    #[inline]
    pub fn momentum_tau(&self) -> f64 {
        match self.collision {
            CollisionOperator::Bgk => self.tau,
            CollisionOperator::Trt { magic } => 0.5 + magic / (self.tau - 0.5),
            // The MRT momentum modes relax at the BGK rate (see
            // `microslip_lbm::mrt::rate_vector`).
            CollisionOperator::Mrt(_) => self.tau,
        }
    }
}

/// Relaxation rates for the non-hydrodynamic (ghost) moment families.
/// The shear-stress and momentum rates always come from the component's τ.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MrtRates {
    /// Energy mode `e`.
    pub s_e: f64,
    /// Energy-square mode `ε`.
    pub s_eps: f64,
    /// Heat-flux modes `q`.
    pub s_q: f64,
    /// Fourth-order stress companions `π`.
    pub s_pi: f64,
    /// Third-order antisymmetric modes `m`.
    pub s_m: f64,
}

impl MrtRates {
    /// The rates of d'Humières et al. (2002) for D3Q19.
    pub fn standard() -> Self {
        MrtRates { s_e: 1.19, s_eps: 1.4, s_q: 1.2, s_pi: 1.4, s_m: 1.98 }
    }

    /// All ghost rates equal to `omega` (with momentum/shear also at
    /// `omega`, this makes MRT collapse to BGK).
    pub fn uniform(omega: f64) -> Self {
        MrtRates { s_e: omega, s_eps: omega, s_q: omega, s_pi: omega, s_m: omega }
    }
}

/// Shan–Chen interaction strengths `g_{σσ'}` (the Green's function
/// magnitude of the paper's interparticle potential).
///
/// Positive entries are repulsive. The paper's water–air system uses a
/// single repulsive cross coupling and no self coupling.
#[derive(Clone, Debug, PartialEq)]
pub struct CouplingMatrix {
    n: usize,
    g: Vec<f64>,
}

impl CouplingMatrix {
    /// Zero (non-interacting) matrix for `n` components.
    pub fn none(n: usize) -> Self {
        CouplingMatrix { n, g: vec![0.0; n * n] }
    }

    /// The matrix of `n` components from its entries, row-major (`g_ab` at
    /// `a·n + b`); `None` unless there are exactly `n²` of them.
    pub fn from_rows(n: usize, g: Vec<f64>) -> Option<Self> {
        (n.checked_mul(n) == Some(g.len())).then_some(CouplingMatrix { n, g })
    }

    /// Symmetric cross coupling `g` between two components.
    pub fn cross(g: f64) -> Self {
        let mut m = CouplingMatrix::none(2);
        m.set(0, 1, g);
        m.set(1, 0, g);
        m
    }

    #[inline]
    pub fn components(&self) -> usize {
        self.n
    }

    /// Where `g_ab` is kept, if both components are in the matrix.
    fn at(&self, a: usize, b: usize) -> Option<usize> {
        (a < self.n && b < self.n).then(|| a * self.n + b)
    }

    /// `g_ab`. Components outside the matrix do not interact: 0.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a < self.n && b < self.n, "coupling ({a}, {b}) outside {0}×{0}", self.n);
        self.at(a, b).and_then(|k| self.g.get(k)).copied().unwrap_or(0.0)
    }

    /// Sets `g_ab`; a pair outside the matrix has no entry to set.
    pub fn set(&mut self, a: usize, b: usize, v: f64) {
        debug_assert!(a < self.n && b < self.n, "coupling ({a}, {b}) outside {0}×{0}", self.n);
        if let Some(g) = self.at(a, b).and_then(|k| self.g.get_mut(k)) {
            *g = v;
        }
    }

    /// Whether the matrix is symmetric (required for global momentum
    /// conservation of the interaction force).
    pub fn is_symmetric(&self) -> bool {
        // Row a against column a, entry by entry: g_ab against g_ba.
        (0..self.n).all(|a| {
            let row = self.g.iter().skip(a * self.n).take(self.n);
            let column = self.g.iter().skip(a).step_by(self.n);
            !row.zip(column).any(|(g_ab, g_ba)| (g_ab - g_ba).abs() > 1e-15)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_matrix_cross() {
        let m = CouplingMatrix::cross(0.1);
        assert_eq!(m.get(0, 1), 0.1);
        assert_eq!(m.get(1, 0), 0.1);
        assert_eq!(m.get(0, 0), 0.0);
        assert!(m.is_symmetric());
    }

    #[test]
    fn asymmetric_detected() {
        let mut m = CouplingMatrix::none(2);
        m.set(0, 1, 0.2);
        assert!(!m.is_symmetric());
        // Every off-diagonal pair is compared, far from the diagonal too.
        let mut m = CouplingMatrix::none(3);
        m.set(2, 0, 0.2);
        assert!(!m.is_symmetric());
        m.set(0, 2, 0.2);
        assert!(m.is_symmetric());
    }

    #[test]
    fn from_rows_takes_exactly_n_squared_entries() {
        let m = CouplingMatrix::from_rows(2, vec![0.0, 0.3, 0.4, 0.0]).unwrap();
        assert_eq!((m.components(), m.get(0, 1), m.get(1, 0)), (2, 0.3, 0.4));
        assert!(!m.is_symmetric());
        assert_eq!(CouplingMatrix::from_rows(2, vec![0.0, 0.1, 0.1, 0.0]), Some(CouplingMatrix::cross(0.1)));
        assert!(CouplingMatrix::from_rows(2, vec![0.0; 3]).is_none());
        assert!(CouplingMatrix::from_rows(usize::MAX, Vec::new()).is_none());
        assert!(CouplingMatrix::from_rows(0, Vec::new()).is_some_and(|m| m.is_symmetric()));
    }

    #[test]
    fn paper_specs() {
        let w = ComponentSpec::water();
        let a = ComponentSpec::air();
        assert!(w.feels_wall_force && !a.feels_wall_force);
        assert!((w.viscosity() - 1.0 / 6.0).abs() < 1e-15);
    }
}
