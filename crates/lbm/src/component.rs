//! Fluid components and their per-slab state.
//!
//! The paper's two-phase system has `S = 2` components: index 1 models
//! water, index 2 models the dissolved air / water vapor. Each component
//! carries its own single-particle distribution function, relaxation time
//! and molecular mass; they interact through the Shan–Chen interparticle
//! potential ([`CouplingMatrix`]) and through the hydrophobic wall force,
//! which acts on the water component only.

use crate::field::{LocalGrid, SlabArray};
use crate::lattice::{Lattice, D3Q19};
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
    /// [`crate::mrt::MrtRates`] — the standard stability upgrade at low
    /// viscosity.
    Mrt(crate::mrt::MrtRates),
}

impl CollisionOperator {
    /// The wall-exact TRT configuration.
    pub fn trt_magic() -> Self {
        CollisionOperator::Trt { magic: 3.0 / 16.0 }
    }

    /// MRT with the standard d'Humières ghost rates.
    pub fn mrt_standard() -> Self {
        CollisionOperator::Mrt(crate::mrt::MrtRates::standard())
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
        crate::units::viscosity_of_tau(self.tau)
    }

    /// The relaxation time governing the *first moment* (momentum) under
    /// this component's collision operator: τ for BGK, τ⁻ for TRT
    /// (momentum is an odd moment). The Shan–Chen velocity shift must use
    /// this value so a force density `F` injects exactly `F` of momentum
    /// per step.
    pub fn momentum_tau(&self) -> f64 {
        match self.collision {
            CollisionOperator::Bgk => self.tau,
            CollisionOperator::Trt { magic } => 0.5 + magic / (self.tau - 0.5),
            // The MRT momentum modes relax at the BGK rate (see
            // `mrt::rate_vector`).
            CollisionOperator::Mrt(_) => self.tau,
        }
    }
}

/// Per-slab mutable state of one component.
///
/// `f` holds the current populations over the slab *including* ghost
/// planes — as the window of a larger reservation when the slab can gain
/// planes ([`windowed`](Self::windowed)). Streaming updates it **in place**
/// (three-slot-ring sweep, see [`crate::streaming`]), so no second lattice
/// is stored — the dominant allocation is half what a two-lattice scheme
/// would need.
///
/// Nothing else is stored over the slab: ψ = Σ_i f_i of a plane is taken
/// from its populations one plane ahead of its collision, the force density
/// and the equilibrium velocity just before it
/// ([`crate::multicomponent::PlaneCollision`]). What `f` cannot give is ψ
/// of the ghost planes, which the second halo exchange delivers.
#[derive(Clone, Debug)]
pub struct ComponentState {
    pub spec: ComponentSpec,
    /// Populations, Q channels.
    pub f: SlabArray,
    /// ψ of four planes, `plane_cells` values each: the left ghost, the
    /// first and the last owned plane (what the ψ exchange ships, Σ_i f_i
    /// as of the last phase boundary) and the right ghost.
    pub(crate) halo_psi: Vec<f64>,
}

impl ComponentState {
    /// Zero-initialized state on `grid` for the D3Q19 lattice.
    pub fn new(spec: ComponentSpec, grid: LocalGrid) -> Self {
        ComponentState::windowed(spec, grid, grid.lx, 0)
    }

    /// As [`new`](Self::new) with `grid` the window at storage plane `off`
    /// of `cap_planes` reserved planes (see [`SlabArray::windowed`]).
    pub fn windowed(spec: ComponentSpec, grid: LocalGrid, cap_planes: usize, off: usize) -> Self {
        let f = SlabArray::windowed(grid, D3Q19::Q, cap_planes, off);
        ComponentState { spec, f, halo_psi: vec![0.0; 4 * grid.plane_cells()] }
    }

    /// The runs of [`halo_psi`](Self::halo_psi) holding ψ of local plane
    /// `xl`: one for a ghost or an edge plane, two for the plane of a
    /// one-plane slab, none for a plane between the edges.
    fn halo_runs(&self, xl: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let (lx, p) = (self.grid().lx, self.grid().plane_cells());
        [0, 1, lx - 2, lx - 1].into_iter().enumerate().filter(move |&(_, at)| at == xl).map(move |(k, _)| k * p..(k + 1) * p)
    }

    /// ψ of local plane `xl` as [`halo_psi`](Self::halo_psi) keeps it, if
    /// it does.
    pub(crate) fn kept_psi(&self, xl: usize) -> Option<&[f64]> {
        Some(&self.halo_psi[self.halo_runs(xl).next()?])
    }

    /// Keeps `psi` as ψ of local plane `xl`, where
    /// [`halo_psi`](Self::halo_psi) does.
    pub(crate) fn keep_psi(&mut self, xl: usize, psi: &[f64]) {
        for run in self.halo_runs(xl).collect::<Vec<_>>() {
            self.halo_psi[run].copy_from_slice(psi);
        }
    }

    pub fn grid(&self) -> LocalGrid {
        self.f.grid()
    }

    /// Initializes each x-plane to equilibrium at a per-plane number
    /// density `n_of_x(global_x)` and zero velocity. `x0` is the global
    /// index of the first interior plane, so decomposed initialization is
    /// identical to sequential initialization. Plane by plane, one `fill`
    /// per channel: a fresh allocation is first touched in storage order. ψ
    /// is left to priming, which takes it from these populations.
    pub fn init_profile(&mut self, x0: usize, n_of_x: impl Fn(usize) -> f64) {
        let grid = self.grid();
        let p = grid.plane_cells();
        let n: Vec<f64> = (LocalGrid::FIRST..=grid.last()).map(|xl| n_of_x(x0 + xl - 1)).collect();
        let feq: Vec<[f64; D3Q19::Q]> = n
            .iter()
            .map(|&n| {
                assert!(n >= 0.0 && n.is_finite(), "invalid initial density {n}");
                let mut feq = [0.0; D3Q19::Q];
                crate::equilibrium::feq_all::<D3Q19>(n, [0.0; 3], &mut feq);
                feq
            })
            .collect();
        for (xl, feq) in (LocalGrid::FIRST..).zip(&feq) {
            self.f.plane_values_mut(xl).chunks_exact_mut(p).zip(feq).for_each(|(run, &v)| run.fill(v));
        }
    }

    /// Total number of particles (Σ over interior cells and directions).
    /// Channel by channel, each over the interior cells in ascending order.
    pub fn total_number(&self) -> f64 {
        let grid = self.grid();
        let p = grid.plane_cells();
        let mut sum = 0.0;
        for i in 0..D3Q19::Q {
            let run = |xl: usize| &self.f.plane_values(xl)[i * p..(i + 1) * p];
            sum += (LocalGrid::FIRST..=grid.last()).flat_map(run).sum::<f64>();
        }
        sum
    }

    /// Total mass, `m_σ` times [`total_number`](Self::total_number).
    pub fn total_mass(&self) -> f64 {
        self.spec.mass * self.total_number()
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

    pub fn components(&self) -> usize {
        self.n
    }

    pub fn get(&self, a: usize, b: usize) -> f64 {
        self.g[a * self.n + b]
    }

    pub fn set(&mut self, a: usize, b: usize, v: f64) {
        self.g[a * self.n + b] = v;
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

    /// The tests' uniform states.
    impl ComponentState {
        /// Initializes every interior cell to equilibrium at number density `n`
        /// and velocity `u` (the paper's uniform initial water–air mixture).
        pub(crate) fn init_uniform(&mut self, n: f64, u: [f64; 3]) {
            let grid = self.grid();
            let mut feq = vec![0.0; D3Q19::Q];
            crate::equilibrium::feq_all::<D3Q19>(n, u, &mut feq);
            for xl in LocalGrid::FIRST..=grid.last() {
                for y in 0..grid.ny {
                    for z in 0..grid.nz {
                        let cell = grid.idx(xl, y, z);
                        for (i, &v) in feq.iter().enumerate() {
                            self.f.set(i, cell, v);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_init_mass() {
        let grid = LocalGrid::new(4, 3, 2);
        let mut c = ComponentState::new(ComponentSpec::water(), grid);
        c.init_uniform(0.8, [0.0; 3]);
        let cells = (grid.nx_local() * grid.ny * grid.nz) as f64;
        assert!((c.total_number() - 0.8 * cells).abs() < 1e-10);
        assert!((c.total_mass() - 0.8 * cells).abs() < 1e-10);
    }

    #[test]
    fn ghosts_stay_zero_after_init() {
        let grid = LocalGrid::new(3, 2, 2);
        let mut c = ComponentState::new(ComponentSpec::air(), grid);
        c.init_uniform(1.0, [0.01, 0.0, 0.0]);
        assert!(c.f.plane_values(LocalGrid::GHOST_LEFT).iter().all(|&v| v == 0.0), "left ghost dirty");
        assert!(c.f.plane_values(grid.ghost_right()).iter().all(|&v| v == 0.0), "right ghost dirty");
    }

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
