//! The per-slab state of the fluid components: each component's
//! single-particle distribution function over the slab. What a component
//! *is* ([`ComponentSpec`], [`CollisionOperator`]) and how components
//! couple ([`CouplingMatrix`]) is configuration, `microslip_config::component`,
//! re-exported here.

use crate::field::{LocalGrid, SlabArray};
use crate::lattice::D3Q19;

pub use microslip_config::component::{CollisionOperator, ComponentSpec, CouplingMatrix};

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
                crate::equilibrium::feq_all(n, [0.0; 3], &mut feq);
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
            crate::equilibrium::feq_all(n, u, &mut feq);
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
}
