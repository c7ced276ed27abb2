#![expect(
    unsafe_code,
    reason = "the force kernel computes one plane at a time through raw pointers: it \
              reads psi from the three-plane ring and the per-plane gradient and \
              adhesion buffers it owns, and writes each component's forces once into \
              a plane the caller names (a plane scratch, or a plane of a reference \
              array) that aliases nothing it reads"
)]
//! Force computation: Shan–Chen interparticle interaction, hydrophobic wall
//! forces, and the uniform body force driving the flow.
//!
//! The interparticle force on component `a` derives from the paper's
//! interaction potential `V(x, x') = Σ G_{ab}(x, x') ψ_a(x) ψ_b(x')` with
//! nearest-neighbor Green's function `G_{ab}(x, x + e_i) = g_{ab} w_i`:
//!
//! ```text
//! F_a(x) = − ψ_a(x) Σ_b g_{ab} Σ_i w_i ψ_b(x + e_i) e_i
//! ```
//!
//! ψ is the component number density (the quantity the paper exchanges with
//! neighbors each phase). It is not stored: whoever asks for a plane's
//! force hands the kernel ψ of that plane and its two neighbours, taken
//! from the populations (or, at a slab edge, from the exchanged ghost
//! plane), and the kernel keeps those three planes ([`ForcePlanes`]).
//! Sites behind a wall carry ψ = 0, i.e. the walls
//! are neutral in the interparticle interaction — hydrophobicity enters
//! exclusively through the explicit wall force below, exactly as in the
//! paper ("the hydrophobic walls were modeled by applying a force in a
//! region very close to the walls").
//!
//! The wall force acts along the inward normal of each of the four lateral
//! walls and decays exponentially with wall distance, `c0 · exp(−d / c1)`
//! (the paper's `G(d) = c0 exp(−d/c1)`); it applies only to components with
//! `feels_wall_force` set (water), and is identically zero for air.

use crate::component::{ComponentSpec, ComponentState, CouplingMatrix};
use crate::multicomponent::PlaneCollision;
use crate::field::{LocalGrid, SlabArray};
use crate::lattice::{Lattice, D3Q19};
use crate::potential::PsiFn;

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

    pub fn is_off(&self) -> bool {
        self.amplitude == 0.0
    }

    /// Signed inward-normal force magnitudes `(F_y, F_z)` (before the
    /// density factor in [`WallForceMode::PerMass`]) at wall distances from
    /// [`crate::geometry::Dims::wall_distances`]. Contributions from
    /// opposite walls superpose.
    #[inline]
    pub fn magnitudes(&self, w: crate::geometry::WallDistances) -> (f64, f64) {
        if self.is_off() {
            return (0.0, 0.0);
        }
        let g = |d: f64| self.amplitude * (-d / self.decay).exp();
        (g(w.y_low) - g(w.y_high), g(w.z_low) - g(w.z_high))
    }
}

/// The force kernel of one slab, set up once per pass: computes the total
/// force density (Shan–Chen interaction + adhesion + wall force + body
/// force) of every component on one interior plane at a time, into
/// whatever 3-channel plane the caller names. The collision consumes each
/// plane at once ([`crate::multicomponent::PlaneCollision`]), the snapshot
/// turns it into the half-force velocity term, and only the two-pass
/// reference ([`compute_forces`]) writes a whole-slab array.
///
/// The kernel holds ψ of three consecutive planes per component, plane `y`
/// in slot `y % 3` — one plane's stencil: the caller fills a plane's
/// number density ([`psi_mut`](Self::psi_mut)) and hands it in
/// ([`entered`](Self::entered)), where a non-linear ψ(n) is evaluated once.
/// `body` is an acceleration applied to all components (the paper's
/// streamwise driving), contributing force density `ρ_σ · body`.
pub(crate) struct ForcePlanes<'a> {
    grid: LocalGrid,
    solid: &'a [bool],
    /// Number density n of the three slots, and ψ(n) of the non-linear
    /// components (`None`: ψ is n).
    n: Vec<Vec<f64>>,
    evals: Vec<Option<(PsiFn, Vec<f64>)>>,
    assemblies: Vec<crate::simd::ForceAssembly>,
    /// The interaction-kernel vectors of the current plane, 3 channels × p
    /// per component, and where each component's starts.
    g: Vec<f64>,
    planes: Vec<*const f64>,
    /// Staging plane + trailing zero row for the aggregate sweeps.
    scratch: Vec<f64>,
    /// The adhesion kernel of the current plane (3 channels × p); empty
    /// when no component has adhesion.
    adhesion: Vec<f64>,
}

impl<'a> ForcePlanes<'a> {
    pub(crate) fn new<'s>(
        specs: impl IntoIterator<Item = &'s ComponentSpec>,
        coupling: &CouplingMatrix,
        wall: &WallForce,
        body: [f64; 3],
        grid: LocalGrid,
        solid: &'a [bool],
    ) -> Self {
        let specs: Vec<&ComponentSpec> = specs.into_iter().collect();
        assert_eq!(specs.len(), coupling.components());
        assert_eq!(solid.len(), grid.cells());
        let (s, p) = (specs.len(), grid.plane_cells());
        let evals = specs
            .iter()
            .map(|spec| match spec.psi_fn {
                PsiFn::Linear => None,
                pf => Some((pf, vec![0.0; 3 * p])),
            })
            .collect();
        let dims1 = crate::geometry::Dims::new(1, grid.ny, grid.nz);
        let assemblies = specs
            .iter()
            .enumerate()
            .map(|(a, spec)| {
                let g_wall = spec.wall_adhesion;
                // G(d) separates by axis (y walls depend only on y, z walls
                // only on z), so the four exp() per cell collapse into two
                // per-row tables. Each entry is computed by the exact
                // expression the per-cell code used, so the values are
                // bitwise identical.
                let use_wall = spec.feels_wall_force && !wall.is_off();
                let magnitude = |y, z| {
                    if use_wall {
                        wall.magnitudes(dims1.wall_distances(y, z))
                    } else {
                        (0.0, 0.0)
                    }
                };
                crate::simd::ForceAssembly {
                    ny: grid.ny,
                    nz: grid.nz,
                    p,
                    // All four repointed per plane.
                    n: std::ptr::null(),
                    pe: std::ptr::null(),
                    force: std::ptr::null_mut(),
                    force_stride: 0,
                    // Active couplings in ascending-b order (the inactive
                    // g = 0 terms contributed nothing and are skipped).
                    couplings: (0..s)
                        .filter(|&b| coupling.get(a, b) != 0.0)
                        .map(|b| (b, coupling.get(a, b)))
                        .collect(),
                    adhesion: (g_wall != 0.0).then_some((std::ptr::null(), g_wall)),
                    wy: (0..grid.ny).map(|y| magnitude(y, 0).0).collect(),
                    wz: (0..grid.nz).map(|z| magnitude(0, z).1).collect(),
                    per_mass: wall.mode == WallForceMode::PerMass,
                    mass: spec.mass,
                    body,
                }
            })
            .collect();
        let any_adhesion = specs.iter().any(|spec| spec.wall_adhesion != 0.0);
        ForcePlanes {
            grid,
            solid,
            n: vec![vec![0.0; 3 * p]; s],
            evals,
            assemblies,
            g: vec![0.0; 3 * p * s],
            planes: vec![std::ptr::null(); s],
            scratch: vec![0.0; p + grid.nz],
            adhesion: if any_adhesion { vec![0.0; 3 * p] } else { Vec::new() },
        }
    }

    /// Component `a`'s number density slot of plane `y`, to fill before
    /// [`entered`](Self::entered).
    pub(crate) fn psi_mut(&mut self, a: usize, y: usize) -> &mut [f64] {
        let p = self.grid.plane_cells();
        &mut self.n[a][y % 3 * p..][..p]
    }

    /// Component `a`'s number density slot of plane `y`.
    pub(crate) fn psi(&self, a: usize, y: usize) -> &[f64] {
        let p = self.grid.plane_cells();
        &self.n[a][y % 3 * p..][..p]
    }

    /// Takes in plane `y`, its number density filled for every component:
    /// evaluates ψ(n) of the non-linear components, once per plane.
    pub(crate) fn entered(&mut self, y: usize) {
        let at = y % 3 * self.grid.plane_cells()..(y % 3 + 1) * self.grid.plane_cells();
        for (n, (pf, pe)) in self.n.iter().zip(&mut self.evals).filter_map(|(n, e)| Some((n, e.as_mut()?))) {
            pe[at.clone()].iter_mut().zip(&n[at.clone()]).for_each(|(pe, &n)| *pe = pf.eval(n));
        }
    }

    /// Computes every component's force density on interior plane `xl`
    /// into `out[a]`: cell `q` of channel `k` of component `a` goes to
    /// `out[a] + k·stride + q`. Planes `xl − 1 ..= xl + 1` must be the last
    /// to have [`entered`](Self::entered) their slots.
    ///
    /// # Safety
    ///
    /// `out` holds one pointer per component, each writable for 3 channels
    /// of `plane_cells` cells at `stride`, disjoint from each other and from
    /// every array the kernel reads, with no other access during the call.
    pub(crate) unsafe fn plane(&mut self, xl: usize, out: &[*mut f64], stride: usize) {
        let grid = self.grid;
        let p = grid.plane_cells();
        assert!((LocalGrid::FIRST..=grid.last()).contains(&xl) && out.len() == self.assemblies.len());
        if !self.adhesion.is_empty() {
            adhesion_plane(self.solid, grid, xl, &mut self.adhesion);
        }
        // ψ of component `a` at plane `y`: evaluated, or the density itself.
        let (n, evals) = (&self.n, &self.evals);
        let pe = |a: usize, y: usize| evals[a].as_ref().map_or(&n[a], |(_, pe)| pe)[y % 3 * p..].as_ptr();
        // The interaction-kernel vector G_b(x) = Σ_i w_i ψ_b(x+e_i) e_i
        // (≈ c_s² ∇ψ_b to second order), via the separable-aggregate form
        // (see [`crate::simd::gvec_plane`]). The per-cell values depend only
        // on ψ and the cell position, so the result is bitwise identical at
        // any slab decomposition.
        let g = self.g.as_mut_ptr();
        let scratch = self.scratch.as_mut_ptr();
        for (b, plane) in self.planes.iter_mut().enumerate() {
            *plane = g.add(3 * p * b);
            let stencil = [pe(b, xl - 1), pe(b, xl), pe(b, xl + 1)];
            crate::simd::gvec_plane(stencil, g.add(3 * p * b), scratch, grid.ny, grid.nz, p);
        }
        let planes = &self.planes;
        let adhesion = self.adhesion.as_ptr();
        for (a, (args, &force)) in self.assemblies.iter_mut().zip(out).enumerate() {
            (args.n, args.pe) = (n[a][xl % 3 * p..].as_ptr(), pe(a, xl));
            (args.force, args.force_stride) = (force, stride);
            if let Some((plane, _)) = args.adhesion.as_mut() {
                *plane = adhesion;
            }
            #[cfg(target_arch = "x86_64")]
            if crate::simd::avx2_available() {
                crate::simd::force_assemble_avx2(args, planes);
                continue;
            }
            crate::simd::force_assemble_scalar(args, planes);
        }
    }
}

/// The adhesion kernel A(x) = Σ_i w_i s(x+e_i) e_i of interior plane `xl`
/// (s = 1 behind channel walls and at obstacle cells), shared by every
/// component, into `out` (3 channels × plane cells).
fn adhesion_plane(solid: &[bool], grid: LocalGrid, xl: usize, out: &mut [f64]) {
    let p = grid.plane_cells();
    let (ny, nz) = (grid.ny as isize, grid.nz as isize);
    for y in 0..grid.ny {
        for z in 0..grid.nz {
            let mut acc = [0.0f64; 3];
            for i in 1..D3Q19::Q {
                let e = D3Q19::E[i];
                let yn = y as isize + e[1] as isize;
                let zn = z as isize + e[2] as isize;
                let is_solid = if yn < 0 || yn >= ny || zn < 0 || zn >= nz {
                    true // channel wall
                } else {
                    let xn = (xl as isize + e[0] as isize) as usize;
                    solid[(xn * grid.ny + yn as usize) * grid.nz + zn as usize]
                };
                if is_solid {
                    acc[0] += D3Q19::W[i] * e[0] as f64;
                    acc[1] += D3Q19::W[i] * e[1] as f64;
                    acc[2] += D3Q19::W[i] * e[2] as f64;
                }
            }
            for a in 0..3 {
                out[a * p + y * grid.nz + z] = acc[a];
            }
        }
    }
}

/// The two-pass reference's first pass: the total force density of every
/// component at every interior cell, into `out` (one 3-channel array per
/// component, the slab's grid), from ψ as a collision loads it. Production
/// never stores forces; the test oracle and the frozen ledger step table do.
pub fn compute_forces(
    comps: &[ComponentState],
    coupling: &CouplingMatrix,
    wall: &WallForce,
    body: [f64; 3],
    solid: &[bool],
    out: &mut [SlabArray],
) {
    let grid = comps[0].grid();
    assert!(out.len() == comps.len() && out.iter().all(|f| f.grid() == grid && f.channels() == 3));
    let p = grid.plane_cells();
    let mut collision = PlaneCollision::new(comps, (coupling, wall, body), solid);
    for y in 0..grid.lx {
        // Safety: plane `y` lies in the window, and nothing writes it.
        unsafe { collision.load(comps, y, false) };
        if y >= 2 {
            for ((.., force), out) in collision.forces(y - 1).into_iter().zip(out.iter_mut()) {
                for a in 0..3 {
                    out.channel_mut(a)[(y - 1) * p..y * p].copy_from_slice(&force[a * p..(a + 1) * p]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;
    use crate::lattice::{Lattice, D3Q19};

    fn two_comp(nx: usize, ny: usize, nz: usize) -> Vec<ComponentState> {
        let grid = LocalGrid::new(nx, ny, nz);
        vec![
            ComponentState::new(ComponentSpec::water(), grid),
            ComponentState::new(ComponentSpec::air(), grid),
        ]
    }

    /// The reference pass's force arrays, one per component, with ψ of
    /// the ghost planes periodic.
    fn forces(
        comps: &mut [ComponentState],
        coupling: &CouplingMatrix,
        wall: &WallForce,
        body: [f64; 3],
        solid: &[bool],
    ) -> Vec<SlabArray> {
        for c in comps.iter_mut() {
            crate::macroscopic::edge_psi(c);
            let p = c.grid().plane_cells();
            c.halo_psi.copy_within(2 * p..3 * p, 0);
            c.halo_psi.copy_within(p..2 * p, 3 * p);
        }
        let mut out: Vec<SlabArray> = comps.iter().map(|c| SlabArray::new(c.grid(), 3)).collect();
        compute_forces(comps, coupling, wall, body, solid, &mut out);
        out
    }

    fn no_solid(c: &ComponentState) -> Vec<bool> {
        vec![false; c.grid().cells()]
    }

    /// Populations of ψ = `n` at every cell of plane `xl`, all at rest.
    fn set_density(c: &mut ComponentState, xl: usize, n: f64) {
        let p = c.grid().plane_cells();
        for cell in xl * p..(xl + 1) * p {
            (0..D3Q19::Q).for_each(|i| c.f.set(i, cell, if i == 0 { n } else { 0.0 }));
        }
    }

    #[test]
    fn uniform_densities_give_zero_sc_force_in_bulk() {
        let mut comps = two_comp(4, 8, 8);
        comps[0].init_uniform(1.0, [0.0; 3]);
        comps[1].init_uniform(0.3, [0.0; 3]);
        let coupling = CouplingMatrix::cross(0.5);
        let solid = no_solid(&comps[0]);
        let force = forces(&mut comps, &coupling, &WallForce::off(), [0.0; 3], &solid);
        // Away from walls (where ψ=0 beyond the boundary breaks uniformity)
        // the force must vanish.
        let grid = comps[0].grid();
        let cell = grid.idx(2, grid.ny / 2, grid.nz / 2);
        for f in &force {
            for a in 0..3 {
                assert!(f.at(a, cell).abs() < 1e-14, "bulk SC force must vanish");
            }
        }
    }

    #[test]
    fn sc_force_conserves_total_momentum() {
        // With a symmetric coupling, Σ_cells Σ_comps F = 0 on a periodic
        // domain. Our lateral walls break this globally (ψ=0 outside), so
        // test on a domain that is effectively periodic: make ψ constant in
        // y and z so wall-adjacent asymmetries cancel by symmetry, and vary
        // ψ only along x.
        let mut comps = two_comp(6, 4, 4);
        let grid = comps[0].grid();
        for (k, c) in comps.iter_mut().enumerate() {
            for xl in 1..=grid.last() {
                set_density(c, xl, 0.5 + 0.1 * ((xl + k) as f64).sin());
            }
        }
        let coupling = CouplingMatrix::cross(0.7);
        let solid = no_solid(&comps[0]);
        let force = forces(&mut comps, &coupling, &WallForce::off(), [0.0; 3], &solid);
        let mut total = [0.0f64; 3];
        for f in &force {
            for xl in 1..=grid.last() {
                for y in 0..grid.ny {
                    for z in 0..grid.nz {
                        let cell = grid.idx(xl, y, z);
                        for a in 0..3 {
                            total[a] += f.at(a, cell);
                        }
                    }
                }
            }
        }
        for a in 0..3 {
            assert!(total[a].abs() < 1e-10, "total SC momentum change axis {a}: {}", total[a]);
        }
    }

    #[test]
    fn repulsive_coupling_pushes_down_gradient() {
        // ψ of component 1 increases with x; repulsive g means component 0
        // is pushed toward smaller x (down the other component's gradient).
        let mut comps = two_comp(6, 3, 3);
        let grid = comps[0].grid();
        comps[0].init_uniform(1.0, [0.0; 3]);
        for xl in 1..=grid.last() {
            set_density(&mut comps[1], xl, 0.1 * xl as f64);
        }
        let coupling = CouplingMatrix::cross(1.0);
        let solid = no_solid(&comps[0]);
        let force = forces(&mut comps, &coupling, &WallForce::off(), [0.0; 3], &solid);
        let cell = grid.idx(3, 1, 1);
        assert!(force[0].at(0, cell) < 0.0, "repulsion must push down the gradient");
    }

    #[test]
    fn wall_force_points_inward_and_only_on_water() {
        let mut comps = two_comp(3, 10, 6);
        comps[0].init_uniform(1.0, [0.0; 3]);
        comps[1].init_uniform(0.2, [0.0; 3]);
        let wall = WallForce { amplitude: 0.2, decay: 2.0, mode: WallForceMode::PerMass };
        let solid = no_solid(&comps[0]);
        let force = forces(&mut comps, &CouplingMatrix::none(2), &wall, [0.0; 3], &solid);
        let grid = comps[0].grid();
        // Near the low-y wall: positive (inward) F_y on water.
        let lo = grid.idx(1, 0, grid.nz / 2);
        assert!(force[0].at(1, lo) > 0.0);
        // Near the high-y wall: negative F_y.
        let hi = grid.idx(1, grid.ny - 1, grid.nz / 2);
        assert!(force[0].at(1, hi) < 0.0);
        // Antisymmetric between the two walls.
        assert!((force[0].at(1, lo) + force[0].at(1, hi)).abs() < 1e-12);
        // Air is untouched.
        assert_eq!(force[1].at(1, lo), 0.0);
        assert_eq!(force[1].at(2, lo), 0.0);
    }

    #[test]
    fn wall_force_decays_with_distance() {
        let wall = WallForce::paper();
        let dims = crate::geometry::Dims::new(1, 40, 40);
        let (f0, _) = wall.magnitudes(dims.wall_distances(0, 20));
        let (f3, _) = wall.magnitudes(dims.wall_distances(3, 20));
        let (f10, _) = wall.magnitudes(dims.wall_distances(10, 20));
        assert!(f0 > f3 && f3 > f10 && f10 > 0.0);
        // Decay ratio over one decay length ≈ 1/e (far wall negligible).
        let (fa, _) = wall.magnitudes(dims.wall_distances(1, 20));
        let (fb, _) = wall.magnitudes(dims.wall_distances(3, 20));
        assert!((fb / fa - (-1.0f64).exp()).abs() < 1e-3);
    }

    #[test]
    fn adhesion_repels_from_wall_when_positive() {
        let grid = LocalGrid::new(3, 8, 8);
        let mut spec = ComponentSpec::water();
        spec.feels_wall_force = false;
        spec.wall_adhesion = 0.3; // hydrophobic
        let mut comps = vec![ComponentState::new(spec, grid)];
        comps[0].init_uniform(1.0, [0.0; 3]);
        let solid = vec![false; grid.cells()];
        let force = forces(&mut comps, &CouplingMatrix::none(1), &WallForce::off(), [0.0; 3], &solid);
        // First fluid row next to the y-low wall: force points inward (+y).
        let lo = grid.idx(1, 0, 4);
        assert!(force[0].at(1, lo) > 0.0, "hydrophobic adhesion must repel");
        // One row in: the nearest-neighbor kernel no longer sees the wall.
        let inner = grid.idx(1, 2, 4);
        assert_eq!(force[0].at(1, inner), 0.0, "adhesion has one-cell range");
        // Attractive (wetting) sign flips the force.
        comps[0].spec.wall_adhesion = -0.3;
        let force = forces(&mut comps, &CouplingMatrix::none(1), &WallForce::off(), [0.0; 3], &solid);
        assert!(force[0].at(1, lo) < 0.0, "wetting adhesion must attract");
    }

    #[test]
    fn adhesion_sees_obstacles() {
        let grid = LocalGrid::new(3, 6, 6);
        let mut spec = ComponentSpec::water();
        spec.feels_wall_force = false;
        spec.wall_adhesion = 0.2;
        let mut comps = vec![ComponentState::new(spec, grid)];
        comps[0].init_uniform(1.0, [0.0; 3]);
        let mut solid = vec![false; grid.cells()];
        // Solid cell beside (1, 3, 3) in +y.
        solid[grid.idx(1, 4, 3)] = true;
        let force = forces(&mut comps, &CouplingMatrix::none(1), &WallForce::off(), [0.0; 3], &solid);
        let beside = grid.idx(1, 3, 3);
        assert!(
            force[0].at(1, beside) < 0.0,
            "repulsion must push away from the obstacle (−y)"
        );
    }

    #[test]
    fn zero_adhesion_is_a_noop() {
        // Regression: the default spec (g_w = 0) must produce exactly the
        // old forces.
        let grid = LocalGrid::new(3, 6, 4);
        let mut comps = vec![
            ComponentState::new(ComponentSpec::water(), grid),
            ComponentState::new(ComponentSpec::air(), grid),
        ];
        comps[0].init_uniform(1.0, [0.0; 3]);
        comps[1].init_uniform(0.2, [0.0; 3]);
        let solid = vec![false; grid.cells()];
        let wall = WallForce::paper();
        let force = forces(&mut comps, &CouplingMatrix::cross(0.15), &wall, [1e-5, 0.0, 0.0], &solid);
        let snapshot: Vec<f64> = force[0].to_vec();
        // Recompute with adhesion explicitly zero (same thing).
        comps[0].spec.wall_adhesion = 0.0;
        let force = forces(&mut comps, &CouplingMatrix::cross(0.15), &wall, [1e-5, 0.0, 0.0], &solid);
        assert_eq!(snapshot, force[0].to_vec());
    }

    #[test]
    fn body_force_is_rho_times_acceleration() {
        let mut comps = two_comp(3, 3, 3);
        comps[0].init_uniform(0.8, [0.0; 3]);
        comps[1].init_uniform(0.4, [0.0; 3]);
        let g = [1e-5, 0.0, 0.0];
        let solid = no_solid(&comps[0]);
        let force = forces(&mut comps, &CouplingMatrix::none(2), &WallForce::off(), g, &solid);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 1, 1);
        assert!((force[0].at(0, cell) - 0.8 * 1e-5).abs() < 1e-18);
        assert!((force[1].at(0, cell) - 0.4 * 1e-5).abs() < 1e-18);
    }
}
