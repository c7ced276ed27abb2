//! Shan–Chen multicomponent coupling: the common velocity and the
//! per-component equilibrium velocities, formed just before a collision
//! (paper §2.1, pseudo-code line 17, for line 4):
//!
//! ```text
//! ū(x) = [ Σ_σ (m_σ / τ_σ) Σ_i f_i^σ e_i ] / [ Σ_σ ρ_σ / τ_σ ]
//! u_σ^eq(x) = ū(x) + τ_σ F_σ(x) / ρ_σ(x)
//! ```
//!
//! where `F_σ` is the total force density (interaction + wall + body),
//! which [`crate::force::ForcePlanes`] computes one plane at a time from ψ
//! of the phase boundary — taken from the populations one plane ahead,
//! the ghost planes' as the previous phase's exchange delivered them. The
//! force shift is how forcing enters the Shan–Chen LBGK scheme. Production
//! forms ψ, j, the force and `u_σ^eq` where they are consumed
//! ([`PlaneCollision`]), so none is ever stored over the slab;
//! [`crate::force::compute_forces`] + [`update_equilibrium_velocities`] are
//! the same arithmetic as whole-slab passes, kept as the reference. The
//! update itself is one lane-typed body over slices, [`update_cells`]
//! (4-cell blocks and a 1-cell tail, compiled plain and AVX2 behind
//! [`crate::simd::dispatch`]); each cell's momentum is read for every
//! component before any `u_eq` slot is overwritten.

use crate::collision::{collide_cells, InPlace, Populations};
use crate::component::{CollisionOperator, ComponentState, CouplingMatrix};
use crate::field::{runs, runs_mut, LocalGrid, SlabArray};
use crate::force::{ForcePlanes, WallForce};
use crate::lattice::D3Q19;
use crate::macroscopic::moments;
use crate::simd::{dispatch, V};

/// Density floor below which the force shift is suppressed to avoid
/// dividing by a vanishing component density.
pub const RHO_FLOOR: f64 = 1e-12;

/// One component's slices for the velocity update of a run of cells:
/// `psi` and `force` are read, `ueq` holds j on entry and `u_σ^eq` on
/// return.
pub(crate) struct CompView<'a> {
    pub(crate) psi: &'a [f64],
    /// Total force density, one slice an axis.
    pub(crate) force: [&'a [f64]; 3],
    pub(crate) ueq: [&'a mut [f64]; 3],
    pub(crate) mass: f64,
    pub(crate) momentum_tau: f64,
}

/// The update body over the cells of every view (as many as the first
/// view's `psi`): 4-cell blocks, then a 1-cell tail of the same code;
/// called directly it is the plain instance. The update is cell-local: it
/// couples components, not cells.
#[inline(always)]
pub(crate) fn update_cells(views: &mut [CompView<'_>]) {
    let n = views.first().map_or(0, |v| v.psi.len());
    for block in 0..n / 4 {
        update_block::<4>(views, block);
    }
    for cell in n / 4 * 4..n {
        update_block::<1>(views, cell);
    }
}

#[inline(always)]
fn update_block<const L: usize>(views: &mut [CompView<'_>], block: usize) {
    // ū accumulates in ascending component order.
    let mut num = [V::<L>::splat(0.0); 3];
    let mut den = V::splat(0.0);
    for v in views.iter() {
        let inv_tau = 1.0 / v.momentum_tau;
        for (num, j) in num.iter_mut().zip(&v.ueq) {
            *num = *num + v.mass * V::load(j, block) * inv_tau;
        }
        den = den + v.mass * V::load(v.psi, block) * inv_tau;
    }
    // Lanes failing the density floor still divide; the select drops it.
    let ubar = |a: usize| den.select_gt(RHO_FLOOR, num[a] / den, V::splat(0.0));
    let ubar = [ubar(0), ubar(1), ubar(2)];
    // Every component's j is read above before any is overwritten.
    for v in views.iter_mut() {
        let rho = v.mass * V::load(v.psi, block);
        let shift = rho.select_gt(RHO_FLOOR, v.momentum_tau / rho, V::splat(0.0));
        for ((ueq, force), ubar) in v.ueq.iter_mut().zip(v.force).zip(ubar) {
            (ubar + shift * V::load(force, block)).store(ueq, block);
        }
    }
}

/// Cells per row block of a [`PlaneCollision`], rounded down to whole
/// z-rows (at least one). On the paper grid ~1000 ran at least as fast as
/// 160, 400 or a whole plane (EXPERIMENTS.md, "ueq out of the state").
const COLLISION_BLOCK_CELLS: usize = 1024;

/// What a collision forms its equilibrium velocities from besides the
/// state: the coupling, the wall force and the body force.
pub(crate) type Forcing<'a> = (&'a CouplingMatrix, &'a WallForce, [f64; 3]);

/// One component of a [`PlaneCollision`]: the operator, a force plane and
/// j of two planes, turned into `u_σ^eq` in place.
struct Part {
    op: CollisionOperator,
    tau: f64,
    mass: f64,
    momentum_tau: f64,
    force: Vec<f64>,
    /// j of the planes `y` with `y % 2 == 0` and `== 1`, 3 channels of
    /// plane cells each.
    ueq: [Vec<f64>; 2],
}

/// The collision of whole planes, each at equilibrium velocities formed
/// just before it. The caller loads every plane's ψ, and j of each plane to
/// be collided, one plane ahead of the collision that reads it last
/// ([`load`](Self::load)); a collision then computes the plane's forces
/// into a plane scratch and, per row block, `u_σ^eq` over j in place
/// ([`update_cells`]) and every component's collision from it. Bit for bit
/// [`crate::force::compute_forces`], [`update_equilibrium_velocities`] and a
/// whole-slab [`crate::collision::collide`], without their arrays.
pub(crate) struct PlaneCollision<'a> {
    forces: ForcePlanes<'a>,
    parts: Vec<Part>,
    /// Cells of a plane and of a row block.
    plane: usize,
    block: usize,
}

impl<'a> PlaneCollision<'a> {
    pub(crate) fn new(comps: &[ComponentState], forcing: Forcing<'_>, solid: &'a [bool]) -> Self {
        let grid = comps[0].grid();
        let p = grid.plane_cells();
        let block = (COLLISION_BLOCK_CELLS / grid.nz).max(1).min(grid.ny) * grid.nz;
        let parts = comps
            .iter()
            .map(|c| Part {
                op: c.spec.collision,
                tau: c.spec.tau,
                mass: c.spec.mass,
                momentum_tau: c.spec.momentum_tau(),
                force: vec![0.0; 3 * p],
                ueq: [vec![0.0; 3 * p], vec![0.0; 3 * p]],
            })
            .collect();
        let (coupling, wall, body) = forcing;
        let forces = ForcePlanes::new(comps.iter().map(|c| &c.spec), coupling, wall, body, grid, solid);
        PlaneCollision { forces, parts, plane: p, block }
    }

    /// ψ of plane `y` of every component into the force kernel's ring — as
    /// `halo_psi` keeps it, or else from the populations — and j too if `j`,
    /// into the buffer of `y % 2`; one pass over the populations for both.
    /// `comps` are this collision's, and their plane `y` holds the phase
    /// boundary's populations.
    pub(crate) fn load(&mut self, comps: &[ComponentState], y: usize, j: bool) {
        let p = self.plane;
        for (a, (c, part)) in comps.iter().zip(&mut self.parts).enumerate() {
            let ring = self.forces.psi_mut(a, y);
            let psi = match c.kept_psi(y) {
                Some(kept) => {
                    ring.copy_from_slice(kept);
                    None
                }
                None => Some(ring),
            };
            let j = j.then(|| runs_mut(&mut part.ueq[y % 2], p, 0..p));
            if psi.is_some() || j.is_some() {
                let f = c.f.plane(y);
                dispatch(#[inline(always)] || moments(f, psi, j));
            }
        }
        self.forces.entered(y);
    }

    /// The forces of interior plane `xl` into the plane scratch; every
    /// component's ψ, j and force of the plane, `plane_cells` values a
    /// channel. ψ of planes `xl − 1 ..= xl + 1` and j of plane `xl` must
    /// have been loaded last among their slots.
    pub(crate) fn forces(&mut self, xl: usize) -> Vec<(&[f64], &[f64], &[f64])> {
        self.forces.plane(xl, self.parts.iter_mut().map(|part| &mut part.force[..]));
        let (forces, parts) = (&self.forces, &self.parts);
        parts.iter().enumerate().map(|(a, part)| (forces.psi(a, xl), &part.ueq[xl % 2][..], &part.force[..])).collect()
    }

    /// Collides interior plane `xl` of every component: `pops[a]` is its
    /// plane of component `a`, in place ([`InPlace`]) or from `f` into a
    /// ring slot ([`crate::collision::OutOfPlace`]). ψ of planes `xl − 1
    /// ..= xl + 1` and j of plane `xl` must have been loaded last among
    /// their slots, and plane `xl` must hold the phase boundary's
    /// populations.
    pub(crate) fn collide(&mut self, xl: usize, pops: &mut [impl Populations]) {
        let (p, block) = (self.plane, self.block);
        let PlaneCollision { forces, parts, .. } = self;
        forces.plane(xl, parts.iter_mut().map(|part| &mut part.force[..]));
        for q0 in (0..p).step_by(block) {
            let run = q0..q0 + block.min(p - q0);
            let mut views: Vec<CompView<'_>> = parts
                .iter_mut()
                .enumerate()
                .map(|(a, part)| CompView {
                    psi: &forces.psi(a, xl)[run.clone()],
                    force: runs(&part.force, p, run.clone()),
                    ueq: runs_mut(&mut part.ueq[xl % 2], p, run.clone()),
                    mass: part.mass,
                    momentum_tau: part.momentum_tau,
                })
                .collect();
            dispatch(#[inline(always)] || update_cells(&mut views));
            for (part, pops) in parts.iter().zip(pops.iter_mut()) {
                let ueq = runs(&part.ueq[xl % 2], p, run.clone());
                collide_cells(part.op, part.tau, pops.run(run.clone()), ueq);
            }
        }
    }
}

/// Collides the slab's edge planes, `FIRST` and `last` (one plane if they
/// are the same), in place ([`PlaneCollision`]), each at ψ of the planes
/// around it — loaded, with j of both edges, before either is collided.
pub(crate) fn collide_edges(comps: &mut [ComponentState], forcing: Forcing<'_>, solid: &[bool]) {
    let (first, last) = (LocalGrid::FIRST, comps[0].grid().last());
    fn in_place(comps: &mut [ComponentState], xl: usize) -> Vec<InPlace<'_>> {
        comps.iter_mut().map(|c| InPlace(c.f.plane_mut(xl))).collect()
    }
    let mut collision = PlaneCollision::new(comps, forcing, solid);
    // The populations loaded are the phase boundary's: planes 0 ..= 2,
    // `last` among them when it is 2, go before either edge is collided,
    // and the planes from 3 on are neither edge but `last`, whose ψ is
    // kept. Each edge is collided once, in place.
    for y in 0..=first + 1 {
        collision.load(comps, y, y == first || y == last);
    }
    collision.collide(first, &mut in_place(comps, first));
    if last > first {
        for y in (last - 1).max(first + 2)..=last + 1 {
            collision.load(comps, y, y == last);
        }
        collision.collide(last, &mut in_place(comps, last));
    }
}

/// The two-pass reference's second pass: `u_σ^eq` at every interior cell
/// into `ueq` (3 channels per component on the slab's grid), from ψ and j
/// of the current populations and the whole-slab forces
/// [`crate::force::compute_forces`] left in `forces`, plane by plane.
pub fn update_equilibrium_velocities(comps: &[ComponentState], forces: &[SlabArray], ueq: &mut [SlabArray]) {
    let grid = comps[0].grid();
    let on_grid = |a: &SlabArray| a.grid() == grid && a.channels() == 3;
    assert!(forces.len() == comps.len() && ueq.len() == comps.len() && forces.iter().chain(&*ueq).all(on_grid));
    let mut psi: Vec<Vec<f64>> = comps.iter().map(|_| vec![0.0; grid.plane_cells()]).collect();
    for xl in LocalGrid::FIRST..=grid.last() {
        let mut views: Vec<CompView<'_>> = (comps.iter().zip(&mut psi))
            .zip(forces.iter().zip(ueq.iter_mut()))
            .map(|((c, psi), (force, ueq))| {
                let f: [&[f64]; D3Q19::Q] = c.f.plane(xl);
                let mut ueq = ueq.plane_mut(xl);
                // ψ and j of the plane, into `psi` and `ueq`.
                let j = ueq.each_mut().map(|j| &mut **j);
                dispatch(#[inline(always)] || moments(f, Some(&mut psi[..]), Some(j)));
                CompView {
                    psi,
                    force: force.plane(xl),
                    ueq,
                    mass: c.spec.mass,
                    momentum_tau: c.spec.momentum_tau(),
                }
            })
            .collect();
        dispatch(#[inline(always)] || update_cells(&mut views));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;

    /// Zero forces (or velocities) for `comps`, for the reference pass.
    fn no_force(comps: &[ComponentState]) -> Vec<SlabArray> {
        comps.iter().map(|c| SlabArray::new(c.grid(), 3)).collect()
    }

    /// The reference pass's `u_σ^eq` of `comps` under `force`.
    fn velocities(comps: &[ComponentState], force: &[SlabArray]) -> Vec<SlabArray> {
        let mut ueq = no_force(comps);
        update_equilibrium_velocities(comps, force, &mut ueq);
        ueq
    }

    fn setup(taus: [f64; 2], masses: [f64; 2], ns: [f64; 2], us: [[f64; 3]; 2]) -> Vec<ComponentState> {
        let grid = LocalGrid::new(3, 2, 2);
        (0..2)
            .map(|k| {
                let spec = ComponentSpec {
                    name: format!("c{k}"),
                    mass: masses[k],
                    tau: taus[k],
                    feels_wall_force: false,
                    psi_fn: crate::potential::PsiFn::Linear,
                    collision: crate::component::CollisionOperator::Bgk,
                    wall_adhesion: 0.0,
                };
                let mut c = ComponentState::new(spec, grid);
                c.init_uniform(ns[k], us[k]);
                c
            })
            .collect()
    }

    /// The velocity update against a per-cell reference with the documented
    /// association order: the two-pass reference (j of the populations and
    /// u_σ^eq into whole-slab arrays, the force from a whole-slab array),
    /// then the plain body and the dispatched one over runs of plane 1 of
    /// every length, j taken into a scratch that the update overwrites, the
    /// force from a plane scratch — as a plane collision does it.
    #[test]
    fn velocity_update_turns_j_into_ueq_bitwise() {
        use crate::macroscopic::tests::raw_momentum;
        use crate::simd::tests::{bits, lcg_fill, runs};
        let grid = LocalGrid::new(1, 5, 15); // a plane of 75 cells
        let specs = [
            ComponentSpec { mass: 1.0, tau: 1.0, ..ComponentSpec::water() },
            ComponentSpec { mass: 0.037, tau: 0.8, ..ComponentSpec::air() },
        ];
        let mut forces: Vec<SlabArray> = specs.iter().map(|_| SlabArray::new(grid, 3)).collect();
        let comps: Vec<ComponentState> = specs
            .iter()
            .zip(forces.iter_mut())
            .enumerate()
            .map(|(k, (spec, f))| {
                let mut c = ComponentState::new(spec.clone(), grid);
                let mut pops = vec![0.0; D3Q19::Q * grid.cells()];
                let mut force = vec![0.0; 3 * grid.cells()];
                lcg_fill(&mut pops, 0xF0 + k as u64);
                lcg_fill(&mut force, 0xFA + k as u64);
                for cell in 0..grid.cells() {
                    // Mix dense cells with a few empty ones, below the
                    // density floor, so the guard is exercised both ways.
                    for i in 0..D3Q19::Q {
                        c.f.set(i, cell, if cell % 7 == 3 { 0.0 } else { 0.1 * pops[i * grid.cells() + cell].abs() });
                    }
                    for a in 0..3 {
                        f.set(a, cell, force[a * grid.cells() + cell]);
                    }
                }
                c
            })
            .collect();
        let mut ueq: Vec<SlabArray> = specs.iter().map(|_| SlabArray::new(grid, 3)).collect();
        update_equilibrium_velocities(&comps, &forces, &mut ueq);
        let p = grid.plane_cells();
        for cell in p..2 * p {
            let j: Vec<[f64; 3]> = comps.iter().map(|c| raw_momentum(c, cell)).collect();
            let mut num = [0.0f64; 3];
            let mut den = 0.0f64;
            let psi = |c: &ComponentState| (0..D3Q19::Q).fold(0.0, |n, i| n + c.f.at(i, cell));
            for (c, j) in comps.iter().zip(&j) {
                let (m, inv_tau) = (c.spec.mass, 1.0 / c.spec.momentum_tau());
                for a in 0..3 {
                    num[a] += m * j[a] * inv_tau;
                }
                den += m * psi(c) * inv_tau;
            }
            let ubar = if den > RHO_FLOOR { num.map(|n| n / den) } else { [0.0; 3] };
            for (k, c) in comps.iter().enumerate() {
                let rho = c.spec.mass * psi(c);
                let shift = if rho > RHO_FLOOR { c.spec.momentum_tau() / rho } else { 0.0 };
                for a in 0..3 {
                    let want = ubar[a] + shift * forces[k].at(a, cell);
                    assert_eq!(ueq[k].at(a, cell).to_bits(), want.to_bits(), "component {k} axis {a} cell {cell}");
                }
            }
        }
        // Ghost planes are not part of the update.
        for u in &ueq {
            for cell in (0..p).chain(2 * p..3 * p) {
                for a in 0..3 {
                    assert_eq!(u.at(a, cell).to_bits(), 0);
                }
            }
        }
        // The plane form: ψ and j of a run into scratches, the force copied
        // to a plane scratch, the update plain and dispatched.
        let scratch: Vec<Vec<f64>> = forces.iter().map(|f| f.plane_values(1).to_vec()).collect();
        for (start, n) in runs() {
            let run = start..start + n;
            let want: Vec<Vec<u64>> = ueq.iter().map(|u| bits(&crate::field::runs::<3>(u.plane_values(1), p, run.clone()).concat())).collect();
            let mut psis = vec![vec![f64::NAN; n]; comps.len()];
            let mut blocks = vec![vec![f64::NAN; 3 * n]; comps.len()];
            for plain in [true, false] {
                let mut views: Vec<CompView<'_>> = comps
                    .iter()
                    .zip(psis.iter_mut())
                    .zip(&scratch)
                    .zip(blocks.iter_mut())
                    .map(|(((c, psi), force), block)| {
                        let f: [&[f64]; D3Q19::Q] = crate::field::runs(c.f.plane_values(1), p, run.clone());
                        let mut j = runs_mut(block, n, 0..n);
                        moments(f, Some(&mut psi[..]), Some(j.each_mut().map(|j| &mut **j)));
                        CompView {
                            psi,
                            force: crate::field::runs(force, p, run.clone()),
                            ueq: j,
                            mass: c.spec.mass,
                            momentum_tau: c.spec.momentum_tau(),
                        }
                    })
                    .collect();
                if plain {
                    update_cells(&mut views);
                } else {
                    dispatch(#[inline(always)] || update_cells(&mut views));
                }
                for (k, block) in blocks.iter().enumerate() {
                    assert_eq!(bits(block), want[k], "plain={plain}: component {k}, {n} cells at {start}");
                }
            }
        }
    }

    #[test]
    fn common_velocity_is_tau_weighted_average() {
        let comps = setup(
            [1.0, 0.6],
            [1.0, 0.5],
            [1.0, 0.8],
            [[0.02, 0.0, 0.0], [-0.01, 0.01, 0.0]],
        );
        let force = no_force(&comps);
        let ueq = velocities(&comps, &force);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 0, 0);
        // Hand-computed ū.
        let num_x = 1.0 * (1.0 * 0.02) / 1.0 + 0.5 * (0.8 * -0.01) / 0.6;
        let den = 1.0 * 1.0 / 1.0 + 0.5 * 0.8 / 0.6;
        let want = num_x / den;
        // No forces set → ueq = ū for both components.
        assert!((ueq[0].at(0, cell) - want).abs() < 1e-12);
        assert!((ueq[1].at(0, cell) - want).abs() < 1e-12);
    }

    #[test]
    fn equal_components_at_rest_stay_at_rest() {
        let comps = setup([1.0, 1.0], [1.0, 1.0], [0.5, 0.5], [[0.0; 3]; 2]);
        let force = no_force(&comps);
        let ueq = velocities(&comps, &force);
        let grid = comps[0].grid();
        for cell in [grid.idx(1, 0, 0), grid.idx(2, 1, 1)] {
            for u in &ueq {
                for a in 0..3 {
                    assert_eq!(u.at(a, cell), 0.0);
                }
            }
        }
    }

    #[test]
    fn force_shift_is_tau_f_over_rho() {
        let comps = setup([0.8, 1.2], [1.0, 2.0], [1.0, 0.5], [[0.0; 3]; 2]);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 1, 1);
        let mut force = no_force(&comps);
        force[0].set(0, cell, 0.01);
        force[1].set(1, cell, -0.02);
        let ueq = velocities(&comps, &force);
        // ū = 0 (both at rest), so ueq is purely the force shift.
        let rho0 = 1.0 * 1.0;
        let rho1 = 2.0 * 0.5;
        assert!((ueq[0].at(0, cell) - 0.8 * 0.01 / rho0).abs() < 1e-14);
        assert!((ueq[1].at(1, cell) - 1.2 * -0.02 / rho1).abs() < 1e-14);
        // Unforced axes remain zero.
        assert_eq!(ueq[0].at(2, cell), 0.0);
    }

    #[test]
    fn vanishing_density_does_not_blow_up() {
        let comps = setup([1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [[0.0; 3]; 2]);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 0, 0);
        let mut force = no_force(&comps);
        force[1].set(0, cell, 1.0); // force on an empty component
        let ueq = velocities(&comps, &force);
        assert!(ueq[1].at(0, cell).is_finite());
        assert_eq!(ueq[1].at(0, cell), 0.0);
    }
}
