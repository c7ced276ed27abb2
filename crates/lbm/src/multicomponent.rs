#![expect(
    unsafe_code,
    reason = "per-component raw pointers in the velocity update and the plane \
              collision: f and psi at the window base (one shared storage channel \
              stride), read only while the cells they address are uncollided; the \
              force in a plane scratch or a reference array, the momentum and then \
              ueq in a block scratch or a reference array (each its own stride); \
              each cell's momentum is read for every component before any ueq slot \
              is overwritten"
)]
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
//! which [`crate::force::ForcePlanes`] computes one plane at a time from
//! the ψ the previous phase left (ghost planes included). The force shift
//! is how forcing enters the Shan–Chen LBGK scheme. Production forms them
//! where they are consumed ([`PlaneCollision`]), so neither is ever
//! stored; [`crate::force::compute_forces`] + [`update_equilibrium_velocities`]
//! are the same arithmetic as two whole-slab passes, kept as the reference.

use std::ops::Range;

use crate::component::{CollisionOperator, ComponentState, CouplingMatrix};
use crate::field::{LocalGrid, SlabArray};
use crate::force::{ForcePlanes, WallForce};
use crate::macroscopic::moments_raw;

/// Density floor below which the force shift is suppressed to avoid
/// dividing by a vanishing component density.
pub const RHO_FLOOR: f64 = 1e-12;

/// Raw per-component view for the cross-component cell loop: `psi` and
/// `force` are read-only, `ueq` is read (j) and then written once per cell.
pub(crate) struct CompView {
    pub(crate) psi: *const f64,
    /// Total force density, 3 channels of stride `force_stride`.
    pub(crate) force: *const f64,
    pub(crate) force_stride: usize,
    pub(crate) ueq: *mut f64,
    pub(crate) mass: f64,
    pub(crate) momentum_tau: f64,
}

impl CompView {
    /// The view of `c` at its window base, with the force at `force` and
    /// the j to be turned into `u_σ^eq` at `ueq`.
    fn new(c: &ComponentState, force: *const f64, force_stride: usize, ueq: *mut f64) -> CompView {
        let (psi, mass, momentum_tau) = (c.psi.base_ptr(), c.spec.mass, c.spec.momentum_tau());
        CompView { psi, force, force_stride, ueq, mass, momentum_tau }
    }
}

/// The update of the cells `range` of every view. The update is
/// cell-local: it couples components, not cells.
///
/// # Safety
///
/// As [`crate::simd::update_ueq_avx2`]: each view's `psi`, its `ueq` of
/// channel stride `cells` and its force cover `range`, and no one else
/// accesses them.
pub(crate) unsafe fn update_cells(views: &[CompView], cells: usize, range: Range<usize>) {
    // AVX2 4-cells-at-a-time when the host supports it (bitwise identical,
    // including the lane-wise IEEE divisions — see [`crate::simd`]); the
    // scalar loop takes the rest and other hosts.
    #[cfg(target_arch = "x86_64")]
    let range = if crate::simd::avx2_available() {
        crate::simd::update_ueq_avx2(views, cells, range)
    } else {
        range
    };
    for cell in range {
        // ū accumulates in ascending component order.
        let mut num = [0.0f64; 3];
        let mut den = 0.0f64;
        for v in views {
            let inv_tau = 1.0 / v.momentum_tau;
            for a in 0..3 {
                num[a] += v.mass * *v.ueq.add(a * cells + cell) * inv_tau;
            }
            den += v.mass * *v.psi.add(cell) * inv_tau;
        }
        let ubar = if den > RHO_FLOOR { num.map(|n| n / den) } else { [0.0; 3] };
        // Every component's j is read above before any is overwritten.
        for v in views {
            let rho = v.mass * *v.psi.add(cell);
            let shift = if rho > RHO_FLOOR { v.momentum_tau / rho } else { 0.0 };
            for a in 0..3 {
                *v.ueq.add(a * cells + cell) = ubar[a] + shift * *v.force.add(a * v.force_stride + cell);
            }
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

/// One component of a [`PlaneCollision`]: `f` and ψ at the window base,
/// the operator, a force plane and two blocks of j, then `u_σ^eq`.
struct Part {
    f: *const f64,
    psi: *const f64,
    op: CollisionOperator,
    tau: f64,
    force: Vec<f64>,
    ueq: [Vec<f64>; 2],
}

/// The collision of whole planes, each at equilibrium velocities formed
/// just before it: the plane's forces into a plane scratch, then per row
/// block j of the pre-collision populations (taken by the collision of the
/// block before), `u_σ^eq` over it ([`update_cells`]) and every
/// component's collision from it. Bit for bit
/// [`crate::force::compute_forces`], [`update_equilibrium_velocities`] and
/// a whole-slab [`crate::collision::collide`], without their arrays.
pub(crate) struct PlaneCollision<'a> {
    forces: ForcePlanes<'a>,
    parts: Vec<Part>,
    force_planes: Vec<*mut f64>,
    views: Vec<CompView>,
    /// Channel stride of `f` and ψ; cells of a plane and of a row block.
    cells: usize,
    plane: usize,
    block: usize,
    /// The scratch the next block is collided from, and the plane whose
    /// first block's j it holds.
    k: usize,
    ready: Option<usize>,
}

impl<'a> PlaneCollision<'a> {
    pub(crate) fn new(comps: &'a [ComponentState], forcing: Forcing<'_>, solid: &'a [bool]) -> Self {
        let grid = comps[0].grid();
        let p = grid.plane_cells();
        let block = (COLLISION_BLOCK_CELLS / grid.nz).max(1).min(grid.ny) * grid.nz;
        let mut parts: Vec<Part> = comps
            .iter()
            .map(|c| Part {
                f: c.f.base_ptr(),
                psi: c.psi.base_ptr(),
                op: c.spec.collision,
                tau: c.spec.tau,
                force: vec![0.0; 3 * p],
                ueq: [vec![0.0; 3 * block], vec![0.0; 3 * block]],
            })
            .collect();
        let force_planes = parts.iter_mut().map(|part| part.force.as_mut_ptr()).collect();
        let views = comps.iter().zip(&mut parts).map(|(c, part)| CompView::new(c, part.force.as_ptr(), p, part.ueq[0].as_mut_ptr())).collect();
        let (coupling, wall, body) = forcing;
        let forces = ForcePlanes::new(comps, coupling, wall, body, solid);
        PlaneCollision { forces, parts, force_planes, views, cells: comps[0].f.stride(), plane: p, block, k: 0, ready: None }
    }

    /// Collides interior plane `xl` of every component from `f` into
    /// `dst[a]` (Q channels of stride `dst_stride`, plane-relative cells),
    /// taking j of the first block of plane `next`, the next to collide.
    ///
    /// # Safety
    ///
    /// `dst[a]` is plane `xl` of component `a`'s `f` (in place) or Q
    /// channels of plane cells aliasing nothing the collision reads. The
    /// populations of planes `xl` and `next` and the ψ of planes `xl − 1`
    /// to `xl + 1` must be the phase boundary's, and no one else may access
    /// those planes meanwhile.
    pub(crate) unsafe fn collide(&mut self, xl: usize, dst: &[*mut f64], dst_stride: usize, next: Option<usize>) {
        let (p, block, cells) = (self.plane, self.block, self.cells);
        self.forces.plane(xl, &self.force_planes, p);
        if self.ready != Some(xl) {
            for part in &mut self.parts {
                let j = Some((part.ueq[self.k].as_mut_ptr(), block));
                moments_raw(part.f.add(xl * p), cells, None, j, block.min(p));
            }
        }
        for q0 in (0..p).step_by(block) {
            let (at, n, k) = (xl * p + q0, block.min(p - q0), self.k);
            for (v, part) in self.views.iter_mut().zip(&mut self.parts) {
                (v.psi, v.force, v.ueq) = (part.psi.add(at), part.force.as_ptr().add(q0), part.ueq[k].as_mut_ptr());
            }
            update_cells(&self.views, block, 0..n);
            // j of the next block: this plane's, or the first of `next`.
            let then_at = if q0 + block < p { Some(at + block) } else { next.map(|x| x * p) };
            for (part, &dst) in self.parts.iter_mut().zip(dst) {
                let then = then_at.map(|at| (part.f.add(at), part.ueq[1 - k].as_mut_ptr(), block.min(p - at % p)));
                let (op, tau, src, ueq) = (part.op, part.tau, part.f.add(at), part.ueq[k].as_ptr());
                crate::collision::collide_cells_raw(op, tau, src, cells, dst.add(q0), dst_stride, ueq, block, n, then);
            }
            self.k = 1 - k;
        }
        self.ready = next;
    }
}

/// Collides interior planes `planes` (each once) of every component in
/// place ([`PlaneCollision`]; ψ ghosts current).
pub(crate) fn collide_planes(comps: &mut [ComponentState], forcing: Forcing<'_>, solid: &[bool], planes: &[usize]) {
    let (p, cells) = (comps[0].grid().plane_cells(), comps[0].f.stride());
    let f: Vec<*mut f64> = comps.iter_mut().map(|c| c.f.base_mut_ptr()).collect();
    let mut collision = PlaneCollision::new(comps, forcing, solid);
    for &xl in planes {
        // Safety: plane `xl` of every `f`, collided in place, once, while
        // its populations and the ψ around it are the phase boundary's.
        unsafe { collision.collide(xl, &f.iter().map(|f| f.add(xl * p)).collect::<Vec<_>>(), cells, None) };
    }
}

/// The two-pass reference's second pass: `u_σ^eq` at every interior cell
/// into `ueq` (3 channels per component on the slab's grid), from j of the
/// current populations and the whole-slab forces
/// [`crate::force::compute_forces`] left in `forces`, with ψ current.
pub fn update_equilibrium_velocities(comps: &[ComponentState], forces: &[SlabArray], ueq: &mut [SlabArray]) {
    let grid = comps[0].grid();
    let on_grid = |a: &SlabArray| a.grid() == grid && a.channels() == 3;
    assert!(forces.len() == comps.len() && ueq.len() == comps.len() && forces.iter().chain(&*ueq).all(on_grid));
    let (p, stride) = (grid.plane_cells(), ueq[0].stride());
    let interior = LocalGrid::FIRST * p..(grid.last() + 1) * p;
    let views: Vec<CompView> = comps
        .iter()
        .zip(forces)
        .zip(ueq.iter_mut())
        .map(|((c, f), u)| CompView::new(c, f.base_ptr(), f.stride(), u.base_mut_ptr()))
        .collect();
    // Safety: the views hold live window bases covering the interior; j
    // goes into `ueq`, exclusively borrowed, before the update reads it
    // there; `forces` and the states are only read.
    unsafe {
        for (v, c) in views.iter().zip(comps) {
            let at = interior.start;
            moments_raw(c.f.base_ptr().add(at), c.f.stride(), None, Some((v.ueq.add(at), stride)), interior.len());
        }
        update_cells(&views, stride, interior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;
    use crate::macroscopic::compute_psi;

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
                compute_psi(&mut c);
                c
            })
            .collect()
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
