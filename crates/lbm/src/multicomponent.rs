#![expect(
    unsafe_code,
    reason = "per-component raw pointers in the velocity update and the plane \
              collision: f at the window base, read only while the cells it \
              addresses are uncollided; psi in the force kernel's plane ring or a \
              reference array, the force in a plane scratch or a reference array, \
              the momentum and then ueq in a plane buffer or a reference array; each \
              cell's momentum is read for every component before any ueq slot is \
              overwritten"
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
//! which [`crate::force::ForcePlanes`] computes one plane at a time from ψ
//! of the phase boundary — taken from the populations one plane ahead,
//! the ghost planes' as the previous phase's exchange delivered them. The
//! force shift is how forcing enters the Shan–Chen LBGK scheme. Production
//! forms ψ, j, the force and `u_σ^eq` where they are consumed
//! ([`PlaneCollision`]), so none is ever stored over the slab;
//! [`crate::force::compute_forces`] + [`update_equilibrium_velocities`] are
//! the same arithmetic as whole-slab passes, kept as the reference.

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
    fn new(c: &ComponentState, psi: *const f64, force: *const f64, force_stride: usize, ueq: *mut f64) -> CompView {
        CompView { psi, force, force_stride, ueq, mass: c.spec.mass, momentum_tau: c.spec.momentum_tau() }
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

/// One component of a [`PlaneCollision`]: `f` at the window base, the
/// operator, a force plane and j of two planes, turned into `u_σ^eq` in
/// place.
struct Part {
    f: *const f64,
    op: CollisionOperator,
    tau: f64,
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
    force_planes: Vec<*mut f64>,
    views: Vec<CompView>,
    /// Channel stride of `f`; cells of a plane and of a row block.
    cells: usize,
    plane: usize,
    block: usize,
}

impl<'a> PlaneCollision<'a> {
    pub(crate) fn new(comps: &[ComponentState], forcing: Forcing<'_>, solid: &'a [bool]) -> Self {
        let grid = comps[0].grid();
        let p = grid.plane_cells();
        let block = (COLLISION_BLOCK_CELLS / grid.nz).max(1).min(grid.ny) * grid.nz;
        let mut parts: Vec<Part> = comps
            .iter()
            .map(|c| Part {
                f: c.f.base_ptr(),
                op: c.spec.collision,
                tau: c.spec.tau,
                force: vec![0.0; 3 * p],
                ueq: [vec![0.0; 3 * p], vec![0.0; 3 * p]],
            })
            .collect();
        let force_planes = parts.iter_mut().map(|part| part.force.as_mut_ptr()).collect();
        // Every pointer of a view is repointed per block.
        let (null, null_mut) = (std::ptr::null(), std::ptr::null_mut());
        let views = comps.iter().map(|c| CompView::new(c, null, null, p, null_mut)).collect();
        let (coupling, wall, body) = forcing;
        let forces = ForcePlanes::new(comps.iter().map(|c| &c.spec), coupling, wall, body, grid, solid);
        PlaneCollision { forces, parts, force_planes, views, cells: comps[0].f.stride(), plane: p, block }
    }

    /// ψ of plane `y` of every component into the force kernel's ring — as
    /// `halo_psi` keeps it, or else from the populations — and j too if `j`,
    /// into the buffer of `y % 2`; one pass over the populations for both.
    ///
    /// # Safety
    ///
    /// `comps` are this collision's, plane `y` lies in their window, the
    /// populations read are the phase boundary's, and no one writes them.
    pub(crate) unsafe fn load(&mut self, comps: &[ComponentState], y: usize, j: bool) {
        let (p, cells) = (self.plane, self.cells);
        for (a, (c, part)) in comps.iter().zip(&mut self.parts).enumerate() {
            let ring = self.forces.psi_mut(a, y);
            let kept = c.kept_psi(y).map(|kept| ring.copy_from_slice(kept));
            let psi = kept.is_none().then_some(ring.as_mut_ptr());
            let j = j.then(|| (part.ueq[y % 2].as_mut_ptr(), p));
            if psi.is_some() || j.is_some() {
                moments_raw(part.f.add(y * p), cells, psi, j, p);
            }
        }
        self.forces.entered(y);
    }

    /// The forces of interior plane `xl` into the plane scratch; every
    /// component's ψ, j and force of the plane, `plane_cells` values a
    /// channel. ψ of planes `xl − 1 ..= xl + 1` and j of plane `xl` must
    /// have been loaded last among their slots.
    pub(crate) fn forces(&mut self, xl: usize) -> Vec<(&[f64], &[f64], &[f64])> {
        // Safety: the scratch planes hold 3 channels of plane cells each,
        // and nothing else refers to them meanwhile.
        unsafe { self.forces.plane(xl, &self.force_planes, self.plane) };
        let (forces, parts) = (&self.forces, &self.parts);
        parts.iter().enumerate().map(|(a, part)| (forces.psi(a, xl), &part.ueq[xl % 2][..], &part.force[..])).collect()
    }

    /// Collides interior plane `xl` of every component from `f` into
    /// `dst[a]` (Q channels of stride `dst_stride`, plane-relative cells).
    ///
    /// # Safety
    ///
    /// ψ of planes `xl − 1 ..= xl + 1` and j of plane `xl` were loaded last
    /// among their slots; `dst[a]` is plane `xl` of component `a`'s `f` (in
    /// place) or Q channels of plane cells aliasing nothing the collision
    /// reads; plane `xl` holds the phase boundary's populations, and no one
    /// else accesses it meanwhile.
    pub(crate) unsafe fn collide(&mut self, xl: usize, dst: &[*mut f64], dst_stride: usize) {
        let (p, block, cells) = (self.plane, self.block, self.cells);
        self.forces.plane(xl, &self.force_planes, p);
        for q0 in (0..p).step_by(block) {
            let (at, n) = (xl * p + q0, block.min(p - q0));
            for (a, (v, part)) in self.views.iter_mut().zip(&mut self.parts).enumerate() {
                let psi = self.forces.psi(a, xl).as_ptr().add(q0);
                (v.psi, v.force, v.ueq) = (psi, part.force.as_ptr().add(q0), part.ueq[xl % 2].as_mut_ptr().add(q0));
            }
            update_cells(&self.views, p, 0..n);
            for (part, &dst) in self.parts.iter().zip(dst) {
                let ueq = part.ueq[xl % 2].as_ptr().add(q0);
                crate::collision::collide_cells_raw(part.op, part.tau, part.f.add(at), cells, dst.add(q0), dst_stride, ueq, p, n);
            }
        }
    }
}

/// Collides the slab's edge planes, `FIRST` and `last` (one plane if they
/// are the same), in place ([`PlaneCollision`]), each at ψ of the planes
/// around it — loaded, with j of both edges, before either is collided.
pub(crate) fn collide_edges(comps: &mut [ComponentState], forcing: Forcing<'_>, solid: &[bool]) {
    let (first, last) = (LocalGrid::FIRST, comps[0].grid().last());
    let (p, cells) = (comps[0].grid().plane_cells(), comps[0].f.stride());
    let f: Vec<*mut f64> = comps.iter_mut().map(|c| c.f.base_mut_ptr()).collect();
    // Safety: plane `xl` of every window.
    let at = |xl: usize| -> Vec<*mut f64> { f.iter().map(|f| unsafe { f.add(xl * p) }).collect() };
    let mut collision = PlaneCollision::new(comps, forcing, solid);
    // Safety: every plane loaded is in the window, and the populations read
    // are the phase boundary's: planes 0 ..= 2, `last` among them when it is
    // 2, go before either edge is collided, and the planes from 3 on are
    // neither edge but `last`, whose ψ is kept. Each edge is collided once,
    // in place.
    unsafe {
        for y in 0..=first + 1 {
            collision.load(comps, y, y == first || y == last);
        }
        collision.collide(first, &at(first), cells);
        if last > first {
            for y in (last - 1).max(first + 2)..=last + 1 {
                collision.load(comps, y, y == last);
            }
            collision.collide(last, &at(last), cells);
        }
    }
}

/// The two-pass reference's second pass: `u_σ^eq` at every interior cell
/// into `ueq` (3 channels per component on the slab's grid), from ψ and j
/// of the current populations and the whole-slab forces
/// [`crate::force::compute_forces`] left in `forces`.
pub fn update_equilibrium_velocities(comps: &[ComponentState], forces: &[SlabArray], ueq: &mut [SlabArray]) {
    let grid = comps[0].grid();
    let on_grid = |a: &SlabArray| a.grid() == grid && a.channels() == 3;
    assert!(forces.len() == comps.len() && ueq.len() == comps.len() && forces.iter().chain(&*ueq).all(on_grid));
    let (p, stride) = (grid.plane_cells(), ueq[0].stride());
    let interior = LocalGrid::FIRST * p..(grid.last() + 1) * p;
    let mut psi: Vec<SlabArray> = comps.iter().map(|_| SlabArray::new(grid, 1)).collect();
    // Safety: ψ and j of the interior cells go into `psi` and `ueq`, both
    // exclusively borrowed, before the update reads them there; the views
    // hold live window bases covering the interior; `forces` and the states
    // are only read.
    unsafe {
        let at = interior.start;
        for ((c, n), u) in comps.iter().zip(&mut psi).zip(ueq.iter_mut()) {
            let j = Some((u.base_mut_ptr().add(at), stride));
            moments_raw(c.f.base_ptr().add(at), c.f.stride(), Some(n.base_mut_ptr().add(at)), j, interior.len());
        }
        let views: Vec<CompView> = (comps.iter().zip(&psi))
            .zip(forces.iter().zip(ueq.iter_mut()))
            .map(|((c, n), (f, u))| CompView::new(c, n.base_ptr(), f.base_ptr(), f.stride(), u.base_mut_ptr()))
            .collect();
        update_cells(&views, stride, interior)
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
