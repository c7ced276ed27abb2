#![expect(
    unsafe_code,
    reason = "per-component raw pointers in the velocity update: psi and ueq at the \
              window base or at one plane of it (one shared storage channel stride), \
              the force in a plane scratch or a reference array (its own stride); \
              each cell's ueq slots are read (momentum) for every component before \
              any is overwritten, and the plane scratch is written by the force \
              kernel only before the update reads it"
)]
//! Shan–Chen multicomponent coupling: the common velocity and the
//! per-component equilibrium velocities.
//!
//! After forces are known, each phase ends by computing (paper §2.1,
//! pseudo-code line 17) the common velocity
//!
//! ```text
//! ū(x) = [ Σ_σ (m_σ / τ_σ) Σ_i f_i^σ e_i ] / [ Σ_σ ρ_σ / τ_σ ]
//! ```
//!
//! and each component's equilibrium velocity for the *next* collision,
//!
//! ```text
//! u_σ^eq(x) = ū(x) + τ_σ F_σ(x) / ρ_σ(x)
//! ```
//!
//! where `F_σ` is the total force density (interaction + wall + body),
//! which [`crate::force::ForcePlanes`] computes one plane at a time. The
//! force shift is how forcing enters the Shan–Chen LBGK scheme.
//!
//! `Σ_i f_i^σ e_i` is not gathered here: the streaming sweep (or, when
//! priming, [`crate::macroscopic::compute_psi`]) left it in the three `ueq`
//! slots of each cell; this update reads it there and writes `u_σ^eq` back.
//!
//! Production runs both as one step, [`forces_and_velocities`]: each
//! plane's forces go into a plane-sized scratch that stays in cache and
//! are consumed by that plane's update, so the force field is never
//! stored. [`crate::force::compute_forces`] + [`update_equilibrium_velocities`]
//! are the same arithmetic as two whole-slab passes, kept as the reference.

use std::ops::Range;

use crate::component::{ComponentState, CouplingMatrix};
use crate::field::{LocalGrid, SlabArray};
use crate::force::{ForcePlanes, WallForce};

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
    /// The view of `c` at its window base, reading the force from `force`.
    fn new(c: &mut ComponentState, force: *const f64, force_stride: usize) -> CompView {
        CompView {
            psi: c.psi.base_ptr(),
            force,
            force_stride,
            ueq: c.ueq.base_mut_ptr(),
            mass: c.spec.mass,
            momentum_tau: c.spec.momentum_tau(),
        }
    }
}

/// The update of the cells `range` of every view. The update is
/// cell-local: it couples components, not cells.
///
/// # Safety
///
/// As [`crate::simd::update_ueq_avx2`]: `psi`/`ueq` of stride `cells` and
/// each view's force cover `range`, and no one else accesses them.
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

/// The production step after the ψ exchange: for each interior plane, every
/// component's force density into a plane scratch (3 × plane cells per
/// component), then `u_σ^eq` of that plane's cells from it. Bit for bit
/// [`crate::force::compute_forces`] followed by
/// [`update_equilibrium_velocities`], without the whole-slab force array.
pub fn forces_and_velocities(
    comps: &mut [ComponentState],
    coupling: &CouplingMatrix,
    wall: &WallForce,
    body: [f64; 3],
    solid: &[bool],
) {
    let grid = comps[0].grid();
    let (p, s) = (grid.plane_cells(), comps.len());
    // One channel stride for every array of every component: they share a
    // storage capacity and a window.
    let cells = comps[0].ueq.stride();
    let mut scratch = vec![0.0; 3 * p * s];
    let base = scratch.as_mut_ptr();
    // Safety: component `a`'s scratch starts inside `scratch`.
    let out: Vec<*mut f64> = (0..s).map(|a| unsafe { base.add(3 * p * a) }).collect();
    let mut views: Vec<CompView> =
        comps.iter_mut().zip(&out).map(|(c, &force)| CompView::new(c, force, p)).collect();
    let bases: Vec<(*const f64, *mut f64)> = views.iter().map(|v| (v.psi, v.ueq)).collect();
    let mut kernel = ForcePlanes::new(comps, coupling, wall, body, solid);
    for xl in LocalGrid::FIRST..=grid.last() {
        // Safety: the scratch planes are written by the kernel and then only
        // read; plane `xl` lies inside the window the views' arrays share,
        // and the kernel reads ψ, never `ueq`.
        unsafe {
            kernel.plane(xl, &out, p);
            for (v, &(psi, ueq)) in views.iter_mut().zip(&bases) {
                v.psi = psi.add(xl * p);
                v.ueq = ueq.add(xl * p);
            }
            update_cells(&views, cells, 0..p);
        }
    }
}

/// The two-pass reference's second pass: `u_σ^eq` at every interior cell
/// from the whole-slab forces [`crate::force::compute_forces`] left in
/// `forces`, with `psi` and the j held in `ueq` current (see the module
/// docs).
pub fn update_equilibrium_velocities(comps: &mut [ComponentState], forces: &[SlabArray]) {
    let grid = comps[0].grid();
    assert!(forces.len() == comps.len() && forces.iter().all(|f| f.grid() == grid && f.channels() == 3));
    let cells = comps[0].ueq.stride();
    let p = grid.plane_cells();
    let views: Vec<CompView> =
        comps.iter_mut().zip(forces).map(|(c, f)| CompView::new(c, f.base_ptr(), f.stride())).collect();
    // Safety: the views hold live window bases covering the interior, and
    // `forces` is only read.
    unsafe { update_cells(&views, cells, LocalGrid::FIRST * p..(grid.last() + 1) * p) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;
    use crate::macroscopic::compute_psi;

    /// Zero forces for `comps`, for the reference pass.
    fn no_force(comps: &[ComponentState]) -> Vec<SlabArray> {
        comps.iter().map(|c| SlabArray::new(c.grid(), 3)).collect()
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
        let mut comps = setup(
            [1.0, 0.6],
            [1.0, 0.5],
            [1.0, 0.8],
            [[0.02, 0.0, 0.0], [-0.01, 0.01, 0.0]],
        );
        let force = no_force(&comps);
        update_equilibrium_velocities(&mut comps, &force);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 0, 0);
        // Hand-computed ū.
        let num_x = 1.0 * (1.0 * 0.02) / 1.0 + 0.5 * (0.8 * -0.01) / 0.6;
        let den = 1.0 * 1.0 / 1.0 + 0.5 * 0.8 / 0.6;
        let want = num_x / den;
        // No forces set → ueq = ū for both components.
        assert!((comps[0].ueq.at(0, cell) - want).abs() < 1e-12);
        assert!((comps[1].ueq.at(0, cell) - want).abs() < 1e-12);
    }

    #[test]
    fn equal_components_at_rest_stay_at_rest() {
        let mut comps = setup([1.0, 1.0], [1.0, 1.0], [0.5, 0.5], [[0.0; 3]; 2]);
        let force = no_force(&comps);
        update_equilibrium_velocities(&mut comps, &force);
        let grid = comps[0].grid();
        for cell in [grid.idx(1, 0, 0), grid.idx(2, 1, 1)] {
            for c in &comps {
                for a in 0..3 {
                    assert_eq!(c.ueq.at(a, cell), 0.0);
                }
            }
        }
    }

    #[test]
    fn force_shift_is_tau_f_over_rho() {
        let mut comps = setup([0.8, 1.2], [1.0, 2.0], [1.0, 0.5], [[0.0; 3]; 2]);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 1, 1);
        let mut force = no_force(&comps);
        force[0].set(0, cell, 0.01);
        force[1].set(1, cell, -0.02);
        update_equilibrium_velocities(&mut comps, &force);
        // ū = 0 (both at rest), so ueq is purely the force shift.
        let rho0 = 1.0 * 1.0;
        let rho1 = 2.0 * 0.5;
        assert!((comps[0].ueq.at(0, cell) - 0.8 * 0.01 / rho0).abs() < 1e-14);
        assert!((comps[1].ueq.at(1, cell) - 1.2 * -0.02 / rho1).abs() < 1e-14);
        // Unforced axes remain zero.
        assert_eq!(comps[0].ueq.at(2, cell), 0.0);
    }

    #[test]
    fn vanishing_density_does_not_blow_up() {
        let mut comps = setup([1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [[0.0; 3]; 2]);
        let grid = comps[0].grid();
        let cell = grid.idx(1, 0, 0);
        let mut force = no_force(&comps);
        force[1].set(0, cell, 1.0); // force on an empty component
        update_equilibrium_velocities(&mut comps, &force);
        assert!(comps[1].ueq.at(0, cell).is_finite());
        assert_eq!(comps[1].ueq.at(0, cell), 0.0);
    }
}
