//! LBGK collision operator.
//!
//! Relaxes each component's populations toward equilibrium at that
//! component's equilibrium velocity `u_σ^eq` (computed at the end of the
//! previous phase, pseudo-code line 17 → line 4 of the paper):
//!
//! ```text
//! f_i ← f_i − (1/τ_σ) (f_i − f_i^eq(n_σ, u_σ^eq))
//! ```
//!
//! The number density `n_σ` entering the equilibrium is recomputed from the
//! incoming populations, so collision is purely cell-local — the property
//! that makes the LBM "very natural for parallelization" (paper §2.1).

use crate::component::{CollisionOperator, ComponentState};
use crate::field::LocalGrid;
use crate::lattice::{Lattice, D3Q19};
use std::ops::Range;

/// Applies one collision (BGK or TRT per the component's spec) to every
/// interior cell of `comp`.
pub fn collide(comp: &mut ComponentState) {
    let grid = comp.grid();
    let p = grid.plane_cells();
    collide_cells(comp, LocalGrid::FIRST * p..(grid.last() + 1) * p);
}

/// Applies one collision to the contiguous cell range `range` of `comp`
/// (a sub-range of the interior). This is the unit of work of the
/// plane-parallel and fused drivers; [`collide`] is the full-interior case.
pub(crate) fn collide_cells(comp: &mut ComponentState, range: Range<usize>) {
    let cells = comp.f.stride();
    debug_assert!(range.end <= comp.grid().cells() && comp.ueq.stride() == cells);
    let op = comp.spec.collision;
    let tau = comp.spec.tau;
    let ueq = comp.ueq.base_ptr();
    let f = comp.f.base_mut_ptr();
    // Safety: `f`/`ueq` are the window bases of the component's
    // channel-major arrays (channel stride `cells`, the window inside the
    // storage capacity), `range` lies within the window, and we hold
    // exclusive access to `comp`.
    unsafe { collide_cells_raw(op, tau, f, ueq, cells, range) }
}

/// Collides the cells of `range`, dispatching on the operator.
///
/// # Safety
///
/// `f` must point to the window base of a Q-channel and `ueq` of a
/// 3-channel channel-major array, both of channel stride `cells`; every
/// cell index in `range` must lie in the window (so below `cells`), and no
/// other thread may concurrently read or write any cell of
/// `range` through `f` (distinct ranges may be collided concurrently —
/// collision is purely cell-local).
pub(crate) unsafe fn collide_cells_raw(
    op: CollisionOperator,
    tau: f64,
    f: *mut f64,
    ueq: *const f64,
    cells: usize,
    range: Range<usize>,
) {
    match op {
        CollisionOperator::Bgk => collide_bgk_raw(tau, f, ueq, cells, range),
        CollisionOperator::Trt { magic } => collide_trt_raw(tau, magic, f, ueq, cells, range),
        CollisionOperator::Mrt(rates) => {
            crate::mrt::collide_mrt_cells_raw(tau, rates, f, ueq, cells, range)
        }
    }
}

/// Single-relaxation-time LBGK: AVX2 4-cells-at-a-time when the host
/// supports it (bitwise identical — see [`crate::simd`]), scalar
/// otherwise and for the remainder cells. Safety: see
/// [`collide_cells_raw`].
unsafe fn collide_bgk_raw(tau: f64, f: *mut f64, ueq: *const f64, cells: usize, range: Range<usize>) {
    let omega = 1.0 / tau;
    #[cfg(target_arch = "x86_64")]
    let range = if crate::simd::avx2_available() {
        crate::simd::collide_bgk_avx2(omega, f, ueq, cells, range)
    } else {
        range
    };
    collide_bgk_scalar(omega, f, ueq, cells, range);
}

/// Scalar LBGK over `range`. Safety: see [`collide_cells_raw`].
unsafe fn collide_bgk_scalar(
    omega: f64,
    f: *mut f64,
    ueq: *const f64,
    cells: usize,
    range: Range<usize>,
) {
    for cell in range {
        // Gather populations (strided by `cells` across channels).
        let mut fi = [0.0f64; 19];
        let mut n = 0.0;
        for i in 0..D3Q19::Q {
            let v = *f.add(i * cells + cell);
            fi[i] = v;
            n += v;
        }
        let u = [*ueq.add(cell), *ueq.add(cells + cell), *ueq.add(2 * cells + cell)];
        let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        for i in 0..D3Q19::Q {
            let e = D3Q19::E[i];
            let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
            let feq = D3Q19::W[i] * n * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu);
            *f.add(i * cells + cell) = fi[i] - omega * (fi[i] - feq);
        }
    }
}

/// Two-relaxation-time collision. The symmetric (even) part of each
/// population pair relaxes with ω⁺ = 1/τ; the antisymmetric (odd) part
/// with ω⁻ from the magic parameter: τ⁻ = ½ + Λ/(τ⁺ − ½).
/// Safety: see [`collide_cells_raw`].
unsafe fn collide_trt_raw(
    tau_plus: f64,
    magic: f64,
    f: *mut f64,
    ueq: *const f64,
    cells: usize,
    range: Range<usize>,
) {
    assert!(magic > 0.0, "TRT magic parameter must be positive");
    let tau_minus = 0.5 + magic / (tau_plus - 0.5);
    let omega_plus = 1.0 / tau_plus;
    let omega_minus = 1.0 / tau_minus;

    for cell in range {
        let mut fi = [0.0f64; 19];
        let mut n = 0.0;
        for i in 0..D3Q19::Q {
            let v = *f.add(i * cells + cell);
            fi[i] = v;
            n += v;
        }
        let u = [*ueq.add(cell), *ueq.add(cells + cell), *ueq.add(2 * cells + cell)];
        let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        let mut feq = [0.0f64; 19];
        for i in 0..D3Q19::Q {
            let e = D3Q19::E[i];
            let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
            feq[i] = D3Q19::W[i] * n * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu);
        }
        // Rest population is purely symmetric.
        *f.add(cell) = fi[0] - omega_plus * (fi[0] - feq[0]);
        for i in 1..D3Q19::Q {
            let o = D3Q19::OPP[i];
            if o < i {
                continue; // each pair handled once
            }
            let f_plus = 0.5 * (fi[i] + fi[o]);
            let f_minus = 0.5 * (fi[i] - fi[o]);
            let feq_plus = 0.5 * (feq[i] + feq[o]);
            let feq_minus = 0.5 * (feq[i] - feq[o]);
            let d_plus = omega_plus * (f_plus - feq_plus);
            let d_minus = omega_minus * (f_minus - feq_minus);
            *f.add(i * cells + cell) = fi[i] - d_plus - d_minus;
            *f.add(o * cells + cell) = fi[o] - d_plus + d_minus;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;

    fn make(tau: f64) -> ComponentState {
        let grid = LocalGrid::new(3, 4, 2);
        let spec = ComponentSpec { tau, ..ComponentSpec::water() };
        let mut c = ComponentState::new(spec, grid);
        c.init_uniform(1.0, [0.0; 3]);
        c
    }

    fn perturb(c: &mut ComponentState) {
        let grid = c.grid();
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    for i in 0..D3Q19::Q {
                        let v = c.f.at(i, cell);
                        let bump = 0.01 * ((cell * 7 + i * 13) % 11) as f64 / 11.0;
                        c.f.set(i, cell, v + bump);
                    }
                }
            }
        }
    }

    fn cell_moments(c: &ComponentState, cell: usize) -> (f64, [f64; 3]) {
        let mut n = 0.0;
        let mut mom = [0.0; 3];
        for i in 0..D3Q19::Q {
            let v = c.f.at(i, cell);
            n += v;
            for a in 0..3 {
                mom[a] += v * D3Q19::E[i][a] as f64;
            }
        }
        (n, mom)
    }

    #[test]
    fn conserves_mass_and_momentum_when_ueq_is_cell_velocity() {
        // With u_eq set to the true cell velocity (no forcing), BGK
        // conserves both moments exactly per cell.
        let mut c = make(0.8);
        perturb(&mut c);
        let grid = c.grid();
        // Set ueq to the actual velocity of each cell.
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    let (n, mom) = cell_moments(&c, cell);
                    for a in 0..3 {
                        c.ueq.set(a, cell, mom[a] / n);
                    }
                }
            }
        }
        let before: Vec<(f64, [f64; 3])> =
            (0..grid.cells()).map(|cell| cell_moments(&c, cell)).collect();
        collide(&mut c);
        for cell in 0..grid.cells() {
            let (n0, m0) = before[cell];
            let (n1, m1) = cell_moments(&c, cell);
            assert!((n0 - n1).abs() < 1e-12, "mass changed at cell {cell}");
            for a in 0..3 {
                assert!((m0[a] - m1[a]).abs() < 1e-12, "momentum changed at {cell}");
            }
        }
    }

    #[test]
    fn equilibrium_is_fixed_point() {
        let mut c = make(1.0);
        let snapshot = c.f.clone();
        collide(&mut c);
        let cells = c.grid().cells();
        for i in 0..D3Q19::Q {
            for cell in 0..cells {
                assert!(
                    (c.f.at(i, cell) - snapshot.at(i, cell)).abs() < 1e-14,
                    "equilibrium not fixed at dir {i} cell {cell}"
                );
            }
        }
    }

    #[test]
    fn tau_one_jumps_to_equilibrium() {
        let mut c = make(1.0);
        perturb(&mut c);
        let grid = c.grid();
        collide(&mut c);
        // With τ = 1 the outcome is exactly f_eq(n, ueq=0).
        for xl in 1..=grid.last() {
            let cell = grid.idx(xl, 0, 0);
            let (n, _) = cell_moments(&c, cell);
            for i in 0..D3Q19::Q {
                let feq = crate::equilibrium::feq_i::<D3Q19>(i, n, [0.0; 3]);
                assert!((c.f.at(i, cell) - feq).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn forcing_shift_injects_momentum() {
        // With ueq = true velocity + Δu, collision adds exactly n·Δu·(1/τ)·τ
        // ... i.e. momentum after = momentum before + n·Δu/τ·τ? The BGK
        // update moves the first moment toward n·ueq by factor 1/τ:
        // m1' = m1 + (n·ueq − m1)/τ. Verify that identity.
        let tau = 0.7;
        let mut c = make(tau);
        perturb(&mut c);
        let grid = c.grid();
        let du = [0.01, -0.005, 0.002];
        let mut expect = Vec::new();
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    let (n, mom) = cell_moments(&c, cell);
                    let mut ueq = [0.0; 3];
                    for a in 0..3 {
                        ueq[a] = mom[a] / n + du[a];
                        c.ueq.set(a, cell, ueq[a]);
                    }
                    let want: Vec<f64> =
                        (0..3).map(|a| mom[a] + (n * ueq[a] - mom[a]) / tau).collect();
                    expect.push((cell, want));
                }
            }
        }
        collide(&mut c);
        for (cell, want) in expect {
            let (_, m1) = cell_moments(&c, cell);
            for a in 0..3 {
                assert!((m1[a] - want[a]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trt_conserves_mass_and_momentum() {
        let mut c = make(0.9);
        c.spec.collision = crate::component::CollisionOperator::trt_magic();
        perturb(&mut c);
        let grid = c.grid();
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    let (n, mom) = cell_moments(&c, cell);
                    for a in 0..3 {
                        c.ueq.set(a, cell, mom[a] / n);
                    }
                }
            }
        }
        let before: Vec<(f64, [f64; 3])> =
            (0..grid.cells()).map(|cell| cell_moments(&c, cell)).collect();
        collide(&mut c);
        for cell in 0..grid.cells() {
            let (n0, m0) = before[cell];
            let (n1, m1) = cell_moments(&c, cell);
            assert!((n0 - n1).abs() < 1e-12, "TRT mass changed at {cell}");
            for a in 0..3 {
                assert!((m0[a] - m1[a]).abs() < 1e-12, "TRT momentum changed at {cell}");
            }
        }
    }

    #[test]
    fn trt_with_equal_taus_matches_bgk() {
        // Λ = (τ−½)² makes τ⁻ = τ⁺, and the pairwise update recombines to
        // plain BGK.
        let tau = 0.8;
        let magic = (tau - 0.5) * (tau - 0.5);
        let mut bgk = make(tau);
        perturb(&mut bgk);
        let mut trt = bgk.clone();
        trt.spec.collision = crate::component::CollisionOperator::Trt { magic };
        collide(&mut bgk);
        collide(&mut trt);
        let cells = bgk.grid().cells();
        for i in 0..D3Q19::Q {
            for cell in 0..cells {
                let a = bgk.f.at(i, cell);
                let b = trt.f.at(i, cell);
                assert!(
                    (a - b).abs() < 1e-14,
                    "TRT(Λ=(τ−½)²) diverged from BGK at dir {i} cell {cell}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn trt_equilibrium_is_fixed_point() {
        let mut c = make(1.3);
        c.spec.collision = crate::component::CollisionOperator::trt_magic();
        let snapshot = c.f.clone();
        collide(&mut c);
        let cells = c.grid().cells();
        for i in 0..D3Q19::Q {
            for cell in 0..cells {
                assert!((c.f.at(i, cell) - snapshot.at(i, cell)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn ghost_planes_untouched() {
        let mut c = make(0.9);
        perturb(&mut c);
        let grid = c.grid();
        let p = grid.plane_cells();
        collide(&mut c);
        for i in 0..D3Q19::Q {
            let ch = c.f.channel(i);
            assert!(ch[..p].iter().all(|&v| v == 0.0));
            assert!(ch[ch.len() - p..].iter().all(|&v| v == 0.0));
        }
    }
}
