#![expect(
    unsafe_code,
    reason = "BGK/TRT collision kernels via raw pointers, one src/dst body each: in \
              place over disjoint cell ranges of the window (window base + storage \
              channel stride), or from the window into a ring slot that aliases \
              nothing; the equilibrium velocity read from an array of its own stride"
)]
//! LBGK collision operator.
//!
//! Relaxes each component's populations toward equilibrium at that
//! component's equilibrium velocity `u_σ^eq` (the paper's pseudo-code line
//! 17, formed here from the previous phase's ψ just before line 4 — see
//! [`crate::multicomponent::PlaneCollision`]):
//!
//! ```text
//! f_i ← f_i − (1/τ_σ) (f_i − f_i^eq(n_σ, u_σ^eq))
//! ```
//!
//! The number density `n_σ` entering the equilibrium is recomputed from the
//! incoming populations, so collision is purely cell-local — the property
//! that makes the LBM "very natural for parallelization" (paper §2.1).
//!
//! Each operator (BGK, TRT, [`crate::mrt`]) has one body, from `src` into
//! `dst` ([`collide_cells_raw`]): the sweep collides out of place into its
//! ring ([`crate::streaming`]), everything else in place — safe, as every
//! body reads all of a cell's populations before it writes any.

use crate::component::{CollisionOperator, ComponentState};
use crate::field::{LocalGrid, SlabArray};
use crate::lattice::{Lattice, D3Q19};

const Q: usize = D3Q19::Q;

/// Applies one collision (BGK, TRT or MRT per the component's spec) to
/// every interior cell of `comp`, in place, at the equilibrium velocities
/// `ueq` (3 channels on the component's grid): the whole-slab collision of
/// the test-only reference schedule.
pub fn collide(comp: &mut ComponentState, ueq: &SlabArray) {
    let grid = comp.grid();
    assert!(ueq.grid() == grid && ueq.channels() == 3, "ueq must be 3 channels on the component's grid");
    let (cells, p) = (comp.f.stride(), grid.plane_cells());
    let at = LocalGrid::FIRST * p;
    let f = comp.f.base_mut_ptr();
    // Safety: `f`/`ueq` are window bases of channel-major arrays of their
    // own strides over the same grid, the interior lies within the window,
    // and we hold exclusive access to `comp`.
    unsafe {
        let (f, u) = (f.add(at), ueq.base_ptr().add(at));
        collide_cells_raw(comp.spec.collision, comp.spec.tau, f, cells, f, cells, u, ueq.stride(), grid.nx_local() * p)
    }
}

/// Collides `n` consecutive cells from `src` into `dst`, dispatching on the
/// operator; in place when `dst == src`.
///
/// # Safety
///
/// `src` must point at channel 0 of the first cell of a Q-channel
/// channel-major array of channel stride `src_stride`, `ueq` at axis 0 of
/// the same cell of a 3-channel array of channel stride `ueq_stride`, and `dst` at
/// channel 0 of the first cell of a Q-channel array of stride
/// `dst_stride`, all valid for `n` cells per channel. `dst` is either
/// `src` itself (with `dst_stride == src_stride`) or overlaps neither
/// `src` nor `ueq`; no other thread may write those cells, or access the
/// `dst` cells, during the call (distinct cells may be collided
/// concurrently — collision is purely cell-local).
#[expect(
    clippy::too_many_arguments,
    reason = "a raw kernel takes its pointers, strides and relaxation rates as scalars"
)]
pub(crate) unsafe fn collide_cells_raw(
    op: CollisionOperator,
    tau: f64,
    src: *const f64,
    src_stride: usize,
    dst: *mut f64,
    dst_stride: usize,
    ueq: *const f64,
    ueq_stride: usize,
    n: usize,
) {
    let (ss, ds, us) = (src_stride, dst_stride, ueq_stride);
    match op {
        CollisionOperator::Bgk => collide_bgk(1.0 / tau, src, ss, dst, ds, ueq, us, n),
        CollisionOperator::Trt { magic } => collide_trt(tau, magic, src, ss, dst, ds, ueq, us, n),
        CollisionOperator::Mrt(rates) => crate::mrt::collide_mrt_raw(tau, rates, src, ss, dst, ds, ueq, us, n),
    }
}

/// One opposite pair `(i, o = opp(i))`, `i` the member whose first nonzero
/// velocity component is +1: e_i·u folds to `u[a] + s·u[b]` (`s = 0` for
/// an axis pair, weight 1/18, where e_i·u = u[a]; ±1 for a diagonal pair,
/// weight 1/36), and e_o·u is its negation.
#[derive(Clone, Copy)]
pub(crate) struct OppositePair {
    pub(crate) i: usize,
    pub(crate) o: usize,
    pub(crate) a: usize,
    pub(crate) b: usize,
    pub(crate) s: i32,
}

/// The nine opposite pairs of D3Q19 in ascending `i` (held to the lattice
/// tables by a unit test).
pub(crate) const OPPOSITE_PAIRS: [OppositePair; 9] = [
    OppositePair { i: 1, o: 2, a: 0, b: 0, s: 0 },
    OppositePair { i: 3, o: 4, a: 1, b: 1, s: 0 },
    OppositePair { i: 5, o: 6, a: 2, b: 2, s: 0 },
    OppositePair { i: 7, o: 8, a: 0, b: 1, s: 1 },
    OppositePair { i: 9, o: 10, a: 0, b: 1, s: -1 },
    OppositePair { i: 11, o: 12, a: 0, b: 2, s: 1 },
    OppositePair { i: 13, o: 14, a: 0, b: 2, s: -1 },
    OppositePair { i: 15, o: 16, a: 1, b: 2, s: 1 },
    OppositePair { i: 17, o: 18, a: 1, b: 2, s: -1 },
];

/// Single-relaxation-time LBGK: AVX2 4 cells at a time where the host has
/// it, this scalar loop for the rest — the same pair-folded arithmetic
/// ([`crate::simd`] docs). Safety: see [`collide_cells_raw`].
#[expect(
    clippy::too_many_arguments,
    reason = "a raw kernel takes its pointers, strides and relaxation rate as scalars"
)]
unsafe fn collide_bgk(
    omega: f64,
    src: *const f64,
    ss: usize,
    dst: *mut f64,
    ds: usize,
    ueq: *const f64,
    us: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    let done = if crate::simd::avx2_available() {
        crate::simd::collide_bgk_into_avx2(omega, src, ss, dst, ds, ueq, us, n)
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for cell in done..n {
        let mut fi = [0.0f64; Q];
        let mut rho = 0.0;
        for i in 0..Q {
            let v = *src.add(i * ss + cell);
            fi[i] = v;
            rho += v;
        }
        let u = [*ueq.add(cell), *ueq.add(us + cell), *ueq.add(2 * us + cell)];
        let uu15 = 1.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
        let (wn_axis, wn_diag) = (D3Q19::W[1] * rho, D3Q19::W[7] * rho);
        let relax = |i: usize, feq: f64| *dst.add(i * ds + cell) = fi[i] - omega * (fi[i] - feq);
        relax(0, D3Q19::W[0] * rho * (1.0 - uu15));
        for p in OPPOSITE_PAIRS {
            let eu = match p.s {
                0 => u[p.a],
                1 => u[p.a] + u[p.b],
                _ => u[p.a] - u[p.b],
            };
            let (t, sq) = (3.0 * eu, 4.5 * eu * eu);
            let wn = if p.s == 0 { wn_axis } else { wn_diag };
            relax(p.i, wn * (((1.0 + t) + sq) - uu15));
            relax(p.o, wn * (((1.0 - t) + sq) - uu15));
        }
    }
}

/// Two-relaxation-time collision. The symmetric (even) part of each
/// population pair relaxes with ω⁺ = 1/τ; the antisymmetric (odd) part
/// with ω⁻ from the magic parameter: τ⁻ = ½ + Λ/(τ⁺ − ½).
/// Safety: see [`collide_cells_raw`].
#[expect(
    clippy::too_many_arguments,
    reason = "a raw kernel takes its pointers, strides and relaxation rates as scalars"
)]
unsafe fn collide_trt(
    tau_plus: f64,
    magic: f64,
    src: *const f64,
    ss: usize,
    dst: *mut f64,
    ds: usize,
    ueq: *const f64,
    us: usize,
    n: usize,
) {
    assert!(magic > 0.0, "TRT magic parameter must be positive");
    let tau_minus = 0.5 + magic / (tau_plus - 0.5);
    let omega_plus = 1.0 / tau_plus;
    let omega_minus = 1.0 / tau_minus;

    for cell in 0..n {
        let mut fi = [0.0f64; Q];
        let mut rho = 0.0;
        for i in 0..Q {
            let v = *src.add(i * ss + cell);
            fi[i] = v;
            rho += v;
        }
        let u = [*ueq.add(cell), *ueq.add(us + cell), *ueq.add(2 * us + cell)];
        let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        let mut feq = [0.0f64; Q];
        for i in 0..Q {
            let e = D3Q19::E[i];
            let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
            feq[i] = D3Q19::W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu);
        }
        // Rest population is purely symmetric.
        *dst.add(cell) = fi[0] - omega_plus * (fi[0] - feq[0]);
        for p in OPPOSITE_PAIRS {
            let (i, o) = (p.i, p.o);
            let f_plus = 0.5 * (fi[i] + fi[o]);
            let f_minus = 0.5 * (fi[i] - fi[o]);
            let feq_plus = 0.5 * (feq[i] + feq[o]);
            let feq_minus = 0.5 * (feq[i] - feq[o]);
            let d_plus = omega_plus * (f_plus - feq_plus);
            let d_minus = omega_minus * (f_minus - feq_minus);
            *dst.add(i * ds + cell) = fi[i] - d_plus - d_minus;
            *dst.add(o * ds + cell) = fi[o] - d_plus + d_minus;
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

    /// Equilibrium velocities on `c`'s grid, all zero.
    fn rest(c: &ComponentState) -> SlabArray {
        SlabArray::new(c.grid(), 3)
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
        let mut ueq = rest(&c);
        // Set ueq to the actual velocity of each cell.
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    let (n, mom) = cell_moments(&c, cell);
                    for a in 0..3 {
                        ueq.set(a, cell, mom[a] / n);
                    }
                }
            }
        }
        let before: Vec<(f64, [f64; 3])> =
            (0..grid.cells()).map(|cell| cell_moments(&c, cell)).collect();
        collide(&mut c, &ueq);
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
        let ueq = rest(&c);
        collide(&mut c, &ueq);
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
        let ueq = rest(&c);
        collide(&mut c, &ueq);
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
        let mut u = rest(&c);
        let mut expect = Vec::new();
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    let (n, mom) = cell_moments(&c, cell);
                    let mut ueq = [0.0; 3];
                    for a in 0..3 {
                        ueq[a] = mom[a] / n + du[a];
                        u.set(a, cell, ueq[a]);
                    }
                    let want: Vec<f64> =
                        (0..3).map(|a| mom[a] + (n * ueq[a] - mom[a]) / tau).collect();
                    expect.push((cell, want));
                }
            }
        }
        collide(&mut c, &u);
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
        let mut ueq = rest(&c);
        for xl in 1..=grid.last() {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let cell = grid.idx(xl, y, z);
                    let (n, mom) = cell_moments(&c, cell);
                    for a in 0..3 {
                        ueq.set(a, cell, mom[a] / n);
                    }
                }
            }
        }
        let before: Vec<(f64, [f64; 3])> =
            (0..grid.cells()).map(|cell| cell_moments(&c, cell)).collect();
        collide(&mut c, &ueq);
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
        let ueq = rest(&bgk);
        collide(&mut bgk, &ueq);
        collide(&mut trt, &ueq);
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
        let ueq = rest(&c);
        collide(&mut c, &ueq);
        let cells = c.grid().cells();
        for i in 0..D3Q19::Q {
            for cell in 0..cells {
                assert!((c.f.at(i, cell) - snapshot.at(i, cell)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn opposite_pairs_match_the_lattice() {
        let mut seen = [false; Q];
        seen[0] = true;
        for p in OPPOSITE_PAIRS {
            let (e, eo) = (D3Q19::E[p.i], D3Q19::E[p.o]);
            assert_eq!(D3Q19::OPP[p.i], p.o);
            let mut folded = [0; 3];
            folded[p.a] += 1;
            folded[p.b] += p.s;
            assert_eq!(e, folded, "pair ({}, {})", p.i, p.o);
            assert_eq!(eo, folded.map(|c| -c));
            let w = if p.s == 0 { D3Q19::W[1] } else { D3Q19::W[7] };
            assert!(D3Q19::W[p.i] == w && D3Q19::W[p.o] == w);
            seen[p.i] = true;
            seen[p.o] = true;
        }
        assert!(seen.iter().all(|&s| s), "every direction belongs to one pair");
    }

    #[test]
    fn out_of_place_collision_matches_in_place_bitwise() {
        // A windowed component, so the source stride (the channel's whole
        // capacity) differs from the window; the destination has stride
        // `plane_cells`, as a ring slot does, and the equilibrium velocities
        // a third stride of their own.
        let grid = LocalGrid::new(3, 3, 17);
        let p = grid.plane_cells();
        let ops = [CollisionOperator::Bgk, CollisionOperator::trt_magic(), CollisionOperator::mrt_standard()];
        for op in ops {
            let spec = ComponentSpec { tau: 0.83, collision: op, ..ComponentSpec::water() };
            let mut c = ComponentState::windowed(spec, grid, 11, 4);
            let mut u = SlabArray::new(LocalGrid::new(3, 3, 18), 3);
            assert!(c.f.stride() != grid.cells() && u.stride() != grid.cells());
            let mut seed = 0x5EEDu64;
            let mut next = || {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            for cell in 0..grid.cells() {
                for i in 0..Q {
                    c.f.set(i, cell, 0.05 + 0.02 * next());
                }
                for a in 0..3 {
                    u.set(a, cell, 0.04 * next());
                }
            }
            let before = c.f.to_vec();
            // Unaligned starts; lengths around and across the 4-cell body.
            for (start, n) in [(p + 1, 0), (p + 2, 1), (p + 3, 3), (p, 4), (2 * p + 5, 7), (p + 1, 45)] {
                let mut slot = vec![f64::NAN; Q * p];
                let (us, tau) = (u.stride(), c.spec.tau);
                // Safety: `start + n` lies inside the window, `slot` holds
                // Q channels of stride `p ≥ n`, and nothing else runs.
                unsafe {
                    let (f, ueq) = (c.f.base_ptr().add(start), u.base_ptr().add(start));
                    collide_cells_raw(op, tau, f, c.f.stride(), slot.as_mut_ptr(), p, ueq, us, n);
                }
                assert_eq!(c.f.to_vec(), before, "{op:?}: the source was written");
                let mut in_place = c.clone();
                // Safety: as above, in place over the same cells.
                unsafe {
                    let (f, ueq) = (in_place.f.base_mut_ptr().add(start), u.base_ptr().add(start));
                    collide_cells_raw(op, tau, f, c.f.stride(), f, c.f.stride(), ueq, us, n);
                }
                for i in 0..Q {
                    for q in 0..p {
                        let got = slot[i * p + q];
                        if q < n {
                            let want = in_place.f.at(i, start + q);
                            assert_eq!(got.to_bits(), want.to_bits(), "{op:?} {start}+{n}: dir {i} cell {q}");
                        } else {
                            assert!(got.is_nan(), "{op:?} {start}+{n}: wrote past the range");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_planes_untouched() {
        let mut c = make(0.9);
        perturb(&mut c);
        let grid = c.grid();
        let p = grid.plane_cells();
        let ueq = rest(&c);
        collide(&mut c, &ueq);
        for i in 0..D3Q19::Q {
            let ch = c.f.channel(i);
            assert!(ch[..p].iter().all(|&v| v == 0.0));
            assert!(ch[ch.len() - p..].iter().all(|&v| v == 0.0));
        }
    }
}
