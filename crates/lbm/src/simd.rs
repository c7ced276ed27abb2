#![expect(
    unsafe_code,
    reason = "runtime-dispatched core::arch AVX2 kernels (src/dst BGK collide, \
              psi/momentum moments, ueq update, interaction gradient, force \
              assembly) plus their raw-pointer scalar references, addressing window- \
              local cells from a window base with the storage channel stride; every \
              pair is held bitwise identical by the in-file proptests"
)]
//! Explicit-SIMD collision kernels (`core::arch`, runtime-dispatched).
//!
//! The workspace builds for baseline x86-64 (no `-C target-cpu`), so the
//! autovectorizer emits 2-wide SSE2 at best. The BGK collision — the hot
//! operator of every paper configuration — is worth hand-vectorizing:
//! 4 cells per iteration with 256-bit AVX2 lanes, dispatched at runtime
//! via `is_x86_feature_detected!` so the same binary stays correct on any
//! host.
//!
//! **Bitwise-identity contract** (the repo's flagship invariant): every
//! lane performs exactly the operations of the scalar kernel in
//! [`crate::collision`], in the same association order, using only
//! `mul`/`add`/`sub` — deliberately **no FMA**. A fused multiply-add
//! rounds once where `a*b + c` rounds twice, so FMA would produce
//! different bits than the scalar path and break serial/threaded/
//! decomposed equivalence. IEEE-754 arithmetic is lane-wise identical to
//! scalar arithmetic for mul/add/sub, so SIMD-vs-scalar is a pure
//! scheduling change, not a numerical one (covered by
//! `simd_matches_scalar_bitwise` below).
//!
//! The BGK kernels (this AVX2 body and its scalar tail) walk
//! [`crate::collision::OPPOSITE_PAIRS`] instead of the textbook
//! per-direction `(w_i·n)·(((1 + 3e·u) + (4.5e·u)·e·u) − 1.5u²)`: e·u folds
//! to ±u_a or u_a ± u_b, w·n is taken once per weight class, and the two
//! populations of a pair share 3e·u and (4.5e·u)·e·u. For finite inputs
//! that is the textbook arithmetic bit for bit: the fold drops `0·u_b`
//! terms, which can change only the sign of a zero e·u, and both `1 + 3e·u`
//! and `(4.5e·u)·e·u` erase that sign. A non-finite velocity (where the
//! dropped `0·∞` would have been NaN) exists only in a diverged state.

#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use std::ops::Range;

/// Whether the AVX2 BGK kernel may run on this host. The feature probe is
/// cached by the standard library, so calling this per kernel launch is a
/// couple of atomic loads.
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// AVX2 BGK collision of `n` cells from `src` into `dst`, 4 cells per
/// iteration, unrolled over [`crate::collision::OPPOSITE_PAIRS`] (module
/// docs). Returns how many cells it collided (a multiple of 4); the
/// caller's scalar loop — the same arithmetic — takes the rest.
///
/// # Safety
///
/// Same contract as [`crate::collision::collide_cells_raw`], plus the
/// caller must have checked [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[expect(
    clippy::too_many_arguments,
    reason = "a raw kernel takes its pointers, strides and relaxation rate as scalars"
)]
pub(crate) unsafe fn collide_bgk_into_avx2(
    omega: f64,
    src: *const f64,
    ss: usize,
    dst: *mut f64,
    ds: usize,
    ueq: *const f64,
    us: usize,
    n: usize,
) -> usize {
    use crate::collision::{OppositePair, OPPOSITE_PAIRS};
    use crate::lattice::{Lattice, D3Q19};
    use core::arch::x86_64::*;

    const L: usize = 4; // f64 lanes per 256-bit register
    let omega_v = _mm256_set1_pd(omega);
    let one = _mm256_set1_pd(1.0);
    let three = _mm256_set1_pd(3.0);
    let c45 = _mm256_set1_pd(4.5);
    let c15 = _mm256_set1_pd(1.5);
    let w_rest = _mm256_set1_pd(D3Q19::W[0]);
    let w_axis = _mm256_set1_pd(D3Q19::W[1]);
    let w_diag = _mm256_set1_pd(D3Q19::W[7]);
    let mut cell = 0;
    while cell + L <= n {
        // Gather populations (strided across channels, the 4 cells of each
        // channel contiguous) and accumulate n in ascending channel order.
        let mut fi = [_mm256_setzero_pd(); D3Q19::Q];
        let mut rho = _mm256_setzero_pd();
        for i in 0..D3Q19::Q {
            let v = _mm256_loadu_pd(src.add(i * ss + cell));
            fi[i] = v;
            rho = _mm256_add_pd(rho, v);
        }
        let u = [
            _mm256_loadu_pd(ueq.add(cell)),
            _mm256_loadu_pd(ueq.add(us + cell)),
            _mm256_loadu_pd(ueq.add(2 * us + cell)),
        ];
        // 1.5·((u0·u0 + u1·u1) + u2·u2), shared by every direction.
        let uu15 = _mm256_mul_pd(
            c15,
            _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(u[0], u[0]), _mm256_mul_pd(u[1], u[1])),
                _mm256_mul_pd(u[2], u[2]),
            ),
        );
        // f' = fi − ω·(fi − feq), stored straight to the destination.
        macro_rules! relax {
            ($i:expr, $feq:expr) => {{
                let out = _mm256_sub_pd(fi[$i], _mm256_mul_pd(omega_v, _mm256_sub_pd(fi[$i], $feq)));
                _mm256_storeu_pd(dst.add($i * ds + cell), out);
            }};
        }
        relax!(0, _mm256_mul_pd(_mm256_mul_pd(w_rest, rho), _mm256_sub_pd(one, uu15)));
        let wn_axis = _mm256_mul_pd(w_axis, rho);
        let wn_diag = _mm256_mul_pd(w_diag, rho);
        // One opposite pair per expansion, its table entry a constant:
        // e·u, the weight class and both stores fold at compile time.
        macro_rules! pairs {
            ($($k:literal)*) => {$({
                const P: OppositePair = OPPOSITE_PAIRS[$k];
                let eu = match P.s {
                    0 => u[P.a],
                    1 => _mm256_add_pd(u[P.a], u[P.b]),
                    _ => _mm256_sub_pd(u[P.a], u[P.b]),
                };
                let wn = if P.s == 0 { wn_axis } else { wn_diag };
                let t = _mm256_mul_pd(three, eu);
                let sq = _mm256_mul_pd(_mm256_mul_pd(c45, eu), eu);
                relax!(P.i, _mm256_mul_pd(wn, _mm256_sub_pd(_mm256_add_pd(_mm256_add_pd(one, t), sq), uu15)));
                relax!(P.o, _mm256_mul_pd(wn, _mm256_sub_pd(_mm256_add_pd(_mm256_sub_pd(one, t), sq), uu15)));
            })*};
        }
        pairs!(0 1 2 3 4 5 6 7 8);
        cell += L;
    }
    cell
}

/// AVX2 body of [`crate::macroscopic::moments_raw`], 4 cells per
/// iteration. Returns how many cells it covered (a multiple of 4); the
/// caller's scalar loop takes the rest.
///
/// Bitwise identity with that loop: per cell every accumulator starts at
/// +0.0 and receives the same terms in ascending channel order (`e_a = 0`
/// terms skipped); lanes are independent cells.
///
/// # Safety
///
/// As [`crate::macroscopic::moments_raw`], plus the caller must have
/// checked [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn moments_avx2(
    f: *const f64,
    f_stride: usize,
    psi: Option<*mut f64>,
    j: Option<(*mut f64, usize)>,
    n: usize,
) -> usize {
    use crate::lattice::{Lattice, D3Q19};
    use crate::macroscopic::MOMENTUM_TERMS;
    use core::arch::x86_64::*;

    const L: usize = 4;
    let mut cell = 0;
    while cell + L <= n {
        let at = f.add(cell);
        if let Some(psi) = psi {
            let mut acc = _mm256_setzero_pd();
            for i in 0..D3Q19::Q {
                acc = _mm256_add_pd(acc, _mm256_loadu_pd(at.add(i * f_stride)));
            }
            _mm256_storeu_pd(psi.add(cell), acc);
        }
        if let Some((j, j_stride)) = j {
            for a in 0..3 {
                let mut acc = _mm256_setzero_pd();
                for &(i, e) in &MOMENTUM_TERMS[a] {
                    let v = _mm256_loadu_pd(at.add(i * f_stride));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, _mm256_set1_pd(e)));
                }
                _mm256_storeu_pd(j.add(a * j_stride + cell), acc);
            }
        }
        cell += L;
    }
    cell
}

/// AVX2 equilibrium-velocity update over `range`, 4 cells per iteration.
/// Returns the remainder sub-range for the caller's scalar tail.
///
/// Bitwise identity with the scalar cell loop in
/// [`crate::multicomponent`]: per cell, every component's j is read from
/// its `ueq` slots before any is overwritten, the ū numerator/denominator
/// accumulate in ascending component order with unchanged products;
/// `_mm256_div_pd` is lane-wise IEEE-correct, so the divisions match the
/// scalar ones bit for bit; the density-floor guards become compare+blend
/// with the same `>` semantics (NaN compares false), and the suppressed
/// branches produce exactly the 0.0 the scalar path uses. No FMA anywhere.
///
/// # Safety
///
/// Every view's `psi` and `ueq` must point at cell 0 of channel-major
/// arrays of channel stride `cells` covering `range` (1 channel for `psi`,
/// 3 for `ueq`), and its `force` at cell 0 of 3 channels of stride
/// `force_stride` covering `range`; no other thread may access the `ueq`
/// cells of `range` during the call, and the caller must have checked
/// [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn update_ueq_avx2(
    views: &[crate::multicomponent::CompView],
    cells: usize,
    range: Range<usize>,
) -> Range<usize> {
    use crate::multicomponent::RHO_FLOOR;
    use core::arch::x86_64::*;

    const L: usize = 4;
    let zero = _mm256_setzero_pd();
    let floor = _mm256_set1_pd(RHO_FLOOR);
    let mut cell = range.start;
    while cell + L <= range.end {
        // Common velocity ū.
        let mut num = [zero; 3];
        let mut den = zero;
        for v in views {
            let m = _mm256_set1_pd(v.mass);
            let inv_tau = _mm256_set1_pd(1.0 / v.momentum_tau);
            for a in 0..3 {
                // num += (m * j) * inv_tau — scalar association.
                let j = _mm256_loadu_pd(v.ueq.add(a * cells + cell));
                num[a] = _mm256_add_pd(num[a], _mm256_mul_pd(_mm256_mul_pd(m, j), inv_tau));
            }
            let psi = _mm256_loadu_pd(v.psi.add(cell));
            den = _mm256_add_pd(den, _mm256_mul_pd(_mm256_mul_pd(m, psi), inv_tau));
        }
        // ū = num/den where den > floor, else 0. Lanes failing the guard
        // still compute the division; the blend discards the result.
        let den_ok = _mm256_cmp_pd::<_CMP_GT_OQ>(den, floor);
        let ubar = [
            _mm256_blendv_pd(zero, _mm256_div_pd(num[0], den), den_ok),
            _mm256_blendv_pd(zero, _mm256_div_pd(num[1], den), den_ok),
            _mm256_blendv_pd(zero, _mm256_div_pd(num[2], den), den_ok),
        ];
        for v in views {
            let m = _mm256_set1_pd(v.mass);
            let tau = _mm256_set1_pd(v.momentum_tau);
            let rho = _mm256_mul_pd(m, _mm256_loadu_pd(v.psi.add(cell)));
            let rho_ok = _mm256_cmp_pd::<_CMP_GT_OQ>(rho, floor);
            let shift = _mm256_blendv_pd(zero, _mm256_div_pd(tau, rho), rho_ok);
            for a in 0..3 {
                let fc = _mm256_loadu_pd(v.force.add(a * v.force_stride + cell));
                let out = _mm256_add_pd(ubar[a], _mm256_mul_pd(shift, fc));
                _mm256_storeu_pd(v.ueq.add(a * cells + cell), out);
            }
        }
        cell += L;
    }
    cell..range.end
}

/// One z-row of a 6-point aggregate: `out[z] = wa·c[z] + wd·((a[z] + b[z])
/// + (c[z−1] + c[z+1]))`, with the out-of-range z terms 0 (ψ = 0 behind
/// the walls). `SUB` subtracts the value from `out` instead of storing it.
///
/// # Safety
///
/// `c`, `a`, `b` must hold `nz` readable cells and `out` `nz` writable
/// cells.
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "the three stencil rows, the output and the cell's weights stay in registers"
)]
unsafe fn cross_cell<const SUB: bool>(
    c: *const f64,
    a: *const f64,
    b: *const f64,
    out: *mut f64,
    z: usize,
    zm: f64,
    zp: f64,
    wa: f64,
    wd: f64,
) {
    let v = wa * *c.add(z) + wd * ((*a.add(z) + *b.add(z)) + (zm + zp));
    if SUB {
        *out.add(z) -= v;
    } else {
        *out.add(z) = v;
    }
}

#[inline(always)]
unsafe fn cross_row<const SUB: bool>(
    c: *const f64,
    a: *const f64,
    b: *const f64,
    nz: usize,
    out: *mut f64,
    wa: f64,
    wd: f64,
) {
    if nz == 1 {
        cross_cell::<SUB>(c, a, b, out, 0, 0.0, 0.0, wa, wd);
        return;
    }
    // Edge cells peeled so the interior loop is branch-free packed loads.
    cross_cell::<SUB>(c, a, b, out, 0, 0.0, *c.add(1), wa, wd);
    for z in 1..nz - 1 {
        cross_cell::<SUB>(c, a, b, out, z, *c.add(z - 1), *c.add(z + 1), wa, wd);
    }
    cross_cell::<SUB>(c, a, b, out, nz - 1, *c.add(nz - 2), 0.0, wa, wd);
}

/// Fills `out` (3 channels × `p` plane cells, channel stride `p`) with the
/// interaction-kernel vector G(x) = Σ_i w_i ψ(x+e_i) e_i of one plane,
/// reading the evaluated ψ of that plane and its two neighbours,
/// `[x − 1, x, x + 1]`, each `p` cells.
///
/// The D3Q19 stencil separates by axis: the five directions with e_x = +1
/// see plane x+1 through the in-plane cross aggregate C = w₁ψ +
/// w₂·(ψ(y±1) + ψ(z±1)) (w₁ the axis weight, w₂ the diagonal weight), so
/// G_x = C(x+1) − C(x−1), and analogously G_y = B_y(y+1) − B_y(y−1) and
/// G_z = B_z(z+1) − B_z(z−1) with row aggregates B_y = w₁ψ +
/// w₂·(ψ(x±1) + ψ(z±1)) and B_z = w₁ψ + w₂·(ψ(x±1) + ψ(y±1)). That is
/// ~27 flops/cell in long contiguous rows instead of the 60 of the
/// direction-by-direction gather — same sum to roundoff, one fixed
/// association order. Out-of-range neighbors contribute 0 (ψ = 0 behind
/// the walls). The per-cell values depend only on ψ, so the result is
/// identical at any slab decomposition — the bitwise cross-mode invariant
/// holds because every execution path runs exactly this function. rustc
/// never contracts mul+add into FMA, so the AVX2-compiled clone below is
/// bitwise identical to the baseline build.
///
/// # Safety
///
/// Each `stencil` plane must hold `p` readable cells; `out` must hold at
/// least `3·p` writable cells;
/// `scratch` must hold `p + nz` cells whose last `nz` are zero (and are
/// left zero); `ny·nz == p`.
#[inline(always)]
unsafe fn gvec_plane_impl(
    stencil: [*const f64; 3],
    out: *mut f64,
    scratch: *mut f64,
    ny: usize,
    nz: usize,
    p: usize,
) {
    use crate::lattice::{Lattice, D3Q19};
    // The axis and the diagonal weight.
    let (wa, wd) = (D3Q19::W[1], D3Q19::W[7]);
    let [pm, pc, pp] = stencil;
    let bplane = scratch;
    let zrow = scratch.add(p) as *const f64; // stays all-zero

    // G_x = C(x+1) − C(x−1).
    for y in 0..ny {
        let row = y * nz;
        let gx = out.add(row);
        let up = if y > 0 { pp.add(row - nz) } else { zrow };
        let dn = if y + 1 < ny { pp.add(row + nz) } else { zrow };
        cross_row::<false>(pp.add(row), up, dn, nz, gx, wa, wd);
        let up = if y > 0 { pm.add(row - nz) } else { zrow };
        let dn = if y + 1 < ny { pm.add(row + nz) } else { zrow };
        cross_row::<true>(pm.add(row), up, dn, nz, gx, wa, wd);
    }

    // G_y = B_y(y+1) − B_y(y−1); B_y rows staged in the scratch plane.
    for y in 0..ny {
        let row = y * nz;
        cross_row::<false>(pc.add(row), pm.add(row), pp.add(row), nz, bplane.add(row), wa, wd);
    }
    let gy = out.add(p);
    for y in 0..ny {
        let row = y * nz;
        let bu = if y + 1 < ny { bplane.add(row + nz) as *const f64 } else { zrow };
        let bd = if y > 0 { bplane.add(row - nz) as *const f64 } else { zrow };
        for z in 0..nz {
            *gy.add(row + z) = *bu.add(z) - *bd.add(z);
        }
    }

    // G_z = B_z(z+1) − B_z(z−1); B_z rows staged in the scratch plane.
    for y in 0..ny {
        let row = y * nz;
        let yu = if y > 0 { pc.add(row - nz) } else { zrow };
        let yd = if y + 1 < ny { pc.add(row + nz) } else { zrow };
        let (c, xm, xp, b) = (pc.add(row), pm.add(row), pp.add(row), bplane.add(row));
        for z in 0..nz {
            *b.add(z) =
                wa * *c.add(z) + wd * ((*xm.add(z) + *xp.add(z)) + (*yu.add(z) + *yd.add(z)));
        }
    }
    let gz = out.add(2 * p);
    for y in 0..ny {
        let row = y * nz;
        let b = bplane.add(row);
        if nz == 1 {
            *gz.add(row) = 0.0;
            continue;
        }
        *gz.add(row) = *b.add(1) - 0.0;
        for z in 1..nz - 1 {
            *gz.add(row + z) = *b.add(z + 1) - *b.add(z - 1);
        }
        *gz.add(row + nz - 1) = 0.0 - *b.add(nz - 2);
    }
}

/// [`gvec_plane_impl`] dispatched to a hand-vectorized AVX2 variant when
/// the host supports it (the raw-pointer rows defeat the autovectorizer's
/// alias analysis, so the scalar build stays scalar). Safety: see
/// [`gvec_plane_impl`].
pub(crate) unsafe fn gvec_plane(
    stencil: [*const f64; 3],
    out: *mut f64,
    scratch: *mut f64,
    ny: usize,
    nz: usize,
    p: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return gvec_plane_avx2(stencil, out, scratch, ny, nz, p);
    }
    gvec_plane_impl(stencil, out, scratch, ny, nz, p)
}

/// AVX2 [`cross_row`]: 4 z-cells per iteration over the interior, the
/// edge cells and remainder through the scalar [`cross_cell`]. Lane-wise
/// the operations and association match the scalar row exactly (mul/add/
/// sub only, no FMA), so the output is bitwise identical.
///
/// # Safety
///
/// As [`cross_row`], plus the caller must have checked [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cross_row_avx2<const SUB: bool>(
    c: *const f64,
    a: *const f64,
    b: *const f64,
    nz: usize,
    out: *mut f64,
    wa: f64,
    wd: f64,
) {
    use core::arch::x86_64::*;

    const L: usize = 4;
    if nz < L + 2 {
        cross_row::<SUB>(c, a, b, nz, out, wa, wd);
        return;
    }
    let wav = _mm256_set1_pd(wa);
    let wdv = _mm256_set1_pd(wd);
    cross_cell::<SUB>(c, a, b, out, 0, 0.0, *c.add(1), wa, wd);
    let mut z = 1;
    while z + L < nz {
        let zm = _mm256_loadu_pd(c.add(z - 1));
        let zp = _mm256_loadu_pd(c.add(z + 1));
        let cv = _mm256_loadu_pd(c.add(z));
        let av = _mm256_loadu_pd(a.add(z));
        let bv = _mm256_loadu_pd(b.add(z));
        let v = _mm256_add_pd(
            _mm256_mul_pd(wav, cv),
            _mm256_mul_pd(wdv, _mm256_add_pd(_mm256_add_pd(av, bv), _mm256_add_pd(zm, zp))),
        );
        if SUB {
            let o = _mm256_loadu_pd(out.add(z));
            _mm256_storeu_pd(out.add(z), _mm256_sub_pd(o, v));
        } else {
            _mm256_storeu_pd(out.add(z), v);
        }
        z += L;
    }
    while z < nz - 1 {
        cross_cell::<SUB>(c, a, b, out, z, *c.add(z - 1), *c.add(z + 1), wa, wd);
        z += 1;
    }
    cross_cell::<SUB>(c, a, b, out, nz - 1, *c.add(nz - 2), 0.0, wa, wd);
}

/// AVX2 [`gvec_plane_impl`]: the same aggregate sweeps with 4-wide rows
/// and scalar tails; every lane matches the scalar arithmetic exactly, so
/// the plane is bitwise identical. Safety: see [`gvec_plane_impl`], plus
/// the caller must have checked [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gvec_plane_avx2(
    stencil: [*const f64; 3],
    out: *mut f64,
    scratch: *mut f64,
    ny: usize,
    nz: usize,
    p: usize,
) {
    use crate::lattice::{Lattice, D3Q19};
    use core::arch::x86_64::*;

    const L: usize = 4;
    let (wa, wd) = (D3Q19::W[1], D3Q19::W[7]);
    let wav = _mm256_set1_pd(wa);
    let wdv = _mm256_set1_pd(wd);
    let [pm, pc, pp] = stencil;
    let bplane = scratch;
    let zrow = scratch.add(p) as *const f64;

    // G_x = C(x+1) − C(x−1).
    for y in 0..ny {
        let row = y * nz;
        let gx = out.add(row);
        let up = if y > 0 { pp.add(row - nz) } else { zrow };
        let dn = if y + 1 < ny { pp.add(row + nz) } else { zrow };
        cross_row_avx2::<false>(pp.add(row), up, dn, nz, gx, wa, wd);
        let up = if y > 0 { pm.add(row - nz) } else { zrow };
        let dn = if y + 1 < ny { pm.add(row + nz) } else { zrow };
        cross_row_avx2::<true>(pm.add(row), up, dn, nz, gx, wa, wd);
    }

    // G_y = B_y(y+1) − B_y(y−1); B_y rows staged in the scratch plane.
    for y in 0..ny {
        let row = y * nz;
        cross_row_avx2::<false>(pc.add(row), pm.add(row), pp.add(row), nz, bplane.add(row), wa, wd);
    }
    let gy = out.add(p);
    for y in 0..ny {
        let row = y * nz;
        let bu = if y + 1 < ny { bplane.add(row + nz) as *const f64 } else { zrow };
        let bd = if y > 0 { bplane.add(row - nz) as *const f64 } else { zrow };
        let g = gy.add(row);
        let mut z = 0;
        while z + L <= nz {
            let v = _mm256_sub_pd(_mm256_loadu_pd(bu.add(z)), _mm256_loadu_pd(bd.add(z)));
            _mm256_storeu_pd(g.add(z), v);
            z += L;
        }
        while z < nz {
            *g.add(z) = *bu.add(z) - *bd.add(z);
            z += 1;
        }
    }

    // G_z = B_z(z+1) − B_z(z−1); B_z rows staged in the scratch plane.
    for y in 0..ny {
        let row = y * nz;
        let yu = if y > 0 { pc.add(row - nz) } else { zrow };
        let yd = if y + 1 < ny { pc.add(row + nz) } else { zrow };
        let (c, xm, xp, b) = (pc.add(row), pm.add(row), pp.add(row), bplane.add(row));
        let mut z = 0;
        while z + L <= nz {
            let v = _mm256_add_pd(
                _mm256_mul_pd(wav, _mm256_loadu_pd(c.add(z))),
                _mm256_mul_pd(
                    wdv,
                    _mm256_add_pd(
                        _mm256_add_pd(_mm256_loadu_pd(xm.add(z)), _mm256_loadu_pd(xp.add(z))),
                        _mm256_add_pd(_mm256_loadu_pd(yu.add(z)), _mm256_loadu_pd(yd.add(z))),
                    ),
                ),
            );
            _mm256_storeu_pd(b.add(z), v);
            z += L;
        }
        while z < nz {
            *b.add(z) =
                wa * *c.add(z) + wd * ((*xm.add(z) + *xp.add(z)) + (*yu.add(z) + *yd.add(z)));
            z += 1;
        }
    }
    let gz = out.add(2 * p);
    for y in 0..ny {
        let row = y * nz;
        let b = bplane.add(row);
        let g = gz.add(row);
        if nz == 1 {
            *g = 0.0;
            continue;
        }
        *g = *b.add(1) - 0.0;
        let mut z = 1;
        while z + L < nz {
            let v = _mm256_sub_pd(_mm256_loadu_pd(b.add(z + 1)), _mm256_loadu_pd(b.add(z - 1)));
            _mm256_storeu_pd(g.add(z), v);
            z += L;
        }
        while z < nz - 1 {
            *g.add(z) = *b.add(z + 1) - *b.add(z - 1);
            z += 1;
        }
        *g.add(nz - 1) = 0.0 - *b.add(nz - 2);
    }
}

/// Inputs of one component's force assembly (see [`crate::force`]):
/// everything is read-only during the launch except `force`, written once
/// per cell. The Shan–Chen couplings reference *plane* buffers of the
/// interaction-kernel vectors (3 channels, stride `p`) by component index,
/// so the kernels assemble one plane per call; `force` and the adhesion
/// plane are repointed at the plane being assembled before each call.
pub(crate) struct ForceAssembly {
    pub(crate) ny: usize,
    pub(crate) nz: usize,
    /// Cells per plane (`ny·nz`), the channel stride of the G and adhesion
    /// plane buffers.
    pub(crate) p: usize,
    /// Component number density n_a of the plane (`p` cells).
    pub(crate) n: *const f64,
    /// Evaluated interaction potential ψ_a of the plane (`p` cells).
    pub(crate) pe: *const f64,
    /// Output force density of the plane: its cell 0 of 3 channels of
    /// stride `force_stride` — a plane scratch (stride `p`) or a plane of a
    /// whole-slab array.
    pub(crate) force: *mut f64,
    pub(crate) force_stride: usize,
    /// Active couplings (component index b, g_ab), ascending b; b indexes
    /// the caller's per-plane G buffers.
    pub(crate) couplings: Vec<(usize, f64)>,
    /// Adhesion-kernel plane (3 channels of stride `p`) and g_w, when
    /// g_w ≠ 0.
    pub(crate) adhesion: Option<(*const f64, f64)>,
    /// Per-row wall-force magnitudes (lengths ny and nz).
    pub(crate) wy: Vec<f64>,
    pub(crate) wz: Vec<f64>,
    /// Whether the wall force scales with the local density.
    pub(crate) per_mass: bool,
    pub(crate) mass: f64,
    pub(crate) body: [f64; 3],
}

/// Scalar force assembly of one plane — the reference the AVX2 kernel
/// must match bit for bit, and the non-x86 path. `planes[b]` is the G
/// buffer of component b for this plane.
///
/// # Safety
///
/// `n` and `pe` must be readable for `p` cells; `force` must be writable
/// for 3 channels of `p` cells at stride `force_stride`, and the adhesion
/// plane and every coupling's `planes` entry readable for `3·p` cells; no
/// other thread may access the force cells during the call.
pub(crate) unsafe fn force_assemble_scalar(args: &ForceAssembly, planes: &[*const f64]) {
    for y in 0..args.ny {
        let wy = args.wy[y];
        let prow = y * args.nz;
        for z in 0..args.nz {
            force_cell_scalar(args, planes, prow + z, wy, args.wz[z]);
        }
    }
}

/// One cell of [`force_assemble_scalar`], `pcell` of the plane. Safety:
/// see there.
#[inline(always)]
unsafe fn force_cell_scalar(args: &ForceAssembly, planes: &[*const f64], pcell: usize, wy: f64, wz: f64) {
    let p = args.p;
    let n_here = *args.n.add(pcell);
    let psi_here = *args.pe.add(pcell);
    let rho_here = args.mass * n_here;
    // Shan–Chen term: ψ·g is hoisted out of the three axis products; the
    // association (ψ·g)·G_b is the one the original expression had.
    let mut fx = 0.0;
    let mut fy = 0.0;
    let mut fz = 0.0;
    for &(b, g) in &args.couplings {
        let pg = psi_here * g;
        let gv = planes[b];
        fx -= pg * *gv.add(pcell);
        fy -= pg * *gv.add(p + pcell);
        fz -= pg * *gv.add(2 * p + pcell);
    }
    // Solid-fluid adhesion: F = −g_w ψ(n) Σ_i w_i s(x+e_i) e_i.
    if let Some((adh, gw)) = args.adhesion {
        let pg = gw * psi_here;
        fx -= pg * *adh.add(pcell);
        fy -= pg * *adh.add(p + pcell);
        fz -= pg * *adh.add(2 * p + pcell);
    }
    // Hydrophobic wall force.
    let ws = if args.per_mass { rho_here } else { 1.0 };
    fy += wy * ws;
    fz += wz * ws;
    // Body force.
    fx += rho_here * args.body[0];
    fy += rho_here * args.body[1];
    fz += rho_here * args.body[2];
    let (f, fs) = (args.force, args.force_stride);
    *f.add(pcell) = fx;
    *f.add(fs + pcell) = fy;
    *f.add(2 * fs + pcell) = fz;
}

/// AVX2 force assembly of one plane, 4 cells per iteration along z
/// with a scalar row tail. Every lane performs exactly the operations of
/// [`force_assemble_scalar`] in the same order (mul/add/sub only, no FMA),
/// so the output is bitwise identical.
///
/// # Safety
///
/// As [`force_assemble_scalar`], plus the caller must have checked
/// [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn force_assemble_avx2(args: &ForceAssembly, planes: &[*const f64]) {
    use core::arch::x86_64::*;

    const L: usize = 4;
    let (p, fs) = (args.p, args.force_stride);
    let zero = _mm256_setzero_pd();
    let one = _mm256_set1_pd(1.0);
    let mass_v = _mm256_set1_pd(args.mass);
    let body_v = [
        _mm256_set1_pd(args.body[0]),
        _mm256_set1_pd(args.body[1]),
        _mm256_set1_pd(args.body[2]),
    ];
    for y in 0..args.ny {
        let wy_s = args.wy[y];
        let wy_v = _mm256_set1_pd(wy_s);
        let prow = y * args.nz;
        let mut z = 0;
        while z + L <= args.nz {
            let pcell = prow + z;
            let n_v = _mm256_loadu_pd(args.n.add(pcell));
            let pe_v = _mm256_loadu_pd(args.pe.add(pcell));
            let rho = _mm256_mul_pd(mass_v, n_v);
            let mut fx = zero;
            let mut fy = zero;
            let mut fz = zero;
            for &(b, g) in &args.couplings {
                let pg = _mm256_mul_pd(pe_v, _mm256_set1_pd(g));
                let gv = planes[b];
                fx = _mm256_sub_pd(fx, _mm256_mul_pd(pg, _mm256_loadu_pd(gv.add(pcell))));
                fy = _mm256_sub_pd(fy, _mm256_mul_pd(pg, _mm256_loadu_pd(gv.add(p + pcell))));
                fz = _mm256_sub_pd(
                    fz,
                    _mm256_mul_pd(pg, _mm256_loadu_pd(gv.add(2 * p + pcell))),
                );
            }
            if let Some((adh, gw)) = args.adhesion {
                let pg = _mm256_mul_pd(_mm256_set1_pd(gw), pe_v);
                fx = _mm256_sub_pd(fx, _mm256_mul_pd(pg, _mm256_loadu_pd(adh.add(pcell))));
                fy = _mm256_sub_pd(fy, _mm256_mul_pd(pg, _mm256_loadu_pd(adh.add(p + pcell))));
                fz = _mm256_sub_pd(
                    fz,
                    _mm256_mul_pd(pg, _mm256_loadu_pd(adh.add(2 * p + pcell))),
                );
            }
            let ws = if args.per_mass { rho } else { one };
            fy = _mm256_add_pd(fy, _mm256_mul_pd(wy_v, ws));
            fz = _mm256_add_pd(fz, _mm256_mul_pd(_mm256_loadu_pd(args.wz.as_ptr().add(z)), ws));
            fx = _mm256_add_pd(fx, _mm256_mul_pd(rho, body_v[0]));
            fy = _mm256_add_pd(fy, _mm256_mul_pd(rho, body_v[1]));
            fz = _mm256_add_pd(fz, _mm256_mul_pd(rho, body_v[2]));
            let f = args.force;
            _mm256_storeu_pd(f.add(pcell), fx);
            _mm256_storeu_pd(f.add(fs + pcell), fy);
            _mm256_storeu_pd(f.add(2 * fs + pcell), fz);
            z += L;
        }
        while z < args.nz {
            force_cell_scalar(args, planes, prow + z, wy_s, args.wz[z]);
            z += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collision::{collide, collide_cells_raw};
    use crate::component::{ComponentSpec, ComponentState};
    use crate::field::{LocalGrid, SlabArray};
    use crate::lattice::{Lattice, D3Q19};

    /// Scalar-only reference BGK, kept in test code so the production
    /// dispatcher can never accidentally be its own oracle.
    fn collide_bgk_reference(c: &mut ComponentState, ueq: &SlabArray) {
        let grid = c.grid();
        let tau = c.spec.tau;
        let omega = 1.0 / tau;
        let p = grid.plane_cells();
        for cell in LocalGrid::FIRST * p..(grid.last() + 1) * p {
            let mut fi = [0.0f64; 19];
            let mut n = 0.0;
            for i in 0..D3Q19::Q {
                let v = c.f.at(i, cell);
                fi[i] = v;
                n += v;
            }
            let u = [ueq.at(0, cell), ueq.at(1, cell), ueq.at(2, cell)];
            let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
            for i in 0..D3Q19::Q {
                let e = D3Q19::E[i];
                let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
                let feq = D3Q19::W[i] * n * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu);
                c.f.set(i, cell, fi[i] - omega * (fi[i] - feq));
            }
        }
    }

    #[test]
    fn simd_matches_scalar_bitwise() {
        // The pair-folded BGK kernel, AVX2 body and scalar tail, against
        // the textbook per-direction formula — on the inputs where folding
        // e·u could change a bit: velocity components of +0.0 and −0.0 in
        // every combination with each other and with nonzero values of
        // either sign, and exact-zero populations of both signs among
        // mixed-sign ones. A windowed component, so the channel stride
        // differs from the window, and velocities of a stride of their own.
        let grid = LocalGrid::new(5, 3, 5); // 75 interior cells: 18 AVX2 blocks + 3
        let spec = ComponentSpec { tau: 0.71, ..ComponentSpec::water() };
        let mut a = ComponentState::windowed(spec, grid, 10, 3);
        let mut u = SlabArray::new(grid, 3);
        let mut vals = vec![0.0; D3Q19::Q * grid.cells()];
        lcg_fill(&mut vals, 0xB6);
        let p = grid.plane_cells();
        let palette = [0.0, -0.0, 3.1e-3, -1.7e-2];
        for cell in 0..grid.cells() {
            for i in 0..D3Q19::Q {
                let v = match (cell * 7 + i) % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => 0.1 * vals[i * grid.cells() + cell],
                };
                a.f.set(i, cell, v);
            }
            // Interior cell k gets palette entries (k, k/4, k/16) mod 4:
            // all 64 sign/zero combinations of (u0, u1, u2).
            let k = cell.wrapping_sub(p);
            for axis in 0..3 {
                u.set(axis, cell, palette[(k >> (2 * axis)) % 4]);
            }
        }
        let mut want = a.clone();
        collide_bgk_reference(&mut want, &u);
        let bits = |c: &ComponentState| c.f.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The dispatcher over the whole interior (AVX2 body + scalar tail),
        // then cell by cell (the scalar loop alone).
        let mut whole = a.clone();
        collide(&mut whole, &u);
        assert!(bits(&whole) == bits(&want), "folded BGK (AVX2 + tail) differs from the textbook formula");
        let mut scalar = a.clone();
        let (ss, us, op) = (scalar.f.stride(), u.stride(), scalar.spec.collision);
        for cell in p..p + grid.nx_local() * p {
            // SAFETY: one interior cell of each array, collided in place.
            unsafe {
                let (f, ueq) = (scalar.f.base_mut_ptr().add(cell), u.base_ptr().add(cell));
                collide_cells_raw(op, 0.71, f, ss, f, ss, ueq, us, 1);
            }
        }
        assert!(bits(&scalar) == bits(&want), "folded BGK (scalar) differs from the textbook formula");
    }

    /// Deterministic pseudo-random fill for the kernel oracles.
    fn lcg_fill(v: &mut [f64], mut seed: u64) {
        for x in v.iter_mut() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *x = ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn moments_avx2_matches_scalar_bitwise() {
        use crate::macroscopic::moments_raw;
        use crate::macroscopic::tests::raw_momentum;
        if !super::avx2_available() {
            return;
        }
        // A windowed component, so the channel stride (the whole channel's
        // capacity) differs from the window the kernel runs over.
        let grid = LocalGrid::new(3, 3, 5);
        let mut c = ComponentState::windowed(ComponentSpec::water(), grid, 9, 2);
        assert_ne!(c.f.stride(), grid.cells());
        let mut vals = vec![0.0; D3Q19::Q * grid.cells()];
        lcg_fill(&mut vals, 0xB0); // both signs
        for (k, &v) in vals.iter().enumerate() {
            let (i, cell) = (k / grid.cells(), k % grid.cells());
            // Exact zeros of both signs in some cells and channels.
            let v = match (cell + i) % 11 {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            };
            c.f.set(i, cell, if cell % 13 == 5 { 0.0 } else { v });
        }
        // Ranges whose length is not a multiple of 4, at unaligned starts.
        for (start, n) in [(0, 1), (3, 7), (5, 30), (1, 44), (2, 4), (0, 45), (7, 0)] {
            let mut psi = vec![f64::NAN; n];
            let mut j = vec![f64::NAN; 3 * n + 5];
            let j_stride = n + 2;
            let f = c.f.base_ptr();
            // The AVX2 body alone, then the dispatcher (body + scalar tail).
            // SAFETY: AVX2 was detected above; cells start..start + n lie in
            // the window of `c.f`, psi holds n cells and j 3 rows of j_stride.
            let body = unsafe {
                super::moments_avx2(f.add(start), c.f.stride(), Some(psi.as_mut_ptr()), Some((j.as_mut_ptr(), j_stride)), n)
            };
            assert_eq!(body, n - n % 4);
            let check = |psi: &[f64], j: &[f64], upto: usize| {
                for q in 0..upto {
                    let mut want = 0.0;
                    for i in 0..D3Q19::Q {
                        want += c.f.at(i, start + q);
                    }
                    assert_eq!(psi[q].to_bits(), want.to_bits(), "ψ of cell {q} of {start}+{n}");
                    let want = raw_momentum(&c, start + q);
                    for a in 0..3 {
                        assert_eq!(
                            j[a * j_stride + q].to_bits(),
                            want[a].to_bits(),
                            "j[{a}] of cell {q} of {start}+{n}"
                        );
                    }
                }
            };
            check(&psi, &j, body);
            // SAFETY: as for the AVX2 body above.
            unsafe {
                moments_raw(f.add(start), c.f.stride(), Some(psi.as_mut_ptr()), Some((j.as_mut_ptr(), j_stride)), n)
            };
            check(&psi, &j, n);
        }
    }

    /// The velocity update (AVX2 body and scalar tail both run) against a
    /// per-cell reference with the documented association order: the
    /// two-pass reference (j of the populations and u_σ^eq into whole-slab
    /// arrays, the force from a whole-slab array) and the plane collision's
    /// form (j into a scratch of stride `p` that the update overwrites, the
    /// force from a plane scratch, plane-based views).
    #[test]
    fn velocity_update_turns_j_into_ueq_bitwise() {
        use crate::macroscopic::moments_raw;
        use crate::macroscopic::tests::raw_momentum;
        use crate::multicomponent::{update_cells, update_equilibrium_velocities, CompView, RHO_FLOOR};
        let grid = LocalGrid::new(1, 3, 5); // 15 interior cells: 3 AVX2 blocks + 3 tail cells
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
        // The same update over plane 1, forces copied to a plane scratch and
        // j taken into a block scratch.
        let p = grid.plane_cells();
        let scratch: Vec<Vec<f64>> = forces
            .iter()
            .map(|f| (0..3).flat_map(|a| f.channel(a)[p..2 * p].to_vec()).collect())
            .collect();
        let mut blocks = vec![vec![f64::NAN; 3 * p]; comps.len()];
        let mut psis = vec![vec![f64::NAN; p]; comps.len()];
        let views: Vec<CompView> = comps
            .iter()
            .zip(psis.iter_mut())
            .zip(&scratch)
            .zip(blocks.iter_mut())
            .map(|(((c, psi), force), block)| {
                let (n, j) = (Some(psi.as_mut_ptr()), Some((block.as_mut_ptr(), p)));
                // SAFETY: plane 1 of a three-plane window is in bounds, ψ
                // holds `p` cells and the block 3 channels of `p` cells.
                unsafe { moments_raw(c.f.base_ptr().add(p), c.f.stride(), n, j, p) };
                CompView {
                    psi: psi.as_ptr(),
                    force: force.as_ptr(),
                    force_stride: p,
                    ueq: block.as_mut_ptr(),
                    mass: c.spec.mass,
                    momentum_tau: c.spec.momentum_tau(),
                }
            })
            .collect();
        // SAFETY: every view addresses plane 1 or a scratch of its own
        // stride, and the scratches alias nothing the update reads.
        unsafe { update_cells(&views, p, 0..p) };
        for (block, u) in blocks.iter().zip(&ueq) {
            let plane: Vec<u64> = (0..3).flat_map(|a| u.channel(a)[p..2 * p].to_vec()).map(f64::to_bits).collect();
            assert!(block.iter().map(|v| v.to_bits()).eq(plane), "the block form differs from the whole-slab one");
        }
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
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gvec_plane_avx2_matches_scalar_bitwise() {
        if !super::avx2_available() {
            return;
        }
        // Odd nz forces the interior-loop remainder and peeled edges.
        let (ny, nz) = (5usize, 7usize);
        let p = ny * nz;
        let planes = 5;
        let mut pe = vec![0.0; planes * p];
        lcg_fill(&mut pe, 0x6E);
        let mut want = vec![0.0; 3 * p];
        let mut got = vec![0.0; 3 * p];
        let mut scratch = vec![0.0; p + nz];
        for xl in 1..planes - 1 {
            // SAFETY: AVX2 was detected above; xl ± 1 are planes of `pe`,
            // the outputs hold 3 planes and the scratch a plane plus a row.
            unsafe {
                let stencil = [pe.as_ptr().add((xl - 1) * p), pe.as_ptr().add(xl * p), pe.as_ptr().add((xl + 1) * p)];
                super::gvec_plane_impl(stencil, want.as_mut_ptr(), scratch.as_mut_ptr(), ny, nz, p);
                super::gvec_plane_avx2(stencil, got.as_mut_ptr(), scratch.as_mut_ptr(), ny, nz, p);
            }
            assert!(
                scratch[p..].iter().all(|&v| v == 0.0),
                "kernels must leave the zero row zero"
            );
            for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "plane {xl} slot {i}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn force_assembly_avx2_matches_scalar_bitwise() {
        if !super::avx2_available() {
            return;
        }
        let (ny, nz) = (3usize, 7usize); // odd nz → scalar row tail
        let p = ny * nz;
        let ncells = 3 * p;
        let xl = 1;
        let mut n = vec![0.0; ncells];
        let mut pe = vec![0.0; ncells];
        let mut adh = vec![0.0; 3 * p];
        lcg_fill(&mut n, 0x11);
        lcg_fill(&mut pe, 0x22);
        lcg_fill(&mut adh, 0x33);
        let gbufs: Vec<Vec<f64>> = (0..2).map(|b| {
            let mut g = vec![0.0; 3 * p];
            lcg_fill(&mut g, 0x44 + b);
            g
        }).collect();
        let planes: Vec<*const f64> = gbufs.iter().map(|g| g.as_ptr()).collect();
        let mut wy = vec![0.0; ny];
        let mut wz = vec![0.0; nz];
        lcg_fill(&mut wy, 0x55);
        lcg_fill(&mut wz, 0x66);
        // The scalar kernel writes a plane of a whole-lattice array (stride
        // `ncells`), the AVX2 one a plane scratch (stride `p`).
        let mut out_scalar = vec![0.0; 3 * ncells];
        let mut out_simd = vec![0.0; 3 * p];
        for per_mass in [false, true] {
            let build = |force: *mut f64, force_stride: usize| super::ForceAssembly {
                ny,
                nz,
                p,
                // SAFETY: plane xl of the three-plane inputs is in bounds.
                n: unsafe { n.as_ptr().add(xl * p) },
                // SAFETY: as above.
                pe: unsafe { pe.as_ptr().add(xl * p) },
                force,
                force_stride,
                couplings: vec![(0, 0.9), (1, -0.31)],
                adhesion: Some((adh.as_ptr(), 0.17)),
                wy: wy.clone(),
                wz: wz.clone(),
                per_mass,
                mass: 0.7,
                body: [1.3e-4, -2.0e-5, 7.0e-6],
            };
            // SAFETY: plane xl of the three-plane lattice is in bounds.
            let a_scalar = build(unsafe { out_scalar.as_mut_ptr().add(xl * p) }, ncells);
            let a_simd = build(out_simd.as_mut_ptr(), p);
            // SAFETY: AVX2 was detected above; every input covers three
            // planes and each output the plane its assembly names.
            unsafe {
                super::force_assemble_scalar(&a_scalar, &planes);
                super::force_assemble_avx2(&a_simd, &planes);
            }
            let lo = xl * p;
            for ch in 0..3 {
                for pc in 0..p {
                    assert_eq!(
                        out_simd[ch * p + pc].to_bits(),
                        out_scalar[ch * ncells + lo + pc].to_bits(),
                        "per_mass={per_mass} channel {ch} cell {pc}"
                    );
                }
            }
        }
    }
}
