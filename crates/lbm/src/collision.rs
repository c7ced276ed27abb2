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
//! Each operator (BGK, TRT, [`crate::mrt`]) is one per-cell arithmetic
//! ([`Relax`]) written on the lane type [`crate::simd::V`], run over slices
//! in 4-cell blocks and a 1-cell tail by one body ([`collide_lanes`]) and
//! compiled plain and AVX2 behind [`crate::simd::dispatch`]; every caller
//! goes through [`collide_cells`]. The sweep collides out of place into its
//! ring ([`crate::streaming`]), everything else in place — [`Populations`]
//! serves both, as every body reads all of a cell's populations before it
//! writes any.

use std::ops::Range;

use crate::component::{CollisionOperator, ComponentState};
use crate::field::{LocalGrid, SlabArray};
use crate::lattice::D3Q19;
use crate::mrt::Mrt;
use crate::simd::{dispatch, V};

const Q: usize = D3Q19::Q;

/// Applies one collision (BGK, TRT or MRT per the component's spec) to
/// every interior cell of `comp`, in place, at the equilibrium velocities
/// `ueq` (3 channels on the component's grid): the whole-slab collision of
/// the test-only reference schedule.
pub fn collide(comp: &mut ComponentState, ueq: &SlabArray) {
    let grid = comp.grid();
    assert!(ueq.grid() == grid && ueq.channels() == 3, "ueq must be 3 channels on the component's grid");
    let (op, tau) = (comp.spec.collision, comp.spec.tau);
    for xl in LocalGrid::FIRST..=grid.last() {
        collide_cells(op, tau, InPlace(comp.f.plane_mut(xl)), ueq.plane(xl));
    }
}

/// Collides the cells of `pops` at the equilibrium velocities `ueq` (one
/// slice an axis, as long as the population slices): the operator's lane
/// body ([`collide_lanes`]), dispatched.
pub(crate) fn collide_cells(op: CollisionOperator, tau: f64, pops: impl Populations, ueq: [&[f64]; 3]) {
    match op {
        CollisionOperator::Bgk => dispatch(#[inline(always)] || collide_lanes(&Bgk { omega: 1.0 / tau }, pops, ueq)),
        CollisionOperator::Trt { magic } => dispatch(#[inline(always)] || collide_lanes(&Trt::new(tau, magic), pops, ueq)),
        CollisionOperator::Mrt(rates) => dispatch(#[inline(always)] || collide_lanes(&Mrt::new(tau, rates), pops, ueq)),
    }
}

/// Where a collision reads a block of populations and writes its result,
/// one slice a channel, each covering the cells of the call: a body reads
/// all of a block's populations before it writes any, so one impl serves
/// in place and one out of place.
pub(crate) trait Populations {
    type Run<'b>: Populations
    where
        Self: 'b;
    /// The same populations, cells `cells` of each slice: a plane
    /// collision's row block, or every slice cut to one length the compiler
    /// knows, so that a block's loads and stores need no bounds check of
    /// their own.
    fn run(&mut self, cells: Range<usize>) -> Self::Run<'_>;
    fn load<const L: usize>(&self, i: usize, block: usize) -> V<L>;
    fn store<const L: usize>(&mut self, i: usize, block: usize, v: V<L>);
}

/// A collision in place: each channel's cells are read, then overwritten.
pub(crate) struct InPlace<'a>(pub(crate) [&'a mut [f64]; Q]);

/// A collision from `src` into `dst` (a ring slot).
pub(crate) struct OutOfPlace<'a> {
    pub(crate) src: [&'a [f64]; Q],
    pub(crate) dst: [&'a mut [f64]; Q],
}

impl Populations for InPlace<'_> {
    type Run<'b>
        = InPlace<'b>
    where
        Self: 'b;
    #[inline(always)]
    fn run(&mut self, cells: Range<usize>) -> InPlace<'_> {
        let mut run: [&mut [f64]; Q] = Default::default();
        cut(&mut run, &mut self.0, &cells);
        InPlace(run)
    }
    #[inline(always)]
    fn load<const L: usize>(&self, i: usize, block: usize) -> V<L> {
        V::load(self.0[i], block)
    }
    #[inline(always)]
    fn store<const L: usize>(&mut self, i: usize, block: usize, v: V<L>) {
        v.store(self.0[i], block)
    }
}

impl Populations for OutOfPlace<'_> {
    type Run<'b>
        = OutOfPlace<'b>
    where
        Self: 'b;
    #[inline(always)]
    fn run(&mut self, cells: Range<usize>) -> OutOfPlace<'_> {
        let mut src = self.src;
        for f in &mut src {
            *f = &f[cells.clone()];
        }
        let mut dst: [&mut [f64]; Q] = Default::default();
        cut(&mut dst, &mut self.dst, &cells);
        OutOfPlace { src, dst }
    }
    #[inline(always)]
    fn load<const L: usize>(&self, i: usize, block: usize) -> V<L> {
        V::load(self.src[i], block)
    }
    #[inline(always)]
    fn store<const L: usize>(&mut self, i: usize, block: usize, v: V<L>) {
        v.store(self.dst[i], block)
    }
}

/// `run[i]` becomes cells `cells` of `f[i]`. A plain loop, not an array
/// combinator: those are not inlined into a body as large as a collision's,
/// and the slices' lengths would come back through memory, unknown to the
/// block loop's bounds checks.
#[inline(always)]
fn cut<'b>(run: &mut [&'b mut [f64]; Q], f: &'b mut [&mut [f64]; Q], cells: &Range<usize>) {
    for (run, f) in run.iter_mut().zip(f) {
        *run = &mut f[cells.clone()];
    }
}

/// A collision's per-cell arithmetic on `L` cells at once: the block's
/// populations and equilibrium velocities in, each collided population
/// out through `store(i, value)` as soon as it is formed (holding all 19
/// until the end would spill them).
pub(crate) trait Relax {
    fn relax<const L: usize>(&self, fi: [V<L>; Q], u: [V<L>; 3], store: impl FnMut(usize, V<L>));
}

/// The one body of every collision (BGK, TRT, MRT) of the cells of `f`
/// at the equilibrium velocities `ueq` (one slice an axis, as long as
/// `f`'s): 4-cell blocks, then a 1-cell tail of the same code. Called
/// directly it is the plain instance; [`collide_cells`] runs it through
/// [`dispatch`].
#[inline(always)]
pub(crate) fn collide_lanes<R: Relax, P: Populations>(op: &R, mut f: P, ueq: [&[f64]; 3]) {
    let n = ueq[0].len();
    let (mut f, ueq) = (f.run(0..n), [&ueq[0][..n], &ueq[1][..n], &ueq[2][..n]]);
    for block in 0..n / 4 {
        collide_block::<4, R, _>(op, &mut f, ueq, block);
    }
    for cell in n / 4 * 4..n {
        collide_block::<1, R, _>(op, &mut f, ueq, cell);
    }
}

#[inline(always)]
fn collide_block<const L: usize, R: Relax, P: Populations>(op: &R, f: &mut P, ueq: [&[f64]; 3], block: usize) {
    // Plain loops, not array or iterator combinators: those are not
    // inlined into a body this large, and a call per block costs more than
    // the block.
    let mut fi = [V::<L>::splat(0.0); Q];
    for (i, fi) in fi.iter_mut().enumerate() {
        *fi = f.load(i, block);
    }
    let u = [V::load(ueq[0], block), V::load(ueq[1], block), V::load(ueq[2], block)];
    op.relax(fi, u, |i, v| f.store(i, block, v));
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

/// Single-relaxation-time LBGK, walking [`OPPOSITE_PAIRS`] instead of the
/// textbook per-direction `(w_i·n)·(((1 + 3e·u) + (4.5e·u)·e·u) − 1.5u²)`:
/// e·u folds to ±u_a or u_a ± u_b, w·n is taken once per weight class, and
/// the two populations of a pair share 3e·u and (4.5e·u)·e·u. For finite
/// inputs that is the textbook arithmetic bit for bit: the fold drops
/// `0·u_b` terms, which can change only the sign of a zero e·u, and both
/// `1 + 3e·u` and `(4.5e·u)·e·u` erase that sign. A non-finite velocity
/// (where the dropped `0·∞` would have been NaN) exists only in a diverged
/// state.
pub(crate) struct Bgk {
    pub(crate) omega: f64,
}

impl Relax for Bgk {
    #[inline(always)]
    fn relax<const L: usize>(&self, fi: [V<L>; Q], u: [V<L>; 3], mut store: impl FnMut(usize, V<L>)) {
        let omega = self.omega;
        // n in ascending channel order.
        let mut rho = V::splat(0.0);
        for &v in &fi {
            rho = rho + v;
        }
        let uu15 = 1.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
        let wn = (D3Q19::W[1] * rho, D3Q19::W[7] * rho);
        let mut relax = |i: usize, feq: V<L>| store(i, fi[i] - omega * (fi[i] - feq));
        relax(0, D3Q19::W[0] * rho * (1.0 - uu15));
        macro_rules! pairs {
            ($($k:literal)*) => {$({
                let (i, o, feq_i, feq_o) = pair_equilibria::<$k, L>(u, uu15, wn);
                relax(i, feq_i);
                relax(o, feq_o);
            })*};
        }
        pairs!(0 1 2 3 4 5 6 7 8);
    }
}

/// The equilibria of opposite pair `K` (one per expansion, so that its
/// table entry is a constant: e·u, the weight class and both indices fold
/// at compile time): `(i, o, f_i^eq, f_o^eq)` from the equilibrium
/// velocity, 1.5u² and w·n of the axis and the diagonal class. The two
/// populations share 3e·u and (4.5e·u)·e·u.
#[inline(always)]
fn pair_equilibria<const K: usize, const L: usize>(
    u: [V<L>; 3],
    uu15: V<L>,
    (wn_axis, wn_diag): (V<L>, V<L>),
) -> (usize, usize, V<L>, V<L>) {
    let p = const { OPPOSITE_PAIRS[K] };
    let eu = match p.s {
        0 => u[p.a],
        1 => u[p.a] + u[p.b],
        _ => u[p.a] - u[p.b],
    };
    let (t, sq) = (3.0 * eu, 4.5 * eu * eu);
    let wn = if p.s == 0 { wn_axis } else { wn_diag };
    (p.i, p.o, wn * (((1.0 + t) + sq) - uu15), wn * (((1.0 - t) + sq) - uu15))
}

/// Two-relaxation-time collision. The symmetric (even) part of each
/// population pair relaxes with ω⁺ = 1/τ; the antisymmetric (odd) part
/// with ω⁻ from the magic parameter: τ⁻ = ½ + Λ/(τ⁺ − ½) (Λ > 0, which
/// [`crate::ChannelConfig::validate`] checks). The equilibria are
/// [`Bgk`]'s pair fold, bit for bit the per-direction formula on the same
/// terms.
pub(crate) struct Trt {
    omega_plus: f64,
    omega_minus: f64,
}

impl Trt {
    pub(crate) fn new(tau_plus: f64, magic: f64) -> Trt {
        let tau_minus = 0.5 + magic / (tau_plus - 0.5);
        Trt { omega_plus: 1.0 / tau_plus, omega_minus: 1.0 / tau_minus }
    }
}

impl Relax for Trt {
    #[inline(always)]
    fn relax<const L: usize>(&self, fi: [V<L>; Q], u: [V<L>; 3], mut store: impl FnMut(usize, V<L>)) {
        let (omega_plus, omega_minus) = (self.omega_plus, self.omega_minus);
        let mut rho = V::splat(0.0);
        for &v in &fi {
            rho = rho + v;
        }
        let uu15 = 1.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
        let wn = (D3Q19::W[1] * rho, D3Q19::W[7] * rho);
        // Rest population is purely symmetric.
        store(0, fi[0] - omega_plus * (fi[0] - D3Q19::W[0] * rho * (1.0 - uu15)));
        macro_rules! pairs {
            ($($k:literal)*) => {$({
                let (i, o, feq_i, feq_o) = pair_equilibria::<$k, L>(u, uu15, wn);
                let f_plus = 0.5 * (fi[i] + fi[o]);
                let f_minus = 0.5 * (fi[i] - fi[o]);
                let feq_plus = 0.5 * (feq_i + feq_o);
                let feq_minus = 0.5 * (feq_i - feq_o);
                let d_plus = omega_plus * (f_plus - feq_plus);
                let d_minus = omega_minus * (f_minus - feq_minus);
                store(i, fi[i] - d_plus - d_minus);
                store(o, fi[o] - d_plus + d_minus);
            })*};
        }
        pairs!(0 1 2 3 4 5 6 7 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;
    use crate::mrt::MrtRates;
    use crate::field::runs_mut;
    use crate::simd::tests::{bits, lcg_fill, runs, slices_mut};

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
                let feq = crate::equilibrium::feq_i(i, n, [0.0; 3]);
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
        // A windowed component, so the source planes lie inside a larger
        // reservation; the source, the destination (a ring slot) and the
        // equilibrium velocities all have channels `plane_cells` apart, but
        // the source's planes lie Q channels apart and the velocities' 3.
        let grid = LocalGrid::new(3, 3, 17);
        let p = grid.plane_cells();
        let distance = |a: &SlabArray| a.plane_values(2).as_ptr() as usize - a.plane_values(1).as_ptr() as usize;
        let ops = [CollisionOperator::Bgk, CollisionOperator::trt_magic(), CollisionOperator::mrt_standard()];
        for op in ops {
            let spec = ComponentSpec { tau: 0.83, collision: op, ..ComponentSpec::water() };
            let mut c = ComponentState::windowed(spec, grid, 11, 4);
            let mut u = SlabArray::new(grid, 3);
            assert_eq!((distance(&c.f), distance(&u)), (8 * Q * p, 8 * 3 * p));
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
                let (xl, cells, tau) = (start / p, start % p..start % p + n, c.spec.tau);
                let ueq = crate::field::runs(u.plane_values(xl), p, cells.clone());
                let src = crate::field::runs(c.f.plane_values(xl), p, cells.clone());
                collide_cells(op, tau, OutOfPlace { src, dst: runs_mut(&mut slot, p, 0..n) }, ueq);
                assert_eq!(c.f.to_vec(), before, "{op:?}: the source was written");
                let mut in_place = c.clone();
                collide_cells(op, tau, InPlace(runs_mut(in_place.f.plane_values_mut(xl), p, cells)), ueq);
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

    /// Scalar-only reference BGK, kept in test code so the production
    /// dispatcher can never accidentally be its own oracle.
    fn collide_bgk_reference(c: &mut ComponentState, ueq: &SlabArray) {
        let grid = c.grid();
        let omega = 1.0 / c.spec.tau;
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

    /// Scalar-only reference TRT, the per-cell loop the lane body replaced.
    fn collide_trt_reference(c: &mut ComponentState, ueq: &SlabArray, magic: f64) {
        let grid = c.grid();
        let tau_plus = c.spec.tau;
        let tau_minus = 0.5 + magic / (tau_plus - 0.5);
        let (omega_plus, omega_minus) = (1.0 / tau_plus, 1.0 / tau_minus);
        let p = grid.plane_cells();
        for cell in LocalGrid::FIRST * p..(grid.last() + 1) * p {
            let fi: [f64; Q] = std::array::from_fn(|i| c.f.at(i, cell));
            let rho = fi.iter().fold(0.0, |rho, v| rho + v);
            let u = [ueq.at(0, cell), ueq.at(1, cell), ueq.at(2, cell)];
            let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
            let feq: [f64; Q] = std::array::from_fn(|i| {
                let e = D3Q19::E[i];
                let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
                D3Q19::W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu)
            });
            c.f.set(0, cell, fi[0] - omega_plus * (fi[0] - feq[0]));
            for p in OPPOSITE_PAIRS {
                let (i, o) = (p.i, p.o);
                let d_plus = omega_plus * (0.5 * (fi[i] + fi[o]) - 0.5 * (feq[i] + feq[o]));
                let d_minus = omega_minus * (0.5 * (fi[i] - fi[o]) - 0.5 * (feq[i] - feq[o]));
                c.f.set(i, cell, fi[i] - d_plus - d_minus);
                c.f.set(o, cell, fi[o] - d_plus + d_minus);
            }
        }
    }

    /// Scalar-only reference MRT, the per-cell loop the lane body replaced:
    /// it skips a moment whose scaled correction is zero. Returns how many
    /// (cell, moment) pairs it skipped.
    fn collide_mrt_reference(c: &mut ComponentState, ueq: &SlabArray, rates: MrtRates) -> usize {
        let (b, s) = (crate::mrt::basis(), crate::mrt::rate_vector(c.spec.tau, rates));
        let grid = c.grid();
        let p = grid.plane_cells();
        let mut skipped = 0;
        for cell in LocalGrid::FIRST * p..(grid.last() + 1) * p {
            let fi: [f64; Q] = std::array::from_fn(|i| c.f.at(i, cell));
            let rho = fi.iter().fold(0.0, |rho, v| rho + v);
            let u = [ueq.at(0, cell), ueq.at(1, cell), ueq.at(2, cell)];
            let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
            let feq: [f64; Q] = std::array::from_fn(|i| {
                let e = D3Q19::E[i];
                let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
                D3Q19::W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu)
            });
            let mut delta = [0.0f64; Q];
            for k in 0..Q {
                let row = &b.rows[k];
                let mk = (0..Q).fold(0.0, |mk, i| mk + row[i] * (fi[i] - feq[i]));
                let scaled = s[k] * mk / b.norm2[k];
                if scaled != 0.0 {
                    for i in 0..Q {
                        delta[i] += row[i] * scaled;
                    }
                } else {
                    skipped += 1;
                }
            }
            for i in 0..Q {
                c.f.set(i, cell, fi[i] - delta[i]);
            }
        }
        skipped
    }

    /// A windowed component of 75 interior cells (its window inside a
    /// larger reservation) and velocities in a compact array, on
    /// the inputs where folding e·u could change a bit: velocity components
    /// of +0.0 and −0.0 in every combination with each other and with
    /// nonzero values of either sign, and exact-zero populations of both
    /// signs among mixed-sign ones.
    fn signed_zero_palette(op: CollisionOperator) -> (ComponentState, SlabArray) {
        let grid = LocalGrid::new(5, 3, 5);
        let spec = ComponentSpec { tau: 0.71, collision: op, ..ComponentSpec::water() };
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
        (a, u)
    }

    /// `op`'s lane body over every run of [`runs`] (interior-relative, of
    /// channel-major copies, so a run may cross planes), plain and in place,
    /// then dispatched and out of place, against the reference `want` of
    /// the whole interior.
    fn lanes_match<R: Relax>(op: &R, a: &ComponentState, u: &SlabArray, want: &ComponentState) {
        let (cells_n, p) = (a.grid().cells(), a.grid().plane_cells());
        let (a, u, want) = (a.f.to_vec(), u.to_vec(), want.f.to_vec());
        for (start, n) in runs() {
            let cells = p + start..p + start + n;
            let ueq: [&[f64]; 3] = crate::field::runs(&u, cells_n, cells.clone());
            let want: [&[f64]; Q] = crate::field::runs(&want, cells_n, cells.clone());
            let src: [&[f64]; Q] = crate::field::runs(&a, cells_n, cells.clone());
            let mut plain: Vec<Vec<f64>> = src.iter().map(|run| run.to_vec()).collect();
            collide_lanes(op, InPlace(slices_mut(&mut plain)), ueq);
            let mut slot = vec![vec![f64::NAN; n]; Q];
            let dst = slices_mut(&mut slot);
            dispatch(#[inline(always)] || collide_lanes(op, OutOfPlace { src, dst }, ueq));
            for i in 0..Q {
                assert_eq!(bits(&plain[i]), bits(want[i]), "plain, {n} cells at {start}: dir {i}");
                assert_eq!(bits(&slot[i]), bits(want[i]), "dispatched, {n} cells at {start}: dir {i}");
            }
        }
    }

    #[test]
    fn simd_matches_scalar_bitwise() {
        // The pair-folded BGK body against the textbook per-direction
        // formula: dispatched over the whole interior in place, cell by cell
        // (1-lane blocks alone) through the operator dispatch, and plain and
        // dispatched over runs of every length.
        let (a, u) = signed_zero_palette(CollisionOperator::Bgk);
        let mut want = a.clone();
        collide_bgk_reference(&mut want, &u);
        let state_bits = |c: &ComponentState| bits(&c.f.to_vec());
        let mut whole = a.clone();
        collide(&mut whole, &u);
        assert!(state_bits(&whole) == state_bits(&want), "folded BGK (dispatched) differs from the textbook formula");
        let mut scalar = a.clone();
        let (grid, op) = (a.grid(), scalar.spec.collision);
        let p = grid.plane_cells();
        for cell in p..p + grid.nx_local() * p {
            let (xl, q) = (cell / p, cell % p);
            let ueq = crate::field::runs(u.plane_values(xl), p, q..q + 1);
            collide_cells(op, 0.71, InPlace(runs_mut(scalar.f.plane_values_mut(xl), p, q..q + 1)), ueq);
        }
        assert!(state_bits(&scalar) == state_bits(&want), "folded BGK (cell by cell) differs from the textbook formula");
        lanes_match(&Bgk { omega: 1.0 / 0.71 }, &a, &u, &want);
    }

    #[test]
    fn trt_lanes_match_the_scalar_loop_bitwise() {
        // TRT's lane body, plain and dispatched, against the per-cell loop
        // it replaced, on the same signed-zero palette as BGK.
        let op = CollisionOperator::trt_magic();
        let (a, u) = signed_zero_palette(op);
        let mut want = a.clone();
        collide_trt_reference(&mut want, &u, 3.0 / 16.0);
        let mut whole = a.clone();
        collide(&mut whole, &u);
        assert!(bits(&whole.f.to_vec()) == bits(&want.f.to_vec()), "TRT (dispatched) differs from the scalar loop");
        lanes_match(&Trt::new(0.71, 3.0 / 16.0), &a, &u, &want);
    }

    #[test]
    fn mrt_lanes_match_the_textbook_loop_bitwise() {
        // MRT's lane body, plain and dispatched, in place and out of place,
        // against the per-cell loop it replaced, which skips a moment whose
        // scaled correction is zero where the body adds it: on BGK's
        // signed-zero palette, with every fifth interior cell emptied to
        // populations of ±0.0, whose every moment the loop skips.
        let rates = MrtRates::standard();
        let (mut a, u) = signed_zero_palette(CollisionOperator::Mrt(rates));
        let p = a.grid().plane_cells();
        let empty: Vec<usize> = (p..p + a.grid().nx_local() * p).filter(|cell| cell % 5 == 2).collect();
        for &cell in &empty {
            for i in 0..Q {
                a.f.set(i, cell, if i % 2 == 0 { 0.0 } else { -0.0 });
            }
        }
        let mut want = a.clone();
        let skipped = collide_mrt_reference(&mut want, &u, rates);
        assert!(skipped >= Q * empty.len(), "the skip was not exercised ({skipped} moments skipped)");
        let mut whole = a.clone();
        collide(&mut whole, &u);
        assert!(bits(&whole.f.to_vec()) == bits(&want.f.to_vec()), "MRT (dispatched) differs from the scalar loop");
        lanes_match(&Mrt::new(0.71, rates), &a, &u, &want);
    }

    #[test]
    fn ghost_planes_untouched() {
        let mut c = make(0.9);
        perturb(&mut c);
        let grid = c.grid();
        let ueq = rest(&c);
        collide(&mut c, &ueq);
        for ghost in [LocalGrid::GHOST_LEFT, grid.ghost_right()] {
            assert!(c.f.plane_values(ghost).iter().all(|&v| v == 0.0));
        }
    }
}
