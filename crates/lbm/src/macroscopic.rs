//! Macroscopic quantities: number density, mass density, momentum and the
//! physical velocity field.
//!
//! Per the paper, the macroscopic fields follow from the distribution
//! functions as
//!
//! ```text
//! ρ(x)      = Σ_σ ρ_σ(x) = Σ_σ m_σ Σ_i f_i^σ(x)
//! (ρ u)(x)  = Σ_σ m_σ Σ_i f_i^σ e_i  +  1/2 Σ_σ F_σ(x)
//! ```
//!
//! (the half-force term makes the measured velocity second-order accurate
//! in the presence of forcing).
//!
//! Every reduction of populations to ψ = Σ_i f_i or the number momentum
//! j = Σ_i f_i e_i goes through one lane-typed body, [`moments`] (4-cell
//! blocks and a 1-cell tail, compiled plain and AVX2 behind
//! [`crate::simd::dispatch`]): the streaming
//! sweep takes ψ and j of each plane one plane ahead of its collision
//! ([`crate::multicomponent::PlaneCollision`]), as [`capture`] does,
//! [`edge_psi`] ψ of a slab's edge planes for the ψ exchange, and the
//! checkpoint codec the ψ channel of every plane record.

use std::ops::Range;

use crate::component::ComponentState;
use crate::field::{LocalGrid, SlabArray};
use crate::geometry::Slab;
use crate::lattice::D3Q19;
use crate::multicomponent::{Forcing, PlaneCollision};
use crate::simd::{blocks, dispatch, V};

const Q: usize = D3Q19::Q;

/// ψ of the slab's edge planes from their populations into `halo_psi`:
/// what the ψ exchange ships, at a phase boundary.
pub fn edge_psi(comp: &mut ComponentState) {
    let (grid, ComponentState { f, halo_psi, .. }) = (comp.grid(), comp);
    let (p, last) = (grid.plane_cells(), grid.last());
    plane_psi(f, LocalGrid::FIRST, &mut halo_psi[p..2 * p]);
    plane_psi(f, last, &mut halo_psi[2 * p..3 * p]);
}

/// ψ = Σ_i f_i of local plane `xl` of the populations `f` into `out`
/// (`plane_cells` values).
pub(crate) fn plane_psi(f: &SlabArray, xl: usize, out: &mut [f64]) {
    assert!(out.len() == f.grid().plane_cells());
    let f: [&[f64]; Q] = f.plane(xl);
    dispatch(#[inline(always)] || moments(f, Some(out), None));
}

/// The moments body: for each cell of `f` (one slice a channel), ψ = Σ_i
/// f_i into `psi` and j_a = Σ_i f_i e_ia into `j[a]`, each only if asked
/// for; every sum over ascending channels from +0.0 with the `e_ia = 0`
/// terms skipped (they would only add ±0.0 to an accumulator that is never
/// −0.0). 4-cell blocks ([`blocks`]: the ψ-only instance, unfenced, is
/// widened into transposes), then a 1-cell tail of the same code; called
/// directly it is the plain instance.
#[inline(always)]
pub(crate) fn moments(f: [&[f64]; Q], psi: Option<&mut [f64]>, j: Option<[&mut [f64]; 3]>) {
    let (n, mut f) = (f[0].len(), f);
    for f in &mut f {
        *f = &f[..n];
    }
    let mut psi = psi.map(|psi| &mut psi[..n]);
    let mut j = j.map(|[x, y, z]| [&mut x[..n], &mut y[..n], &mut z[..n]]);
    for block in blocks(n) {
        moments_block::<4>(f, psi.as_deref_mut(), j.as_mut(), block);
    }
    for cell in n / 4 * 4..n {
        moments_block::<1>(f, psi.as_deref_mut(), j.as_mut(), cell);
    }
}

#[inline(always)]
fn moments_block<const L: usize>(
    f: [&[f64]; Q],
    psi: Option<&mut [f64]>,
    j: Option<&mut [&mut [f64]; 3]>,
    block: usize,
) {
    // Plain loops and constant indices, as in
    // [`crate::collision::collide_lanes`].
    let mut fi = [V::<L>::splat(0.0); Q];
    for (fi, &f) in fi.iter_mut().zip(&f) {
        *fi = V::load(f, block);
    }
    if let Some(psi) = psi {
        let mut acc = V::splat(0.0);
        for &v in &fi {
            acc = acc + v;
        }
        acc.store(psi, block);
    }
    if let Some([x, y, z]) = j {
        momentum::<L, 0>(&fi).store(x, block);
        momentum::<L, 1>(&fi).store(y, block);
        momentum::<L, 2>(&fi).store(z, block);
    }
}

/// j_A of a block: the terms of [`MOMENTUM_TERMS`]`[A]` in order, each
/// channel and sign a constant.
#[inline(always)]
fn momentum<const L: usize, const A: usize>(fi: &[V<L>; Q]) -> V<L> {
    let mut acc = V::splat(0.0);
    macro_rules! terms {
        ($($k:literal)*) => {$({
            let (i, e) = MOMENTUM_TERMS[A][$k];
            acc = acc + fi[i] * e;
        })*};
    }
    terms!(0 1 2 3 4 5 6 7 8 9);
    acc
}

/// Per axis `a`, the ten channels with `e_ia ≠ 0` in ascending order, each
/// with its `e_ia` as a float: the terms of j_a, in summation order.
pub(crate) const MOMENTUM_TERMS: [[(usize, f64); 10]; 3] = {
    let mut terms = [[(0, 0.0); 10]; 3];
    let mut a = 0;
    while a < 3 {
        let (mut i, mut k) = (0, 0);
        while i < D3Q19::Q {
            if D3Q19::E[i][a] != 0 {
                terms[a][k] = (i, D3Q19::E[i][a] as f64);
                k += 1;
            }
            i += 1;
        }
        assert!(k == 10);
        a += 1;
    }
    terms
};

/// A gathered macroscopic snapshot of a slab's interior, used for
/// observables and for stitching distributed results back together.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Global x index of the first plane in this snapshot.
    pub x0: usize,
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Mass density per component, x-major over `nx·ny·nz` cells.
    pub rho: Vec<Vec<f64>>,
    /// Physical velocity (half-force corrected, mass-weighted over
    /// components), x-major, 3 values per cell.
    pub velocity: Vec<f64>,
}

impl Snapshot {
    /// Cells in this snapshot.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of `(x_local, y, z)`.
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (x * self.ny + y) * self.nz + z
    }

    /// Total mass density at a cell.
    pub fn rho_total(&self, cell: usize) -> f64 {
        self.rho.iter().map(|r| r[cell]).sum()
    }

    /// Velocity vector at a cell.
    pub fn u(&self, cell: usize) -> [f64; 3] {
        [self.velocity[3 * cell], self.velocity[3 * cell + 1], self.velocity[3 * cell + 2]]
    }

    /// An all-zero snapshot of planes `x0 .. x0 + nx`, for slabs to be
    /// captured into ([`SlabSolver::snapshot_into`](crate::SlabSolver::snapshot_into)).
    /// Untouched memory: each vector is its own zeroed allocation (`vec!` of
    /// a vector would copy one into the others), so a page becomes resident
    /// only when a capture writes it.
    pub fn zeros(x0: usize, nx: usize, ny: usize, nz: usize, ncomp: usize) -> Snapshot {
        let n = nx * ny * nz;
        let rho = (0..ncomp).map(|_| vec![0.0; n]).collect();
        Snapshot { x0, nx, ny, nz, rho, velocity: vec![0.0; 3 * n] }
    }

    /// The planes of `slab` as a [`SnapshotSlab`]. Panics if the slab does
    /// not lie inside `self`.
    pub fn slab_mut(&mut self, slab: Slab) -> SnapshotSlab<'_> {
        self.split_slabs(&[slab]).pop().expect("one view per slab")
    }

    /// Splits `self` at slab boundaries into disjoint views, one per entry
    /// of `slabs` and in that order, so slabs that tile a channel can be
    /// captured at once, each on its own thread. Panics if two slabs
    /// overlap or one reaches outside `self`.
    pub fn split_slabs(&mut self, slabs: &[Slab]) -> Vec<SnapshotSlab<'_>> {
        let p = self.ny * self.nz;
        let (x0, ny, nz) = (self.x0, self.ny, self.nz);
        let mut order: Vec<usize> = (0..slabs.len()).collect();
        order.sort_by_key(|&k| slabs[k].x0);
        // Cut every vector at each slab's ends, in ascending x.
        let mut rho: Vec<&mut [f64]> = self.rho.iter_mut().map(Vec::as_mut_slice).collect();
        let mut velocity = self.velocity.as_mut_slice();
        let mut at = x0;
        let mut views: Vec<Option<SnapshotSlab<'_>>> = slabs.iter().map(|_| None).collect();
        for k in order {
            let slab = slabs[k];
            assert!(
                slab.x0 >= at && slab.x_end() <= x0 + self.nx,
                "slab lies outside the snapshot or overlaps another"
            );
            let (skip, take) = ((slab.x0 - at) * p, slab.nx_local * p);
            let mut slab_rho = Vec::with_capacity(rho.len());
            for r in rho.iter_mut() {
                let (_, rest) = std::mem::take(r).split_at_mut(skip);
                let (here, rest) = rest.split_at_mut(take);
                slab_rho.push(here);
                *r = rest;
            }
            let (_, rest) = std::mem::take(&mut velocity).split_at_mut(3 * skip);
            let (here, rest) = rest.split_at_mut(3 * take);
            velocity = rest;
            views[k] = Some(SnapshotSlab { slab, ny, nz, rho: slab_rho, velocity: here });
            at = slab.x_end();
        }
        views.into_iter().map(|v| v.expect("every slab was cut")).collect()
    }

    /// Stitches per-slab snapshots (any order) into one global snapshot.
    ///
    /// Panics if the slabs do not tile `0..Σnx` contiguously or disagree on
    /// lateral extent / component count.
    pub fn stitch(mut parts: Vec<Snapshot>) -> Snapshot {
        assert!(!parts.is_empty());
        parts.sort_by_key(|s| s.x0);
        let ny = parts[0].ny;
        let nz = parts[0].nz;
        let ncomp = parts[0].rho.len();
        let nx: usize = parts.iter().map(|s| s.nx).sum();
        let mut out = Snapshot::zeros(parts[0].x0, nx, ny, nz, ncomp);
        let mut expect_x0 = parts[0].x0;
        for s in &parts {
            assert_eq!(s.x0, expect_x0, "slabs must tile contiguously");
            assert_eq!(s.ny, ny);
            assert_eq!(s.nz, nz);
            assert_eq!(s.rho.len(), ncomp);
            let base = (s.x0 - out.x0) * ny * nz;
            for c in 0..ncomp {
                out.rho[c][base..base + s.cells()].copy_from_slice(&s.rho[c]);
            }
            out.velocity[3 * base..3 * (base + s.cells())].copy_from_slice(&s.velocity);
            expect_x0 += s.nx;
        }
        out
    }
}

/// The planes of a [`Snapshot`] that one slab fills ([`Snapshot::split_slabs`]).
pub struct SnapshotSlab<'a> {
    pub slab: Slab,
    pub ny: usize,
    pub nz: usize,
    /// Mass density per component, x-major over the slab's cells.
    pub rho: Vec<&'a mut [f64]>,
    /// Velocity, 3 values per cell.
    pub velocity: &'a mut [f64],
}

impl SnapshotSlab<'_> {
    /// The `k`-th plane of these planes (global x `slab.x0 + k`) as a
    /// one-plane view — what a capture that holds one plane at a time fills.
    pub(crate) fn plane(&mut self, k: usize) -> SnapshotSlab<'_> {
        let p = self.ny * self.nz;
        SnapshotSlab {
            slab: Slab { x0: self.slab.x0 + k, nx_local: 1 },
            ny: self.ny,
            nz: self.nz,
            rho: self.rho.iter_mut().map(|rho| &mut rho[k * p..(k + 1) * p]).collect(),
            velocity: &mut self.velocity[3 * k * p..3 * (k + 1) * p],
        }
    }
}

/// Planes a consuming capture passes between two hand-backs of the
/// populations behind it: fewer calls against less memory held while the
/// snapshot's planes fill (EXPERIMENTS.md, "A run ends in its snapshot").
pub(crate) const RELEASE_BATCH: usize = 4;

/// The populations a capture reads: kept whole (`&[ComponentState]`), or
/// handed back plane by plane as the capture passes them (`&mut
/// [ComponentState]`, a capture that consumes its slab).
pub(crate) trait Captured {
    fn comps(&self) -> &[ComponentState];
    /// Window planes `planes` of every component are passed for good.
    fn passed(&mut self, planes: Range<usize>);
}

impl Captured for &[ComponentState] {
    fn comps(&self) -> &[ComponentState] {
        self
    }
    fn passed(&mut self, _: Range<usize>) {}
}

impl Captured for &mut [ComponentState] {
    fn comps(&self) -> &[ComponentState] {
        self
    }
    fn passed(&mut self, planes: Range<usize>) {
        for c in self.iter_mut() {
            c.f.release_window_planes(planes.clone());
        }
    }
}

/// Captures the interior of a slab into `out`: ρ from ψ, and the velocity
/// from j plus half of the force density — ψ and j loaded plane by plane
/// one plane ahead, the force recomputed from ψ of the planes around, as a
/// collision does it ([`PlaneCollision`]); the state holds none of them
/// over the slab. The planes passed are [`Captured::passed`] every
/// [`RELEASE_BATCH`] planes: a capture that consumes its slab holds both
/// whole only at the start.
pub(crate) fn capture(mut comps: impl Captured, forcing: Forcing<'_>, solid: &[bool], out: SnapshotSlab<'_>) {
    let mut collision = PlaneCollision::new(comps.comps(), forcing, solid);
    let grid = comps.comps()[0].grid();
    let SnapshotSlab { slab, ny, nz, mut rho, velocity } = out;
    assert!(
        (slab.nx_local, ny, nz, comps.comps().len()) == (grid.nx_local(), grid.ny, grid.nz, rho.len()),
        "snapshot shape differs from the slab"
    );
    let (p, last) = (grid.plane_cells(), grid.last());
    collision.load(comps.comps(), 0, false);
    collision.load(comps.comps(), LocalGrid::FIRST, true);
    let mut passed = 0;
    for xl in LocalGrid::FIRST..=last {
        collision.load(comps.comps(), xl + 1, xl < last);
        let out = (xl - 1) * p;
        let u = &mut velocity[3 * out..3 * (out + p)];
        u.fill(0.0);
        // The momentum summed in place in `velocity`, the components
        // accumulating per cell in ascending order.
        for ((c, rho), (psi, j, force)) in comps.comps().iter().zip(rho.iter_mut()).zip(collision.forces(xl)) {
            let m = c.spec.mass;
            for (rho, psi) in rho[out..out + p].iter_mut().zip(psi) {
                *rho = m * psi;
            }
            for a in 0..3 {
                let force = &force[a * p..(a + 1) * p];
                for (q, u) in u.chunks_exact_mut(3).enumerate() {
                    u[a] += m * j[a * p + q] + 0.5 * force[q];
                }
            }
        }
        for (q, u) in u.chunks_exact_mut(3).enumerate() {
            let rho_tot = rho.iter().fold(0.0, |tot, rho| tot + rho[out + q]);
            for a in 0..3 {
                u[a] = if rho_tot > 0.0 { u[a] / rho_tot } else { 0.0 };
            }
        }
        if xl % RELEASE_BATCH == 0 {
            // ψ and j of planes ..= xl + 1 are loaded, and none is loaded
            // twice.
            comps.passed(passed..xl + 1);
            passed = xl + 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::component::ComponentSpec;

    /// Number-momentum of one component at `cell`: `Σ_i f_i e_i` (multiply by
    /// `m_σ` for mass momentum) — the per-cell definition the moments kernel
    /// is held to.
    pub(crate) fn raw_momentum(comp: &ComponentState, cell: usize) -> [f64; 3] {
        let mut m = [0.0f64; 3];
        for i in 1..D3Q19::Q {
            let v = comp.f.at(i, cell);
            let e = D3Q19::E[i];
            m[0] += v * e[0] as f64;
            m[1] += v * e[1] as f64;
            m[2] += v * e[2] as f64;
        }
        m
    }

    #[test]
    fn psi_matches_population_sum() {
        let grid = LocalGrid::new(3, 2, 2);
        let mut c = ComponentState::new(ComponentSpec::water(), grid);
        for cell in 0..grid.cells() {
            for i in 0..D3Q19::Q {
                c.f.set(i, cell, (i + 1) as f64 * 0.01);
            }
        }
        let mut psi = vec![0.0; grid.plane_cells()];
        plane_psi(&c.f, 1, &mut psi);
        let want: f64 = (1..=19).map(|i| i as f64 * 0.01).sum();
        assert!((psi[grid.idx(0, 1, 1)] - want).abs() < 1e-12);
    }

    #[test]
    fn moments_avx2_matches_scalar_bitwise() {
        use crate::field::runs_mut;
        use crate::simd::tests::{bits, lcg_fill, runs, slices_mut};
        // A windowed component, its runs cut from plane 2 of the window:
        // channels a plane (75 cells) apart in storage, not a run apart.
        let grid = LocalGrid::new(3, 5, 15);
        let p = grid.plane_cells();
        let mut c = ComponentState::windowed(ComponentSpec::water(), grid, 9, 2);
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
        let plane: [&[f64]; Q] = c.f.plane(2);
        assert_eq!(plane[1].as_ptr() as usize - plane[0].as_ptr() as usize, p * std::mem::size_of::<f64>());
        for (start, n) in runs() {
            let cells = 2 * p + start..2 * p + start + n;
            let want_psi: Vec<f64> = cells.clone().map(|q| (0..Q).fold(0.0, |acc, i| acc + c.f.at(i, q))).collect();
            let want_j: Vec<Vec<f64>> = (0..3).map(|a| cells.clone().map(|q| raw_momentum(&c, q)[a]).collect()).collect();
            let f: [&[f64]; Q] = plane.map(|ch| &ch[start..start + n]);
            // The plain body, then the dispatched one (rows of j a stride
            // apart that is not the run's length).
            let (mut psi, mut j) = (vec![f64::NAN; n], vec![vec![f64::NAN; n]; 3]);
            moments(f, Some(&mut psi), Some(slices_mut(&mut j)));
            assert_eq!(bits(&psi), bits(&want_psi), "plain ψ of {n} cells at {start}");
            assert_eq!(j.iter().map(|j| bits(j)).collect::<Vec<_>>(), want_j.iter().map(|j| bits(j)).collect::<Vec<_>>(), "plain j of {n} cells at {start}");
            let (mut psi, j_stride) = (vec![f64::NAN; n], n + 2);
            let mut j = vec![f64::NAN; 3 * j_stride];
            let rows = runs_mut(&mut j, j_stride, 0..n);
            dispatch(#[inline(always)] || moments(f, Some(&mut psi), Some(rows)));
            assert_eq!(bits(&psi), bits(&want_psi), "dispatched ψ of {n} cells at {start}");
            // The ψ-only instance `plane_psi` dispatches.
            let mut psi = vec![f64::NAN; n];
            dispatch(#[inline(always)] || moments(f, Some(&mut psi), None));
            assert_eq!(bits(&psi), bits(&want_psi), "dispatched ψ alone of {n} cells at {start}");
            for a in 0..3 {
                assert_eq!(bits(&j[a * j_stride..][..n]), bits(&want_j[a]), "dispatched j[{a}] of {n} cells at {start}");
            }
        }
    }

    #[test]
    fn raw_momentum_of_equilibrium() {
        let grid = LocalGrid::new(3, 2, 2);
        let mut c = ComponentState::new(ComponentSpec::water(), grid);
        c.init_uniform(1.5, [0.02, -0.01, 0.005]);
        let cell = grid.idx(2, 1, 1);
        let m = raw_momentum(&c, cell);
        assert!((m[0] - 1.5 * 0.02).abs() < 1e-13);
        assert!((m[1] + 1.5 * 0.01).abs() < 1e-13);
        assert!((m[2] - 1.5 * 0.005).abs() < 1e-13);
    }

    #[test]
    #[should_panic(expected = "tile contiguously")]
    fn stitch_rejects_gaps() {
        let a = Snapshot::zeros(0, 2, 2, 2, 1);
        let b = Snapshot::zeros(3, 2, 2, 2, 1); // gap at x=2
        Snapshot::stitch(vec![a, b]);
    }

    #[test]
    fn split_slabs_hands_out_each_slabs_planes_in_the_given_order() {
        let mut snap = Snapshot::zeros(1, 5, 2, 3, 2);
        let slabs = [Slab { x0: 4, nx_local: 2 }, Slab { x0: 1, nx_local: 3 }];
        for (k, view) in snap.split_slabs(&slabs).into_iter().enumerate() {
            assert_eq!(view.slab, slabs[k]);
            assert_eq!((view.rho.len(), view.velocity.len()), (2, 3 * 6 * slabs[k].nx_local));
            view.velocity.fill(k as f64 + 1.0);
            for r in view.rho {
                r.fill(10.0 + k as f64);
            }
        }
        assert!(snap.velocity[..3 * 18].iter().all(|&v| v == 2.0));
        assert!(snap.velocity[3 * 18..].iter().all(|&v| v == 1.0));
        assert!(snap.rho[1][..18].iter().all(|&v| v == 11.0) && snap.rho[1][18..].iter().all(|&v| v == 10.0));
    }

    #[test]
    #[should_panic(expected = "outside the snapshot")]
    fn split_slabs_rejects_a_slab_past_the_end() {
        Snapshot::zeros(0, 4, 2, 2, 1).slab_mut(Slab { x0: 2, nx_local: 3 });
    }

    #[test]
    #[should_panic(expected = "overlaps another")]
    fn split_slabs_rejects_overlapping_slabs() {
        let slabs = [Slab { x0: 0, nx_local: 3 }, Slab { x0: 2, nx_local: 2 }];
        Snapshot::zeros(0, 4, 2, 2, 1).split_slabs(&slabs);
    }
}
