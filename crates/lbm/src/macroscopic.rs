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
//! Every reduction of populations to ψ = Σ_i f_i and the number momentum
//! j = Σ_i f_i e_i goes through one kernel, [`moments_raw`]: the streaming
//! sweep runs it on each plane it has just streamed (ψ into `psi`, j into
//! the plane's `ueq` slots — see [`crate::streaming`]), [`compute_psi`] on
//! the whole slab for priming, [`Snapshot::capture_into`] plane by plane.

use crate::component::ComponentState;
use crate::field::LocalGrid;
use crate::lattice::{Lattice, D3Q19};

/// Recomputes the moments of every interior cell from the populations: ψ
/// (number density) into `psi` and j into the three `ueq` slots, where
/// [`crate::multicomponent::update_equilibrium_velocities`] expects it —
/// what a sweep leaves behind, for priming a state no sweep produced (a
/// one-off, so serial). Ghost planes are left to the halo exchange.
pub fn compute_psi(comp: &mut ComponentState) {
    let grid = comp.grid();
    let (cells, p) = (comp.f.stride(), grid.plane_cells());
    assert_eq!(comp.ueq.stride(), cells);
    let at = LocalGrid::FIRST * p;
    let (f, psi, ueq) = (comp.f.base_ptr(), comp.psi.base_mut_ptr(), comp.ueq.base_mut_ptr());
    // Safety: the interior planes lie inside the window the three arrays
    // share, and the outputs are exclusively borrowed.
    unsafe { moments_raw(f.add(at), cells, psi.add(at), ueq.add(at), cells, grid.nx_local() * p) }
}

/// The moments kernel: for each of `n` consecutive cells, ψ = Σ_i f_i and
/// j_a = Σ_i f_i e_ia, every sum over ascending channels from +0.0 with the
/// `e_ia = 0` terms skipped (they would only add ±0.0 to an accumulator
/// that is never −0.0). AVX2 4 cells at a time where the host has it, the
/// scalar loop for the rest — the same additions in the same order.
///
/// # Safety
///
/// `f` must point at channel 0 of the first cell of a Q-channel
/// channel-major array of channel stride `f_stride`, `psi` at the first
/// cell's ψ and `j` at axis 0 of the first cell of a 3-channel array of
/// channel stride `j_stride`, all valid for `n` cells per channel; outputs
/// must not overlap `f`, and no other thread may access them meanwhile.
pub(crate) unsafe fn moments_raw(
    f: *const f64,
    f_stride: usize,
    psi: *mut f64,
    j: *mut f64,
    j_stride: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    let done = if crate::simd::avx2_available() {
        crate::simd::moments_avx2(f, f_stride, psi, j, j_stride, n)
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for cell in done..n {
        let at = |i: usize| *f.add(i * f_stride + cell);
        *psi.add(cell) = (0..D3Q19::Q).fold(0.0, |acc, i| acc + at(i));
        for a in 0..3 {
            *j.add(a * j_stride + cell) = MOMENTUM_TERMS[a].iter().fold(0.0, |acc, &(i, e)| acc + at(i) * e);
        }
    }
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

/// Number-momentum of one component at `cell`: `Σ_i f_i e_i` (multiply by
/// `m_σ` for mass momentum) — the per-cell definition the moments kernel
/// is held to.
#[inline]
pub fn raw_momentum(comp: &ComponentState, cell: usize) -> [f64; 3] {
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
    /// [captured into](Self::capture_into).
    pub fn zeros(x0: usize, nx: usize, ny: usize, nz: usize, ncomp: usize) -> Snapshot {
        let n = nx * ny * nz;
        Snapshot { x0, nx, ny, nz, rho: vec![vec![0.0; n]; ncomp], velocity: vec![0.0; 3 * n] }
    }

    /// Captures the interior of a slab. `x0` is the slab's global offset.
    pub fn capture(comps: &[ComponentState], x0: usize) -> Snapshot {
        let grid = comps[0].grid();
        let mut out = Snapshot::zeros(x0, grid.nx_local(), grid.ny, grid.nz, comps.len());
        out.capture_into(comps, x0);
        out
    }

    /// Captures the interior of the slab at global offset `x0` straight
    /// into its planes of `self` — how slabs that tile a channel become one
    /// snapshot without a per-slab copy in between ([`stitch`](Self::stitch)
    /// is the same for snapshots that already exist). Panics if the slab
    /// does not lie inside `self` or disagrees on lateral extent or
    /// component count.
    pub fn capture_into(&mut self, comps: &[ComponentState], x0: usize) {
        let grid = comps[0].grid();
        let (ny, nz) = (grid.ny, grid.nz);
        assert!((ny, nz, comps.len()) == (self.ny, self.nz, self.rho.len()));
        assert!(
            x0 >= self.x0 && x0 + grid.nx_local() <= self.x0 + self.nx,
            "slab lies outside the snapshot"
        );
        let p = grid.plane_cells();
        // Plane by plane: j from the moments kernel into a scratch (`ueq`,
        // where a phase keeps j, is live at a phase boundary; the ψ the
        // kernel also produces goes unused — `psi` is the state's own), the
        // momentum summed in place in `velocity`, the components
        // accumulating per cell in ascending order.
        let mut j = vec![0.0f64; 4 * p];
        for xl in LocalGrid::FIRST..=grid.last() {
            let (here, out) = (xl * p..(xl + 1) * p, (x0 - self.x0 + xl - 1) * p);
            let u = &mut self.velocity[3 * out..3 * (out + p)];
            u.fill(0.0);
            for (c, rho) in comps.iter().zip(self.rho.iter_mut()) {
                let m = c.spec.mass;
                // Safety: plane `xl` lies in the window of `f`; the scratch
                // holds 3 + 1 channels of `p` cells.
                unsafe {
                    let j = j.as_mut_ptr();
                    moments_raw(c.f.base_ptr().add(here.start), c.f.stride(), j.add(3 * p), j, p, p)
                };
                for (rho, psi) in rho[out..out + p].iter_mut().zip(&c.psi.channel(0)[here.clone()]) {
                    *rho = m * psi;
                }
                for a in 0..3 {
                    let force = &c.force.channel(a)[here.clone()];
                    for (q, u) in u.chunks_exact_mut(3).enumerate() {
                        u[a] += m * j[a * p + q] + 0.5 * force[q];
                    }
                }
            }
            for (q, u) in u.chunks_exact_mut(3).enumerate() {
                let rho_tot = self.rho.iter().fold(0.0, |tot, rho| tot + rho[out + q]);
                for a in 0..3 {
                    u[a] = if rho_tot > 0.0 { u[a] / rho_tot } else { 0.0 };
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;

    #[test]
    fn psi_matches_population_sum() {
        let grid = LocalGrid::new(3, 2, 2);
        let mut c = ComponentState::new(ComponentSpec::water(), grid);
        for cell in 0..grid.cells() {
            for i in 0..D3Q19::Q {
                c.f.set(i, cell, (i + 1) as f64 * 0.01);
            }
        }
        compute_psi(&mut c);
        let want: f64 = (1..=19).map(|i| i as f64 * 0.01).sum();
        let cell = grid.idx(1, 1, 1);
        assert!((c.psi.at(0, cell) - want).abs() < 1e-12);
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
    fn capture_and_stitch_roundtrip() {
        // Two slabs covering x ∈ [0,2) and [2,5) must stitch into the same
        // snapshot as a direct capture of the union.
        let specs = [ComponentSpec::water(), ComponentSpec::air()];
        let make = |nx: usize, seed: usize| -> Vec<ComponentState> {
            specs
                .iter()
                .map(|s| {
                    let grid = LocalGrid::new(nx, 2, 2);
                    let mut c = ComponentState::new(s.clone(), grid);
                    c.init_uniform(1.0 + seed as f64 * 0.1, [0.0; 3]);
                    compute_psi(&mut c);
                    c
                })
                .collect()
        };
        let a = Snapshot::capture(&make(2, 1), 0);
        let b = Snapshot::capture(&make(3, 2), 2);
        let joined = Snapshot::stitch(vec![b.clone(), a.clone()]);
        assert_eq!(joined.nx, 5);
        assert_eq!(joined.rho[0][0], a.rho[0][0]);
        let base = 2 * 2 * 2;
        assert_eq!(joined.rho[0][base], b.rho[0][0]);
        assert_eq!(joined.u(0), a.u(0));
        // Capturing each slab straight into place gives the same snapshot,
        // in either order.
        let mut direct = Snapshot::zeros(0, 5, 2, 2, 2);
        direct.capture_into(&make(3, 2), 2);
        direct.capture_into(&make(2, 1), 0);
        assert_eq!(direct, joined);
    }

    #[test]
    #[should_panic(expected = "outside the snapshot")]
    fn capture_into_rejects_a_slab_past_the_end() {
        let grid = LocalGrid::new(3, 2, 2);
        let c = ComponentState::new(ComponentSpec::water(), grid);
        Snapshot::zeros(0, 4, 2, 2, 1).capture_into(std::slice::from_ref(&c), 2);
    }

    #[test]
    #[should_panic(expected = "tile contiguously")]
    fn stitch_rejects_gaps() {
        let specs = [ComponentSpec::water()];
        let make = |nx: usize| -> Vec<ComponentState> {
            specs
                .iter()
                .map(|s| {
                    let grid = LocalGrid::new(nx, 2, 2);
                    let mut c = ComponentState::new(s.clone(), grid);
                    c.init_uniform(1.0, [0.0; 3]);
                    c
                })
                .collect()
        };
        let a = Snapshot::capture(&make(2), 0);
        let b = Snapshot::capture(&make(2), 3); // gap at x=2
        Snapshot::stitch(vec![a, b]);
    }

    #[test]
    fn velocity_includes_half_force() {
        let grid = LocalGrid::new(3, 2, 2);
        let mut c = ComponentState::new(ComponentSpec::water(), grid);
        c.init_uniform(2.0, [0.0; 3]);
        compute_psi(&mut c);
        let cell = grid.idx(1, 0, 0);
        c.force.set(0, cell, 0.4);
        let snap = Snapshot::capture(std::slice::from_ref(&c), 0);
        // u = (0 + 0.5·0.4) / 2.0 = 0.1 at the forced cell.
        assert!((snap.u(0)[0] - 0.1).abs() < 1e-14);
    }
}
