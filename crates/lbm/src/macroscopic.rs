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

use crate::component::ComponentState;
use crate::field::LocalGrid;
use crate::lattice::{Lattice, D3Q19};

/// Recomputes ψ (number density) at every interior cell from the current
/// populations. Ghost planes are left untouched (they are refreshed by the
/// halo exchange that follows in the phase).
pub fn compute_psi(comp: &mut ComponentState) {
    compute_psi_with(comp, crate::par::Parallelism::serial());
}

/// [`compute_psi`] with a thread budget: the interior cell range is split
/// into plane chunks summed concurrently. Per-cell channel sums keep their
/// serial accumulation order (directions ascending), so the result is
/// bitwise identical at any thread count.
pub(crate) fn compute_psi_with(comp: &mut ComponentState, par: crate::par::Parallelism) {
    let grid = comp.grid();
    let cells = comp.f.stride();
    let p = grid.plane_cells();
    let par = par.effective();
    let chunks = par.plane_chunks(LocalGrid::FIRST, grid.last());
    let f = crate::par::ConstPtr::new(comp.f.base_ptr());
    let psi = crate::par::SendPtr::new(comp.psi.channel_mut(0).as_mut_ptr());
    par.run_cell_chunks(&chunks, p, |range| {
        // Safety: chunks are disjoint cell ranges of ψ; `f` is read-only.
        unsafe { compute_psi_cells_raw(f.get(), psi.get(), cells, range) }
    });
}

/// Sums the Q population channels into ψ over the cells of `range`.
///
/// # Safety
///
/// `f` must point to the window base of a Q-channel channel-major array
/// of channel stride `cells` and `psi` to a single channel, both windows
/// of at least `range.end` cells; no other thread may write the ψ cells of
/// `range` during the call.
unsafe fn compute_psi_cells_raw(
    f: *const f64,
    psi: *mut f64,
    cells: usize,
    range: core::ops::Range<usize>,
) {
    // AVX2 4-cells-at-a-time when available (bitwise identical — per cell
    // the channels add in the same ascending order); scalar remainder.
    #[cfg(target_arch = "x86_64")]
    let range = if crate::simd::avx2_available() {
        crate::simd::sum_channels_avx2(f, psi, cells, range)
    } else {
        range
    };
    for cell in range.clone() {
        *psi.add(cell) = 0.0;
    }
    for i in 0..D3Q19::Q {
        let ch = f.add(i * cells);
        for cell in range.clone() {
            *psi.add(cell) += *ch.add(cell);
        }
    }
}

/// Number-momentum of one component at `cell`: `Σ_i f_i e_i` (multiply by
/// `m_σ` for mass momentum).
#[inline]
pub fn raw_momentum(comp: &ComponentState, cell: usize) -> [f64; 3] {
    assert!(cell < comp.grid().cells());
    // Safety: `cell` lies in the window of the component's own array.
    unsafe { raw_momentum_raw(comp.f.base_ptr(), comp.f.stride(), cell) }
}

/// [`raw_momentum`] on a raw channel-major `f` array.
///
/// # Safety
///
/// `f` must point to the window base of a Q-channel channel-major array
/// of channel stride `cells` and `cell` must lie in the window.
#[inline]
pub(crate) unsafe fn raw_momentum_raw(f: *const f64, cells: usize, cell: usize) -> [f64; 3] {
    let mut m = [0.0f64; 3];
    for i in 1..D3Q19::Q {
        let v = *f.add(i * cells + cell);
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
        let first = x0 - self.x0;
        for xl in LocalGrid::FIRST..=grid.last() {
            for y in 0..ny {
                for z in 0..nz {
                    let lcell = grid.idx(xl, y, z);
                    let ocell = ((first + xl - 1) * ny + y) * nz + z;
                    let mut rho_tot = 0.0;
                    let mut mom = [0.0f64; 3];
                    for (s, c) in comps.iter().enumerate() {
                        let m = c.spec.mass;
                        let r = m * c.psi.at(0, lcell);
                        self.rho[s][ocell] = r;
                        rho_tot += r;
                        let raw = raw_momentum(c, lcell);
                        for a in 0..3 {
                            mom[a] += m * raw[a] + 0.5 * c.force.at(a, lcell);
                        }
                    }
                    for a in 0..3 {
                        self.velocity[3 * ocell + a] =
                            if rho_tot > 0.0 { mom[a] / rho_tot } else { 0.0 };
                    }
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
