//! Multiple-relaxation-time (MRT) collision for D3Q19.
//!
//! The d'Humières-style operator: populations are transformed to a moment
//! basis, each moment relaxes toward its equilibrium at its own rate, and
//! the result transforms back:
//!
//! ```text
//! f' = f − Mᵀ D⁻¹ S M (f − f_eq)
//! ```
//!
//! The 19 basis vectors are built by Gram–Schmidt orthogonalization (plain
//! dot product over the velocity set) of the standard monomials — density,
//! energy, energy², momentum, heat flux, stresses and the third-order
//! "ghost" modes — which reproduces the classical orthogonal basis up to
//! normalization (normalization cancels against `D⁻¹ = diag(‖row‖²)⁻¹`).
//!
//! Equilibrium moments are computed as `M · f_eq(n, u_eq)`, so MRT with
//! every rate equal to `1/τ` reduces to the BGK operator exactly (up to
//! floating-point roundoff) — the regression test pins this down. The
//! hydrodynamic (shear) rates are tied to the component's `τ`; the
//! non-hydrodynamic rates are free stability knobs.

use std::sync::OnceLock;

use crate::collision::Relax;
use crate::lattice::D3Q19;
use crate::simd::V;

pub use microslip_config::component::MrtRates;

const Q: usize = D3Q19::Q;

/// Moment-family index of each basis row, in construction order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Density,
    Energy,
    EnergySq,
    Momentum,
    HeatFlux,
    Shear,
    Pi,
    Ghost3,
}

const FAMILIES: [Family; 19] = [
    Family::Density,  // 1
    Family::Energy,   // |e|²
    Family::EnergySq, // |e|⁴
    Family::Momentum, // e_x
    Family::HeatFlux, // e_x |e|²
    Family::Momentum, // e_y
    Family::HeatFlux, // e_y |e|²
    Family::Momentum, // e_z
    Family::HeatFlux, // e_z |e|²
    Family::Shear,    // 3e_x² − |e|²
    Family::Pi,       // (3e_x² − |e|²)|e|²
    Family::Shear,    // e_y² − e_z²
    Family::Pi,       // (e_y² − e_z²)|e|²
    Family::Shear,    // e_x e_y
    Family::Shear,    // e_y e_z
    Family::Shear,    // e_x e_z
    Family::Ghost3,   // (e_y² − e_z²) e_x
    Family::Ghost3,   // (e_z² − e_x²) e_y
    Family::Ghost3,   // (e_x² − e_y²) e_z
];

/// The orthogonal moment basis: `rows[k][i]` is moment `k`'s weight on
/// velocity `i`, plus the squared norms for the inverse transform.
pub struct MomentBasis {
    pub rows: [[f64; 19]; 19],
    pub norm2: [f64; 19],
}

fn monomials(i: usize) -> [f64; 19] {
    let e = D3Q19::E[i];
    let (x, y, z) = (e[0] as f64, e[1] as f64, e[2] as f64);
    let e2 = x * x + y * y + z * z;
    [
        1.0,
        e2,
        e2 * e2,
        x,
        x * e2,
        y,
        y * e2,
        z,
        z * e2,
        3.0 * x * x - e2,
        (3.0 * x * x - e2) * e2,
        y * y - z * z,
        (y * y - z * z) * e2,
        x * y,
        y * z,
        x * z,
        (y * y - z * z) * x,
        (z * z - x * x) * y,
        (x * x - y * y) * z,
    ]
}

fn build_basis() -> MomentBasis {
    // Start from the monomial rows, then Gram–Schmidt in order.
    let mut rows = [[0.0f64; 19]; 19];
    for i in 0..19 {
        let m = monomials(i);
        for (k, &v) in m.iter().enumerate() {
            rows[k][i] = v;
        }
    }
    let dot = |a: &[f64; 19], b: &[f64; 19]| -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    };
    let mut norm2 = [0.0f64; 19];
    for k in 0..19 {
        for j in 0..k {
            let c = dot(&rows[k].clone(), &rows[j]) / norm2[j];
            for i in 0..19 {
                rows[k][i] -= c * rows[j][i];
            }
        }
        norm2[k] = dot(&rows[k].clone(), &rows[k]);
        assert!(
            norm2[k] > 1e-9,
            "moment basis degenerated at row {k} — monomial set not independent"
        );
    }
    MomentBasis { rows, norm2 }
}

/// The shared, lazily constructed basis.
pub fn basis() -> &'static MomentBasis {
    static BASIS: OnceLock<MomentBasis> = OnceLock::new();
    BASIS.get_or_init(build_basis)
}

/// Per-moment relaxation rates for a component with relaxation time `tau`.
pub fn rate_vector(tau: f64, rates: MrtRates) -> [f64; 19] {
    let omega_nu = 1.0 / tau;
    let mut s = [0.0f64; 19];
    for (k, fam) in FAMILIES.iter().enumerate() {
        s[k] = match fam {
            // Conserved modes still relax toward their equilibria at the
            // BGK rate so the Shan–Chen velocity-shift forcing injects
            // exactly F per step (see ComponentSpec::momentum_tau).
            Family::Density | Family::Momentum => omega_nu,
            Family::Shear => omega_nu,
            Family::Energy => rates.s_e,
            Family::EnergySq => rates.s_eps,
            Family::HeatFlux => rates.s_q,
            Family::Pi => rates.s_pi,
            Family::Ghost3 => rates.s_m,
        };
    }
    s
}

/// The MRT collision as a [`Relax`]: the rate vector of a component and
/// the shared basis. Per cell, n over ascending channels from +0.0, the
/// textbook per-direction `f_eq`, then `Δf` accumulated moment by moment.
pub(crate) struct Mrt {
    s: [f64; 19],
    basis: &'static MomentBasis,
}

impl Mrt {
    pub(crate) fn new(tau: f64, rates: MrtRates) -> Mrt {
        Mrt { s: rate_vector(tau, rates), basis: basis() }
    }
}

impl Relax for Mrt {
    #[inline(always)]
    fn relax<const L: usize>(&self, fi: [V<L>; Q], u: [V<L>; 3], mut store: impl FnMut(usize, V<L>)) {
        let b = self.basis;
        let mut rho = V::splat(0.0);
        for &v in &fi {
            rho = rho + v;
        }
        let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        let mut feq = [V::splat(0.0); Q];
        for i in 0..Q {
            let e = D3Q19::E[i];
            let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
            feq[i] = D3Q19::W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu);
        }
        // Relax in moment space: accumulate the post-collision correction
        // Δf = Mᵀ D⁻¹ S M (f − f_eq) and subtract. A moment already at its
        // equilibrium adds row·(+0.0) terms, ±0.0, to a `delta` that starts
        // at +0.0 and is never −0.0 (round to nearest), so it is added
        // like any other.
        let mut delta = [V::splat(0.0); Q];
        for k in 0..Q {
            let row = &b.rows[k];
            let mut mk = V::splat(0.0);
            for i in 0..Q {
                mk = mk + row[i] * (fi[i] - feq[i]);
            }
            let scaled = self.s[k] * mk / b.norm2[k];
            for i in 0..Q {
                delta[i] = delta[i] + row[i] * scaled;
            }
        }
        for i in 0..Q {
            store(i, fi[i] - delta[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CollisionOperator, ComponentSpec, ComponentState};
    use crate::field::{LocalGrid, SlabArray};

    #[test]
    fn basis_is_orthogonal_and_complete() {
        let b = basis();
        for k in 0..19 {
            for j in 0..k {
                let d: f64 = (0..19).map(|i| b.rows[k][i] * b.rows[j][i]).sum();
                assert!(d.abs() < 1e-9, "rows {k} and {j} not orthogonal: {d}");
            }
            assert!(b.norm2[k] > 0.0);
        }
        // Row 0 is the density moment (all ones).
        assert!(b.rows[0].iter().all(|&v| (v - 1.0).abs() < 1e-12));
        // Momentum rows are the raw velocity components.
        for i in 0..19 {
            assert!((b.rows[3][i] - D3Q19::E[i][0] as f64).abs() < 1e-12);
            assert!((b.rows[5][i] - D3Q19::E[i][1] as f64).abs() < 1e-12);
            assert!((b.rows[7][i] - D3Q19::E[i][2] as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn reconstruction_is_identity() {
        // Mᵀ D⁻¹ M = I: transforming any vector to moments and back
        // reproduces it.
        let b = basis();
        let probe: [f64; 19] =
            core::array::from_fn(|i| 0.1 + (i as f64) * 0.037 - (i as f64).sin() * 0.01);
        let mut back = [0.0f64; 19];
        for k in 0..19 {
            let mk: f64 = (0..19).map(|i| b.rows[k][i] * probe[i]).sum();
            for i in 0..19 {
                back[i] += b.rows[k][i] * mk / b.norm2[k];
            }
        }
        for i in 0..19 {
            assert!((back[i] - probe[i]).abs() < 1e-12, "index {i}");
        }
    }

    /// One MRT collision of every interior cell of `c` at `ueq`.
    fn collide_mrt(c: &mut ComponentState, ueq: &SlabArray, rates: MrtRates) {
        c.spec.collision = CollisionOperator::Mrt(rates);
        crate::collision::collide(c, ueq);
    }

    fn make(collision: CollisionOperator) -> (ComponentState, SlabArray) {
        let grid = LocalGrid::new(3, 4, 3);
        let spec = ComponentSpec { tau: 0.8, collision, ..ComponentSpec::water() };
        let mut c = ComponentState::new(spec, grid);
        c.init_uniform(1.0, [0.0; 3]);
        // Perturb.
        for cell in 0..grid.cells() {
            for i in 0..19 {
                let v = c.f.at(i, cell);
                c.f.set(i, cell, v + 0.01 * ((cell * 5 + i * 3) % 7) as f64 / 7.0);
            }
        }
        // ueq: a mild uniform velocity.
        let mut ueq = SlabArray::new(grid, 3);
        for cell in 0..grid.cells() {
            ueq.set(0, cell, 0.01);
            ueq.set(1, cell, -0.004);
        }
        (c, ueq)
    }

    #[test]
    fn uniform_rates_reduce_to_bgk() {
        let omega = 1.0 / 0.8;
        let (mut bgk, ueq) = make(CollisionOperator::Bgk);
        let mut mrt = bgk.clone();
        crate::collision::collide(&mut bgk, &ueq);
        collide_mrt(&mut mrt, &ueq, MrtRates::uniform(omega));
        let cells = bgk.grid().cells();
        for i in 0..19 {
            for cell in 0..cells {
                let a = bgk.f.at(i, cell);
                let b = mrt.f.at(i, cell);
                assert!(
                    (a - b).abs() < 1e-12,
                    "MRT(uniform) vs BGK at dir {i} cell {cell}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn standard_rates_conserve_mass_and_momentum() {
        let (mut c, mut ueq) = make(CollisionOperator::Bgk);
        // Make ueq the true cell velocity so conservation is exact.
        let grid = c.grid();
        for cell in 0..grid.cells() {
            let mut n = 0.0;
            let mut mom = [0.0f64; 3];
            for i in 0..19 {
                let v = c.f.at(i, cell);
                n += v;
                for a in 0..3 {
                    mom[a] += v * D3Q19::E[i][a] as f64;
                }
            }
            for a in 0..3 {
                ueq.set(a, cell, mom[a] / n);
            }
        }
        let before: Vec<(f64, [f64; 3])> = (0..grid.cells())
            .map(|cell| {
                let mut n = 0.0;
                let mut mom = [0.0f64; 3];
                for i in 0..19 {
                    let v = c.f.at(i, cell);
                    n += v;
                    for a in 0..3 {
                        mom[a] += v * D3Q19::E[i][a] as f64;
                    }
                }
                (n, mom)
            })
            .collect();
        collide_mrt(&mut c, &ueq, MrtRates::standard());
        for cell in 0..grid.cells() {
            let mut n = 0.0;
            let mut mom = [0.0f64; 3];
            for i in 0..19 {
                let v = c.f.at(i, cell);
                n += v;
                for a in 0..3 {
                    mom[a] += v * D3Q19::E[i][a] as f64;
                }
            }
            let (n0, m0) = before[cell];
            assert!((n - n0).abs() < 1e-12, "mass at {cell}");
            for a in 0..3 {
                assert!((mom[a] - m0[a]).abs() < 1e-12, "momentum at {cell}");
            }
        }
    }

    #[test]
    fn ghost_rates_change_only_ghost_modes() {
        // Two MRT collisions differing only in ghost rates must produce
        // the same hydrodynamic moments (density, momentum, stress).
        let (mut a, ueq) = make(CollisionOperator::Bgk);
        let mut b = a.clone();
        collide_mrt(&mut a, &ueq, MrtRates::standard());
        collide_mrt(&mut b, &ueq, MrtRates { s_e: 1.0, s_eps: 1.0, s_q: 1.0, s_pi: 1.0, s_m: 1.0 });
        let bas = basis();
        let cells = a.grid().cells();
        let hydro_rows = [0usize, 3, 5, 7, 9, 11, 13, 14, 15];
        for cell in 0..cells {
            for &k in &hydro_rows {
                let ma: f64 = (0..19).map(|i| bas.rows[k][i] * a.f.at(i, cell)).sum();
                let mb: f64 = (0..19).map(|i| bas.rows[k][i] * b.f.at(i, cell)).sum();
                assert!(
                    (ma - mb).abs() < 1e-12,
                    "hydrodynamic moment {k} differs at cell {cell}"
                );
            }
        }
    }
}
