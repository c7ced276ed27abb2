//! Equilibrium distribution functions.
//!
//! The multicomponent LBGK model relaxes each component toward the
//! second-order Maxwell–Boltzmann expansion
//!
//! ```text
//! f_i^eq(n, u) = w_i · n · [ 1 + 3 (e_i·u) + 9/2 (e_i·u)² − 3/2 (u·u) ]
//! ```
//!
//! evaluated at the component's *equilibrium velocity* `u = u_σ^eq`
//! (common velocity plus the Shan–Chen force shift, see
//! [`crate::multicomponent`]). `n` is the component number density.

use crate::lattice::D3Q19;

/// Evaluates `f_i^eq` for one discrete velocity `i`.
#[inline(always)]
pub fn feq_i(i: usize, n: f64, u: [f64; 3]) -> f64 {
    let e = D3Q19::E[i];
    let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
    let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    D3Q19::W[i] * n * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu)
}

/// Fills `out[0..Q]` with the full equilibrium set for `(n, u)`.
#[inline]
pub fn feq_all(n: f64, u: [f64; 3], out: &mut [f64]) {
    assert_eq!(out.len(), D3Q19::Q);
    let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    for i in 0..D3Q19::Q {
        let e = D3Q19::E[i];
        let eu = e[0] as f64 * u[0] + e[1] as f64 * u[1] + e[2] as f64 * u[2];
        out[i] = D3Q19::W[i] * n * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::CS2;

    fn moments(n: f64, u: [f64; 3]) -> (f64, [f64; 3], [[f64; 3]; 3]) {
        let mut f = vec![0.0; D3Q19::Q];
        feq_all(n, u, &mut f);
        let mut m0 = 0.0;
        let mut m1 = [0.0; 3];
        let mut m2 = [[0.0; 3]; 3];
        for i in 0..D3Q19::Q {
            m0 += f[i];
            for a in 0..3 {
                m1[a] += f[i] * D3Q19::E[i][a] as f64;
                for b in 0..3 {
                    m2[a][b] += f[i] * (D3Q19::E[i][a] * D3Q19::E[i][b]) as f64;
                }
            }
        }
        (m0, m1, m2)
    }

    #[test]
    fn zeroth_and_first_moments_exact() {
        for &(n, u) in &[
            (1.0, [0.0, 0.0, 0.0]),
            (0.7, [0.03, -0.01, 0.02]),
            (2.5, [-0.05, 0.04, 0.0]),
        ] {
            let (m0, m1, _) = moments(n, u);
            assert!((m0 - n).abs() < 1e-14, "mass moment");
            for a in 0..3 {
                assert!((m1[a] - n * u[a]).abs() < 1e-14, "momentum moment axis {a}");
            }
        }
    }

    #[test]
    fn second_moment_to_second_order() {
        let n = 1.2;
        let u = [0.02, -0.015, 0.01];
        let (_, _, m2) = moments(n, u);
        for a in 0..3 {
            for b in 0..3 {
                let want = n * (CS2 * f64::from(a == b) + u[a] * u[b]);
                assert!(
                    (m2[a][b] - want).abs() < 1e-12,
                    "pressure tensor [{a}][{b}]: {} vs {want}",
                    m2[a][b]
                );
            }
        }
    }

    #[test]
    fn rest_state_equals_weights() {
        let mut f = vec![0.0; D3Q19::Q];
        feq_all(1.0, [0.0; 3], &mut f);
        for i in 0..D3Q19::Q {
            assert!((f[i] - D3Q19::W[i]).abs() < 1e-16);
        }
    }

    #[test]
    fn feq_i_matches_feq_all() {
        let n = 1.1;
        let u = [0.01, 0.02, -0.03];
        let mut f = vec![0.0; D3Q19::Q];
        feq_all(n, u, &mut f);
        for i in 0..D3Q19::Q {
            assert_eq!(f[i], feq_i(i, n, u));
        }
    }

    #[test]
    fn equilibrium_positive_for_moderate_velocity() {
        let mut f = vec![0.0; D3Q19::Q];
        feq_all(1.0, [0.1, 0.1, 0.1], &mut f);
        assert!(f.iter().all(|&v| v > 0.0));
    }
}
