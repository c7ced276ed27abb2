//! Interaction potentials ψ(n) for the Shan–Chen force.
//!
//! The paper (§2.1): "The choice of ψ determines the equation of state of
//! the system under study. By selecting different functions G and ψ,
//! various fluid mixtures and multiphase flows can be simulated."
//!
//! Two standard choices are provided:
//!
//! * [`PsiFn::Linear`] — ψ(n) = n, the ideal-mixture choice used for the
//!   paper's water–air system (cross coupling only);
//! * [`PsiFn::ShanChen`] — ψ(n) = n₀ (1 − e^{−n/n₀}), the original
//!   Shan–Chen 1993 potential whose bounded ψ produces a non-monotone
//!   equation of state under a sufficiently strong *attractive* self
//!   coupling, i.e. liquid–vapor phase separation.
//!
//! With nearest-neighbor Green's function `G_ab(x, x+e_i) = g_ab w_i`, the
//! bulk equation of state is
//!
//! ```text
//! p(n) = c_s² n + (c_s²/2) Σ_ab g_ab ψ_a(n_a) ψ_b(n_b) .
//! ```

use crate::CS2;

/// The ψ(n) functional form of one component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PsiFn {
    /// ψ(n) = n (ideal mixture; the paper's choice).
    Linear,
    /// ψ(n) = n₀ (1 − e^{−n/n₀}) (Shan & Chen 1993).
    ShanChen {
        /// Saturation density n₀.
        n0: f64,
    },
}

impl PsiFn {
    /// Evaluates ψ(n).
    #[inline(always)]
    pub fn eval(&self, n: f64) -> f64 {
        match *self {
            PsiFn::Linear => n,
            PsiFn::ShanChen { n0 } => n0 * (1.0 - (-n / n0).exp()),
        }
    }

    /// dψ/dn.
    pub fn derivative(&self, n: f64) -> f64 {
        match *self {
            PsiFn::Linear => 1.0,
            PsiFn::ShanChen { n0 } => (-n / n0).exp(),
        }
    }
}

/// Bulk pressure of a single component with self coupling `g` at number
/// density `n`: `p = c_s² n + (c_s²/2) g ψ(n)²`.
pub fn bulk_pressure(psi: PsiFn, g: f64, n: f64) -> f64 {
    let p = psi.eval(n);
    CS2 * n + 0.5 * CS2 * g * p * p
}

/// dp/dn of [`bulk_pressure`]; the EOS is non-monotone (phase separation
/// possible) wherever this is negative.
pub fn bulk_compressibility(psi: PsiFn, g: f64, n: f64) -> f64 {
    CS2 * (1.0 + g * psi.eval(n) * psi.derivative(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_identity() {
        let p = PsiFn::Linear;
        for &n in &[0.0, 0.5, 1.7] {
            assert_eq!(p.eval(n), n);
            assert_eq!(p.derivative(n), 1.0);
        }
    }

    #[test]
    fn shan_chen_saturates() {
        let p = PsiFn::ShanChen { n0: 1.0 };
        assert_eq!(p.eval(0.0), 0.0);
        assert!(p.eval(10.0) < 1.0);
        assert!(p.eval(10.0) > 0.9999);
        // Monotone increasing.
        assert!(p.eval(0.5) < p.eval(1.0));
        // Slope 1 at the origin, decaying.
        assert!((p.derivative(0.0) - 1.0).abs() < 1e-12);
        assert!(p.derivative(2.0) < p.derivative(1.0));
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let p = PsiFn::ShanChen { n0: 0.8 };
        for &n in &[0.1, 0.7, 1.5, 3.0] {
            let h = 1e-6;
            let fd = (p.eval(n + h) - p.eval(n - h)) / (2.0 * h);
            assert!((p.derivative(n) - fd).abs() < 1e-8, "at n={n}");
        }
    }

    #[test]
    fn ideal_gas_without_coupling() {
        for &n in &[0.2, 1.0, 2.5] {
            let p = bulk_pressure(PsiFn::Linear, 0.0, n);
            assert!((p - CS2 * n).abs() < 1e-15);
            assert!(bulk_compressibility(PsiFn::Linear, 0.0, n) > 0.0);
        }
    }

    #[test]
    fn critical_coupling_marks_monotonicity_loss() {
        let n0 = 1.0;
        let psi = PsiFn::ShanChen { n0 };
        // The Shan–Chen EOS turns non-monotone below (more negative than)
        // g_crit: for ψ = n₀(1 − e^{−n/n₀}) the maximum of ψψ′ is n₀/4 (at
        // n = n₀ ln 2), so g_crit = −4/n₀.
        let gc = -4.0 / n0;
        // Slightly above critical (less attractive): EOS stays monotone.
        let g_stable = gc * 0.95;
        let all_positive = (1..200)
            .map(|k| k as f64 * 0.02)
            .all(|n| bulk_compressibility(psi, g_stable, n) > 0.0);
        assert!(all_positive, "EOS should be monotone above g_crit");
        // Past critical: a spinodal region (dp/dn < 0) must exist.
        let g_unstable = gc * 1.3;
        let any_negative = (1..200)
            .map(|k| k as f64 * 0.02)
            .any(|n| bulk_compressibility(psi, g_unstable, n) < 0.0);
        assert!(any_negative, "EOS should be non-monotone past g_crit");
    }

    #[test]
    fn spinodal_sits_near_n0_ln2() {
        // The compressibility minimum of the S-C potential is at
        // n = n₀ ln 2, where ψψ' peaks.
        let n0 = 1.0;
        let psi = PsiFn::ShanChen { n0 };
        let g = 1.0; // sign-free probe of ψψ' via compressibility slope
        let f = |n: f64| bulk_compressibility(psi, g, n);
        let peak = n0 * std::f64::consts::LN_2;
        assert!(f(peak) > f(peak - 0.2));
        assert!(f(peak) > f(peak + 0.2));
    }
}
