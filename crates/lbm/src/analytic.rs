//! Analytic reference solutions used to validate the solver.
//!
//! Steady, body-force-driven laminar flow admits closed forms against which
//! the LBM steady state is checked: plane Poiseuille flow between parallel
//! plates (the 2-D validation) and the classic double-cosh series for a
//! rectangular duct (the 3-D channel cross-section).

use std::f64::consts::PI;

/// Plane Poiseuille velocity at wall distance `d` for plate separation `h`,
/// driving acceleration `g` and kinematic viscosity `nu`:
/// `u(d) = g/(2ν) · d (h − d)`.
pub fn plane_poiseuille(d: f64, h: f64, g: f64, nu: f64) -> f64 {
    g / (2.0 * nu) * d * (h - d)
}

/// Plane Poiseuille flow with symmetric Navier slip conditions
/// `u_wall = b · ∂u/∂n` on both plates: at wall distance `d` for plate
/// separation `h`, driving acceleration `g`, kinematic viscosity `nu` and
/// slip length `b`,
///
/// ```text
/// u(d) = g/(2ν) · (d (h − d) + b h).
/// ```
///
/// `b = 0` recovers [`plane_poiseuille`]; `b → ∞` plug flow.
pub fn slip_poiseuille(d: f64, h: f64, g: f64, nu: f64, b: f64) -> f64 {
    g / (2.0 * nu) * (d * (h - d) + b * h)
}

/// Slip length of the tunable-slip boundary condition (Ahmed & Hecht,
/// arXiv:0907.2877): a per-link convex mix of bounce-back (weight `r`) and
/// specular reflection produces Navier slip with
///
/// ```text
/// b(r) = 3ν (1 − r)/r = (2τ − 1)(1 − r)/(2 r)
/// ```
///
/// in lattice units (`ν = (2τ − 1)/6` the BGK viscosity). `r = 1` is
/// no-slip, `r → 0` diverges toward free slip. Continuum-limit form: the
/// measured discrete slip carries an O(1/H) offset from the finite channel
/// height, which validation removes by applying the *same* finite-sample
/// estimator to this analytic profile and to the simulation.
pub fn tunable_slip_length(r: f64, tau: f64) -> f64 {
    assert!(r > 0.0 && r <= 1.0, "reflection fraction must be in (0, 1]");
    assert!(tau > 0.5, "tau must exceed 1/2");
    (2.0 * tau - 1.0) * (1.0 - r) / (2.0 * r)
}

/// Bracketing bounds on the effective slip length of a wall patterned
/// with alternating stripes of local slip lengths `b_a` and `b_b`
/// (arXiv:0910.2637): whatever the stripe period, the homogenized slip of
/// the mixed wall lies strictly between the two uniform walls' values
/// (equality only when `b_a = b_b`). Returns `(lower, upper)`.
pub fn striped_slip_bounds(b_a: f64, b_b: f64) -> (f64, f64) {
    (b_a.min(b_b), b_a.max(b_b))
}

/// Steady streamwise velocity in a rectangular duct `|y| ≤ a`, `|z| ≤ b`
/// with no-slip walls, driving acceleration `g` and kinematic viscosity
/// `nu` (series truncated at `terms` odd modes):
///
/// ```text
/// u(y,z) = (16 a² g)/(ν π³) Σ_{n odd} (−1)^{(n−1)/2}/n³ ·
///          [1 − cosh(nπz/2a)/cosh(nπb/2a)] · cos(nπy/2a)
/// ```
pub fn duct_velocity(y: f64, z: f64, a: f64, b: f64, g: f64, nu: f64, terms: usize) -> f64 {
    assert!(a > 0.0 && b > 0.0 && nu > 0.0);
    let mut sum = 0.0;
    for k in 0..terms {
        let n = (2 * k + 1) as f64;
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        let lam = n * PI / (2.0 * a);
        // cosh ratio computed via exp to stay finite for large arguments.
        let ratio = cosh_ratio(lam * z, lam * b);
        sum += sign / (n * n * n) * (1.0 - ratio) * (lam * y).cos();
    }
    16.0 * a * a * g / (nu * PI * PI * PI) * sum
}

/// `cosh(x)/cosh(xm)` for `|x| ≤ xm`, overflow-safe.
fn cosh_ratio(x: f64, xm: f64) -> f64 {
    debug_assert!(x.abs() <= xm + 1e-12);
    // cosh(x)/cosh(xm) = e^{x-xm} (1+e^{-2x}) / (1+e^{-2xm}) for x ≥ 0.
    let x = x.abs();
    (x - xm).exp() * (1.0 + (-2.0 * x).exp()) / (1.0 + (-2.0 * xm).exp())
}

/// Mean error metrics between a numeric profile and an analytic reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileError {
    /// Relative L2 error: ‖num − ref‖₂ / ‖ref‖₂.
    pub l2: f64,
    /// Relative L∞ error.
    pub linf: f64,
}

/// Compares paired samples, returning relative L2/L∞ errors.
pub fn compare(numeric: &[f64], reference: &[f64]) -> ProfileError {
    assert_eq!(numeric.len(), reference.len());
    assert!(!numeric.is_empty());
    let mut d2 = 0.0;
    let mut r2 = 0.0;
    let mut dinf = 0.0f64;
    let mut rinf = 0.0f64;
    for (&n, &r) in numeric.iter().zip(reference) {
        d2 += (n - r) * (n - r);
        r2 += r * r;
        dinf = dinf.max((n - r).abs());
        rinf = rinf.max(r.abs());
    }
    ProfileError { l2: (d2 / r2).sqrt(), linf: dinf / rinf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_poiseuille_properties() {
        let (h, g, nu) = (10.0, 1e-5, 1.0 / 6.0);
        // Zero at the walls.
        assert_eq!(plane_poiseuille(0.0, h, g, nu), 0.0);
        assert_eq!(plane_poiseuille(h, h, g, nu), 0.0);
        // Maximum at the centerline is g h² / (8ν).
        let umax = plane_poiseuille(h / 2.0, h, g, nu);
        assert!((umax - g * h * h / (8.0 * nu)).abs() < 1e-18);
        // Symmetric.
        assert!((plane_poiseuille(2.0, h, g, nu) - plane_poiseuille(8.0, h, g, nu)).abs() < 1e-18);
    }

    #[test]
    fn slip_poiseuille_limits() {
        let (h, g, nu) = (16.0, 1e-6, 1.0 / 6.0);
        // b = 0 recovers the no-slip profile everywhere.
        for &d in &[0.0, 3.0, 8.0, 16.0] {
            assert_eq!(slip_poiseuille(d, h, g, nu, 0.0), plane_poiseuille(d, h, g, nu));
        }
        // Finite b: uniform offset g b h / (2ν) above no-slip, so the wall
        // velocity is nonzero and the profile stays symmetric.
        let b = 0.5;
        let off = g * b * h / (2.0 * nu);
        assert!((slip_poiseuille(0.0, h, g, nu, b) - off).abs() < 1e-18);
        assert!(
            (slip_poiseuille(4.0, h, g, nu, b) - slip_poiseuille(12.0, h, g, nu, b)).abs() < 1e-18
        );
    }

    #[test]
    fn tunable_slip_length_properties() {
        let tau = 1.0;
        // r = 1 is pure bounce-back: no slip.
        assert_eq!(tunable_slip_length(1.0, tau), 0.0);
        // Matches b = 3ν(1−r)/r with ν = (2τ−1)/6.
        let nu = (2.0 * tau - 1.0) / 6.0;
        for &r in &[0.3, 0.5, 0.8] {
            let b = tunable_slip_length(r, tau);
            assert!((b - 3.0 * nu * (1.0 - r) / r).abs() < 1e-15);
        }
        // Monotone: more specular reflection means more slip.
        assert!(tunable_slip_length(0.3, tau) > tunable_slip_length(0.5, tau));
        assert!(tunable_slip_length(0.5, tau) > tunable_slip_length(0.8, tau));
        // Viscosity scaling through tau.
        assert!(tunable_slip_length(0.5, 1.5) > tunable_slip_length(0.5, 1.0));
    }

    #[test]
    fn striped_bounds_are_ordered() {
        let (lo, hi) = striped_slip_bounds(tunable_slip_length(0.2, 1.0), 0.0);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0);
        let (lo, hi) = striped_slip_bounds(0.25, 0.75);
        assert_eq!((lo, hi), (0.25, 0.75));
    }

    #[test]
    fn duct_vanishes_on_walls() {
        let (a, b, g, nu) = (1.0, 0.4, 1.0, 1.0);
        for &z in &[-0.4, 0.0, 0.3] {
            let u = duct_velocity(a, z, a, b, g, nu, 80);
            assert!(u.abs() < 1e-8, "u(y=a, z={z}) = {u}");
        }
        for &y in &[-0.9, 0.0, 0.7] {
            let u = duct_velocity(y, b, a, b, g, nu, 400);
            assert!(u.abs() < 2e-3, "u(y={y}, z=b) = {u}");
        }
    }

    #[test]
    fn duct_maximum_at_center() {
        let (a, b, g, nu) = (1.0, 0.5, 2.0, 0.3);
        let uc = duct_velocity(0.0, 0.0, a, b, g, nu, 60);
        for &(y, z) in &[(0.3, 0.0), (0.0, 0.2), (-0.5, -0.25)] {
            assert!(duct_velocity(y, z, a, b, g, nu, 60) < uc);
        }
        assert!(uc > 0.0);
    }

    #[test]
    fn wide_duct_tends_to_plane_poiseuille() {
        // For b ≫ a, the mid-plane (z=0) profile approaches plane
        // Poiseuille between the y-walls (separation 2a).
        let (a, b, g, nu) = (1.0, 20.0, 1.0, 1.0);
        for &y in &[0.0, 0.5, 0.9] {
            let duct = duct_velocity(y, 0.0, a, b, g, nu, 120);
            let d = y + a; // wall distance
            let plane = plane_poiseuille(d, 2.0 * a, g, nu);
            assert!(
                (duct - plane).abs() / plane.max(1e-12) < 1e-3,
                "y={y}: duct {duct} vs plane {plane}"
            );
        }
    }

    #[test]
    fn series_converges() {
        // The tail decays like 1/n³ with alternating signs: successive
        // refinements must shrink toward the high-order reference.
        let (a, b, g, nu) = (1.0, 0.3, 1.0, 1.0);
        let u_ref = duct_velocity(0.2, 0.1, a, b, g, nu, 4000);
        let e100 = (duct_velocity(0.2, 0.1, a, b, g, nu, 100) - u_ref).abs();
        let e800 = (duct_velocity(0.2, 0.1, a, b, g, nu, 800) - u_ref).abs();
        assert!(e800 < e100, "refinement must reduce error: {e100} -> {e800}");
        assert!(e800 / u_ref.abs() < 1e-5, "relative error {e800} too large");
    }

    #[test]
    fn compare_metrics() {
        let e = compare(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        assert_eq!(e.l2, 0.0);
        assert_eq!(e.linf, 0.0);
        let e = compare(&[1.1, 2.0], &[1.0, 2.0]);
        assert!(e.linf > 0.0 && e.l2 > 0.0);
        assert!((e.linf - 0.05).abs() < 1e-12);
    }

    #[test]
    fn cosh_ratio_safe_for_large_args() {
        let r = cosh_ratio(500.0, 1000.0);
        assert!(r.is_finite() && r > 0.0 && r < 1.0);
        assert!((cosh_ratio(3.0, 3.0) - 1.0).abs() < 1e-12);
    }
}
