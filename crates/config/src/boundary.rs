//! Pluggable wall boundary conditions for the channel's y-walls.
//!
//! The paper's channel has exactly one wall model: halfway bounce-back
//! (no-slip) plus the hydrophobic wall *force*. The related literature
//! treats the wall law itself as the experiment, and this module makes it
//! a first-class, sweepable scenario axis:
//!
//! * [`WallBc::BounceBack`] — the paper's halfway bounce-back rule, the
//!   default. Streaming takes exactly the code path it took before this
//!   module existed, so the default is bitwise-unchanged.
//! * [`WallBc::TunableSlip`] — a per-link convex mix of bounce-back and
//!   specular reflection with reflection fraction `r` (Ahmed & Hecht,
//!   arXiv:0907.2877): `r = 1` is pure bounce-back (no slip), `r = 0` is
//!   pure specular reflection (free slip), and in between the slip length
//!   is the known analytic function
//!   `b(r) = (2τ−1)(1−r)/(2r)` (`microslip_lbm::analytic::tunable_slip_length`).
//! * [`WallBc::PatternedSlip`] — alternating stripes of two reflection
//!   fractions along the streamwise (x) direction, the lattice analogue of
//!   flow along a striped superhydrophobic surface (arXiv:0910.2637). The
//!   stripe pattern is keyed by *global* x, so it is invariant under slab
//!   decomposition and plane migration.
//! * [`WallBc::RoughWall`] — geometry-derived roughness à la Kunert &
//!   Harting (arXiv:0709.3966): solid [`SolidRegion`] elements attached to
//!   the walls, merged into the obstacle mask, with ordinary bounce-back
//!   at every solid surface.
//!
//! Under [`TunableSlip`](WallBc::TunableSlip) and
//! [`PatternedSlip`](WallBc::PatternedSlip) the z-walls switch to pure
//! specular reflection (free slip), which makes the flow z-independent —
//! the pseudo-2-D setup of the source papers, whose exact continuum
//! reference is plane Poiseuille flow with Navier slip conditions
//! (`microslip_lbm::analytic::slip_poiseuille`).
//!
//! Corner convention: wherever the specular image of a population would
//! itself lie outside the fluid (the four wall–wall edge lines, reachable
//! only by the `e_x = 0, e_y ≠ 0, e_z ≠ 0` channels 15–18), the rule
//! degrades to full bounce-back regardless of `r` — there the double
//! mirror equals the velocity reversal, and this choice keeps the pull map
//! a (convexly weighted) bijection on populations, i.e. mass-conserving.
//!
//! The codec surface (untrusted bytes → [`WallBc`]) lives in the
//! [`codec`] submodule. The streaming sweep's resolved view of a slip BC
//! is `microslip_lbm::boundary`'s.

pub mod codec;

use crate::geometry::{Dims, SolidRegion};

/// Wall boundary condition applied by the streaming sweep at the y-walls
/// (and, for the slip variants, the z-walls). See the module docs for what
/// each variant models.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum WallBc {
    /// Halfway bounce-back (no-slip) — the paper's rule and the default.
    #[default]
    BounceBack,
    /// Convex bounce-back/specular mix with reflection fraction
    /// `r ∈ [0, 1]` on both y-walls; z-walls specular.
    TunableSlip {
        /// Bounce-back weight per wall link: 1 = no slip, 0 = free slip.
        r: f64,
    },
    /// Alternating stripes of reflection fractions `r_a` / `r_b` along
    /// global x on both y-walls; z-walls specular. Stripe `k` (width
    /// `period` planes, shifted by `phase`) uses `r_a` when `k` is even,
    /// `r_b` when odd, so the channel must hold a whole number of
    /// wavelengths: `nx % (2·period) == 0`.
    PatternedSlip {
        /// Reflection fraction of the even stripes.
        r_a: f64,
        /// Reflection fraction of the odd stripes.
        r_b: f64,
        /// Stripe width in lattice planes (≥ 1).
        period: usize,
        /// Pattern offset in lattice planes.
        phase: usize,
    },
    /// Wall-attached solid roughness elements; fluid bounces back at their
    /// surfaces exactly as at the channel walls.
    RoughWall {
        /// The roughness geometry, merged into the obstacle mask.
        elements: Vec<SolidRegion>,
    },
}

impl WallBc {
    /// Symmetric rectangular roughness: square-wave ridges of the given
    /// `height` (lattice cells) spanning the full z-extent, attached to
    /// both y-walls, with stripe width `period` along x. The standard
    /// Kunert & Harting geometry for rough-channel slip studies, and the
    /// shape the CLI's `--rough-height/--rough-period` flags build.
    pub fn rough_stripes(height: usize, period: usize, dims: Dims) -> WallBc {
        let mut elements = Vec::new();
        if height == 0 || period == 0 {
            return WallBc::RoughWall { elements };
        }
        let mut x = 0;
        while x < dims.nx {
            let end = (x + period).min(dims.nx);
            elements.push(SolidRegion::Block {
                min: [x, 0, 0],
                max: [end, height.min(dims.ny), dims.nz],
            });
            elements.push(SolidRegion::Block {
                min: [x, dims.ny.saturating_sub(height), 0],
                max: [end, dims.ny, dims.nz],
            });
            x += 2 * period;
        }
        WallBc::RoughWall { elements }
    }

    /// Parameter sanity, independent of the channel geometry (the
    /// geometry-coupled checks — pattern periodicity, roughness not
    /// blocking a plane — live in [`crate::ChannelConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        let check_r = |name: &str, r: f64| {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("wall BC: {name} = {r} outside [0, 1]"));
            }
            Ok(())
        };
        match self {
            WallBc::BounceBack => Ok(()),
            WallBc::TunableSlip { r } => check_r("r", *r),
            WallBc::PatternedSlip { r_a, r_b, period, .. } => {
                check_r("r_a", *r_a)?;
                check_r("r_b", *r_b)?;
                if *period == 0 {
                    return Err("wall BC: pattern period must be at least 1".into());
                }
                Ok(())
            }
            WallBc::RoughWall { .. } => Ok(()),
        }
    }

    /// Geometry-coupled validation: the stripe pattern must tile the
    /// periodic x-extent exactly, or the wrap-around seam would change the
    /// physics under decomposition-invariant global-x keying.
    pub fn validate_for(&self, dims: Dims) -> Result<(), String> {
        self.validate()?;
        if let WallBc::PatternedSlip { period, .. } = self {
            // A decoded period can be anything `validate` accepts.
            let wavelength = period.checked_mul(2).unwrap_or(0);
            if wavelength == 0 || !dims.nx.is_multiple_of(wavelength) {
                return Err(format!(
                    "patterned slip: nx = {} is not a multiple of the pattern wavelength {} \
                     (2 × period {period})",
                    dims.nx, wavelength
                ));
            }
        }
        Ok(())
    }

    /// Roughness elements to merge into the solid obstacle mask (empty for
    /// the non-geometric variants).
    #[inline]
    pub fn rough_elements(&self) -> &[SolidRegion] {
        match self {
            WallBc::RoughWall { elements } => elements,
            _ => &[],
        }
    }

    /// The bounce-back weight of the y-walls at global plane `gx`, or
    /// `None` when this BC streams through the classic bounce-back kernels
    /// (BounceBack, RoughWall).
    #[inline]
    pub fn mix_at(&self, gx: usize) -> Option<f64> {
        match *self {
            WallBc::BounceBack | WallBc::RoughWall { .. } => None,
            WallBc::TunableSlip { r } => Some(r),
            WallBc::PatternedSlip { r_a, r_b, period, phase } => {
                let stripe = (gx + phase) / period;
                Some(if stripe.is_multiple_of(2) { r_a } else { r_b })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_bounce_back() {
        assert_eq!(WallBc::default(), WallBc::BounceBack);
        assert!(WallBc::default().mix_at(0).is_none());
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        assert!(WallBc::TunableSlip { r: 0.5 }.validate().is_ok());
        assert!(WallBc::TunableSlip { r: -0.1 }.validate().is_err());
        assert!(WallBc::TunableSlip { r: 1.5 }.validate().is_err());
        assert!(WallBc::TunableSlip { r: f64::NAN }.validate().is_err());
        let p = |r_a, r_b, period| WallBc::PatternedSlip { r_a, r_b, period, phase: 0 };
        assert!(p(1.0, 0.3, 2).validate().is_ok());
        assert!(p(1.2, 0.3, 2).validate().is_err());
        assert!(p(1.0, -0.3, 2).validate().is_err());
        assert!(p(1.0, 0.3, 0).validate().is_err());
    }

    #[test]
    fn pattern_must_tile_the_periodic_x_extent() {
        let bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 3, phase: 0 };
        assert!(bc.validate_for(Dims::new(12, 8, 4)).is_ok());
        assert!(bc.validate_for(Dims::new(16, 8, 4)).is_err(), "16 % 6 != 0");
        assert!(WallBc::TunableSlip { r: 0.7 }.validate_for(Dims::new(7, 8, 4)).is_ok());
        let overflowing = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: usize::MAX, phase: 0 };
        assert!(overflowing.validate_for(Dims::new(12, 8, 4)).is_err(), "2 × period overflows");
    }

    #[test]
    fn patterned_mix_alternates_with_period_and_phase() {
        let bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.25, period: 2, phase: 0 };
        let mix: Vec<f64> = (0..8).map(|gx| bc.mix_at(gx).unwrap()).collect();
        assert_eq!(mix, vec![1.0, 1.0, 0.25, 0.25, 1.0, 1.0, 0.25, 0.25]);
        let shifted = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.25, period: 2, phase: 1 };
        let mix: Vec<f64> = (0..4).map(|gx| shifted.mix_at(gx).unwrap()).collect();
        assert_eq!(mix, vec![1.0, 0.25, 0.25, 1.0]);
    }

    #[test]
    fn rough_stripes_attach_to_both_walls() {
        let dims = Dims::new(8, 10, 4);
        let bc = WallBc::rough_stripes(2, 2, dims);
        let elements = bc.rough_elements();
        assert_eq!(elements.len(), 4, "two ridges per wall on 8 planes at period 2");
        // Ridge cells touch the walls, never the channel middle.
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                let solid = elements.iter().any(|e| e.contains(x, y, 0));
                let in_ridge_x = (x / 2) % 2 == 0;
                let near_wall = y < 2 || y >= dims.ny - 2;
                assert_eq!(solid, in_ridge_x && near_wall, "at ({x}, {y})");
            }
        }
        assert!(bc.validate().is_ok());
        assert!(matches!(WallBc::rough_stripes(0, 2, dims), WallBc::RoughWall { elements } if elements.is_empty()));
    }
}
