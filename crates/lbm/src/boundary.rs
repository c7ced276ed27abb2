//! The streaming sweep's view of the wall boundary condition. The wall
//! laws themselves — [`WallBc`], its checks and its byte [`codec`] — are
//! configuration, `microslip_config::boundary`, re-exported here; this
//! module resolves a slip-type BC into the per-plane bounce weights the
//! sweep kernels read.

pub use microslip_config::boundary::{codec, WallBc};

/// The bounce-back weight of the z-walls under the slip variants: pure
/// specular (0), so the flow is z-independent and matches the papers' 2-D
/// setups. The classic variants' kernels bounce unconditionally and never
/// read it.
pub(crate) const SLIP_RZ: f64 = 0.0;

/// Per-local-plane y-wall bounce weights of `bc` for a slab of `lx` local
/// planes (ghost planes included, keyed by their periodic global x) at
/// global offset `x0` of an `nx_global`-wide channel. Empty for the pure
/// bounce-back variants — the solver uses emptiness to select the classic
/// streaming kernels.
pub(crate) fn slip_ry(bc: &WallBc, x0: usize, nx_global: usize, lx: usize) -> Vec<f64> {
    if bc.mix_at(0).is_none() {
        return Vec::new();
    }
    (0..lx)
        .map(|xl| {
            let gx = (x0 + nx_global + xl - 1) % nx_global;
            // mix_at is Some for every gx of the slip variants.
            bc.mix_at(gx).unwrap_or(1.0)
        })
        .collect()
}

/// The streaming sweep's resolved view of a slip-type wall BC: bounce
/// weights per local plane (y-walls) plus the constant z-wall weight.
/// Borrowed from the solver's cached per-slab resolution, so the sweep
/// performs no per-cell (or even per-plane) enum dispatch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlipMap<'a> {
    /// Y-wall bounce weight per local plane, indexed by `xl` (ghosts
    /// included; only interior entries are read).
    pub ry: &'a [f64],
    /// Z-wall bounce weight (0 = specular).
    pub rz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slip_ry_keys_planes_by_global_x() {
        assert!(slip_ry(&WallBc::default(), 0, 16, 18).is_empty(), "bounce-back streams unweighted");
        // A slab at x0 = 4 of a 8-wide channel: local plane xl maps to
        // global x0 + xl − 1 (ghost planes wrap periodically).
        let bc = WallBc::PatternedSlip { r_a: 0.9, r_b: 0.1, period: 2, phase: 0 };
        let ry = slip_ry(&bc, 4, 8, 6);
        // xl 0 (left ghost) → gx 3 → stripe 1; xl 1..4 → gx 4..7; xl 5
        // (right ghost) → gx 0 → stripe 0.
        assert_eq!(ry, vec![0.1, 0.9, 0.9, 0.1, 0.1, 0.9]);
        // A decomposition-independent resolution: the same global planes
        // resolved from a different slab give the same weights.
        let whole = slip_ry(&bc, 0, 8, 10);
        assert_eq!(whole[5], ry[1], "global plane 4 must resolve identically");
    }
}
