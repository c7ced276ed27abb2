//! Discrete velocity sets (lattice descriptors) for the lattice Boltzmann
//! method.
//!
//! The paper uses the D3Q19 lattice (Fig. 1): 19 discrete velocities in three
//! dimensions — one rest vector, six axis-aligned vectors and twelve face
//! diagonals. It is the only descriptor: two-dimensional reference flows
//! run on the same lattice as a pseudo-2-D channel (specular z-walls, see
//! [`crate::boundary::WallBc::TunableSlip`]).
//!
//! Descriptors are plain `const` tables so kernels can be fully unrolled by
//! the compiler; the invariants every valid descriptor must satisfy (weights
//! sum to one, zero first moment, isotropic second moment, `opposite` is an
//! involution) are checked in the unit tests below.

/// Lattice sound speed squared, `c_s^2 = 1/3`, of the D3Q19 lattice.
pub const CS2: f64 = microslip_config::CS2;

/// Inverse of [`CS2`], used in equilibrium expansion.
pub const INV_CS2: f64 = 3.0;

/// The three-dimensional, nineteen-velocity lattice used by the paper.
///
/// Ordering: rest vector first, then the six axis vectors, then the twelve
/// face diagonals. The paper's ±x split (directions sent to the right/left
/// neighbor under slab decomposition) is recovered by filtering on
/// `E[i][0] > 0` / `E[i][0] < 0`; see [`D3Q19::POS_X`] and [`D3Q19::NEG_X`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct D3Q19;

impl D3Q19 {
    /// Spatial dimension.
    pub const D: usize = 3;
    /// Number of discrete velocities.
    pub const Q: usize = 19;
    /// Discrete velocity vectors `e_i`.
    pub const E: &'static [[i32; 3]] = &[
        [0, 0, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [1, 0, 1],
        [-1, 0, -1],
        [1, 0, -1],
        [-1, 0, 1],
        [0, 1, 1],
        [0, -1, -1],
        [0, 1, -1],
        [0, -1, 1],
    ];
    /// Quadrature weights `w_i`.
    pub const W: &'static [f64] = &[
        1.0 / 3.0,
        1.0 / 18.0,
        1.0 / 18.0,
        1.0 / 18.0,
        1.0 / 18.0,
        1.0 / 18.0,
        1.0 / 18.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
    ];
    /// Index of the opposite velocity: `E[OPP[i]] == -E[i]`.
    pub const OPP: &'static [usize] = &[
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
    ];
    /// Human-readable name.
    pub const NAME: &'static str = "D3Q19";
    /// Directions with a positive x-component — the five populations a slab
    /// must send to its *right* neighbor each phase (paper §2.2).
    pub const POS_X: [usize; 5] = [1, 7, 9, 11, 13];
    /// Directions with a negative x-component — sent to the *left* neighbor.
    pub const NEG_X: [usize; 5] = [2, 8, 10, 12, 14];
    /// Index of the y-mirrored velocity: `E[MIRROR_Y[i]] == (e_x, -e_y, e_z)`.
    ///
    /// Specular reflection at a y-wall maps an incoming population onto its
    /// y-mirror — the tangential components survive, only the wall-normal
    /// one reverses (the free-slip half of the tunable-slip boundary
    /// condition, Ahmed & Hecht arXiv:0907.2877).
    pub const MIRROR_Y: [usize; 19] =
        [0, 1, 2, 4, 3, 5, 6, 9, 10, 7, 8, 11, 12, 13, 14, 18, 17, 16, 15];
    /// Index of the z-mirrored velocity: `E[MIRROR_Z[i]] == (e_x, e_y, -e_z)`.
    pub const MIRROR_Z: [usize; 19] =
        [0, 1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 13, 14, 11, 12, 17, 18, 15, 16];
}

/// Checks the moment identities a valid descriptor must satisfy.
///
/// Returns an error string naming the first violated identity; used by the
/// test-suite and by `debug_assert!`s in solver constructors.
pub fn validate() -> Result<(), String> {
    if D3Q19::E.len() != D3Q19::Q || D3Q19::W.len() != D3Q19::Q || D3Q19::OPP.len() != D3Q19::Q {
        return Err(format!("{}: table lengths do not match Q={}", D3Q19::NAME, D3Q19::Q));
    }
    let mut wsum = 0.0;
    let mut m1 = [0.0f64; 3];
    let mut m2 = [[0.0f64; 3]; 3];
    for i in 0..D3Q19::Q {
        wsum += D3Q19::W[i];
        for a in 0..3 {
            m1[a] += D3Q19::W[i] * D3Q19::E[i][a] as f64;
            for b in 0..3 {
                m2[a][b] += D3Q19::W[i] * (D3Q19::E[i][a] * D3Q19::E[i][b]) as f64;
            }
        }
        let o = D3Q19::OPP[i];
        if o >= D3Q19::Q {
            return Err(format!("{}: OPP[{}] out of range", D3Q19::NAME, i));
        }
        for a in 0..3 {
            if D3Q19::E[o][a] != -D3Q19::E[i][a] {
                return Err(format!("{}: OPP[{}] is not the reverse velocity", D3Q19::NAME, i));
            }
        }
        if D3Q19::OPP[o] != i {
            return Err(format!("{}: OPP is not an involution at {}", D3Q19::NAME, i));
        }
        if (D3Q19::W[i] - D3Q19::W[o]).abs() > 1e-15 {
            return Err(format!("{}: weights not symmetric under reversal at {}", D3Q19::NAME, i));
        }
    }
    if (wsum - 1.0).abs() > 1e-14 {
        return Err(format!("{}: weights sum to {wsum}, not 1", D3Q19::NAME));
    }
    for a in 0..3 {
        if m1[a].abs() > 1e-14 {
            return Err(format!("{}: first moment nonzero along axis {a}", D3Q19::NAME));
        }
        for b in 0..3 {
            let want = if a == b && a < D3Q19::D { CS2 } else { 0.0 };
            if (m2[a][b] - want).abs() > 1e-14 {
                return Err(format!("{}: second moment [{a}][{b}] = {} != {want}", D3Q19::NAME, m2[a][b]));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d3q19_is_valid() {
        validate().unwrap();
    }

    #[test]
    fn d3q19_has_nineteen_unique_velocities() {
        let mut seen = std::collections::BTreeSet::new();
        for e in D3Q19::E {
            assert!(seen.insert(*e), "duplicate velocity {e:?}");
            assert!(e.iter().all(|c| c.abs() <= 1));
        }
        assert_eq!(seen.len(), 19);
    }

    #[test]
    fn d3q19_no_corner_velocities() {
        // D3Q19 omits the eight cube corners (|e| = sqrt(3)).
        for e in D3Q19::E {
            let norm2: i32 = e.iter().map(|c| c * c).sum();
            assert!(norm2 <= 2, "velocity {e:?} is a corner vector");
        }
    }

    #[test]
    fn pos_neg_x_partition_matches_paper() {
        // Five populations cross each slab boundary in each direction
        // (paper §2.2 "directions 1,7,9,11,13" / "2,8,10,12,14").
        for &i in &D3Q19::POS_X {
            assert_eq!(D3Q19::E[i][0], 1);
        }
        for &i in &D3Q19::NEG_X {
            assert_eq!(D3Q19::E[i][0], -1);
        }
        let all_px: Vec<usize> =
            (0..19).filter(|&i| D3Q19::E[i][0] > 0).collect();
        assert_eq!(all_px, D3Q19::POS_X.to_vec());
        let all_nx: Vec<usize> =
            (0..19).filter(|&i| D3Q19::E[i][0] < 0).collect();
        assert_eq!(all_nx, D3Q19::NEG_X.to_vec());
    }

    #[test]
    fn mirror_tables_negate_one_axis() {
        // MIRROR_Y (MIRROR_Z) must map each velocity onto the one with the
        // y (z) component negated and the other two unchanged, and be a
        // self-inverse permutation. Both commute into OPP: mirroring both
        // wall-tangent axes and the wall normal reverses the velocity, so
        // mirror_y ∘ mirror_z ∘ mirror_x = opp; with e_x untouched here,
        // mirror_y ∘ mirror_z = opp exactly for the e_x = 0 channels.
        for i in 0..D3Q19::Q {
            let my = D3Q19::MIRROR_Y[i];
            assert_eq!(D3Q19::E[my][0], D3Q19::E[i][0]);
            assert_eq!(D3Q19::E[my][1], -D3Q19::E[i][1]);
            assert_eq!(D3Q19::E[my][2], D3Q19::E[i][2]);
            assert_eq!(D3Q19::MIRROR_Y[my], i, "MIRROR_Y not an involution at {i}");
            let mz = D3Q19::MIRROR_Z[i];
            assert_eq!(D3Q19::E[mz][0], D3Q19::E[i][0]);
            assert_eq!(D3Q19::E[mz][1], D3Q19::E[i][1]);
            assert_eq!(D3Q19::E[mz][2], -D3Q19::E[i][2]);
            assert_eq!(D3Q19::MIRROR_Z[mz], i, "MIRROR_Z not an involution at {i}");
            if D3Q19::E[i][0] == 0 {
                assert_eq!(D3Q19::MIRROR_Y[D3Q19::MIRROR_Z[i]], D3Q19::OPP[i]);
            }
        }
    }

    #[test]
    fn third_moment_vanishes() {
        // sum_i w_i e_ia e_ib e_ic = 0 for all index triples (odd moment).
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    let m: f64 = (0..D3Q19::Q)
                        .map(|i| {
                            D3Q19::W[i]
                                * (D3Q19::E[i][a] * D3Q19::E[i][b] * D3Q19::E[i][c]) as f64
                        })
                        .sum();
                    assert!(m.abs() < 1e-15, "third moment [{a}{b}{c}] = {m}");
                }
            }
        }
    }
}
