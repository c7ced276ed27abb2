//! Binary codec for [`WallBc`] — the wall-BC slice of the config codec.
//!
//! Follows [`crate::config_codec`]'s conventions exactly: little-endian,
//! `u64` discriminant plus payload, bit-exact `f64`s, every read
//! bounds-checked with a typed error. Untrusted bytes reach
//! [`decode_wall_bc`] via `Scenario::decode`, so nothing here may panic
//! (the crate's `#![deny(clippy::…)]` header).
//!
//! Decoding re-validates parameters ([`WallBc::validate`]): out-of-range
//! reflection fractions or a zero stripe period are codec errors, not
//! latent config errors.

use super::WallBc;
use microslip_codec::{put_f64, put_u64, Reader};

use crate::config_codec::{put_region, read_region};

/// Appends the wall-BC field to a config encoding.
pub fn encode_wall_bc(out: &mut Vec<u8>, bc: &WallBc) {
    match bc {
        WallBc::BounceBack => put_u64(out, 0),
        WallBc::TunableSlip { r } => {
            put_u64(out, 1);
            put_f64(out, *r);
        }
        WallBc::PatternedSlip { r_a, r_b, period, phase } => {
            put_u64(out, 2);
            put_f64(out, *r_a);
            put_f64(out, *r_b);
            put_u64(out, *period as u64);
            put_u64(out, *phase as u64);
        }
        WallBc::RoughWall { elements } => {
            put_u64(out, 3);
            put_u64(out, elements.len() as u64);
            for e in elements {
                put_region(out, e);
            }
        }
    }
}

/// Reads the wall-BC field written by [`encode_wall_bc`], rejecting
/// unknown discriminants and out-of-range parameters.
pub fn decode_wall_bc(r: &mut Reader<'_>) -> Result<WallBc, String> {
    let bc = match r.u64()? {
        0 => WallBc::BounceBack,
        1 => WallBc::TunableSlip { r: r.f64()? },
        2 => WallBc::PatternedSlip {
            r_a: r.f64()?,
            r_b: r.f64()?,
            period: r.usize()?,
            phase: r.usize()?,
        },
        3 => {
            let count = r.usize()?;
            if count > 1 << 20 {
                return Err(format!("implausible roughness element count {count}"));
            }
            let elements = (0..count).map(|_| read_region(r)).collect::<Result<_, _>>()?;
            WallBc::RoughWall { elements }
        }
        d => return Err(format!("unknown wall BC discriminant {d}")),
    };
    bc.validate()?;
    Ok(bc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SolidRegion;

    fn roundtrip(bc: &WallBc) -> WallBc {
        let mut bytes = Vec::new();
        encode_wall_bc(&mut bytes, bc);
        let mut r = Reader::new("wall BC", &bytes, 0);
        let back = decode_wall_bc(&mut r).expect("decode");
        r.finish().expect("decode must consume the whole field");
        back
    }

    #[test]
    fn every_variant_roundtrips() {
        for bc in [
            WallBc::BounceBack,
            WallBc::TunableSlip { r: 0.37 },
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.08, period: 3, phase: 2 },
            WallBc::RoughWall {
                elements: vec![
                    SolidRegion::Block { min: [0, 0, 0], max: [2, 1, 4] },
                    SolidRegion::Sphere { center: [3.0, 0.5, 2.0], radius: 0.9 },
                ],
            },
        ] {
            assert_eq!(roundtrip(&bc), bc);
        }
    }

    #[test]
    fn out_of_range_parameters_rejected_on_decode() {
        // Encode raw bytes that a well-behaved encoder would never emit.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1);
        put_f64(&mut bytes, 1.5);
        let mut r = Reader::new("wall BC", &bytes, 0);
        assert!(decode_wall_bc(&mut r).unwrap_err().contains("outside [0, 1]"));

        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        put_f64(&mut bytes, 0.5);
        put_f64(&mut bytes, -0.5);
        put_u64(&mut bytes, 2);
        put_u64(&mut bytes, 0);
        let mut r = Reader::new("wall BC", &bytes, 0);
        assert!(decode_wall_bc(&mut r).unwrap_err().contains("outside [0, 1]"));

        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        put_f64(&mut bytes, 0.5);
        put_f64(&mut bytes, 0.5);
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, 0);
        let mut r = Reader::new("wall BC", &bytes, 0);
        assert!(decode_wall_bc(&mut r).unwrap_err().contains("period"));

        let mut bytes = Vec::new();
        put_u64(&mut bytes, 9);
        let mut r = Reader::new("wall BC", &bytes, 0);
        assert!(decode_wall_bc(&mut r).unwrap_err().contains("discriminant"));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        encode_wall_bc(
            &mut bytes,
            &WallBc::RoughWall {
                elements: vec![SolidRegion::Block { min: [0, 0, 0], max: [2, 1, 4] }],
            },
        );
        for cut in 0..bytes.len() {
            let mut r = Reader::new("wall BC", &bytes[..cut], 0);
            assert!(decode_wall_bc(&mut r).is_err(), "prefix {cut} accepted");
        }
    }
}
