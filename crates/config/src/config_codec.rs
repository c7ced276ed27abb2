//! Binary serialization of [`ChannelConfig`] — how a multi-process driver
//! ships the *complete* simulation configuration to its worker processes.
//!
//! Same philosophy as the checkpoint format: a self-describing
//! little-endian layout with no external serialization dependency, and
//! bit-exact `f64` fields (`to_le_bytes`), so a config decoded in a child
//! process is indistinguishable from the parent's — a precondition for the
//! multi-process substrate being bitwise-equivalent to the threaded one.
//!
//! Layout: an 8-byte magic, then the fields of [`ChannelConfig`] in
//! declaration order; enums as a `u64` discriminant plus payload, strings
//! as `u64` length plus UTF-8 bytes, sequences as `u64` count plus
//! elements.

use microslip_codec::{put_f64, put_str, put_u64, Reader};

use crate::boundary::codec::{decode_wall_bc, encode_wall_bc};
use crate::component::{CollisionOperator, ComponentSpec, CouplingMatrix, MrtRates};
use crate::channel::{ChannelConfig, InitProfile};
use crate::wall_force::{WallForce, WallForceMode};
use crate::geometry::{Dims, SolidRegion};
use crate::potential::PsiFn;

/// File-format magic ("MSLIPCF3" — version 2 added the wall-BC field,
/// version 3 dropped the trailing intra-slab thread count).
pub const MAGIC: [u8; 8] = *b"MSLIPCF3";

/// Appends one solid-region record (shared with the wall-BC codec in
/// [`crate::boundary::codec`], whose `RoughWall` variant carries regions).
pub(crate) fn put_region(out: &mut Vec<u8>, region: &SolidRegion) {
    match *region {
        SolidRegion::Block { min, max } => {
            put_u64(out, 0);
            for v in min.iter().chain(max.iter()) {
                put_u64(out, *v as u64);
            }
        }
        SolidRegion::Sphere { center, radius } => {
            put_u64(out, 1);
            for v in center {
                put_f64(out, v);
            }
            put_f64(out, radius);
        }
        SolidRegion::CylinderZ { center, radius } => {
            put_u64(out, 2);
            for v in center {
                put_f64(out, v);
            }
            put_f64(out, radius);
        }
    }
}

/// Reads one solid-region record written by [`put_region`].
pub(crate) fn read_region(r: &mut Reader<'_>) -> Result<SolidRegion, String> {
    Ok(match r.u64()? {
        0 => SolidRegion::Block {
            min: [r.usize()?, r.usize()?, r.usize()?],
            max: [r.usize()?, r.usize()?, r.usize()?],
        },
        1 => SolidRegion::Sphere { center: [r.f64()?, r.f64()?, r.f64()?], radius: r.f64()? },
        2 => SolidRegion::CylinderZ { center: [r.f64()?, r.f64()?], radius: r.f64()? },
        d => return Err(format!("unknown obstacle discriminant {d}")),
    })
}

/// Serializes a complete channel configuration. The structs with public
/// fields are destructured without `..`, so a field added to one of them
/// is a compile error here until it is encoded.
pub fn encode_config(cfg: &ChannelConfig) -> Vec<u8> {
    let ChannelConfig { dims, components, coupling, wall, body, init, obstacles, wall_bc } = cfg;
    let Dims { nx, ny, nz } = *dims;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u64(&mut out, nx as u64);
    put_u64(&mut out, ny as u64);
    put_u64(&mut out, nz as u64);
    put_u64(&mut out, components.len() as u64);
    for (spec, init_n) in components {
        let ComponentSpec { name, mass, tau, feels_wall_force, psi_fn, collision, wall_adhesion } =
            spec;
        put_str(&mut out, name);
        put_f64(&mut out, *mass);
        put_f64(&mut out, *tau);
        put_u64(&mut out, *feels_wall_force as u64);
        match *psi_fn {
            PsiFn::Linear => put_u64(&mut out, 0),
            PsiFn::ShanChen { n0 } => {
                put_u64(&mut out, 1);
                put_f64(&mut out, n0);
            }
        }
        match *collision {
            CollisionOperator::Bgk => put_u64(&mut out, 0),
            CollisionOperator::Trt { magic } => {
                put_u64(&mut out, 1);
                put_f64(&mut out, magic);
            }
            CollisionOperator::Mrt(MrtRates { s_e, s_eps, s_q, s_pi, s_m }) => {
                put_u64(&mut out, 2);
                for v in [s_e, s_eps, s_q, s_pi, s_m] {
                    put_f64(&mut out, v);
                }
            }
        }
        put_f64(&mut out, *wall_adhesion);
        put_f64(&mut out, *init_n);
    }
    let n = coupling.components();
    put_u64(&mut out, n as u64);
    for a in 0..n {
        for b in 0..n {
            put_f64(&mut out, coupling.get(a, b));
        }
    }
    let WallForce { amplitude, decay, mode } = *wall;
    put_f64(&mut out, amplitude);
    put_f64(&mut out, decay);
    put_u64(&mut out, match mode {
        WallForceMode::PerMass => 0,
        WallForceMode::ForceDensity => 1,
    });
    for v in body {
        put_f64(&mut out, *v);
    }
    match *init {
        InitProfile::Uniform => put_u64(&mut out, 0),
        InitProfile::CosineX { amplitude } => {
            put_u64(&mut out, 1);
            put_f64(&mut out, amplitude);
        }
    }
    put_u64(&mut out, obstacles.len() as u64);
    for o in obstacles {
        put_region(&mut out, o);
    }
    encode_wall_bc(&mut out, wall_bc);
    out
}

/// Restores a channel configuration from [`encode_config`] output.
pub fn decode_config(bytes: &[u8]) -> Result<ChannelConfig, String> {
    if !bytes.starts_with(&MAGIC) {
        return Err("not a microslip config (bad magic)".into());
    }
    let mut r = Reader::new("config", bytes, 8);
    let (nx, ny, nz) = (r.usize()?, r.usize()?, r.usize()?);
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(format!("channel dimensions {nx}x{ny}x{nz} must all be positive"));
    }
    let dims = Dims::new(nx, ny, nz);
    let ncomp = r.usize()?;
    if ncomp == 0 || ncomp > 64 {
        return Err(format!("implausible component count {ncomp}"));
    }
    let mut components = Vec::with_capacity(ncomp);
    for _ in 0..ncomp {
        let name = r.str()?;
        let mass = r.f64()?;
        let tau = r.f64()?;
        let feels_wall_force = r.bool()?;
        let psi_fn = match r.u64()? {
            0 => PsiFn::Linear,
            1 => PsiFn::ShanChen { n0: r.f64()? },
            d => return Err(format!("unknown psi_fn discriminant {d}")),
        };
        let collision = match r.u64()? {
            0 => CollisionOperator::Bgk,
            1 => CollisionOperator::Trt { magic: r.f64()? },
            2 => CollisionOperator::Mrt(MrtRates {
                s_e: r.f64()?,
                s_eps: r.f64()?,
                s_q: r.f64()?,
                s_pi: r.f64()?,
                s_m: r.f64()?,
            }),
            d => return Err(format!("unknown collision discriminant {d}")),
        };
        let wall_adhesion = r.f64()?;
        let init_n = r.f64()?;
        components.push((
            ComponentSpec { name, mass, tau, feels_wall_force, psi_fn, collision, wall_adhesion },
            init_n,
        ));
    }
    let n = r.usize()?;
    if n != ncomp {
        return Err(format!("coupling size {n} does not match {ncomp} components"));
    }
    let entries = (0..n * n).map(|_| r.f64()).collect::<Result<Vec<f64>, _>>()?;
    let coupling = CouplingMatrix::from_rows(n, entries).ok_or("coupling entries do not fill the matrix")?;
    let wall = WallForce {
        amplitude: r.f64()?,
        decay: r.f64()?,
        mode: match r.u64()? {
            0 => WallForceMode::PerMass,
            1 => WallForceMode::ForceDensity,
            d => return Err(format!("unknown wall mode discriminant {d}")),
        },
    };
    let body = [r.f64()?, r.f64()?, r.f64()?];
    let init = match r.u64()? {
        0 => InitProfile::Uniform,
        1 => InitProfile::CosineX { amplitude: r.f64()? },
        d => return Err(format!("unknown init discriminant {d}")),
    };
    let nobs = r.usize()?;
    if nobs > 1 << 20 {
        return Err(format!("implausible obstacle count {nobs}"));
    }
    // Sized by the records read, not by the count: a count is only a claim
    // until the bytes behind it are there.
    let obstacles = (0..nobs).map(|_| read_region(&mut r)).collect::<Result<Vec<_>, _>>()?;
    let wall_bc = decode_wall_bc(&mut r)?;
    r.finish()?;
    Ok(ChannelConfig { dims, components, coupling, wall, body, init, obstacles, wall_bc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::WallBc;

    fn exotic_config() -> ChannelConfig {
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(24, 10, 6));
        cfg.components[0].0.collision = CollisionOperator::trt_magic();
        cfg.components[0].0.wall_adhesion = -0.05;
        cfg.components[1].0.collision = CollisionOperator::mrt_standard();
        cfg.components[1].0.psi_fn = PsiFn::ShanChen { n0: 0.7 };
        cfg.components[1].0.mass = 0.83;
        cfg.coupling.set(0, 0, -1.25e-3);
        cfg.wall = WallForce { amplitude: 0.31, decay: 3.5, mode: WallForceMode::ForceDensity };
        cfg.body = [2.5e-5, -1e-7, f64::MIN_POSITIVE];
        cfg.init = InitProfile::CosineX { amplitude: 0.125 };
        cfg.obstacles = vec![
            SolidRegion::Block { min: [2, 1, 0], max: [4, 3, 6] },
            SolidRegion::Sphere { center: [10.5, 5.0, 3.0], radius: 1.75 },
            SolidRegion::CylinderZ { center: [18.0, 4.5], radius: 2.25 },
        ];
        cfg.wall_bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.125, period: 2, phase: 1 };
        cfg
    }

    #[test]
    fn paper_config_roundtrips() {
        let cfg = ChannelConfig::paper();
        let bytes = encode_config(&cfg);
        let back = decode_config(&bytes).expect("decode");
        // Encoding is a pure function of the fields, so byte equality of
        // the re-encoding proves field-exact (incl. bitwise f64) fidelity.
        assert_eq!(encode_config(&back), bytes);
        back.validate().expect("decoded config stays valid");
        assert_eq!(back.dims.nx, 400);
        assert_eq!(back.components[0].0.name, "water");
    }

    #[test]
    fn every_enum_variant_roundtrips() {
        let cfg = exotic_config();
        let bytes = encode_config(&cfg);
        let back = decode_config(&bytes).expect("decode");
        assert_eq!(encode_config(&back), bytes);
        assert_eq!(back.components[1].0.psi_fn, PsiFn::ShanChen { n0: 0.7 });
        assert_eq!(back.wall.mode, WallForceMode::ForceDensity);
        assert_eq!(back.obstacles.len(), 3);
        assert_eq!(
            back.wall_bc,
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.125, period: 2, phase: 1 }
        );
        assert_eq!(back.body[2].to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn every_wall_bc_variant_roundtrips() {
        for bc in [
            WallBc::BounceBack,
            WallBc::TunableSlip { r: 0.6 },
            WallBc::PatternedSlip { r_a: 0.9, r_b: 0.1, period: 3, phase: 0 },
            WallBc::rough_stripes(1, 2, Dims::new(8, 10, 4)),
        ] {
            let mut cfg = ChannelConfig::single_component(Dims::new(8, 10, 4), 1.0, 0.0);
            cfg.wall_bc = bc.clone();
            let bytes = encode_config(&cfg);
            let back = decode_config(&bytes).expect("decode");
            assert_eq!(back.wall_bc, bc);
            assert_eq!(encode_config(&back), bytes);
        }
    }

    #[test]
    fn out_of_range_slip_parameters_rejected() {
        // Patch the encoded r of a TunableSlip config to 1.5: the decoder
        // must reject it rather than build an unphysical wall BC.
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(8, 6, 4));
        cfg.wall_bc = WallBc::TunableSlip { r: 0.5 };
        let mut bytes = encode_config(&cfg);
        let needle = 0.5f64.to_le_bytes();
        let pos = (0..=bytes.len() - 8)
            .rev()
            .find(|&i| bytes[i..i + 8] == needle)
            .expect("encoded r present");
        bytes[pos..pos + 8].copy_from_slice(&1.5f64.to_le_bytes());
        assert!(decode_config(&bytes).unwrap_err().contains("outside [0, 1]"));
    }

    #[test]
    fn zero_dims_rejected_without_panicking() {
        let mut bytes = encode_config(&ChannelConfig::paper_scaled(Dims::new(8, 6, 4)));
        bytes[8] = 0; // nx, the first field after the magic
        assert!(decode_config(&bytes).unwrap_err().contains("positive"));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_config(&ChannelConfig::paper());
        bytes[0] = b'X';
        assert!(decode_config(&bytes).unwrap_err().contains("magic"));
        assert!(decode_config(&[]).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode_config(&exotic_config());
        // Any prefix must fail cleanly, never panic.
        for cut in (8..bytes.len()).step_by(7) {
            assert!(decode_config(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_config(&ChannelConfig::paper());
        bytes.push(0);
        assert!(decode_config(&bytes).unwrap_err().contains("trailing"));
    }
}
