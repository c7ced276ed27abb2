#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
//! Sealed result artifacts — what a finished sweep job produces and the
//! content-addressed cache stores.
//!
//! An artifact packages everything a client needs from one completed run:
//! the final macroscopic [`Snapshot`], the derived [`FlowDiagnostics`],
//! the phase count, the content-address key it was computed under, and a
//! JSON trace summary. The codec follows [`crate::config_codec`]: a
//! self-describing little-endian layout, bit-exact `f64` fields, and a
//! decoder that surfaces typed errors — never panics — on untrusted
//! bytes.
//!
//! **Determinism contract.** [`ResultArtifact::seal`] is a pure function
//! of the artifact's fields, and the fields of a completed job are pure
//! functions of its scenario (the solver is bitwise deterministic across
//! substrates, and the embedded summary is rebuilt from virtual-time
//! events). Two runs of the same scenario therefore seal to *identical
//! bytes* — which is what lets the daemon serve a cached artifact
//! verbatim and lets a client `cmp` a fetched result against a local
//! re-run.

use microslip_codec::{f64s_from_le, put_f64, put_f64s, put_str, put_u64, Reader, TRAILER_LEN};

use crate::diagnostics::FlowDiagnostics;
use crate::macroscopic::Snapshot;

/// Artifact-format magic ("MSLIPRA1" — microslip result artifact v1).
pub const MAGIC: [u8; 8] = *b"MSLIPRA1";

/// Cap on cells implied by a decoded header, so corrupt dimensions cannot
/// trigger a multi-gigabyte allocation (matches the largest domains the
/// experiments run by a wide margin).
const MAX_CELLS: u64 = 1 << 28;

/// One completed job's results, ready to seal into the cache.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultArtifact {
    /// Content-address key (canonical-scenario hash) this result answers.
    pub key: String,
    /// Phases the simulation ran.
    pub phases: u64,
    /// Final macroscopic fields.
    pub snapshot: Snapshot,
    /// Diagnostics derived from the final snapshot.
    pub diagnostics: FlowDiagnostics,
    /// Machine-readable trace summary (JSON document).
    pub summary_json: String,
}

impl ResultArtifact {
    /// Serializes the artifact (without the CRC trailer).
    pub fn encode(&self) -> Vec<u8> {
        let s = &self.snapshot;
        let d = &self.diagnostics;
        // Exact — magic, six header words, two string lengths and nine
        // diagnostics around the strings and the f64 runs — plus room for
        // the trailer `seal` appends, so neither step reallocates.
        let values = s.rho.iter().map(Vec::len).sum::<usize>() + s.velocity.len();
        let mut out = Vec::with_capacity(
            8 * (1 + 6 + 2 + 9 + values) + self.key.len() + self.summary_json.len() + TRAILER_LEN,
        );
        out.extend_from_slice(&MAGIC);
        put_str(&mut out, &self.key);
        put_u64(&mut out, self.phases);
        put_u64(&mut out, s.x0 as u64);
        put_u64(&mut out, s.nx as u64);
        put_u64(&mut out, s.ny as u64);
        put_u64(&mut out, s.nz as u64);
        put_u64(&mut out, s.rho.len() as u64);
        for comp in &s.rho {
            put_f64s(&mut out, comp);
        }
        put_f64s(&mut out, &s.velocity);
        let [mx, my, mz] = d.total_momentum;
        for v in [
            d.total_mass,
            d.mean_density,
            mx,
            my,
            mz,
            d.kinetic_energy,
            d.max_speed,
            d.max_mach,
            d.flow_rate,
        ] {
            put_f64(&mut out, v);
        }
        put_str(&mut out, &self.summary_json);
        out
    }

    /// Restores an artifact from [`encode`](Self::encode) output.
    pub fn decode(bytes: &[u8]) -> Result<ResultArtifact, String> {
        if !bytes.starts_with(&MAGIC) {
            return Err("not a microslip result artifact (bad magic)".into());
        }
        let mut r = Reader::new("artifact", bytes, 8);
        let key = r.str()?;
        let phases = r.u64()?;
        let x0 = r.usize()?;
        let nx = r.u64()?;
        let ny = r.u64()?;
        let nz = r.u64()?;
        let cells64 = nx
            .checked_mul(ny)
            .and_then(|p| p.checked_mul(nz))
            .ok_or("cell count overflow")?;
        if cells64 > MAX_CELLS {
            return Err(format!("implausible cell count {cells64}"));
        }
        let cells = usize::try_from(cells64)
            .map_err(|_| format!("cell count {cells64} overflows usize"))?;
        let ncomp = r.usize()?;
        if ncomp == 0 || ncomp > 64 {
            return Err(format!("implausible component count {ncomp}"));
        }
        // `take` bounds every run against the bytes actually present
        // before anything is allocated for it.
        let mut f64s = |n: usize| -> Result<Vec<f64>, String> {
            let bytes = r.take(n.checked_mul(8).ok_or("length overflow")?)?;
            let mut run = vec![0.0; n];
            f64s_from_le(bytes, &mut run);
            Ok(run)
        };
        let rho = (0..ncomp).map(|_| f64s(cells)).collect::<Result<Vec<_>, _>>()?;
        let velocity = f64s(cells * 3)?;
        let snapshot = Snapshot {
            x0,
            nx: usize::try_from(nx).map_err(|_| format!("nx {nx} overflows usize"))?,
            ny: usize::try_from(ny).map_err(|_| format!("ny {ny} overflows usize"))?,
            nz: usize::try_from(nz).map_err(|_| format!("nz {nz} overflows usize"))?,
            rho,
            velocity,
        };
        let diagnostics = FlowDiagnostics {
            total_mass: r.f64()?,
            mean_density: r.f64()?,
            total_momentum: [r.f64()?, r.f64()?, r.f64()?],
            kinetic_energy: r.f64()?,
            max_speed: r.f64()?,
            max_mach: r.f64()?,
            flow_rate: r.f64()?,
        };
        let summary_json = r.str()?;
        r.finish()?;
        Ok(ResultArtifact { key, phases, snapshot, diagnostics, summary_json })
    }

    /// Encodes and seals with the CRC-32 trailer — the exact byte string
    /// the cache stores and the daemon ships to `fetch` clients.
    pub fn seal(&self) -> Vec<u8> {
        microslip_codec::seal(self.encode())
    }

    /// Verifies and decodes a sealed artifact.
    pub fn unseal(bytes: &[u8]) -> Result<ResultArtifact, String> {
        let payload = microslip_codec::unseal(bytes)
            .map_err(|e| format!("sealed artifact rejected: {e}"))?;
        ResultArtifact::decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChannelConfig;
    use crate::geometry::Dims;
    use crate::simulation::Simulation;

    fn artifact() -> ResultArtifact {
        let mut sim = Simulation::new(ChannelConfig::paper_scaled(Dims::new(8, 6, 4)));
        sim.run(5);
        let snapshot = sim.snapshot();
        let diagnostics = FlowDiagnostics::compute(&snapshot);
        ResultArtifact {
            key: "00f00ba4deadbeef".into(),
            phases: 5,
            snapshot,
            diagnostics,
            summary_json: "{\"mode\": \"serve\"}\n".into(),
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let a = artifact();
        let bytes = a.encode();
        let back = ResultArtifact::decode(&bytes).expect("decode");
        // Re-encoding byte-equality proves bitwise field fidelity.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.key, a.key);
        assert_eq!(back.snapshot.rho.len(), 2);
        assert_eq!(back.diagnostics.total_mass.to_bits(), a.diagnostics.total_mass.to_bits());
    }

    #[test]
    fn sealing_is_deterministic() {
        let a = artifact();
        assert_eq!(a.seal(), artifact().seal());
        let back = ResultArtifact::unseal(&a.seal()).expect("unseal");
        assert_eq!(back, a);
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let sealed = artifact().seal();
        // Torn trailer.
        assert!(ResultArtifact::unseal(&sealed[..sealed.len() - 1]).is_err());
        // Bit rot in the body.
        let mut rotted = sealed.clone();
        rotted[40] ^= 1;
        assert!(ResultArtifact::unseal(&rotted).is_err());
        // Truncation at every stride inside the payload must fail cleanly.
        let payload = artifact().encode();
        for cut in (8..payload.len()).step_by(97) {
            assert!(ResultArtifact::decode(&payload[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn absurd_dimensions_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_str(&mut bytes, "k");
        put_u64(&mut bytes, 1); // phases
        put_u64(&mut bytes, 0); // x0
        for _ in 0..3 {
            put_u64(&mut bytes, u64::MAX / 3); // nx, ny, nz
        }
        let err = ResultArtifact::decode(&bytes).unwrap_err();
        assert!(err.contains("overflow") || err.contains("implausible"), "{err}");
    }
}
