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

use std::io::Read;
use std::path::Path;

use microslip_codec::{
    f64s_from_le, put_f64, put_f64s, put_str, put_u64, CHUNK, MAX_STR_LEN, TRAILER_LEN,
};

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

/// Everything of an artifact but its fields: what a pass that skips the
/// `f64` runs ([`ResultArtifact::check`]) keeps.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactInfo {
    pub key: String,
    pub phases: u64,
    pub diagnostics: FlowDiagnostics,
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
        let (info, snapshot) = walk(bytes, bytes.len() as u64, true)?;
        let ArtifactInfo { key, phases, diagnostics, summary_json } = info;
        Ok(ResultArtifact { key, phases, snapshot, diagnostics, summary_json })
    }

    /// Checks the [`encode`](Self::encode) output streamed from `r`,
    /// exactly `len` bytes of it, as [`decode`](Self::decode) does — the
    /// magic, the header bounds, every run's length, the diagnostics, the
    /// summary and that nothing trails it — but reads past the `f64` runs
    /// a [`CHUNK`] at a time instead of keeping them.
    pub fn check(r: impl Read, len: u64) -> Result<ArtifactInfo, String> {
        walk(r, len, false).map(|(info, _)| info)
    }

    /// [`check`](Self::check)s a sealed artifact file and its CRC trailer
    /// in one streaming pass: memory stays a chunk whatever the grid.
    pub fn check_file(path: &Path) -> Result<ArtifactInfo, String> {
        let rejected = |e| format!("sealed artifact rejected: {e}");
        let mut reader = microslip_codec::open(path).map_err(rejected)?;
        let len = reader.remaining();
        let info = ResultArtifact::check(&mut reader, len)?;
        reader.finish().map_err(rejected)?;
        Ok(info)
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

/// The one walk of the artifact format over `len` bytes streamed from `r`.
/// With `keep_runs` the snapshot's runs are decoded; without, they are
/// read past and the snapshot comes back with its dimensions only.
fn walk(r: impl Read, len: u64, keep_runs: bool) -> Result<(ArtifactInfo, Snapshot), String> {
    let mut src = Source::new(r, len);
    if src.bytes(MAGIC.len()).ok().as_deref() != Some(&MAGIC[..]) {
        return Err("not a microslip result artifact (bad magic)".into());
    }
    let key = src.str()?;
    let phases = src.u64()?;
    let x0 = src.usize()?;
    let nx = src.u64()?;
    let ny = src.u64()?;
    let nz = src.u64()?;
    let cells64 = nx
        .checked_mul(ny)
        .and_then(|p| p.checked_mul(nz))
        .ok_or("cell count overflow")?;
    if cells64 > MAX_CELLS {
        return Err(format!("implausible cell count {cells64}"));
    }
    let cells =
        usize::try_from(cells64).map_err(|_| format!("cell count {cells64} overflows usize"))?;
    let ncomp = src.usize()?;
    if ncomp == 0 || ncomp > 64 {
        return Err(format!("implausible component count {ncomp}"));
    }
    let rho = (0..ncomp).map(|_| src.run(cells, keep_runs)).collect::<Result<Vec<_>, _>>()?;
    let velocity = src.run(cells * 3, keep_runs)?;
    let snapshot = Snapshot {
        x0,
        nx: usize::try_from(nx).map_err(|_| format!("nx {nx} overflows usize"))?,
        ny: usize::try_from(ny).map_err(|_| format!("ny {ny} overflows usize"))?,
        nz: usize::try_from(nz).map_err(|_| format!("nz {nz} overflows usize"))?,
        rho,
        velocity,
    };
    let diagnostics = FlowDiagnostics {
        total_mass: src.f64()?,
        mean_density: src.f64()?,
        total_momentum: [src.f64()?, src.f64()?, src.f64()?],
        kinetic_energy: src.f64()?,
        max_speed: src.f64()?,
        max_mach: src.f64()?,
        flow_rate: src.f64()?,
    };
    let summary_json = src.str()?;
    src.finish()?;
    Ok((ArtifactInfo { key, phases, diagnostics, summary_json }, snapshot))
}

/// A bounded little-endian cursor over `len` bytes arriving from a
/// stream: every read is checked against the bytes still to come before
/// anything is allocated for it, so a hostile count is an error, not an
/// allocation.
struct Source<R> {
    r: R,
    pos: u64,
    len: u64,
    /// Staging for the runs: at most a [`CHUNK`].
    chunk: Vec<u8>,
}

impl<R: Read> Source<R> {
    fn new(r: R, len: u64) -> Source<R> {
        Source { r, pos: 0, len, chunk: Vec::new() }
    }

    /// Claims the next `n` bytes — an error unless that many are left —
    /// and returns where they start.
    fn claim(&mut self, n: u64) -> Result<u64, String> {
        let at = self.pos;
        if n > self.len - at {
            return Err(format!("artifact truncated at byte {at}"));
        }
        self.pos += n;
        Ok(at)
    }

    fn read(&mut self, at: u64, out: &mut [u8]) -> Result<(), String> {
        self.r.read_exact(out).map_err(|e| format!("artifact read at byte {at}: {e}"))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut le = [0u8; 8];
        let at = self.claim(8)?;
        self.read(at, &mut le)?;
        Ok(u64::from_le_bytes(le))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "value exceeds usize".to_string())
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, String> {
        let at = self.claim(n as u64)?;
        let mut out = vec![0u8; n];
        self.read(at, &mut out)?;
        Ok(out)
    }

    /// A length-prefixed UTF-8 string of at most [`MAX_STR_LEN`] bytes.
    fn str(&mut self) -> Result<String, String> {
        let len = self.usize()?;
        if len > MAX_STR_LEN {
            return Err(format!("implausible string length {len}"));
        }
        String::from_utf8(self.bytes(len)?).map_err(|e| format!("bad utf-8: {e}"))
    }

    /// A run of `n` values, decoded when `keep` and read past otherwise —
    /// through the chunk either way.
    fn run(&mut self, n: usize, keep: bool) -> Result<Vec<f64>, String> {
        let bytes = n.checked_mul(8).ok_or("length overflow")?;
        let at = self.claim(bytes as u64)?;
        if self.chunk.is_empty() {
            self.chunk = vec![0u8; CHUNK.min(bytes).max(8)];
        }
        let mut run = if keep { vec![0.0; n] } else { Vec::new() };
        let per = self.chunk.len() / 8;
        let mut done = 0;
        while done < n {
            let take = per.min(n - done);
            let staged = self.chunk.get_mut(..take * 8).ok_or("artifact chunk too short")?;
            self.r
                .read_exact(staged)
                .map_err(|e| format!("artifact read at byte {}: {e}", at + done as u64 * 8))?;
            if let Some(values) = run.get_mut(done..done + take) {
                f64s_from_le(staged, values);
            }
            done += take;
        }
        Ok(run)
    }

    /// Succeeds only if every byte has been read.
    fn finish(&self) -> Result<(), String> {
        match self.len - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after artifact")),
        }
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
    fn check_reads_what_decode_reads_but_the_runs() {
        let a = artifact();
        let bytes = a.encode();
        let info = ResultArtifact::check(&bytes[..], bytes.len() as u64).expect("check");
        assert_eq!(info.key, a.key);
        assert_eq!(info.phases, a.phases);
        assert_eq!(info.diagnostics, a.diagnostics);
        assert_eq!(info.summary_json, a.summary_json);
        // Whatever decode refuses, check refuses: every truncation, a
        // trailing byte, and a stream shorter than the length it claims.
        for cut in 0..bytes.len() {
            assert!(ResultArtifact::check(&bytes[..cut], cut as u64).is_err(), "prefix {cut}");
            assert!(ResultArtifact::check(&bytes[..cut], bytes.len() as u64).is_err(), "short {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ResultArtifact::decode(&longer).is_err());
        assert!(ResultArtifact::check(&longer[..], longer.len() as u64).is_err());
    }

    #[test]
    fn check_file_streams_the_seal_and_the_structure() {
        let dir = std::env::temp_dir().join(format!("microslip-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("result.artifact");
        let sealed = artifact().seal();
        std::fs::write(&path, &sealed).unwrap();
        assert_eq!(ResultArtifact::check_file(&path).expect("check_file").key, artifact().key);
        // A flipped byte in a run fails the CRC; one in the header fails
        // the structure or the CRC, whichever sees it first.
        for at in [40, sealed.len() / 2, sealed.len() - 1] {
            let mut rotted = sealed.clone();
            rotted[at] ^= 1;
            std::fs::write(&path, &rotted).unwrap();
            assert!(ResultArtifact::check_file(&path).is_err(), "flip at {at} accepted");
        }
        assert!(ResultArtifact::check_file(&dir.join("absent.artifact")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
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
        let err = ResultArtifact::check(&bytes[..], bytes.len() as u64).unwrap_err();
        assert!(err.contains("overflow") || err.contains("implausible"), "{err}");
    }
}
