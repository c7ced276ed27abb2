//! Bulk little-endian `f64` runs — the bodies of checkpoints, artifacts
//! and wire frames. The conversions are whole-slice loops the compiler
//! turns into plain copies on little-endian hosts; the streaming forms
//! stage them through one [`CHUNK`]-sized buffer so a slab-sized array
//! never needs a slab-sized byte copy.

use std::io::{self, Read, Write};

use crate::seal::CHUNK;

/// Appends `values` to `out` as little-endian bytes.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    let (_, tail) = out.split_at_mut(start);
    for (dst, v) in tail.chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Fills `out` from little-endian `bytes`; the shorter of the two bounds
/// the run (callers size them to match).
pub fn f64s_from_le(bytes: &[u8], out: &mut [f64]) {
    for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(chunk);
        *v = f64::from_le_bytes(le);
    }
}

/// Writes `values` to `w` as little-endian bytes, a chunk at a time.
pub fn write_f64s(w: &mut impl Write, values: &[f64]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(CHUNK.min(values.len() * 8));
    for run in values.chunks(CHUNK / 8) {
        buf.clear();
        put_f64s(&mut buf, run);
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Fills `out` from little-endian bytes read from `r`, a chunk at a time.
pub fn read_f64s(r: &mut impl Read, out: &mut [f64]) -> io::Result<()> {
    let mut buf = vec![0u8; CHUNK.min(out.len() * 8)];
    for run in out.chunks_mut(CHUNK / 8) {
        let (bytes, _) = buf.split_at_mut(run.len() * 8);
        r.read_exact(bytes)?;
        f64s_from_le(bytes, run);
    }
    Ok(())
}
