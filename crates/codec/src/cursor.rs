//! The one bounded byte cursor — and the scalar writers it reads back —
//! behind every unsealed codec: the `MSLIPCF3` channel config and its
//! wall-BC field, `Scenario` canonical bytes, sweep requests and the
//! result-artifact body. Scalars are little-endian `u64`/`f64`; strings
//! are a `u64` length plus UTF-8 bytes. Decoders run on bytes a peer or a
//! client controls, so every read is bounds-checked and comes back as an
//! error naming the format, never as a panic.

/// Appends `v` as eight little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` bit-exactly as eight little-endian bytes.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as a `u64` length plus its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Longest string [`Reader::str`] accepts (1 MiB).
pub const MAX_STR_LEN: usize = 1 << 20;

/// Bounds-checked little-endian cursor over untrusted bytes.
pub struct Reader<'a> {
    /// The format being read, for error messages ("config", "scenario", …).
    what: &'static str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `bytes` starting at `pos` (just past a magic, say).
    pub fn new(what: &'static str, bytes: &'a [u8], pos: usize) -> Self {
        Reader { what, bytes, pos }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("{} truncated at byte {}", self.what, self.pos))?;
        self.pos = end;
        Ok(chunk)
    }

    fn le8(&mut self) -> Result<[u8; 8], String> {
        let mut le = [0u8; 8];
        for (dst, src) in le.iter_mut().zip(self.take(8)?) {
            *dst = *src;
        }
        Ok(le)
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.le8()?))
    }

    pub fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "value exceeds usize".to_string())
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.le8()?))
    }

    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid boolean {v}")),
        }
    }

    /// A length-prefixed UTF-8 string of at most 1 MiB.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.usize()?;
        if len > MAX_STR_LEN {
            return Err(format!("implausible string length {len}"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad utf-8: {e}"))
    }

    /// Succeeds only if every byte has been consumed.
    pub fn finish(&self) -> Result<(), String> {
        match self.bytes.len().saturating_sub(self.pos) {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after {}", self.what)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings_round_trip() {
        let mut bytes = b"MAGIC000".to_vec();
        put_u64(&mut bytes, 7);
        put_f64(&mut bytes, -0.0);
        put_str(&mut bytes, "wässer");
        put_u64(&mut bytes, 1);
        let mut r = Reader::new("test", &bytes, 8);
        assert_eq!(r.usize(), Ok(7));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.str().as_deref(), Ok("wässer"));
        assert_eq!(r.finish(), Err("8 trailing bytes after test".into()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn every_bound_is_a_typed_error() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        for cut in 0..bytes.len() {
            let err = Reader::new("blob", &bytes[..cut], 0).u64().unwrap_err();
            assert_eq!(err, "blob truncated at byte 0");
        }
        assert_eq!(
            Reader::new("blob", &bytes, 0).bool(),
            Err("invalid boolean 2".into())
        );
        // A start past the end, and a length that would wrap the cursor.
        assert!(Reader::new("blob", &bytes, 9).take(0).is_err());
        assert_eq!(
            Reader::new("blob", &bytes, 1).take(usize::MAX),
            Err("length overflow".into())
        );
        // The string cap bites before anything is allocated for it.
        let mut long = Vec::new();
        put_u64(&mut long, (MAX_STR_LEN + 1) as u64);
        assert!(Reader::new("blob", &long, 0)
            .str()
            .unwrap_err()
            .contains("implausible"));
        let mut bad = Vec::new();
        put_u64(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new("blob", &bad, 0)
            .str()
            .unwrap_err()
            .contains("utf-8"));
    }
}
