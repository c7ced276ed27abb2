//! The seal: a payload followed by its CRC-32 as four little-endian bytes.
//!
//! Every sealed format in the workspace (checkpoints, rank state files,
//! result artifacts, cache entries) is this, and every one of them goes
//! through the streaming pair here: [`SealWriter`] checksums the bytes on
//! their way out and appends the trailer, [`SealReader`] checksums them on
//! their way in and compares it — one pass, [`CHUNK`] bytes at a time while
//! they are still in cache, with no whole-payload buffer of its own. The
//! buffered entry points ([`seal`], [`unseal`], [`read_file`]) are the same
//! bytes for callers that hold the payload anyway.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

use crate::crc::{crc32, Crc32};

/// Bytes of the CRC trailer.
pub const TRAILER_LEN: usize = 4;

/// Most bytes checksummed (and handed to the underlying stream) at a time:
/// small enough to stay in L2 between the copy and the CRC, large enough
/// that the per-call overhead of a file read or write does not show.
pub const CHUNK: usize = 64 * 1024;

/// Why sealed bytes were rejected.
#[derive(Debug)]
pub enum SealError {
    /// The underlying stream failed.
    Io(io::Error),
    /// Torn or bit-rotted: shorter than the trailer, or the trailer does
    /// not match the payload.
    Corrupt(String),
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Io(e) => write!(f, "{e}"),
            SealError::Corrupt(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for SealError {}

impl From<io::Error> for SealError {
    fn from(e: io::Error) -> SealError {
        SealError::Io(e)
    }
}

fn too_short(len: u64) -> SealError {
    SealError::Corrupt(format!("{len} bytes is shorter than the CRC trailer"))
}

fn check(stored: [u8; TRAILER_LEN], computed: u32) -> Result<(), SealError> {
    let stored = u32::from_le_bytes(stored);
    if stored == computed {
        Ok(())
    } else {
        Err(SealError::Corrupt(format!(
            "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )))
    }
}

/// Appends the CRC-32 trailer that [`unseal`] verifies.
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

/// Verifies the trailer of `sealed` and returns the payload in front of it.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], SealError> {
    let (payload, trailer) =
        sealed.split_last_chunk().ok_or_else(|| too_short(sealed.len() as u64))?;
    check(*trailer, crc32(payload))?;
    Ok(payload)
}

/// Checksums what is written through it; [`finish`](Self::finish) appends
/// the trailer.
pub struct SealWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> SealWriter<W> {
    pub fn new(inner: W) -> SealWriter<W> {
        SealWriter { inner, crc: Crc32::new() }
    }

    /// Writes the trailer and hands the stream back.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.write_all(&self.crc.finish().to_le_bytes())?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for SealWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let chunk = buf.get(..CHUNK).unwrap_or(buf);
        let n = self.inner.write(chunk)?;
        self.crc.update(chunk.get(..n).unwrap_or(chunk));
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Yields the payload of a sealed stream of known length, checksumming it
/// as it passes; [`finish`](Self::finish) compares the trailer. The bytes
/// read are **unverified until `finish` returns `Ok`** — a caller that
/// builds something from them must discard it otherwise.
pub struct SealReader<R: Read> {
    inner: R,
    crc: Crc32,
    remaining: u64,
}

impl<R: Read> SealReader<R> {
    /// `sealed_len` is the whole stream, trailer included.
    pub fn new(inner: R, sealed_len: u64) -> Result<SealReader<R>, SealError> {
        let remaining =
            sealed_len.checked_sub(TRAILER_LEN as u64).ok_or_else(|| too_short(sealed_len))?;
        Ok(SealReader { inner, crc: Crc32::new(), remaining })
    }

    /// Payload bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Passes whatever payload is still unread through a fixed buffer, then
    /// reads the trailer and compares. Returns the verified CRC.
    pub fn finish(mut self) -> Result<u32, SealError> {
        let mut buf = vec![0u8; CHUNK];
        while self.remaining > 0 {
            if self.read(&mut buf)? == 0 {
                return Err(SealError::Corrupt(format!(
                    "stream ended {} bytes before the CRC trailer",
                    self.remaining
                )));
            }
        }
        let mut trailer = [0u8; TRAILER_LEN];
        self.inner.read_exact(&mut trailer)?;
        let computed = self.crc.finish();
        check(trailer, computed)?;
        Ok(computed)
    }
}

impl<R: Read> Read for SealReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = usize::try_from(self.remaining).unwrap_or(CHUNK).min(CHUNK).min(buf.len());
        let (chunk, _) = buf.split_at_mut(want);
        let n = self.inner.read(chunk)?;
        self.crc.update(chunk.get(..n).unwrap_or(chunk));
        self.remaining = self.remaining.saturating_sub(n as u64);
        Ok(n)
    }
}

/// Opens a sealed file for one streaming pass.
pub fn open(path: &Path) -> Result<SealReader<File>, SealError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    SealReader::new(file, len)
}

/// Checks a sealed file's trailer in one pass through a fixed buffer, then
/// hands the file back rewound, with its length, for a second pass that
/// reads the bytes just verified.
pub fn verify(path: &Path) -> Result<(File, u64), SealError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    SealReader::new(&file, len)?.finish()?;
    file.rewind()?;
    Ok((file, len))
}

/// Reads a sealed file and returns its bytes verbatim — trailer included —
/// once they have verified.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SealError> {
    let mut reader = open(path)?;
    let payload_len = usize::try_from(reader.remaining())
        .map_err(|_| SealError::Corrupt(format!("{} bytes overflow usize", reader.remaining())))?;
    let mut sealed = vec![0u8; payload_len + TRAILER_LEN];
    let (payload, trailer) = sealed.split_at_mut(payload_len);
    reader.read_exact(payload)?;
    trailer.copy_from_slice(&reader.finish()?.to_le_bytes());
    Ok(sealed)
}

/// Crash-safe publish: `fill` writes a same-directory temp file, the whole
/// file name with `.tmp` appended, that is then renamed into place, so a
/// reader sees the old file, the new file, or a leftover `.tmp` it ignores
/// — never a half-written one. Files that differ only in their extension
/// (`rank0.state`, `rank0.port`) never share a temp file.
pub fn publish(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fill(&mut File::create(&tmp)?)?;
    fs::rename(&tmp, path)
}

/// [`publish`]es a sealed file: `fill` writes the payload, the trailer
/// follows it.
pub fn write_file(
    path: &Path,
    fill: impl FnOnce(&mut SealWriter<&mut File>) -> io::Result<()>,
) -> io::Result<()> {
    publish(path, |file| {
        let mut writer = SealWriter::new(file);
        fill(&mut writer)?;
        writer.finish().map(drop)
    })
}
