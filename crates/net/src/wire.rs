//! The length-prefixed little-endian wire protocol.
//!
//! Every message on a microslip TCP connection is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      "MSN1" (raw bytes)
//!      4     2  version    u16 LE, currently 1
//!      6     1  kind       see the kind-code table below
//!      7     1  pad        must be 0
//!      8     4  from       u32 LE, sender rank
//!     12     8  tag        u64 LE, message tag (a byte payload's length)
//!     20     4  len        u32 LE, payload length in f64 elements
//!     24  8×len payload    f64 LE array
//!      …     4  crc        CRC-32 (IEEE) over bytes 4 .. 24+8×len
//! ```
//!
//! The CRC covers everything after the magic, so a frame whose header was
//! truncated or whose payload was bit-flipped in transit is rejected as a
//! protocol violation rather than silently corrupting a halo plane.
//!
//! ## Kind codes and protocol versioning
//!
//! ```text
//! code  kind         protocol        carries
//!    0  Data         mesh (v1)       tagged f64 application payload
//!    1  Goodbye      mesh (v1)       clean connection shutdown
//!    2  (retired)    —               was Hello; the decoder rejects it
//!    3  (retired)    —               was Roster; the decoder rejects it
//!    4  Ident        mesh (v1)       data-connection identification
//!    5  (retired)    —               was Rejoin; the decoder rejects it
//!   16  SweepSubmit  serve (v2)      byte payload: encoded sweep request
//!   17  SweepReply   serve (v2)      byte payload: accepted-sweep report
//!   18  StatusQuery  serve (v2)      tag = sweep id (0 = all)
//!   19  StatusReply  serve (v2)      byte payload: job-state report
//!   20  Fetch        serve (v2)      byte payload: content-address key
//!   21  FetchReply   serve (v2)      byte payload: sealed result artifact
//!   22  ServeError   serve (v2)      byte payload: typed failure message
//!   23  Shutdown     serve (v2)      graceful daemon shutdown request
//! ```
//!
//! The serve request/response frames introduced for `microslip serve` are
//! versioned **by kind-code range** rather than by bumping the `MSN1`
//! magic: codes 0–15 are reserved for the rank-mesh protocol, codes 16+
//! for the sweep service. A v1-only peer (an old `mp` rank or client)
//! that receives a serve frame fails its [`FrameKind::from_code`] lookup
//! and surfaces a typed `Protocol("unknown frame kind …")` error — never
//! a hang or a misparse — while the magic, header layout, CRC coverage
//! and framing stay byte-compatible for every existing v1 exchange.
//!
//! Serve frames carry *byte* payloads (request codecs, sealed artifacts)
//! packed into the f64 payload lane via [`Frame::from_bytes`]: 8 bytes
//! per element, zero-padded, with the true byte length in `tag`. The
//! packing is a pure bit reinterpretation ([`f64::from_le_bytes`] /
//! [`f64::to_le_bytes`] never canonicalize NaNs), so
//! [`Frame::bytes_payload`] recovers the exact input bytes.
//!
//! A byte payload can also cross without ever being whole in memory:
//! [`write_bytes_frame`] sends the bytes of a [`Read`] as they arrive, and
//! [`Incoming::bytes_into`] hands them to a [`Write`] as they are read,
//! each a [`CHUNK`] at a time with the CRC computed on the way. The bytes
//! on the wire are the same either way.

use std::io::{self, Read, Write};

use microslip_codec::{crc32, f64s_from_le, put_f64s, Crc32, CHUNK};

/// Frame preamble: the ASCII bytes `MSN1` ("microslip net v1").
pub const MAGIC: [u8; 4] = *b"MSN1";

/// Current protocol version.
pub const VERSION: u16 = 1;

/// Sanity cap on payload length (f64 elements): a corrupt length field
/// must not trigger a multi-gigabyte allocation.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 28;

/// Bytes of the header, magic included, in front of the payload.
const HEADER_LEN: usize = 24;

/// What a frame carries. The discriminants are the wire's kind codes,
/// the one code table (the module docs list it): `code` is the cast and
/// `from_code` searches [`FrameKind::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Tagged application payload.
    Data = 0,
    /// Poison frame: the sender is shutting this connection down cleanly.
    Goodbye = 1,
    /// Mesh establishment: first frame on a data connection, `from` =
    /// the connecting rank.
    Ident = 4,
    /// Serve: client → daemon. Byte payload = an encoded sweep request
    /// (base scenario + parameter grid). Codes ≥ 16 are the serve
    /// protocol's range — a v1 mesh peer rejects them with a typed
    /// `Protocol` error (see the module docs on versioning).
    SweepSubmit = 16,
    /// Serve: daemon → client. Byte payload = the accepted-sweep report
    /// (sweep id, expanded job keys, dedupe counts).
    SweepReply = 17,
    /// Serve: client → daemon. `tag` = sweep id to report on (0 = all).
    StatusQuery = 18,
    /// Serve: daemon → client. Byte payload = per-job state report.
    StatusReply = 19,
    /// Serve: client → daemon. Byte payload = the content-address key of
    /// the result artifact to fetch.
    Fetch = 20,
    /// Serve: daemon → client. Byte payload = the sealed result artifact,
    /// verbatim as stored (byte-identical to a direct run's output).
    FetchReply = 21,
    /// Serve: daemon → client. Byte payload = a typed failure message
    /// (unknown key, malformed request, …).
    ServeError = 22,
    /// Serve: client → daemon. Ask the daemon to finish its queue and
    /// exit cleanly; acknowledged with an empty [`StatusReply`](Self::StatusReply).
    Shutdown = 23,
}

impl FrameKind {
    /// Every kind, in code order.
    pub const ALL: [FrameKind; 11] = [
        FrameKind::Data,
        FrameKind::Goodbye,
        FrameKind::Ident,
        FrameKind::SweepSubmit,
        FrameKind::SweepReply,
        FrameKind::StatusQuery,
        FrameKind::StatusReply,
        FrameKind::Fetch,
        FrameKind::FetchReply,
        FrameKind::ServeError,
        FrameKind::Shutdown,
    ];

    fn code(self) -> u8 {
        self as u8
    }

    fn from_code(code: u8) -> Option<FrameKind> {
        FrameKind::ALL.into_iter().find(|k| k.code() == code)
    }
}

/// One decoded wire frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    pub kind: FrameKind,
    pub from: u32,
    pub tag: u64,
    pub payload: Vec<f64>,
}

impl Frame {
    pub fn data(from: u32, tag: u64, payload: Vec<f64>) -> Frame {
        Frame { kind: FrameKind::Data, from, tag, payload }
    }

    pub fn goodbye(from: u32) -> Frame {
        Frame { kind: FrameKind::Goodbye, from, tag: 0, payload: Vec::new() }
    }

    /// Packs a byte blob into the f64 payload lane: 8 bytes per element
    /// (zero-padded tail), true byte length in `tag`. The reinterpretation
    /// is bit-exact — [`bytes_payload`](Self::bytes_payload) recovers the
    /// input verbatim. The serve request/response frames use this to carry
    /// encoded scenarios and sealed artifacts.
    pub fn from_bytes(kind: FrameKind, from: u32, bytes: &[u8]) -> Frame {
        let payload = bytes.chunks(8).map(f64_from_le_chunk).collect();
        Frame { kind, from, tag: bytes.len() as u64, payload }
    }

    /// Recovers the byte blob packed by [`from_bytes`](Self::from_bytes).
    /// The frame must be canonical: `tag` names the byte length, and the
    /// payload must hold exactly `ceil(tag / 8)` elements — anything else
    /// is a protocol violation, not a guess.
    pub fn bytes_payload(&self) -> Result<Vec<u8>, FrameError> {
        let declared = self.tag;
        let have_elems = self.payload.len() as u64;
        let need_elems = declared.div_ceil(8);
        if need_elems != have_elems {
            return Err(FrameError::Protocol(format!(
                "byte payload length {declared} needs {need_elems} f64 elements, frame has {have_elems}"
            )));
        }
        let mut out = Vec::new();
        put_f64s(&mut out, &self.payload);
        let declared_len = usize::try_from(declared).map_err(|_| {
            FrameError::Protocol(format!("byte payload length {declared} overflows usize"))
        })?;
        out.truncate(declared_len);
        Ok(out)
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes EOF and timeouts).
    Io(io::Error),
    /// Bytes arrived but they are not a valid frame.
    Protocol(String),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Appends the 24 header bytes of a frame of `len` elements.
fn put_header(out: &mut Vec<u8>, kind: FrameKind, from: u32, tag: u64, len: u32) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.code());
    out.push(0); // pad
    out.extend_from_slice(&from.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
}

/// Serializes `frame` into a single buffer (one `write_all`, so a frame is
/// never interleaved mid-stream by a panicking sender).
pub fn encode(frame: &Frame) -> Vec<u8> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "frames are locally constructed, and the decoder's MAX_PAYLOAD_LEN check \
                  rejects anything a truncated length could describe"
    )]
    let len = frame.payload.len() as u32;
    let mut buf = Vec::with_capacity(HEADER_LEN + frame.payload.len() * 8 + 4);
    put_header(&mut buf, frame.kind, frame.from, frame.tag, len);
    put_f64s(&mut buf, &frame.payload);
    // The CRC covers everything after the magic.
    let crc = crc32(buf.get(MAGIC.len()..).unwrap_or_default());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Writes the byte-payload frame [`Frame::from_bytes`] would build from
/// `len` bytes, reading them from `body` as they go out: through one
/// buffer of at most a [`CHUNK`], zero-padded to whole elements, the CRC
/// computed as they pass. The bytes written are exactly
/// `encode(&Frame::from_bytes(kind, from, bytes))`, and a frame that fits
/// the buffer leaves in one write, as `encode`'s does. A `body` that ends
/// before `len` bytes is an `UnexpectedEof` error, possibly after part of
/// the frame has gone out.
pub fn write_bytes_frame(
    w: &mut impl Write,
    kind: FrameKind,
    from: u32,
    len: u64,
    body: impl Read,
) -> io::Result<()> {
    let elems = u32::try_from(len.div_ceil(8))
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD_LEN)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("{len} bytes exceed the frame cap"))
        })?;
    let pad = usize::try_from(u64::from(elems) * 8 - len).unwrap_or_default();
    let frame_len = HEADER_LEN as u64 + u64::from(elems) * 8 + 4;
    let cap = usize::try_from(frame_len).map_or(CHUNK, |n| n.min(CHUNK));
    let mut buf = Vec::with_capacity(cap);
    put_header(&mut buf, kind, from, len, elems);
    let mut crc = Crc32::new();
    crc.update(buf.get(MAGIC.len()..).unwrap_or_default());
    let mut filled = buf.len();
    buf.resize(cap, 0);
    let mut body = body.take(len);
    let mut sent = 0u64;
    loop {
        if filled == cap {
            w.write_all(&buf)?;
            filled = 0;
        }
        let room = buf.get_mut(filled..).unwrap_or_default();
        let n = match body.read(room) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        crc.update(room.get(..n).unwrap_or_default());
        filled += n;
        sent += n as u64;
    }
    if sent != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("byte payload ended after {sent} of {len} bytes"),
        ));
    }
    // The zero pad and the CRC close the frame, in the buffer's last write.
    let zeros = [0u8; 8];
    let pad = zeros.get(..pad).unwrap_or_default();
    crc.update(pad);
    if filled + pad.len() + 4 > cap {
        w.write_all(buf.get(..filled).unwrap_or_default())?;
        filled = 0;
    }
    buf.truncate(filled);
    buf.extend_from_slice(pad);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    w.write_all(&buf)
}

/// Converts one `chunks(8)` chunk into an `f64`, zero-padding a short
/// tail chunk; copying through a fixed array cannot fail.
fn f64_from_le_chunk(chunk: &[u8]) -> f64 {
    let mut le = [0u8; 8];
    for (dst, src) in le.iter_mut().zip(chunk) {
        *dst = *src;
    }
    f64::from_le_bytes(le)
}

/// A frame whose header has been read and checked, its payload still on
/// the stream: [`into_frame`](Self::into_frame) reads it as `f64`s,
/// [`bytes_into`](Self::bytes_into) streams a byte payload on.
pub struct Incoming<R> {
    pub kind: FrameKind,
    pub from: u32,
    pub tag: u64,
    /// Payload length in `f64` elements, at most [`MAX_PAYLOAD_LEN`].
    len: u32,
    /// The CRC of the bytes read so far, the header's.
    crc: Crc32,
    r: R,
}

/// Reads and validates one frame's header from `r`.
pub fn read_header<R: Read>(mut r: R) -> Result<Incoming<R>, FrameError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(FrameError::Protocol(format!(
            "bad magic {magic:02x?} (expected {MAGIC:02x?})"
        )));
    }
    // Fixed-size header after the magic, destructured by pattern so no
    // byte is ever fetched through a fallible index.
    let mut header = [0u8; HEADER_LEN - 4];
    r.read_exact(&mut header)?;
    #[rustfmt::skip]
    let [v0, v1, kind_code, pad,
         from0, from1, from2, from3,
         tag0, tag1, tag2, tag3, tag4, tag5, tag6, tag7,
         len0, len1, len2, len3] = header;
    let version = u16::from_le_bytes([v0, v1]);
    if version != VERSION {
        return Err(FrameError::Protocol(format!(
            "unsupported protocol version {version} (expected {VERSION})"
        )));
    }
    let kind = FrameKind::from_code(kind_code)
        .ok_or_else(|| FrameError::Protocol(format!("unknown frame kind {kind_code}")))?;
    if pad != 0 {
        return Err(FrameError::Protocol(format!("nonzero pad byte {pad}")));
    }
    let from = u32::from_le_bytes([from0, from1, from2, from3]);
    let tag = u64::from_le_bytes([tag0, tag1, tag2, tag3, tag4, tag5, tag6, tag7]);
    let len = u32::from_le_bytes([len0, len1, len2, len3]);
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameError::Protocol(format!(
            "payload length {len} exceeds cap {MAX_PAYLOAD_LEN}"
        )));
    }
    // The CRC covers version..payload == header ++ body.
    let mut crc = Crc32::new();
    crc.update(&header);
    Ok(Incoming { kind, from, tag, len, crc, r })
}

/// Reads and validates one frame from `r`.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    read_header(r)?.into_frame()
}

impl<R> Incoming<R> {
    /// Bytes of the payload lane the header announces.
    pub(crate) fn payload_bytes(&self) -> u64 {
        u64::from(self.len) * 8
    }
}

impl<R: Read> Incoming<R> {
    /// Reads the payload as `f64`s and checks the CRC: the rest of
    /// [`read_frame`].
    pub fn into_frame(mut self) -> Result<Frame, FrameError> {
        let body_len = usize::try_from(self.len)
            .map_err(|_| FrameError::Protocol(format!("payload length {} overflows usize", self.len)))?;
        // The length is unverified until the CRC: the buffer grows with the
        // bytes that actually arrive, from at most one chunk up front.
        let mut body = Vec::with_capacity((body_len * 8).min(CHUNK));
        (&mut self.r).take(u64::from(self.len) * 8).read_to_end(&mut body)?;
        if body.len() != body_len * 8 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        self.crc.update(&body);
        self.check_crc()?;
        let mut payload = vec![0.0; body_len];
        f64s_from_le(&body, &mut payload);
        Ok(Frame { kind: self.kind, from: self.from, tag: self.tag, payload })
    }

    /// Streams a byte payload — the layout [`Frame::from_bytes`] builds —
    /// into `sink`: the first `tag` bytes of the lane, a [`CHUNK`] at a
    /// time, then checks the CRC. A lane that is not `ceil(tag / 8)`
    /// elements long is a protocol violation, refused before anything is
    /// read. What reaches `sink` is **unverified until this returns
    /// `Ok`**; on an error the caller discards it. Returns the byte count.
    pub fn bytes_into(mut self, sink: &mut impl Write) -> Result<u64, FrameError> {
        let need = self.tag.div_ceil(8);
        if need != u64::from(self.len) {
            return Err(FrameError::Protocol(format!(
                "byte payload length {} needs {need} f64 elements, frame has {}",
                self.tag, self.len
            )));
        }
        let mut left = u64::from(self.len) * 8;
        let mut keep = self.tag;
        let mut buf = vec![0u8; usize::try_from(left).map_or(CHUNK, |n| n.min(CHUNK))];
        while left > 0 {
            let n = usize::try_from(left).map_or(buf.len(), |l| l.min(buf.len()));
            let chunk = buf.get_mut(..n).unwrap_or_default();
            self.r.read_exact(chunk)?;
            self.crc.update(chunk);
            let kept = usize::try_from(keep).map_or(n, |k| k.min(n));
            sink.write_all(chunk.get(..kept).unwrap_or_default())?;
            keep -= kept as u64;
            left -= n as u64;
        }
        self.check_crc()?;
        Ok(self.tag)
    }

    fn check_crc(&mut self) -> Result<(), FrameError> {
        let mut crc_bytes = [0u8; 4];
        self.r.read_exact(&mut crc_bytes)?;
        let got = u32::from_le_bytes(crc_bytes);
        let want = self.crc.finish();
        if got != want {
            return Err(FrameError::Protocol(format!(
                "crc mismatch: frame says {got:#010x}, computed {want:#010x}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_all_kinds() {
        let frames = [
            Frame::data(3, 17, vec![1.0, -2.5, f64::MIN_POSITIVE, 0.0]),
            Frame::goodbye(0),
            Frame { kind: FrameKind::Ident, from: 1, tag: 0, payload: vec![] },
            Frame::from_bytes(FrameKind::SweepSubmit, 0, b"scenario bytes"),
            Frame::from_bytes(FrameKind::SweepReply, 0, b"sweep=1 jobs=4"),
            Frame { kind: FrameKind::StatusQuery, from: 0, tag: 1, payload: vec![] },
            Frame::from_bytes(FrameKind::StatusReply, 0, b"done=4"),
            Frame::from_bytes(FrameKind::Fetch, 0, b"00f00ba4deadbeef"),
            Frame::from_bytes(FrameKind::FetchReply, 0, &[0u8, 1, 2, 255]),
            Frame::from_bytes(FrameKind::ServeError, 0, b"unknown key"),
            Frame { kind: FrameKind::Shutdown, from: 0, tag: 0, payload: vec![] },
        ];
        for f in frames {
            let bytes = encode(&f);
            let back = read_frame(&mut Cursor::new(&bytes)).expect("decode");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn kind_codes_are_one_table() {
        // Every byte decodes to the kind with that code, or to nothing.
        for code in 0..=u8::MAX {
            if let Some(kind) = FrameKind::from_code(code) {
                assert_eq!(kind.code(), code);
            }
        }
        // ALL holds every kind once, in code order. The match has no
        // wildcard: a new kind stops this test compiling until it has a
        // position here and a place in ALL.
        for (i, kind) in FrameKind::ALL.into_iter().enumerate() {
            let position = match kind {
                FrameKind::Data => 0,
                FrameKind::Goodbye => 1,
                FrameKind::Ident => 2,
                FrameKind::SweepSubmit => 3,
                FrameKind::SweepReply => 4,
                FrameKind::StatusQuery => 5,
                FrameKind::StatusReply => 6,
                FrameKind::Fetch => 7,
                FrameKind::FetchReply => 8,
                FrameKind::ServeError => 9,
                FrameKind::Shutdown => 10,
            };
            assert_eq!(position, i, "{kind:?} is out of place in ALL");
        }
        // The module docs carry a `code  Name` row for every kind.
        let doc = include_str!("wire.rs");
        for kind in FrameKind::ALL {
            let row = format!("//! {:>4}  {kind:?} ", kind.code());
            assert!(doc.contains(&row), "the kind table has no row {row:?}");
        }
    }

    #[test]
    fn byte_payloads_roundtrip_bit_exactly() {
        // Lengths straddling the 8-byte element boundary, plus content that
        // reinterprets as NaN/infinity bit patterns — packing must never
        // canonicalize them.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 4096] {
            let bytes: Vec<u8> = (0..n).map(|i| u8::try_from(i * 37 % 251).unwrap()).collect();
            let f = Frame::from_bytes(FrameKind::FetchReply, 2, &bytes);
            assert_eq!(f.tag, n as u64);
            let wire = encode(&f);
            let back = read_frame(&mut Cursor::new(&wire)).unwrap();
            assert_eq!(back.bytes_payload().unwrap(), bytes);
        }
        let nan_bits = [0xFFu8; 8];
        let f = Frame::from_bytes(FrameKind::FetchReply, 0, &nan_bits);
        assert_eq!(f.bytes_payload().unwrap(), nan_bits);
    }

    /// Hands out at most `step` bytes per read, like a socket might.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| u8::try_from(i * 37 % 251).unwrap()).collect()
    }

    fn streamed(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_bytes_frame(&mut out, FrameKind::FetchReply, 3, bytes.len() as u64, bytes).unwrap();
        out
    }

    fn streamed_back(wire: &[u8]) -> Result<Vec<u8>, FrameError> {
        let mut bytes = Vec::new();
        read_header(wire)?.bytes_into(&mut bytes)?;
        Ok(bytes)
    }

    #[test]
    fn a_streamed_byte_frame_is_the_encoded_one() {
        let lengths = (0..=17).chain(CHUNK - 1..=CHUNK + 1).chain([3 * CHUNK + 5]);
        for n in lengths {
            let bytes = pattern(n);
            let want = encode(&Frame::from_bytes(FrameKind::FetchReply, 3, &bytes));
            assert_eq!(streamed(&bytes), want, "{n} bytes");
            let mut trickled = Vec::new();
            write_bytes_frame(&mut trickled, FrameKind::FetchReply, 3, n as u64, Trickle(&bytes, 7))
                .unwrap();
            assert_eq!(trickled, want, "{n} bytes in reads of 7");
            // Both readers give the bytes back.
            assert_eq!(streamed_back(&want).unwrap(), bytes, "{n} bytes");
            let frame = read_frame(&mut Cursor::new(&want)).unwrap();
            assert_eq!(frame.bytes_payload().unwrap(), bytes, "{n} bytes");
        }
    }

    #[test]
    fn a_streamed_byte_frame_refuses_truncation_and_bit_flips() {
        for n in [13, CHUNK + 1, 3 * CHUNK + 5] {
            let wire = streamed(&pattern(n));
            let len = wire.len();
            for cut in [0, 3, 23, 24, 25, len / 2, len - 5, len - 4, len - 1] {
                assert!(read_frame(&mut Cursor::new(&wire[..cut])).is_err(), "{n}: cut at {cut}");
                assert!(streamed_back(&wire[..cut]).is_err(), "{n}: cut at {cut}");
            }
            let step = if n < 64 { 1 } else { 997 };
            for pos in (0..len).step_by(step).chain(len - 8..len) {
                let mut bytes = wire.clone();
                bytes[pos] ^= 0x10;
                assert!(read_frame(&mut Cursor::new(&bytes)).is_err(), "{n}: flip at {pos}");
                assert!(streamed_back(&bytes).is_err(), "{n}: flip at {pos}");
            }
        }
    }

    #[test]
    fn a_body_shorter_than_its_length_is_an_error() {
        let mut out = Vec::new();
        let err =
            write_bytes_frame(&mut out, FrameKind::FetchReply, 0, 10, &b"12345"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn inconsistent_byte_length_is_protocol_error() {
        // tag says 9 bytes (needs 2 elements) but payload has 1.
        let f = Frame { kind: FrameKind::Fetch, from: 0, tag: 9, payload: vec![0.0] };
        match f.bytes_payload() {
            Err(FrameError::Protocol(d)) => assert!(d.contains("byte payload")),
            other => panic!("{other:?}"),
        }
        // tag says 3 bytes but payload has 2 elements (too many).
        let f = Frame { kind: FrameKind::Fetch, from: 0, tag: 3, payload: vec![0.0, 0.0] };
        assert!(f.bytes_payload().is_err());
        // The streaming reader refuses both before reading the lane.
        for (tag, elems) in [(9, 1), (3, 2)] {
            let f = Frame { kind: FrameKind::Fetch, from: 0, tag, payload: vec![0.0; elems] };
            match streamed_back(&encode(&f)) {
                Err(FrameError::Protocol(d)) => assert!(d.contains("byte payload"), "{d}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn v1_reader_rejects_serve_kinds_with_typed_error() {
        // A v1-only peer has no codes ≥ 16 in its kind table; simulate one
        // by patching the kind byte to a code outside any known range and
        // asserting the failure is a typed Protocol error, not a hang or
        // misparse. Real serve codes decode fine on this (v2) reader, so
        // also check the exact error text shape an old reader produces.
        let mut bytes = encode(&Frame::goodbye(0));
        bytes[6] = 99;
        match read_frame(&mut Cursor::new(&bytes)) {
            Err(FrameError::Protocol(d)) => assert!(d.contains("unknown frame kind 99")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn the_retired_codes_are_refused() {
        // Hello (2), Roster (3) and Rejoin (5) are no kinds: a frame
        // claiming one is a protocol error.
        for code in [2, 3, 5] {
            assert_eq!(FrameKind::from_code(code), None);
            let mut bytes = encode(&Frame::goodbye(0));
            bytes[6] = code;
            match read_frame(&mut Cursor::new(&bytes)) {
                Err(FrameError::Protocol(d)) => {
                    assert!(d.contains(&format!("unknown frame kind {code}")), "{d}")
                }
                other => panic!("code {code}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_and_large_payloads_roundtrip() {
        for n in [0usize, 1, 255, 4096] {
            let f = Frame::data(0, 1, (0..n).map(|i| i as f64 * 0.5).collect());
            let back = read_frame(&mut Cursor::new(encode(&f))).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let f = Frame::data(1, 42, vec![3.5, -1.0]);
        let clean = encode(&f);
        // Flip one bit at every byte position; every corruption must be
        // rejected — as a protocol violation (bad magic/version/kind/pad,
        // CRC mismatch) or, for a length-field flip, a short read.
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            assert!(
                read_frame(&mut Cursor::new(&bytes)).is_err(),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let bytes = encode(&Frame::data(0, 1, vec![1.0, 2.0]));
        for cut in [3, 10, 24, bytes.len() - 1] {
            match read_frame(&mut Cursor::new(&bytes[..cut])) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
                }
                other => panic!("cut at {cut}: expected EOF, got {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_length_is_rejected_without_allocating() {
        let mut bytes = encode(&Frame::data(0, 1, vec![]));
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut Cursor::new(&bytes)) {
            Err(FrameError::Protocol(d)) => assert!(d.contains("cap")),
            other => panic!("expected length-cap rejection, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_reported() {
        let mut bytes = encode(&Frame::goodbye(0));
        bytes[4] = 9;
        match read_frame(&mut Cursor::new(&bytes)) {
            Err(FrameError::Protocol(d)) => assert!(d.contains("version")),
            other => panic!("{other:?}"),
        }
    }
}
