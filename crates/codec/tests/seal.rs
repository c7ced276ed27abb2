//! The streaming seal against the buffered one: whatever the split of the
//! writes and however short the reads, the bytes are `seal(payload)` and
//! every damaged stream is `Corrupt`.

use std::io::{Cursor, Read, Write};

use microslip_codec::{
    f64s_from_le, put_f64s, read_f64s, seal, unseal, write_f64s, SealError, SealReader, SealWriter,
    CHUNK, TRAILER_LEN,
};
use proptest::prelude::*;

mod common;
use common::noise;

/// A stream that transfers at most `step` bytes per call, so chunk edges
/// fall wherever the test wants them.
struct Short<T> {
    inner: T,
    step: usize,
}

impl<T: Read> Read for Short<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step);
        self.inner.read(&mut buf[..n])
    }
}

impl<T: Write> Write for Short<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(&buf[..buf.len().min(self.step)])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn stream_unseal(sealed: &[u8], step: usize) -> Result<Vec<u8>, SealError> {
    let inner = Short { inner: Cursor::new(sealed), step };
    let mut reader = SealReader::new(inner, sealed.len() as u64)?;
    let mut payload = vec![0u8; reader.remaining() as usize];
    reader.read_exact(&mut payload)?;
    reader.finish()?;
    Ok(payload)
}

#[test]
fn seal_unseal_roundtrip_and_trailer_length() {
    for len in [0usize, 1, 15, 16, 17, 4096] {
        let payload = noise(len, 3);
        let sealed = seal(payload.clone());
        assert_eq!(sealed.len(), len + TRAILER_LEN);
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
    }
}

#[test]
fn shorter_than_the_trailer_is_corrupt_not_a_panic() {
    for len in 0..TRAILER_LEN {
        let bytes = vec![0u8; len];
        assert!(matches!(unseal(&bytes), Err(SealError::Corrupt(_))));
        assert!(matches!(
            SealReader::new(Cursor::new(&bytes), len as u64),
            Err(SealError::Corrupt(_))
        ));
    }
}

#[test]
fn finish_drains_what_the_caller_left_unread() {
    let sealed = seal(noise(3 * CHUNK + 11, 5));
    let mut reader = SealReader::new(Cursor::new(&sealed), sealed.len() as u64).unwrap();
    let mut head = [0u8; 100];
    reader.read_exact(&mut head).unwrap();
    reader.finish().expect("valid seal verifies from any read position");
}

#[test]
fn a_stream_shorter_than_declared_is_an_error() {
    let sealed = seal(noise(1000, 9));
    let reader = SealReader::new(Cursor::new(&sealed[..600]), sealed.len() as u64).unwrap();
    assert!(reader.finish().is_err());
}

#[test]
fn files_publish_atomically_verify_and_read_back_verbatim() {
    let dir = std::env::temp_dir().join(format!("microslip-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("entry.bin");
    let payload = noise(2 * CHUNK + 5, 11);
    microslip_codec::write_file(&path, |w| w.write_all(&payload)).unwrap();
    assert!(!dir.join("entry.bin.tmp").exists(), "temp file must be renamed away");
    assert_eq!(std::fs::read(&path).unwrap(), seal(payload.clone()));
    // A verified file comes back rewound: the second pass reads it whole.
    let (mut file, len) = microslip_codec::verify(&path).unwrap();
    let mut again = Vec::new();
    file.read_to_end(&mut again).unwrap();
    assert_eq!(len, again.len() as u64);
    assert_eq!(again, seal(payload.clone()));
    assert_eq!(microslip_codec::read_file(&path).unwrap(), seal(payload));

    // One flipped bit on disk: both the streaming check and the read say so.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[CHUNK + 1] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(microslip_codec::verify(&path), Err(SealError::Corrupt(_))));
    assert!(matches!(microslip_codec::read_file(&path), Err(SealError::Corrupt(_))));
    assert!(matches!(microslip_codec::verify(&dir.join("absent.bin")), Err(SealError::Io(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn files_of_one_stem_publish_through_their_own_temp_files() {
    // `a.x` is published from inside the fill of `a.y`. Were the temp name
    // the stem's (`a.tmp`), the inner publish would take the outer one's
    // file away and the outer rename would fail.
    let dir = std::env::temp_dir().join(format!("microslip-codec-stem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (x, y) = (dir.join("a.x"), dir.join("a.y"));
    microslip_codec::publish(&y, |outer| {
        outer.write_all(b"outer, ")?;
        microslip_codec::publish(&x, |inner| inner.write_all(b"inner"))?;
        outer.write_all(b"still outer")
    })
    .unwrap();
    assert_eq!(std::fs::read(&x).unwrap(), b"inner");
    assert_eq!(std::fs::read(&y).unwrap(), b"outer, still outer");
    let mut names: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    assert_eq!(names, ["a.x", "a.y"], "no temp file is left behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn f64_runs_roundtrip_bit_exactly_across_chunk_edges() {
    let n = CHUNK / 8 * 2 + 3;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            f64::from_bits(0x7FF8_0000_0000_0000 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    let mut buffered = Vec::new();
    put_f64s(&mut buffered, &values);
    let mut streamed = Short { inner: Vec::new(), step: 1000 };
    write_f64s(&mut streamed, &values).unwrap();
    assert_eq!(streamed.inner, buffered);

    let mut back = vec![0.0; n];
    read_f64s(&mut Short { inner: Cursor::new(&buffered), step: 777 }, &mut back).unwrap();
    assert!(back.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
    let mut back = vec![0.0; n];
    f64s_from_le(&buffered, &mut back);
    assert!(back.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(read_f64s(&mut Cursor::new(&buffered[..8 * n - 1]), &mut back).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_bytes_equal_the_buffered_seal(
        seed in 0u64..u64::MAX,
        len in 0usize..(2 * CHUNK + 100),
        step in 1usize..(CHUNK + 100),
    ) {
        let payload = noise(len, seed);
        let mut writer = SealWriter::new(Short { inner: Vec::new(), step });
        writer.write_all(&payload).unwrap();
        let sealed = writer.finish().unwrap().inner;
        prop_assert_eq!(&sealed, &seal(payload.clone()));
        prop_assert_eq!(stream_unseal(&sealed, step).unwrap(), payload);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_corrupt(
        seed in 0u64..u64::MAX,
        len in 1usize..(CHUNK + 100),
        step in 1usize..(CHUNK + 100),
        at in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let sealed = seal(noise(len, seed));
        let cut = at % sealed.len();
        prop_assert!(stream_unseal(&sealed[..cut], step).is_err(), "cut at {}", cut);
        prop_assert!(unseal(&sealed[..cut]).is_err());
        // Anywhere: payload, trailer, and — since `len` straddles CHUNK — at
        // and across a chunk edge.
        for pos in [at % sealed.len(), sealed.len() - 1 - at % TRAILER_LEN, CHUNK.min(len) - 1] {
            let mut bad = sealed.clone();
            bad[pos] ^= 1 << bit;
            prop_assert!(
                matches!(stream_unseal(&bad, step), Err(SealError::Corrupt(_))),
                "flip at {}", pos
            );
            prop_assert!(matches!(unseal(&bad), Err(SealError::Corrupt(_))));
        }
    }
}
