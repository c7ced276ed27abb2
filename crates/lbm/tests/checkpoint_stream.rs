//! The streaming checkpoint codec against the buffered one it replaced as
//! the core: for random slabs and component counts, with the stream cut
//! into chunks that straddle the array boundaries, the streamed bytes are
//! `seal(save_solver(..))`; and `read_solver` turns every truncation and
//! every single-bit flip of a sealed file — header, arrays, trailer, at and
//! across a chunk edge — into `Corrupt`, never into a solver.

use std::io::{Cursor, Read, Write};
use std::path::PathBuf;

use microslip_codec::{seal, SealReader, SealWriter, CHUNK, TRAILER_LEN};
use microslip_lbm::checkpoint::{
    decode_solver, encode_solver, read_solver, save_solver, write_solver, CheckpointError,
};
use microslip_lbm::{ChannelConfig, Dims, Slab, SlabSolver};
use proptest::prelude::*;

/// Transfers at most `step` bytes per call, so chunk edges fall anywhere.
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

const NX: usize = 14;

fn config(two_components: bool) -> ChannelConfig {
    let dims = Dims::new(NX, 8, 6);
    let mut c = if two_components {
        ChannelConfig::paper_scaled(dims)
    } else {
        ChannelConfig::single_component(dims, 1.0, 1e-4)
    };
    c.body = [1e-4, 0.0, 0.0];
    c
}

/// A slab with non-trivial state in every array.
fn solver(config: &ChannelConfig, x0: usize, nx_local: usize) -> SlabSolver {
    let mut s = SlabSolver::new(config, Slab { x0, nx_local });
    s.prime_local_psi();
    s.prime_finish();
    s
}

fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("microslip-ckpt-stream-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_checkpoint_equals_the_buffered_seal(
        two_components in 0u8..2,
        x0 in 0usize..NX,
        span in 1usize..NX,
        phase in 0u64..u64::MAX,
        step in 1usize..(2 * CHUNK),
    ) {
        let config = config(two_components == 1);
        let nx_local = span.min(NX - x0);
        let s = solver(&config, x0, nx_local);
        let sealed = seal(save_solver(&s, phase));

        let mut writer = SealWriter::new(Short { inner: Vec::new(), step });
        encode_solver(&s, phase, &mut writer).unwrap();
        prop_assert_eq!(&writer.finish().unwrap().inner, &sealed);

        let inner = Short { inner: Cursor::new(&sealed), step };
        let mut reader = SealReader::new(inner, sealed.len() as u64).unwrap();
        let len = reader.remaining();
        let (restored, got_phase) = decode_solver(&config, &mut reader, len).unwrap();
        reader.finish().unwrap();
        prop_assert_eq!(got_phase, phase);
        prop_assert_eq!(restored.slab(), s.slab());
        prop_assert_eq!(save_solver(&restored, phase), save_solver(&s, phase));
    }

    #[test]
    fn damaged_files_are_corrupt_and_yield_no_solver(
        two_components in 0u8..2,
        // At least six planes, so even one component spans a chunk edge.
        x0 in 0usize..(NX - 6),
        span in 6usize..NX,
        at in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let config = config(two_components == 1);
        let s = solver(&config, x0, span.min(NX - x0));
        let dir = scratch(&format!("{two_components}-{x0}-{span}-{at}"));
        let path = dir.join("slab.bin");
        write_solver(&path, &s, 9).unwrap();
        let sealed = std::fs::read(&path).unwrap();
        prop_assert_eq!(&sealed, &seal(save_solver(&s, 9)));
        prop_assert!(sealed.len() > CHUNK + 64, "the file must span a chunk edge");
        let is_corrupt = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            matches!(read_solver(&config, &path), Err(CheckpointError::Corrupt { .. }))
        };

        for cut in [0, 3, 63, 64, 72, at % sealed.len(), CHUNK, sealed.len() - 1] {
            prop_assert!(is_corrupt(&sealed[..cut]), "truncation at {}", cut);
        }
        // Header words (a flipped slab or phase still parses), the arrays,
        // both sides of the first chunk edge, and the trailer.
        let trailer = sealed.len() - 1 - at % TRAILER_LEN;
        for pos in [at % 64, 8 + 3 * 8, 8 + 6 * 8, at % sealed.len(), CHUNK - 1, CHUNK, trailer] {
            let mut bad = sealed.clone();
            bad[pos] ^= 1 << bit;
            prop_assert!(is_corrupt(&bad), "bit {} of byte {}", bit, pos);
        }
        std::fs::write(&path, &sealed).unwrap();
        prop_assert!(read_solver(&config, &path).is_ok(), "the undamaged file restores");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
