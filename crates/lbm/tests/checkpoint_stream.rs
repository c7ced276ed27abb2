//! The streaming checkpoint codec against the buffered one it replaced as
//! the core: for random slabs and component counts, with the stream cut
//! into chunks that straddle the plane records, the streamed bytes are
//! `seal(save_solver(..))`; `read_solver` turns every truncation and every
//! single-bit flip of a sealed file — header, records, trailer, at and
//! across a chunk edge — into `Corrupt`, never into a solver, and
//! `capture_file` into an error, never a snapshot. `capture_file` itself is
//! held bit for bit to restoring the slab and capturing it, over the slabs
//! of 1–3-slab decompositions, every wall BC, Shan–Chen ψ, wall adhesion,
//! obstacles across slab edges and one or two components — as, over the
//! same matrix, the capture that consumes a slab (`into_capture`, and
//! `Simulation::into_snapshot`) is held to the borrowing one.

use std::io::{Cursor, Read, Write};
use std::path::PathBuf;

use microslip_codec::{seal, SealReader, SealWriter, CHUNK, TRAILER_LEN};
use microslip_lbm::checkpoint::{
    capture_file, decode_solver, encode_solver, read_solver, save_solver, write_sealed, write_solver,
    CheckpointError,
};
use microslip_lbm::{
    ChannelConfig, Dims, InitProfile, PsiFn, Side, Simulation, Slab, SlabSolver, Snapshot, SolidRegion,
    WallBc,
};
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

/// `capture_file` of the slab `path` holds into a fresh snapshot of its
/// planes.
fn captured(config: &ChannelConfig, path: &std::path::Path, slab: Slab) -> Result<(Snapshot, u64), CheckpointError> {
    let dims = config.dims;
    let mut out = Snapshot::zeros(slab.x0, slab.nx_local, dims.ny, dims.nz, config.ncomp());
    let phase = capture_file(config, path, out.slab_mut(slab))?;
    Ok((out, phase))
}

/// Every value of a snapshot as bits, with its extent.
fn bits(s: &Snapshot) -> (usize, usize, Vec<u64>) {
    (s.x0, s.nx, s.rho.iter().flatten().chain(&s.velocity).map(|v| v.to_bits()).collect())
}

const CAPTURE_NX: usize = 12;

/// A channel exercising every input the captured force reads: the wall BC
/// (`bc`: bounce-back, tunable, patterned, rough — the last merges solid
/// ridges into the mask), Shan–Chen ψ, wall adhesion, a density wave along
/// x so ψ differs between neighbouring planes, and a solid block over
/// planes `block - 1 .. block + 1`.
fn capture_config(two_components: bool, bc: u8, shan_chen: bool, adhesion: bool, block: usize) -> ChannelConfig {
    capture_config_on(Dims::new(CAPTURE_NX, 6, 5), two_components, bc, shan_chen, adhesion, block)
}

/// [`capture_config`] on a cross-section of its own.
fn capture_config_on(
    dims: Dims,
    two_components: bool,
    bc: u8,
    shan_chen: bool,
    adhesion: bool,
    block: usize,
) -> ChannelConfig {
    let mut c = config(two_components);
    c.dims = dims;
    c.init = InitProfile::CosineX { amplitude: 0.2 };
    c.wall_bc = match bc {
        0 => WallBc::BounceBack,
        1 => WallBc::TunableSlip { r: 0.4 },
        2 => WallBc::PatternedSlip { r_a: 0.9, r_b: 0.2, period: 2, phase: 1 },
        _ => WallBc::rough_stripes(1, 3, dims),
    };
    let (water, _) = &mut c.components[0];
    if shan_chen {
        water.psi_fn = PsiFn::ShanChen { n0: 1.0 };
    }
    if adhesion {
        water.wall_adhesion = 0.05;
    }
    c.obstacles = vec![SolidRegion::Block { min: [block - 1, 2, 1], max: [block + 1, 4, 3] }];
    c.validate().unwrap();
    c
}

/// A whole-channel run cut down to `slab` by `take_planes` on either side:
/// its ψ ghosts are its neighbours' edge planes, as in a decomposed run.
fn cut(whole: &SlabSolver, slab: Slab) -> SlabSolver {
    let mut s = whole.clone();
    let right = whole.nx_local() - slab.x_end();
    if slab.x0 > 0 {
        s.take_planes(Side::Left, slab.x0);
    }
    if right > 0 {
        s.take_planes(Side::Right, right);
    }
    assert_eq!(s.slab(), slab);
    s
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
        // At least seven planes, so even one component (20 channels a
        // plane) spans a chunk edge.
        x0 in 0usize..(NX - 7),
        span in 7usize..NX,
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
        // Whatever the damage, `capture_file` ends in an error, never in a
        // snapshot of partly written planes (and never in a panic).
        let is_corrupt = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let refused = match captured(&config, &path, s.slab()) {
                Ok(_) => false,
                Err(CheckpointError::Corrupt { .. } | CheckpointError::BadLength { .. }) => true,
                Err(CheckpointError::BadMagic | CheckpointError::ConfigMismatch(_)) => true,
            };
            refused && matches!(read_solver(&config, &path), Err(CheckpointError::Corrupt { .. }))
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
        prop_assert_eq!(captured(&config, &path, s.slab()).unwrap().1, 9, "and captures");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn captured_files_are_the_restored_solvers_snapshot_bit_for_bit(
        // Bit 0: two components; bit 1: Shan–Chen ψ; bit 2: wall adhesion.
        flags in 0u8..8,
        bc in 0u8..4,
        cuts in proptest::collection::vec(1usize..CAPTURE_NX, 0..3),
        block in 1usize..CAPTURE_NX,
        phases in 0usize..4,
    ) {
        let cuts: std::collections::BTreeSet<usize> = cuts.into_iter().collect();
        // The block straddles the first slab edge when there is one.
        let block = cuts.iter().next().copied().unwrap_or(block);
        let config = capture_config(flags & 1 == 1, bc, flags & 2 == 2, flags & 4 == 4, block);
        let mut whole = SlabSolver::new(&config, Slab { x0: 0, nx_local: CAPTURE_NX });
        whole.prime_periodic();
        for _ in 0..phases {
            whole.phase_periodic();
        }
        let dir = scratch(&format!("capture-{flags}-{bc}-{block}-{}", cuts.len()));
        let edges: Vec<usize> = [0].into_iter().chain(cuts.iter().copied()).chain([CAPTURE_NX]).collect();
        let mut parts = Vec::new();
        for (k, ends) in edges.windows(2).enumerate() {
            let slab = Slab { x0: ends[0], nx_local: ends[1] - ends[0] };
            let path = dir.join(format!("slab{k}.bin"));
            write_solver(&path, &cut(&whole, slab), 7).unwrap();
            let (got, phase) = captured(&config, &path, slab).unwrap();
            let (restored, _) = read_solver(&config, &path).unwrap();
            prop_assert_eq!(phase, 7);
            prop_assert_eq!(bits(&got), bits(&restored.snapshot()), "slab {:?}", slab);
            parts.push(got);
        }
        // The slabs' captures stitch to the whole channel's snapshot.
        prop_assert_eq!(bits(&Snapshot::stitch(parts)), bits(&whole.snapshot()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The capture that consumes its slab, handing back the planes it has
    /// passed, is the borrowing one bit for bit — a slab's, and the whole
    /// simulation's. The cross-section's planes are 4224 bytes a channel,
    /// so pages go back mid-capture and page edges fall inside planes.
    #[test]
    fn consuming_captures_are_the_borrowing_ones_bit_for_bit(
        // Bit 0: two components; bit 1: Shan–Chen ψ; bit 2: wall adhesion.
        flags in 0u8..8,
        bc in 0u8..4,
        cuts in proptest::collection::vec(1usize..CAPTURE_NX, 0..3),
        block in 1usize..CAPTURE_NX,
        phases in 0u64..4,
    ) {
        let cuts: std::collections::BTreeSet<usize> = cuts.into_iter().collect();
        // The block straddles the first slab edge when there is one.
        let block = cuts.iter().next().copied().unwrap_or(block);
        let dims = Dims::new(CAPTURE_NX, 24, 22);
        let config = capture_config_on(dims, flags & 1 == 1, bc, flags & 2 == 2, flags & 4 == 4, block);
        let mut sim = Simulation::new(config.clone());
        sim.run(phases);
        let edges: Vec<usize> = [0].into_iter().chain(cuts.iter().copied()).chain([CAPTURE_NX]).collect();
        for ends in edges.windows(2) {
            let slab = Slab { x0: ends[0], nx_local: ends[1] - ends[0] };
            let s = cut(sim.solver(), slab);
            let want = s.snapshot();
            let mut got = Snapshot::zeros(slab.x0, slab.nx_local, dims.ny, dims.nz, config.ncomp());
            s.into_capture(got.slab_mut(slab));
            prop_assert_eq!(bits(&got), bits(&want), "slab {:?}", slab);
        }
        let want = sim.snapshot();
        prop_assert_eq!(bits(&sim.into_snapshot()), bits(&want));
    }
}

#[test]
fn capture_refuses_a_file_for_other_planes_or_another_grid_before_reading_planes() {
    let config = config(true);
    let dir = scratch("capture-header");
    let path = dir.join("slab.bin");
    let slab = Slab { x0: 3, nx_local: 5 };
    write_solver(&path, &solver(&config, slab.x0, slab.nx_local), 2).unwrap();
    assert_eq!(captured(&config, &path, slab).unwrap().1, 2);
    // Intact files, so the verdict is the header's, not the CRC's.
    for other in [Slab { x0: 4, nx_local: 5 }, Slab { x0: 3, nx_local: 4 }] {
        let err = captured(&config, &path, other).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");
    }
    let wider = ChannelConfig { dims: Dims::new(NX, 9, 6), ..config.clone() };
    let err = captured(&wider, &path, slab).unwrap_err();
    assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");
    // A hostile header: the slab rewritten past the channel, sealed anew.
    let mut bytes = save_solver(&solver(&config, slab.x0, slab.nx_local), 2);
    bytes[8 + 3 * 8..8 + 4 * 8].copy_from_slice(&(NX as u64).to_le_bytes());
    write_sealed(&path, bytes).unwrap();
    let err = captured(&config, &path, slab).unwrap_err();
    assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
