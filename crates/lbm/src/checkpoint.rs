//! Checkpoint / restore of simulation state.
//!
//! The paper's production runs take "days or weeks" even in parallel
//! (§1); a restartable state dump is table stakes for such runs. The
//! format is a simple self-describing little-endian binary layout — no
//! external serialization dependency — and restoring is **bitwise exact**:
//! a restored simulation continues on the identical trajectory.
//!
//! Layout: an 8-byte magic, seven `u64` header words (grid, slab, phase,
//! component count), then one record per storage plane of the slab's
//! window, ghost planes included, in ascending x: for every component the
//! plane's `f` (19 channels) and ψ (1), each a run of `ny · nz` values —
//! 20 channels, the same records, in the same order, as a migrated plane
//! ([`SlabSolver::take_planes`]). The ghosts are stored so no re-exchange
//! is needed before the first restored phase. An owned plane's ψ is not
//! state: it is written as Σ_i f_i of the record's populations, and a
//! decoder holds it to that sum, to the bit, refusing a record that
//! disagrees as `Corrupt`; a ghost plane's ψ is the exchanged value the
//! state keeps (neither the force nor the equilibrium velocity is state: a
//! collision forms them from ψ, a snapshot recomputes them). On disk the payload is sealed
//! with the [`microslip_codec`] CRC-32 trailer. `MSLIPCK3`, the same plane
//! records with the 3 `ueq` channels after ψ (23 channels), the
//! channel-major `MSLIPCK2` and the 26-channel `MSLIPCK1` are refused by
//! magic.
//!
//! The codec is a stream: [`encode_solver`] writes a solver's planes to any
//! `Write` and [`decode_solver`] fills a solver's planes from any `Read`,
//! a record at a time, so [`write_solver`] / [`read_solver`] move a slab
//! between memory and a sealed file without a second, serialised copy of
//! it. The `Vec<u8>` entry points are the same code over a buffer. Because
//! a plane's force needs only the ψ of its two neighbours,
//! [`capture_file`] takes a slab's snapshot straight off its file with one
//! plane of state in memory, never the slab.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use microslip_codec::{f64s_from_le, put_f64s, SealError, TRAILER_LEN};

use crate::component::ComponentState;
use crate::config::ChannelConfig;
use crate::field::LocalGrid;
use crate::geometry::Slab;
use crate::lattice::D3Q19;
use crate::macroscopic::SnapshotSlab;
use crate::simulation::Simulation;
use crate::solver::{solid_mask, SlabSolver};

/// File-format magic ("MSLIPCK4").
pub const MAGIC: [u8; 8] = *b"MSLIPCK4";

/// Magic plus the seven header words.
const HEADER_LEN: usize = 64;

/// Why a restore was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Magic bytes absent or wrong version.
    BadMagic,
    /// The byte stream ended early or has trailing garbage.
    BadLength { expected: u64, got: u64 },
    /// The checkpoint does not belong to the given configuration.
    ConfigMismatch(String),
    /// A sealed file is unreadable, torn or bit-rotted: the CRC-32 trailer
    /// is missing or does not match the payload.
    Corrupt { detail: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a microslip checkpoint"),
            CheckpointError::BadLength { expected, got } => {
                write!(f, "checkpoint length {got}, expected {expected}")
            }
            CheckpointError::ConfigMismatch(why) => write!(f, "config mismatch: {why}"),
            CheckpointError::Corrupt { detail } => {
                write!(f, "corrupt checkpoint: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SealError> for CheckpointError {
    fn from(e: SealError) -> CheckpointError {
        CheckpointError::Corrupt { detail: e.to_string() }
    }
}

/// Bytes [`encode_solver`] writes for `solver`.
fn encoded_len(solver: &SlabSolver) -> usize {
    HEADER_LEN + 8 * solver.grid().lx * solver.migration_plane_len()
}

/// Streams a slab solver's mutable state plus a phase counter into `w`.
pub fn encode_solver(solver: &SlabSolver, phase: u64, w: &mut impl Write) -> io::Result<()> {
    let grid = solver.grid();
    let words = [
        solver.global_nx as u64,
        grid.ny as u64,
        grid.nz as u64,
        solver.x0 as u64,
        solver.nx_local() as u64,
        solver.comps.len() as u64,
        phase,
    ];
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    for (dst, word) in header[8..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
    w.write_all(&header)?;
    // The window only, a plane record at a time, each plane of `f`
    // encoded straight from its storage: the bytes do not depend on how
    // many planes the slab has reserved around it.
    let mut psi = vec![0.0; grid.plane_cells()];
    let mut record = Vec::with_capacity(8 * solver.migration_plane_len());
    for xl in 0..grid.lx {
        record.clear();
        SlabSolver::plane_record(&solver.comps, xl, &mut psi, |run| put_f64s(&mut record, run));
        w.write_all(&record)?;
    }
    Ok(())
}

/// Reads the next plane record from `r` through the byte buffer `record`
/// (its exact size) into local plane `xl` of `comps`: each component's
/// `f` decoded straight into its plane, its ψ into `scratch` (two planes'
/// cells) and kept where `halo_psi` keeps it. An owned plane's ψ must be
/// the sum of its populations to the bit — the state keeps no other — or
/// the record is corrupt, at `storage_plane`.
fn read_record(
    r: &mut impl Read,
    record: &mut [u8],
    scratch: &mut [f64],
    comps: &mut [ComponentState],
    xl: usize,
    storage_plane: usize,
) -> Result<(), CheckpointError> {
    r.read_exact(record).map_err(|e| CheckpointError::Corrupt { detail: e.to_string() })?;
    let grid = comps[0].grid();
    let owned = (LocalGrid::FIRST..=grid.last()).contains(&xl);
    let (psi, sum) = scratch.split_at_mut(grid.plane_cells());
    let per_component = record.len() / comps.len();
    for (c, bytes) in comps.iter_mut().zip(record.chunks_exact(per_component)) {
        let (f, psi_bytes) = bytes.split_at(8 * c.f.plane_len());
        f64s_from_le(f, c.f.plane_values_mut(xl));
        f64s_from_le(psi_bytes, psi);
        c.keep_psi(xl, psi);
        if owned {
            crate::macroscopic::plane_psi(&c.f, xl, sum);
            if !sum.iter().zip(&*psi).all(|(a, b)| a.to_bits() == b.to_bits()) {
                let detail = format!("storage plane {storage_plane}: ψ is not the sum of its populations");
                return Err(CheckpointError::Corrupt { detail });
            }
        }
    }
    Ok(())
}

/// The header of a checkpoint: the slab it holds and its phase, after the
/// magic and the grid have been checked against `config` (`None`: only the
/// magic and the slab's own bounds are checked).
fn decode_header(
    config: Option<&ChannelConfig>,
    r: &mut impl Read,
    payload_len: u64,
) -> Result<(Slab, u64), CheckpointError> {
    let unreadable = |e: io::Error| CheckpointError::Corrupt { detail: e.to_string() };
    let mut header = [0u8; HEADER_LEN];
    let have = usize::try_from(payload_len).map_or(HEADER_LEN, |n| n.min(HEADER_LEN));
    r.read_exact(&mut header[..have]).map_err(unreadable)?;
    if header[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if have < HEADER_LEN {
        return Err(CheckpointError::BadLength { expected: HEADER_LEN as u64, got: payload_len });
    }
    let mut words = [0u64; 7];
    for (word, chunk) in words.iter_mut().zip(header[8..].chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    let dim = |i: usize, what: &str| {
        usize::try_from(words[i]).map_err(|_| {
            CheckpointError::ConfigMismatch(format!("{what} {} exceeds usize", words[i]))
        })
    };
    let (global_nx, ny, nz) = (dim(0, "nx")?, dim(1, "ny")?, dim(2, "nz")?);
    let (x0, nx_local, ncomp) = (dim(3, "x0")?, dim(4, "nx_local")?, dim(5, "component count")?);
    let phase = words[6];

    if let Some(config) = config {
        if global_nx != config.dims.nx || ny != config.dims.ny || nz != config.dims.nz {
            return Err(CheckpointError::ConfigMismatch(format!(
                "grid {global_nx}x{ny}x{nz} vs config {}x{}x{}",
                config.dims.nx, config.dims.ny, config.dims.nz
            )));
        }
        if ncomp != config.ncomp() {
            return Err(CheckpointError::ConfigMismatch(format!(
                "{ncomp} components vs config {}",
                config.ncomp()
            )));
        }
    }
    if nx_local == 0 || x0.checked_add(nx_local).is_none_or(|end| end > global_nx) {
        return Err(CheckpointError::ConfigMismatch(format!(
            "slab of {nx_local} planes at x0={x0} outside the {global_nx}-plane domain"
        )));
    }
    Ok((Slab { x0, nx_local }, phase))
}

/// Restores a slab solver from the `payload_len` bytes `r` yields,
/// validating against `config`. Returns the solver and the saved phase
/// counter. The header is checked — with overflow-checked arithmetic, it
/// may be hostile — before anything is allocated, and the length before
/// any plane is read. The arrays are allocated, never initialized: every
/// value comes from the bytes.
pub fn decode_solver(
    config: &ChannelConfig,
    r: &mut impl Read,
    payload_len: u64,
) -> Result<(SlabSolver, u64), CheckpointError> {
    let (slab, phase) = decode_header(Some(config), r, payload_len)?;
    let mut solver = SlabSolver::allocate(config, slab);
    let expected = encoded_len(&solver) as u64;
    if expected != payload_len {
        return Err(CheckpointError::BadLength { expected, got: payload_len });
    }
    let mut scratch = vec![0.0; 2 * solver.grid().plane_cells()];
    let mut record = vec![0u8; 8 * solver.migration_plane_len()];
    for xl in 0..solver.grid().lx {
        read_record(r, &mut record, &mut scratch, &mut solver.comps, xl, slab.x0 + xl)?;
    }
    Ok((solver, phase))
}

/// Captures the slab a sealed checkpoint file holds straight into `out`,
/// its planes of a snapshot, and returns the file's phase — bit for bit
/// what [`read_solver`] followed by [`SlabSolver::capture`] produces, with
/// one plane of state in memory instead of the slab. The header must hold
/// `out.slab` on `config`'s grid (a `ConfigMismatch` before any plane is
/// read otherwise). The records stream through the CRC once; whatever the
/// file holds, a damaged one is an error, never an `Ok`, and on any error
/// `out` holds unspecified values.
pub fn capture_file(
    config: &ChannelConfig,
    path: &Path,
    out: SnapshotSlab<'_>,
) -> Result<u64, CheckpointError> {
    let mut reader = microslip_codec::open(path)?;
    let payload_len = reader.remaining();
    let captured = capture_stream(config, &mut reader, payload_len, out);
    reader.finish()?;
    captured
}

/// [`capture_file`] over the payload `r` yields. Two one-plane windows of
/// the components' state alternate: `cur` holds plane `x` (its `f` at
/// window plane 1) with ψ of planes `x − 1` and `x + 1` as its ghosts'
/// `halo_psi`, while `next` takes record `x + 1`; then the windows swap, so
/// only ψ planes are ever copied.
fn capture_stream(
    config: &ChannelConfig,
    r: &mut impl Read,
    payload_len: u64,
    mut out: SnapshotSlab<'_>,
) -> Result<u64, CheckpointError> {
    config.validate().map_err(CheckpointError::ConfigMismatch)?;
    let (slab, phase) = decode_header(Some(config), r, payload_len)?;
    let dims = config.dims;
    if slab != out.slab {
        return Err(CheckpointError::ConfigMismatch(format!(
            "file holds planes {}..{}, the snapshot asks for {}..{}",
            slab.x0,
            slab.x_end(),
            out.slab.x0,
            out.slab.x_end()
        )));
    }
    if (out.ny, out.nz, out.rho.len()) != (dims.ny, dims.nz, config.ncomp()) {
        return Err(CheckpointError::ConfigMismatch("snapshot shape differs from the config".into()));
    }
    let grid = LocalGrid::new(1, dims.ny, dims.nz);
    let window = || -> Vec<ComponentState> {
        config.components.iter().map(|(spec, _)| ComponentState::new(spec.clone(), grid)).collect()
    };
    let (mut cur, mut next) = (window(), window());
    let mut scratch = vec![0.0; 2 * grid.plane_cells()];
    let record_len = 8 * (D3Q19::Q + 1) * config.ncomp() * grid.plane_cells();
    let expected = (HEADER_LEN + (slab.nx_local + 2) * record_len) as u64;
    if expected != payload_len {
        return Err(CheckpointError::BadLength { expected, got: payload_len });
    }
    let mut record = vec![0u8; record_len];
    let obstacles = config.effective_obstacles();
    // Record `k` is local plane `k` of the slab, storage plane `x0 + k`. An
    // owned plane's is installed as the window's owned plane, and checked;
    // a ghost plane's as the window's left ghost. Either way its ψ lands in
    // `halo_psi` (plane 1, or 0 for a ghost), where a neighbour reads it.
    let psi_of = |k: usize| if k == 0 || k > slab.nx_local { 0 } else { 1 };
    const KEPT: &str = "a one-plane window keeps ψ of each of its planes";
    for k in 0..slab.nx_local + 2 {
        let at = if psi_of(k) == 0 { LocalGrid::GHOST_LEFT } else { LocalGrid::FIRST };
        read_record(r, &mut record, &mut scratch, &mut next, at, slab.x0 + k)?;
        if k >= 2 {
            // Local plane k − 1 has the ψ of both neighbours now.
            for (c, n) in cur.iter_mut().zip(&next) {
                c.keep_psi(2, n.kept_psi(psi_of(k)).expect(KEPT));
            }
            let solid = solid_mask(&obstacles, dims, slab.x0 + k - 2..slab.x0 + k + 1);
            let forcing = (&config.coupling, &config.wall, config.body);
            crate::macroscopic::capture(&cur[..], forcing, &solid, out.plane(k - 2));
        }
        if k >= 1 {
            for (n, c) in next.iter_mut().zip(&cur) {
                n.keep_psi(0, c.kept_psi(psi_of(k - 1)).expect(KEPT));
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(phase)
}

/// The slab a sealed checkpoint file holds, from its header alone — the
/// file is not verified (its restore or capture is). How a gatherer lays
/// the slabs of several files out before capturing any.
pub fn read_slab(path: &Path) -> Result<Slab, CheckpointError> {
    let mut reader = microslip_codec::open(path)?;
    let payload_len = reader.remaining();
    decode_header(None, &mut reader, payload_len).map(|(slab, _)| slab)
}

/// Serializes a slab solver's mutable state plus a phase counter.
pub fn save_solver(solver: &SlabSolver, phase: u64) -> Vec<u8> {
    // Room for the trailer too, so sealing the result never reallocates.
    let mut out = Vec::with_capacity(encoded_len(solver) + TRAILER_LEN);
    encode_solver(solver, phase, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Restores a slab solver from `bytes`, validating against `config`.
/// Returns the solver and the saved phase counter.
pub fn load_solver(
    config: &ChannelConfig,
    mut bytes: &[u8],
) -> Result<(SlabSolver, u64), CheckpointError> {
    let len = bytes.len() as u64;
    decode_solver(config, &mut bytes, len)
}

/// Streams `solver` into a sealed checkpoint file at `path`, crash-safely
/// (see [`microslip_codec::publish`]).
pub fn write_solver(path: &Path, solver: &SlabSolver, phase: u64) -> io::Result<()> {
    microslip_codec::write_file(path, |w| encode_solver(solver, phase, w))
}

/// Restores a solver straight from the sealed checkpoint file at `path`.
/// The arrays are filled before the trailer can be compared, so a damaged
/// file is judged by its checksum — `Corrupt`, whatever its header happened
/// to say — and the half-filled solver never leaves this function.
pub fn read_solver(
    config: &ChannelConfig,
    path: &Path,
) -> Result<(SlabSolver, u64), CheckpointError> {
    let mut reader = microslip_codec::open(path)?;
    let payload_len = reader.remaining();
    let restored = decode_solver(config, &mut reader, payload_len);
    reader.finish()?;
    restored
}

/// The periodic checkpoint of `rank` after `phase` in a run directory —
/// the one place the file name is spelled. A whole-channel job is rank 0.
pub fn path(dir: &Path, rank: usize, phase: u64) -> PathBuf {
    dir.join(format!("ckpt-rank{rank}-phase{phase}.bin"))
}

/// Phases `rank` has a periodic checkpoint file for in `dir`, ascending.
/// Names only: the files are not opened.
pub fn phases(dir: &Path, rank: usize) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut phases: Vec<u64> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let stem = name.to_str()?.strip_suffix(".bin")?;
            let phase = stem.rsplit(|c: char| !c.is_ascii_digit()).next()?.parse().ok()?;
            // Only the name `path` spells is this rank's checkpoint.
            (entry.path() == path(dir, rank, phase)).then_some(phase)
        })
        .collect();
    phases.sort_unstable();
    phases
}

/// The [`phases`] whose file passes its CRC — each checked in one
/// streaming pass, so a scan allocates nothing slab-sized. Torn or corrupt
/// files (a crash mid-write leaves at worst a stray `.tmp`; a damaged file
/// fails its trailer) are skipped, not errors: a restart takes the newest
/// phase it can actually restore.
pub fn valid_phases(dir: &Path, rank: usize) -> Vec<u64> {
    let intact = |phase: &u64| microslip_codec::verify(&path(dir, rank, *phase)).is_ok();
    phases(dir, rank).into_iter().filter(intact).collect()
}

/// Crash-safe sealed write of an already serialized payload.
pub fn write_sealed(path: &Path, payload: Vec<u8>) -> io::Result<()> {
    microslip_codec::write_file(path, |w| w.write_all(&payload))
}

/// Reads a sealed checkpoint file and returns the verified payload.
pub fn read_sealed(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = microslip_codec::read_file(path)?;
    bytes.truncate(bytes.len() - TRAILER_LEN);
    Ok(bytes)
}

impl Simulation {
    /// Serializes the full simulation state (fields + phase counter).
    pub fn save(&self) -> Vec<u8> {
        save_solver(&self.solver, self.phase)
    }

    /// Restores a simulation saved by [`save`](Self::save) under the same
    /// configuration. The restored run continues bitwise identically.
    pub fn restore(config: ChannelConfig, bytes: &[u8]) -> Result<Simulation, CheckpointError> {
        let (solver, phase) = load_solver(&config, bytes)?;
        Simulation::from_restored(config, solver, phase)
    }

    /// As [`restore`](Self::restore), streamed from a sealed file written
    /// by [`write_solver`] (or [`write_sealed`] of a [`save`](Self::save)).
    pub fn restore_file(config: ChannelConfig, path: &Path) -> Result<Simulation, CheckpointError> {
        let (solver, phase) = read_solver(&config, path)?;
        Simulation::from_restored(config, solver, phase)
    }

    fn from_restored(
        config: ChannelConfig,
        solver: SlabSolver,
        phase: u64,
    ) -> Result<Simulation, CheckpointError> {
        if solver.nx_local() != config.dims.nx {
            return Err(CheckpointError::ConfigMismatch(
                "checkpoint is a partial slab, not a whole-channel simulation".into(),
            ));
        }
        Ok(Simulation { solver, config, phase })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;

    fn config() -> ChannelConfig {
        let mut c = ChannelConfig::paper_scaled(Dims::new(10, 6, 4));
        c.body = [1e-4, 0.0, 0.0];
        c
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let mut sim = Simulation::new(config());
        sim.run(7);
        let bytes = sim.save();
        let restored = Simulation::restore(config(), &bytes).unwrap();
        assert_eq!(restored.phase(), 7);
        assert_eq!(restored.snapshot(), sim.snapshot());
    }

    #[test]
    fn restored_run_continues_identically() {
        let mut a = Simulation::new(config());
        a.run(5);
        let bytes = a.save();
        a.run(6);

        let mut b = Simulation::restore(config(), &bytes).unwrap();
        b.run(6);
        assert_eq!(a.snapshot(), b.snapshot(), "restored trajectory diverged");
        assert_eq!(a.phase(), b.phase());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Simulation::new(config()).save();
        bytes[0] ^= 0xff;
        let err = Simulation::restore(config(), &bytes).unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = Simulation::new(config()).save();
        let err = Simulation::restore(config(), &bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadLength { .. }));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Simulation::new(config()).save();
        bytes.extend_from_slice(&[0u8; 16]);
        let err = Simulation::restore(config(), &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::BadLength { .. }));
    }

    #[test]
    fn wrong_grid_rejected() {
        let bytes = Simulation::new(config()).save();
        let other = ChannelConfig::paper_scaled(Dims::new(12, 6, 4));
        let err = Simulation::restore(other, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)));
    }

    #[test]
    fn wrong_component_count_rejected() {
        let bytes = Simulation::new(config()).save();
        let other = ChannelConfig::single_component(Dims::new(10, 6, 4), 1.0, 1e-4);
        let err = Simulation::restore(other, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)));
    }

    #[test]
    fn solver_slab_checkpoint_roundtrip() {
        let cfg = config();
        let mut s = SlabSolver::new(&cfg, Slab { x0: 3, nx_local: 4 });
        s.prime_local_psi();
        let bytes = save_solver(&s, 0);
        let (restored, phase) = load_solver(&cfg, &bytes).unwrap();
        assert_eq!(phase, 0);
        assert_eq!(restored.slab(), s.slab());
        assert_eq!(restored.snapshot(), s.snapshot());
    }

    #[test]
    fn errors_display() {
        assert!(CheckpointError::BadMagic.to_string().contains("checkpoint"));
        let e = CheckpointError::BadLength { expected: 10, got: 4 };
        assert!(e.to_string().contains("10"));
        assert!(CheckpointError::ConfigMismatch("x".into()).to_string().contains("x"));
        let e = CheckpointError::Corrupt { detail: "CRC mismatch".into() };
        assert!(e.to_string().contains("corrupt") && e.to_string().contains("CRC"));
    }

    #[test]
    fn write_sealed_is_atomic_and_readable() {
        let dir = std::env::temp_dir()
            .join(format!("microslip-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-rank0-phase5.bin");
        let payload = Simulation::new(config()).save();
        write_sealed(&path, payload.clone()).unwrap();
        assert!(!dir.join("ckpt-rank0-phase5.bin.tmp").exists(), "temp file must be renamed away");
        assert_eq!(read_sealed(&path).unwrap(), payload);
        // A sealed file restores through the normal loader.
        let (solver, phase) = load_solver(&config(), &read_sealed(&path).unwrap()).unwrap();
        assert_eq!(phase, 0);
        assert_eq!(solver.nx_local(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_phase_scan_skips_torn_and_foreign_files() {
        let dir = std::env::temp_dir()
            .join(format!("microslip-ckpt-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_sealed(&path(&dir, 1, 3), b"aaaa".to_vec()).unwrap();
        write_sealed(&path(&dir, 1, 6), b"bbbb".to_vec()).unwrap();
        // Torn write: sealed bytes with the tail sliced off mid-trailer.
        let torn = microslip_codec::seal(b"cccc".to_vec());
        std::fs::write(path(&dir, 1, 9), &torn[..torn.len() - 2]).unwrap();
        // Other ranks, other spellings and unrelated files are ignored.
        write_sealed(&path(&dir, 2, 6), b"dddd".to_vec()).unwrap();
        write_sealed(&dir.join("ckpt-rank1-phase07.bin"), b"eeee".to_vec()).unwrap();
        write_sealed(&dir.join("ckpt-000000000008.bin"), b"ffff".to_vec()).unwrap();
        std::fs::write(dir.join("ckpt-rank1-phase12.bin.tmp"), b"junk").unwrap();
        assert_eq!(phases(&dir, 1), vec![3, 6, 9]);
        assert_eq!(valid_phases(&dir, 1), vec![3, 6]);
        assert_eq!(valid_phases(&dir, 2), vec![6]);
        assert_eq!(valid_phases(&dir, 0), Vec::<u64>::new());
        assert_eq!(valid_phases(&dir.join("absent"), 0), Vec::<u64>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_sealed_missing_file_is_typed() {
        let err = read_sealed(std::path::Path::new("/nonexistent/ckpt.bin")).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }));
    }

    #[test]
    fn hostile_header_is_a_typed_error_not_a_wrap() {
        // A CRC-valid file whose header was crafted, not torn: x0 + nx_local
        // overflows, and every word is at the top of its range.
        let mut bytes = Simulation::new(config()).save();
        bytes[8 + 3 * 8..8 + 4 * 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = load_solver(&config(), &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");

        let dir = std::env::temp_dir()
            .join(format!("microslip-ckpt-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.bin");
        write_sealed(&path, bytes).unwrap();
        let err = read_solver(&config(), &path).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");
        for word in 0..6 {
            let mut bytes = Simulation::new(config()).save();
            bytes[8 + word * 8..16 + word * 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = load_solver(&config(), &bytes).unwrap_err();
            assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "word {word}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_file_equals_the_buffered_one_and_restores() {
        let dir = std::env::temp_dir()
            .join(format!("microslip-ckpt-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sim = Simulation::new(config());
        sim.run(4);
        let (streamed, buffered) = (dir.join("streamed.bin"), dir.join("buffered.bin"));
        write_solver(&streamed, sim.solver(), sim.phase()).unwrap();
        write_sealed(&buffered, sim.save()).unwrap();
        assert_eq!(std::fs::read(&streamed).unwrap(), std::fs::read(&buffered).unwrap());
        let restored = Simulation::restore_file(config(), &buffered).unwrap();
        assert_eq!((restored.phase(), restored.snapshot()), (4, sim.snapshot()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
