//! Golden bytes of the three checksummed formats: a sealed checkpoint, a
//! sealed result artifact and one wire frame, each pinned by length,
//! payload CRC (recomputed here by a bytewise oracle, compared with the
//! stored one) and its first and last sixteen bytes. A change to a byte
//! format, to the CRC or to the order anything is written in fails here.
//! The artifact and the frame were recorded from the pre-`crates/codec`
//! implementation; the checkpoints when the equilibrium velocities left the
//! state (`MSLIPCK4`: per plane, every component's 20 channels, `f` and ψ),
//! and the previous `MSLIPCK3` bytes (the same records with the three
//! `ueq` channels after ψ, 23 a component) are rebuilt here and must be
//! refused by magic.
//!
//! The three unsealed codecs — `MSLIPCF3` channel config, `MSLIPSC2`
//! `Scenario` canonical bytes (with the content key derived from them) and
//! the sweep request — are pinned the same way, recorded when the config
//! and the scenario dropped their thread counts. Bytes of the previous
//! versions (`MSLIPCF2`, `MSLIPSC1`) are rebuilt here and must be refused
//! by magic.

use microslip::lbm::checkpoint::{capture_file, load_solver, read_sealed, read_solver, save_solver, write_sealed};
use microslip::lbm::CheckpointError;
use microslip::lbm::diagnostics::FlowDiagnostics;
use microslip::lbm::geometry::even_slabs;
use microslip::lbm::{ChannelConfig, Dims, ResultArtifact, Simulation, Slab, SlabSolver, Snapshot};
use microslip::lbm::config_codec::{decode_config, encode_config};
use microslip::lbm::WallBc;
use microslip::scenario::{fnv1a64, Scenario};
use microslip::serve::SweepRequest;
use microslip::runtime::LoadModel;
use microslip_net::wire::{encode, Frame};

mod common;

fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

struct Golden {
    len: usize,
    /// CRC of the covered bytes — also what the last four bytes store.
    crc: u32,
    first: [u8; 16],
    last: [u8; 16],
}

/// `covered` is the range of `bytes` its CRC protects.
fn assert_golden(label: &str, bytes: &[u8], covered: std::ops::Range<usize>, want: &Golden) {
    assert_eq!(bytes.len(), want.len, "{label}: length");
    assert_eq!(crc32_bytewise(&bytes[covered]), want.crc, "{label}: CRC of the covered bytes");
    assert_eq!(bytes[bytes.len() - 4..], want.crc.to_le_bytes(), "{label}: stored CRC");
    assert_eq!(bytes[..16], want.first, "{label}: first 16 bytes");
    assert_eq!(bytes[bytes.len() - 16..], want.last, "{label}: last 16 bytes");
}

/// As [`assert_golden`] for the unsealed codecs (config, scenario, sweep
/// request), which store no checksum: `want.crc` is of all the bytes.
fn assert_golden_unsealed(label: &str, bytes: &[u8], want: &Golden) {
    assert_eq!(bytes.len(), want.len, "{label}: length");
    assert_eq!(crc32_bytewise(bytes), want.crc, "{label}: CRC of the bytes");
    assert_eq!(bytes[..16], want.first, "{label}: first 16 bytes");
    assert_eq!(bytes[bytes.len() - 16..], want.last, "{label}: last 16 bytes");
}

fn config() -> ChannelConfig {
    let mut c = ChannelConfig::paper_scaled(Dims::new(10, 6, 4));
    c.body = [1e-4, 0.0, 0.0];
    c
}

fn simulation() -> Simulation {
    let mut sim = Simulation::new(config());
    sim.run(3);
    sim
}

#[test]
fn sealed_checkpoint_bytes_are_pinned() {
    let sim = simulation();
    let dir = std::env::temp_dir().join(format!("microslip-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.bin");
    write_sealed(&path, sim.save()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_golden(
        "checkpoint",
        &bytes,
        0..bytes.len() - 4,
        &Golden {
            len: 92_228,
            crc: 0xaf94_e460,
            first: *b"MSLIPCK4\x0a\0\0\0\0\0\0\0",
            last: [3, 12, 30, 63, 160, 103, 147, 0, 64, 89, 32, 63, 0x60, 0xe4, 0x94, 0xaf],
        },
    );
    // And the file still opens through the buffered API.
    let (solver, phase) = load_solver(&config(), &read_sealed(&path).unwrap()).unwrap();
    assert_eq!((phase, solver.snapshot()), (3, sim.snapshot()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_whose_psi_is_not_its_populations_sum_is_refused() {
    // The state keeps no ψ of an owned plane, so a decoder cannot drop the
    // ψ channel of its record: it holds it to Σ_i f_i of the record's
    // populations, to the bit. One interior ψ value changed and the file
    // re-sealed (its CRC valid again) is refused by both decoders, naming
    // the storage plane; the untouched golden restores and continues on the
    // sequential trajectory.
    let cfg = config();
    let (sim, p) = (simulation(), cfg.dims.ny * cfg.dims.nz);
    let dir = std::env::temp_dir().join(format!("microslip-golden-psi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (good, bad) = (dir.join("good.bin"), dir.join("bad.bin"));
    let bytes = sim.save();
    write_sealed(&good, bytes.clone()).unwrap();
    // Storage plane 4's record, water's ψ run (after its 19 f runs), cell 5.
    let at = 64 + 4 * (8 * 2 * 20 * p) + 8 * (19 * p + 5);
    let mut tampered = bytes.clone();
    let psi = f64::from_le_bytes(tampered[at..at + 8].try_into().unwrap());
    tampered[at..at + 8].copy_from_slice(&f64::from_bits(psi.to_bits() ^ 1).to_le_bytes());
    write_sealed(&bad, tampered.clone()).unwrap();
    let refused = |err: CheckpointError| matches!(&err, CheckpointError::Corrupt { detail } if detail.contains("storage plane 4"));
    assert!(refused(load_solver(&cfg, &tampered).map(|_| ()).unwrap_err()));
    assert!(refused(read_solver(&cfg, &bad).map(|_| ()).unwrap_err()));
    let mut snap = Snapshot::zeros(0, cfg.dims.nx, cfg.dims.ny, cfg.dims.nz, 2);
    let whole = Slab { x0: 0, nx_local: cfg.dims.nx };
    assert!(refused(capture_file(&cfg, &bad, snap.slab_mut(whole)).unwrap_err()));
    assert_eq!(capture_file(&cfg, &good, snap.slab_mut(whole)), Ok(3));
    assert_eq!(snap, sim.snapshot());
    let mut restored = Simulation::restore_file(cfg.clone(), &good).unwrap();
    let mut sequential = Simulation::new(cfg);
    restored.run(3);
    sequential.run(6);
    assert_eq!(restored.snapshot(), sequential.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two half-channel slabs after a fixed take/give sequence with phases in
/// between: planes leave slab 0, travel past slab 1's initial window and
/// come back, so both slabs end on layouts they did not start with.
fn remapped_slabs() -> Vec<SlabSolver> {
    let cfg = config();
    let mut slabs: Vec<SlabSolver> =
        even_slabs(cfg.dims.nx, 2).into_iter().map(|slab| SlabSolver::new(&cfg, slab)).collect();
    common::prime(&mut slabs);
    for (count, rightward) in [(2, true), (4, false), (3, true), (2, false)] {
        common::phase(&mut slabs);
        common::migrate(&mut slabs, 0, count, rightward);
    }
    common::phase(&mut slabs);
    slabs
}

#[test]
fn sealed_checkpoint_bytes_after_a_remap_are_pinned() {
    // The bytes a checkpoint holds after planes have moved must not depend
    // on how the slab is stored. The ghost planes of `f` are zeroed by the
    // migration (but for what the next halo exchange installs); ψ's are
    // not: they hold the neighbours' edge planes, which the giver keeps and
    // the receiver installs from the message.
    let slabs = remapped_slabs();
    assert_eq!(slabs.iter().map(|s| s.nx_local()).collect::<Vec<_>>(), [6, 4]);
    let want = [
        Golden {
            len: 61_508,
            crc: 0x3264_2b58,
            first: *b"MSLIPCK4\x0a\0\0\0\0\0\0\0",
            last: [111, 11, 30, 63, 182, 24, 201, 109, 91, 255, 33, 63, 0x58, 0x2b, 0x64, 0x32],
        },
        Golden {
            len: 46_148,
            crc: 0x30ca_cdbe,
            first: *b"MSLIPCK4\x0a\0\0\0\0\0\0\0",
            last: [111, 11, 30, 63, 182, 24, 201, 109, 91, 255, 33, 63, 0xbe, 0xcd, 0xca, 0x30],
        },
    ];
    let dir = std::env::temp_dir().join(format!("microslip-golden-remap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Both files first, so a failing run leaves both to re-record from.
    let paths: Vec<_> = slabs
        .iter()
        .enumerate()
        .map(|(rank, slab)| {
            let path = dir.join(format!("rank{rank}.bin"));
            write_sealed(&path, save_solver(slab, 5)).unwrap();
            path
        })
        .collect();
    for (rank, (path, want)) in paths.iter().zip(&want).enumerate() {
        let bytes = std::fs::read(path).unwrap();
        assert_golden(&format!("remapped rank {rank}"), &bytes, 0..bytes.len() - 4, want);
    }
    // The remapped run is still the sequential run.
    let mut sim = Simulation::new(config());
    sim.run(5);
    let stitched = Snapshot::stitch(slabs.iter().map(|s| s.snapshot()).collect());
    assert_eq!(stitched, sim.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sealed_artifact_bytes_are_pinned() {
    let snapshot = simulation().snapshot();
    let artifact = ResultArtifact {
        key: "00f00ba4deadbeef".into(),
        phases: 3,
        diagnostics: FlowDiagnostics::compute(&snapshot),
        snapshot,
        summary_json: "{\"mode\": \"serve\"}\n".into(),
    };
    let bytes = artifact.seal();
    assert_golden(
        "artifact",
        &bytes,
        0..bytes.len() - 4,
        &Golden {
            len: 9782,
            crc: 0x67cb_88d7,
            first: *b"MSLIPRA1\x10\0\0\0\0\0\0\0",
            last: *b"\": \"serve\"}\n\xd7\x88\xcb\x67",
        },
    );
    assert_eq!(ResultArtifact::unseal(&bytes).unwrap(), artifact);
}

#[test]
fn wire_frame_bytes_are_pinned() {
    let bytes = encode(&Frame::data(3, 17, vec![1.0, -2.5, 0.125]));
    assert_golden(
        "frame",
        &bytes,
        4..bytes.len() - 4,
        &Golden {
            len: 52,
            crc: 0xa19c_ecc2,
            first: [b'M', b'S', b'N', b'1', 1, 0, 0, 0, 3, 0, 0, 0, 0x11, 0, 0, 0],
            last: [0, 0, 0x04, 0xc0, 0, 0, 0, 0, 0, 0, 0xc0, 0x3f, 0xc2, 0xec, 0x9c, 0xa1],
        },
    );
}

fn scenario() -> Scenario {
    Scenario::new(config())
        .workers(3)
        .phases(12)
        .remap_every(4)
        .predictor_window(2)
        .throttle(1, 0.5)
        .spike(2, 3, 6, 0.25)
        .wall_bc(WallBc::PatternedSlip { r_a: 1.0, r_b: 0.25, period: 4, phase: 1 })
        .load_model(LoadModel::Synthetic { per_point: 1.5e-6 })
}

fn sweep_request() -> SweepRequest {
    SweepRequest {
        base: scenario(),
        checkpoint_every: Some(4),
        axes: vec![("wall-amplitude".into(), vec![0.1, 0.2]), ("slip-r".into(), vec![0.5])],
    }
}

#[test]
fn config_bytes_are_pinned() {
    let bytes = encode_config(&config());
    assert_golden_unsealed(
        "config",
        &bytes,
        &Golden {
            len: 288,
            crc: 0xcdbd_df28,
            first: *b"MSLIPCF3\x0a\0\0\0\0\0\0\0",
            last: [0; 16],
        },
    );
    assert_eq!(encode_config(&decode_config(&bytes).unwrap()), bytes);
}

#[test]
fn scenario_bytes_and_key_are_pinned() {
    let bytes = scenario().canonical_bytes();
    assert_golden_unsealed(
        "scenario",
        &bytes,
        &Golden {
            len: 456,
            crc: 0xb32b_c3ce,
            first: *b"MSLIPSC2\x40\x01\0\0\0\0\0\0",
            last: [1, 0, 0, 0, 0, 0, 0, 0, 0x54, 0xe4, 0x10, 0x71, 0x73, 0x2a, 0xb9, 0x3e],
        },
    );
    // The content address the serve cache files results under.
    assert_eq!(scenario().key(), "ba4aa7581863401e");
    assert_eq!(Scenario::decode(&bytes).unwrap().canonical_bytes(), bytes);
}

#[test]
fn sweep_request_bytes_are_pinned() {
    let bytes = sweep_request().encode();
    assert_golden_unsealed(
        "sweep request",
        &bytes,
        &Golden {
            len: 564,
            crc: 0xf570_3adb,
            first: *b"MSLIPSW1\xc8\x01\0\0\0\0\0\0",
            last: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f],
        },
    );
    assert_eq!(SweepRequest::decode(&bytes).unwrap().encode(), bytes);
}

/// `cfg` (current config bytes) in the previous layout: magic `MSLIPCF2`
/// and a trailing thread count.
fn previous_config(cfg: &[u8], threads: u64) -> Vec<u8> {
    [b"MSLIPCF2".as_slice(), &cfg[8..], &threads.to_le_bytes()].concat()
}

/// `s` in the previous layout: magic `MSLIPSC1`, the previous config, and
/// a thread count just before the load model (16 bytes for the fixture's
/// synthetic model).
fn previous_scenario(s: &Scenario, threads: u64) -> Vec<u8> {
    let bytes = s.canonical_bytes();
    let cfg = encode_config(&s.channel);
    let old_cfg = previous_config(&cfg, threads);
    let (schedule, load) = bytes[16 + cfg.len()..].split_at(bytes.len() - 16 - cfg.len() - 16);
    let len = (old_cfg.len() as u64).to_le_bytes();
    [b"MSLIPSC1".as_slice(), &len, &old_cfg, schedule, &threads.to_le_bytes(), load].concat()
}

#[test]
fn previous_format_bytes_are_rejected_by_magic() {
    // The fixtures as the previous tree wrote them: the config with its
    // serial thread count, the scenario (and the request embedding it)
    // with two threads per worker in both slots.
    let old_config = previous_config(&encode_config(&config()), 1);
    let old_scenario = previous_scenario(&scenario(), 2);
    let old_request = {
        let (r, base) = (sweep_request().encode(), scenario().canonical_bytes());
        let len = (old_scenario.len() as u64).to_le_bytes();
        [&r[..8], &len, &old_scenario, &r[16 + base.len()..]].concat()
    };
    // They are byte for byte the previous goldens, key included…
    for (label, bytes, len, crc) in [
        ("config", &old_config, 296, 0x3668_22f7),
        ("scenario", &old_scenario, 472, 0xc455_3830),
        ("sweep request", &old_request, 580, 0xd618_e43f),
    ] {
        assert_eq!((bytes.len(), crc32_bytewise(bytes)), (len, crc), "{label}: not the old bytes");
    }
    assert_eq!(format!("{:016x}", fnv1a64(&old_scenario)), "9d96b9c457b997e0");
    // …and every decoder refuses them as a bad magic, never misreading the
    // old thread count as the next field.
    let errors = [
        decode_config(&old_config).unwrap_err(),
        Scenario::decode(&old_scenario).unwrap_err(),
        SweepRequest::decode(&old_request).unwrap_err(),
    ];
    for err in errors {
        assert!(err.contains("bad magic"), "unexpected error: {err}");
    }
}

/// The sealed checkpoint of `solver` in the previous layout: magic
/// `MSLIPCK3`, the same header words, then per plane record every
/// component's `f` and ψ followed by its three `ueq` channels — the
/// equilibrium velocities the state held then, which the two-pass
/// reference forms again from the populations and ψ (zero on the ghost
/// planes, which nothing wrote).
fn previous_checkpoint(solver: &SlabSolver, phase: u64) -> Vec<u8> {
    let bytes = save_solver(solver, phase);
    let mut reference = solver.clone();
    reference.compute_forces();
    reference.compute_velocities();
    let ueq = reference.reference_ueq().expect("compute_velocities stores them");
    let p = solver.grid().plane_cells();
    let mut old = [b"MSLIPCK3".as_slice(), &bytes[8..64]].concat();
    // Each plane record of the current bytes, its 20 channels a component
    // followed by that component's three `ueq` channels.
    let records = bytes[64..].chunks_exact(8 * solver.migration_plane_len());
    for (xl, record) in records.enumerate() {
        for (state, u) in record.chunks_exact(8 * 20 * p).zip(ueq) {
            old.extend_from_slice(state);
            old.extend(u.plane_values(xl).iter().flat_map(|v| v.to_le_bytes()));
        }
    }
    microslip_codec::seal(old)
}

#[test]
fn previous_checkpoint_bytes_are_rejected_by_magic() {
    // The fixtures as the previous tree sealed them, byte for byte — the
    // remapped pair too, so the equilibrium velocities a collision now
    // forms are the ones the state used to carry…
    let (sim, slabs) = (simulation(), remapped_slabs());
    let old = [
        (previous_checkpoint(sim.solver(), sim.phase()), 106_052, 0x0cff_a366),
        (previous_checkpoint(&slabs[0], 5), 70_724, 0x9134_aaf1),
        (previous_checkpoint(&slabs[1], 5), 53_060, 0xca90_fd9c),
    ];
    for (k, (old, len, crc)) in old.iter().enumerate() {
        assert_eq!((old.len(), crc32_bytewise(&old[..old.len() - 4])), (*len, *crc), "fixture {k}: not the old bytes");
        // …and each is refused as a bad magic, not misread as plane records.
        let payload = &old[..old.len() - 4];
        assert_eq!(load_solver(&config(), payload).unwrap_err(), CheckpointError::BadMagic);
    }
}
