//! Multi-process runtime integration tests: real `microslip mp-worker`
//! processes meshed over localhost TCP must reproduce the threaded
//! runtime bit for bit — fields *and* remap decisions — and fail cleanly
//! when a rank dies mid-run.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use microslip::lbm::checkpoint::{load_solver, read_sealed};
use microslip::lbm::geometry::even_slabs;
use microslip::lbm::{Simulation, SlabSolver, Snapshot, SolidRegion};
use microslip::runtime::worker::migration_batch_planes;
use microslip::obs::{from_jsonl, remap_fingerprints, validate_jsonl, Event, TraceSink};
use microslip::runtime::LoadModel;
use microslip::comm::Tag;
use microslip::{MpFault, Scenario};

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_microslip");

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microslip-mp-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The common geometry: small enough to run in seconds, throttled enough
/// that filtered remapping actually migrates planes.
fn builder(ranks: usize, phases: u64) -> Scenario {
    Scenario::paper_scaled(20, 6, 4)
        .workers(ranks)
        .phases(phases)
        .remap_every(3)
        .predictor_window(2)
        .throttle(1, 6.0)
        .load_model(LoadModel::Synthetic { per_point: 1.0 })
}

#[test]
fn mp_run_matches_threaded_bitwise_with_identical_remap_decisions() {
    // Four ranks are more than the gather has lanes on a two-CPU host, so
    // this also pins the order-free stitch of the bounded-parallel gather.
    for ranks in [2usize, 4] {
        // Threaded reference, traced so its remap decisions are on record.
        let (sink, recorder) = TraceSink::recorder(1 << 16);
        let threaded = builder(ranks, 12).trace(sink).runtime().unwrap().run();
        let threaded_prints = remap_fingerprints(&recorder.events());

        let mut mp = builder(ranks, 12).multiprocess().unwrap();
        mp.config_mut().worker_exe = Some(WORKER_EXE.into());
        mp.config_mut().dir = Some(scratch_dir(&format!("equiv-{ranks}")));
        let outcome = mp.run().unwrap_or_else(|e| panic!("{ranks}-rank mp run failed: {e}"));

        assert_eq!(
            outcome.snapshot, threaded.snapshot,
            "{ranks}-rank mp run diverged from the threaded run"
        );
        assert_eq!(outcome.final_counts(), threaded.final_counts());
        // Each rank's slab (from its state file) and plane moves (from the
        // migrations in the traces) are what the threaded worker reported.
        let moves = |slab, sent, received| (slab, sent, received);
        let mp_reports: Vec<_> =
            outcome.reports.iter().map(|r| moves(r.final_slab, r.planes_sent, r.planes_received)).collect();
        let threaded_reports: Vec<_> =
            threaded.reports.iter().map(|r| moves(r.final_slab, r.planes_sent, r.planes_received)).collect();
        assert_eq!(mp_reports, threaded_reports, "{ranks}-rank reports differ");
        // A rank leaves its state and its trace, nothing else.
        for entry in fs::read_dir(&outcome.dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(!name.ends_with(".report"), "{name}");
        }

        // What the ranks were told to run is the submitted scenario itself.
        let told = fs::read(outcome.dir.join("scenario.bin")).unwrap();
        assert_eq!(Scenario::decode(&told).unwrap().key(), builder(ranks, 12).key());

        // The streamed `rank{r}.state` files are still sealed checkpoints
        // the buffered API opens, each holding its rank's slice of the result.
        let channel = builder(ranks, 12).channel;
        let plane = channel.dims.ny * channel.dims.nz;
        for report in &outcome.reports {
            let path = outcome.dir.join(format!("rank{}.state", report.rank));
            let (solver, phase) = load_solver(&channel, &read_sealed(&path).unwrap()).unwrap();
            assert_eq!((phase, solver.slab()), (12, report.final_slab));
            let part = solver.snapshot();
            let cells = part.x0 * plane..(part.x0 + part.nx) * plane;
            for (mine, all) in part.rho.iter().zip(&outcome.snapshot.rho) {
                assert_eq!(mine[..], all[cells.clone()], "rank {} density", report.rank);
            }
            let all = &outcome.snapshot.velocity[3 * cells.start..3 * cells.end];
            assert_eq!(part.velocity[..], *all, "rank {} velocity", report.rank);
        }
        assert!(
            outcome.planes_migrated() > 0,
            "equivalence is only meaningful if remapping actually moved planes"
        );

        // The audit trails agree decision for decision (synthetic load
        // makes them a pure function of the configuration).
        let mp_prints = remap_fingerprints(&outcome.events);
        assert!(!mp_prints.is_empty(), "expected remap decisions on record");
        assert_eq!(mp_prints, threaded_prints, "{ranks}-rank remap decisions differ");

        // The merged trace is a well-formed stream with one meta, mode "mp".
        let stats = validate_jsonl(&microslip::obs::to_jsonl(&outcome.events)).unwrap();
        assert_eq!(stats.counts["meta"], 1);
        match &outcome.events[0] {
            Event::Meta { mode, nodes, .. } => {
                assert_eq!(mode, "mp");
                assert_eq!(*nodes, ranks);
            }
            other => panic!("merged stream must lead with meta, got {other:?}"),
        }

        let _ = fs::remove_dir_all(&outcome.dir);
    }
}

#[test]
fn moves_of_several_batches_stay_bitwise_on_threads_and_ranks() {
    // The paper's cross-section, where a migration batch is a couple of
    // planes, and a throttle that sheds five planes in one move.
    let wide = || {
        Scenario::paper_scaled(12, 200, 20)
            .workers(2)
            .phases(4)
            .remap_every(2)
            .predictor_window(2)
            .throttle(1, 6.0)
            .load_model(LoadModel::Synthetic { per_point: 1.0 })
    };
    let channel = wide().channel;
    let batch = migration_batch_planes(&SlabSolver::new(&channel, even_slabs(12, 2)[0]));
    let mut sim = Simulation::new(channel);
    sim.run(4);
    let want = bits(&sim.snapshot());

    let (sink, recorder) = TraceSink::recorder(1 << 16);
    let threaded = wide().trace(sink).runtime().unwrap().run();
    let threaded_events = recorder.events();
    let mut mp = wide().multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(scratch_dir("batches"));
    let outcome = mp.run().unwrap_or_else(|e| panic!("mp run failed: {e}"));

    assert!(bits(&threaded.snapshot) == want, "the threaded run left the sequential one");
    assert!(bits(&outcome.snapshot) == want, "the mp run left the sequential one");
    let prints = remap_fingerprints(&outcome.events);
    assert!(!prints.is_empty());
    assert_eq!(prints, remap_fingerprints(&threaded_events), "remap decisions differ");
    for events in [&threaded_events, &outcome.events] {
        let longest = events
            .iter()
            .filter_map(|e| match e {
                Event::Migration { planes, .. } => Some(*planes),
                _ => None,
            })
            .max();
        assert!(
            longest > Some(2 * batch),
            "a move must span three batches of {batch} planes: longest {longest:?}"
        );
    }
    let _ = fs::remove_dir_all(&outcome.dir);
}

/// Every value of a snapshot as bits.
fn bits(s: &Snapshot) -> Vec<u64> {
    s.rho.iter().flatten().chain(&s.velocity).map(|v| v.to_bits()).collect()
}

#[test]
fn gather_captures_an_obstacle_across_a_rank_boundary_bitwise() {
    // Two ranks start on ten planes each and the block covers planes 8..12,
    // so each rank's state file holds solid cells up to its edge and in the
    // ghost plane beyond it: the gather's plane-by-plane force reads the
    // mask on both sides of the boundary, wherever remapping moves it.
    let scenario = || {
        let mut s = builder(2, 9);
        s.channel.obstacles.push(SolidRegion::Block { min: [8, 2, 1], max: [12, 4, 3] });
        s
    };
    let threaded = scenario().runtime().unwrap().run();
    let mut mp = scenario().multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(scratch_dir("obstacle"));
    let outcome = mp.run().unwrap_or_else(|e| panic!("mp run with an obstacle failed: {e}"));
    assert_eq!(bits(&outcome.snapshot), bits(&threaded.snapshot), "the gathered snapshot differs");
    assert_eq!(outcome.final_counts(), threaded.final_counts());
    let solid = |x: usize| outcome.snapshot.rho[0][outcome.snapshot.idx(x, 2, 1)];
    assert_eq!((solid(9), solid(10)), (0.0, 0.0), "the block is empty of fluid on both sides");
    let _ = fs::remove_dir_all(&outcome.dir);
}

#[test]
fn mp_restart_from_periodic_checkpoints_is_bitwise() {
    let dir = scratch_dir("restart");

    // Full 10-phase run, checkpointing every 5 phases.
    let mut full = builder(2, 10).multiprocess().unwrap();
    full.config_mut().worker_exe = Some(WORKER_EXE.into());
    full.config_mut().dir = Some(dir.clone());
    full.config_mut().checkpoint_every = 5;
    let want = full.run().expect("full mp run failed");
    for rank in 0..2 {
        for phase in [5u64, 10] {
            assert!(
                dir.join(format!("ckpt-rank{rank}-phase{phase}.bin")).exists(),
                "missing checkpoint rank {rank} phase {phase}"
            );
        }
    }

    // Resume the same run from the phase-5 files: it continues to phase
    // 10, numbering its phases (and checkpoints) from 5.
    let phase5 = |rank: usize| fs::read(dir.join(format!("ckpt-rank{rank}-phase5.bin"))).unwrap();
    let before = [phase5(0), phase5(1)];
    let mut resumed = builder(2, 10).multiprocess().unwrap();
    resumed.config_mut().worker_exe = Some(WORKER_EXE.into());
    resumed.config_mut().dir = Some(dir.clone());
    resumed.config_mut().checkpoint_every = 5;
    resumed.config_mut().resume_phase = Some(5);
    let got = resumed.run().expect("resumed mp run failed");

    assert_eq!(
        got.snapshot, want.snapshot,
        "mp restart from periodic checkpoints diverged from the uninterrupted run"
    );
    // The resumed run checkpoints at phase 10, not at its own 5th phase:
    // the files it resumed from are untouched.
    for (rank, bytes) in before.iter().enumerate() {
        assert!(phase5(rank) == *bytes, "rank {rank}'s phase-5 checkpoint was overwritten");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpoints_restart_bitwise() {
    let dir = scratch_dir("threaded-ckpt");

    // The uninterrupted threaded run, and the same run writing periodic
    // checkpoints; remapping reshapes the slabs before phase 5.
    let want = builder(4, 10).runtime().unwrap().run();
    let mut threaded = builder(4, 10).runtime().unwrap();
    threaded.config_mut().checkpoint_every = 5;
    threaded.config_mut().checkpoint_dir = Some(dir.clone());
    let full = threaded.run();
    assert_eq!(full.snapshot, want.snapshot, "checkpointing must not perturb the run");
    for rank in 0..4 {
        for phase in [5u64, 10] {
            assert!(
                dir.join(format!("ckpt-rank{rank}-phase{phase}.bin")).exists(),
                "missing checkpoint rank {rank} phase {phase}"
            );
        }
    }
    let phase5 = (0..4).map(|rank| {
        let path = dir.join(format!("ckpt-rank{rank}-phase5.bin"));
        microslip::lbm::checkpoint::read_slab(&path).unwrap().nx_local
    });
    assert_ne!(phase5.collect::<Vec<_>>(), [5; 4], "no planes moved before the checkpoint");

    // Rank processes resume from the threaded run's phase-5 files.
    let mut resumed = builder(4, 10).multiprocess().unwrap();
    resumed.config_mut().worker_exe = Some(WORKER_EXE.into());
    resumed.config_mut().dir = Some(dir.clone());
    resumed.config_mut().resume_phase = Some(5);
    let got = resumed.run().expect("mp resume from threaded checkpoints failed");
    assert!(
        got.snapshot == want.snapshot,
        "restart from the threaded run's checkpoints diverged from the uninterrupted run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_rank_surfaces_typed_errors_and_partial_traces() {
    let dir = scratch_dir("fault");
    let mut mp = builder(2, 8).multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    // Mid F-halo exchange at phase 3: each phase a rank sends two halo
    // messages, then receives two, so that phase's second send is message
    // 2 × 4 + 2.
    mp.config_mut().fault = Some(MpFault { rank: 1, tag: Tag::F_HALO, nth: 10 });

    let failure = mp.run().expect_err("a killed rank must fail the run");
    assert_eq!(failure.rank_errors.len(), 2, "{failure}");

    // The killed rank exits hard (code 13), leaving no error file.
    let (_, killed) = &failure.rank_errors.iter().find(|(r, _)| *r == 1).unwrap();
    assert!(killed.contains("13"), "expected the injected exit code: {killed}");

    // The survivor reports the typed transport failure…
    let (_, survivor) = &failure.rank_errors.iter().find(|(r, _)| *r == 0).unwrap();
    assert!(
        survivor.contains("transport failure") && survivor.contains("disconnected"),
        "survivor must surface CommError::Disconnected: {survivor}"
    );
    // …and the same text is on disk for post-mortems.
    let on_disk = fs::read_to_string(dir.join("rank0.error")).unwrap();
    assert!(on_disk.contains("disconnected"), "{on_disk}");

    // Both ranks flushed valid partial traces; the survivor's accounts for
    // real work (spans) and the bytes that moved (traffic totals).
    let jsonl = fs::read_to_string(dir.join("rank0.jsonl")).unwrap();
    let stats = validate_jsonl(&jsonl).unwrap();
    assert!(stats.counts["span"] > 0, "partial trace must keep completed spans");
    assert!(stats.counts["traffic"] > 0, "traffic totals must be flushed on failure");
    let events = from_jsonl(&jsonl).unwrap();
    assert!(matches!(events[0], Event::Meta { .. }));
    // No state file: the run did not complete.
    assert!(!dir.join("rank0.state").exists());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chaos_kill_and_rejoin_recovers_bitwise_with_full_recovery_arc() {
    // Undisturbed reference (same checkpoint cadence, so the only
    // difference between the runs is the injected death).
    let ref_dir = scratch_dir("chaos-ref");
    let mut clean = builder(4, 12).multiprocess().unwrap();
    clean.config_mut().worker_exe = Some(WORKER_EXE.into());
    clean.config_mut().dir = Some(ref_dir.clone());
    clean.config_mut().checkpoint_every = 3;
    let want = clean.run().expect("reference run failed");

    // Same configuration, but rank 2 is killed mid-halo-exchange at phase
    // 7 — before its second halo send of that phase, message 6 × 4 + 2 —
    // and the supervising driver restarts the gang. Checkpoints exist at
    // phases 3 and 6 when the death lands, so every rank must roll back
    // to phase 6 and replay 7..=12.
    let dir = scratch_dir("chaos");
    let mut mp = builder(4, 12).multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    mp.config_mut().checkpoint_every = 3;
    mp.config_mut().fault = Some(MpFault { rank: 2, tag: Tag::F_HALO, nth: 26 });
    mp.config_mut().recover = true;
    let got = mp.run().expect("chaos run failed to recover");

    // The tentpole property: checkpoint rollback replays the identical
    // deterministic physics, so the recovered fields are *bitwise* equal
    // to the undisturbed run. (Plane layouts may differ — the predictor's
    // history restarts empty after the rollback, so post-recovery remap
    // decisions are allowed to diverge; the physics may not.)
    assert_eq!(
        got.snapshot, want.snapshot,
        "recovered run diverged from the undisturbed run"
    );

    assert!(!dir.join("epoch").exists(), "a gang restart writes no epoch file");

    // The merged trace keeps what the survivors flushed in attempt 1 —
    // their phase-1 spans and a first set of traffic totals — while the
    // killed rank's first attempt left nothing.
    let phase1_spans = |rank: usize| {
        let is = |e: &&Event| matches!(e, Event::Span(s) if s.node == rank && s.phase == 1);
        got.events.iter().filter(is).count()
    };
    let f_totals = |rank: usize| {
        let is = |e: &&Event| matches!(e, Event::Traffic { node, tag, .. } if *node == rank && tag == "f_halo");
        got.events.iter().filter(is).count()
    };
    for rank in [0, 1, 3] {
        assert!(phase1_spans(rank) > 0, "rank {rank}'s attempt-1 spans are gone");
        assert_eq!(f_totals(rank), 2, "rank {rank}: one f_halo total per attempt");
    }
    assert_eq!(phase1_spans(2), 0, "the killed rank flushed no trace");
    assert_eq!(f_totals(2), 1);

    // The driver tells the recovery: the death, a rollback to the newest
    // checkpoint every rank holds (phase 6) as attempt 2, one resumed rank
    // each.
    let stages: std::collections::HashSet<&str> = got
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Recovery { stage, .. } => Some(stage.name()),
            _ => None,
        })
        .collect();
    assert_eq!(stages, ["death-detected", "rollback", "resumed"].into(), "{stages:?}");
    assert!(
        got.events.iter().any(|e| matches!(
            e,
            Event::Recovery { stage, node: 2, phase: 6, epoch: 2, .. }
                if stage.name() == "rollback"
        )),
        "the driver must roll back to checkpoint phase 6 as attempt 2"
    );
    for rank in 0..4 {
        let resumed = got
            .events
            .iter()
            .filter(|e| matches!(
                e,
                Event::Recovery { stage, node, phase: 6, epoch: 2, .. }
                    if stage.name() == "resumed" && *node == rank
            ))
            .count();
        assert_eq!(resumed, 1, "rank {rank} must resume once from phase 6");
    }
    validate_jsonl(&microslip::obs::to_jsonl(&got.events)).unwrap();

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn unreachable_rendezvous_fails_with_typed_handshake_error() {
    let dir = scratch_dir("stale-port");
    let scenario = Scenario::paper_scaled(8, 6, 4).workers(2).phases(2);
    fs::write(dir.join("scenario.bin"), scenario.canonical_bytes()).unwrap();
    // A stale port file: rank 0's, naming a port nobody listens on.
    let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    fs::write(microslip_net::port_path(&dir, 0), format!("{port}\n")).unwrap();

    // Rank 1 dials it and is refused: a typed handshake error at once (no
    // retry, no waiting out the handshake deadline), an error file and a
    // flushed trace.
    let started = std::time::Instant::now();
    let output = Command::new(WORKER_EXE)
        .arg("mp-worker")
        .args(["--rank", "1"])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("spawn mp-worker");
    assert!(!output.status.success(), "connecting to a dead port must fail");
    assert!(started.elapsed() < std::time::Duration::from_secs(5), "a refused dial must fail at once");

    let err = fs::read_to_string(dir.join("rank1.error")).unwrap();
    assert!(
        err.contains("handshake failed") && err.contains("could not connect to rank 0"),
        "expected a typed handshake failure: {err}"
    );
    let jsonl = fs::read_to_string(dir.join("rank1.jsonl")).unwrap();
    validate_jsonl(&jsonl).unwrap();

    let _ = fs::remove_dir_all(&dir);
}
