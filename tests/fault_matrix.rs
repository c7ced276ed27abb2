//! The fault matrix: every distinct place a rank can die, the supervised
//! multi-process runtime must either recover to a bitwise-identical
//! result or fail with a typed, attributable error.
//!
//! Four legs:
//! * death in a **remap round** (load-index exchange) — recovery rolls
//!   back past the interrupted balance state and replays;
//! * death **between the batches of a migration** — the receiver has
//!   installed part of a move; recovery discards it, and without the
//!   supervisor both ranks fail with typed errors;
//! * death with **no checkpoints at all** — the mesh agrees on phase 0
//!   and restarts fresh, still bitwise identical (rollback correctness
//!   does not depend on checkpoint cadence, only its cost does);
//! * a **torn checkpoint** — the CRC trailer turns silent truncation into
//!   a typed `corrupt checkpoint` error end to end.

use std::fs;
use std::path::PathBuf;

use microslip::obs::{validate_jsonl, Event};
use microslip::runtime::LoadModel;
use microslip::{FaultSite, MpFault, Scenario};

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_microslip");

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("microslip-faultmatrix-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn builder(ranks: usize, phases: u64) -> Scenario {
    Scenario::paper_scaled(20, 6, 4)
        .workers(ranks)
        .phases(phases)
        .remap_every(3)
        .predictor_window(2)
        .throttle(1, 6.0)
        .load_model(LoadModel::Synthetic { per_point: 1.0 })
}

/// The paper's cross-section, where a migration batch is a couple of
/// planes: rank 1 is slow and sheds most of its slab at phase 2, then a
/// spike on rank 0 sends several batches back at phase 4.
fn wide() -> Scenario {
    Scenario::paper_scaled(8, 200, 20)
        .workers(2)
        .phases(6)
        .remap_every(2)
        .predictor_window(2)
        .throttle(1, 4.0)
        .spike(0, 3, 7, 16.0)
        .load_model(LoadModel::Synthetic { per_point: 1.0 })
}

/// Rank 0 dies on the second batch of its first move from phase 3 on.
const MID_MOVE: MpFault = MpFault { rank: 0, die_at_phase: 3, site: FaultSite::Migrate };

/// Runs the undisturbed reference and the faulted+supervised run of
/// `scenario`, returning `(reference, recovered)`.
fn recover_from(
    label: &str,
    scenario: fn() -> Scenario,
    checkpoint_every: u64,
    fault: MpFault,
) -> (microslip::MpOutcome, microslip::MpOutcome) {
    let ref_dir = scratch_dir(&format!("{label}-ref"));
    let mut clean = scenario().multiprocess().unwrap();
    clean.config_mut().worker_exe = Some(WORKER_EXE.into());
    clean.config_mut().dir = Some(ref_dir.clone());
    clean.config_mut().checkpoint_every = checkpoint_every;
    let want = clean.run().expect("reference run failed");

    let dir = scratch_dir(label);
    let mut mp = scenario().multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    mp.config_mut().checkpoint_every = checkpoint_every;
    mp.config_mut().fault = Some(fault);
    mp.config_mut().recover = true;
    let got = mp.run().unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    (want, got)
}

fn recovery_stages(events: &[Event]) -> std::collections::HashSet<&str> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Recovery { stage, .. } => Some(stage.name()),
            _ => None,
        })
        .collect()
}

#[test]
fn death_in_a_remap_round_recovers_bitwise() {
    // Rank 1 dies on its first load-index send at or after phase 6 — its
    // neighbors are left holding a half-finished balance exchange. The
    // rollback discards that partial state wholesale.
    let fault = MpFault { rank: 1, die_at_phase: 6, site: FaultSite::Remap };
    let (want, got) = recover_from("remap-kill", || builder(4, 12), 3, fault);
    assert_eq!(
        got.snapshot, want.snapshot,
        "recovery from a mid-remap death diverged from the undisturbed run"
    );
    let stages = recovery_stages(&got.events);
    for s in ["death-detected", "remesh", "rollback", "plan-applied", "resumed"] {
        assert!(stages.contains(s), "missing stage {s}: {stages:?}");
    }
    validate_jsonl(&microslip::obs::to_jsonl(&got.events)).unwrap();
    let _ = fs::remove_dir_all(&got.dir);
    let _ = fs::remove_dir_all(&want.dir);
}

#[test]
fn death_between_migration_batches_recovers_bitwise() {
    // Rank 1 has installed the first batch of rank 0's phase-4 move when
    // rank 0 dies; the rollback to the phase-2 checkpoints drops it.
    let (want, got) = recover_from("batch-kill", wide, 2, MID_MOVE);
    assert!(got.snapshot == want.snapshot, "recovery from a mid-move death diverged");
    assert!(
        got.events.iter().any(|e| matches!(
            e,
            Event::Recovery { stage, phase: 2, .. } if stage.name() == "rollback"
        )),
        "the mesh must roll back to the phase-2 checkpoints"
    );
    let moved: Vec<(u64, usize)> = want
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Migration { phase, from: 0, planes, .. } => Some((*phase, *planes)),
            _ => None,
        })
        .collect();
    assert!(
        moved.iter().any(|&(phase, planes)| phase == 4 && planes > 2),
        "the undisturbed run must move several batches from rank 0 at phase 4: {moved:?}"
    );
    let _ = fs::remove_dir_all(&got.dir);
    let _ = fs::remove_dir_all(&want.dir);
}

#[test]
fn unsupervised_death_between_migration_batches_fails_typed() {
    let dir = scratch_dir("batch-kill-unsupervised");
    let mut mp = wide().multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    mp.config_mut().fault = Some(MID_MOVE);
    let failure = mp.run().expect_err("a rank killed mid-move must fail the run");
    let error = |rank| {
        let (_, e) = failure.rank_errors.iter().find(|(r, _)| *r == rank).expect("both ranks named");
        e.clone()
    };
    assert!(error(0).contains("13"), "the killed rank exits with the injected code: {}", error(0));
    assert!(
        error(1).contains("transport failure") && error(1).contains("disconnected"),
        "the receiver waiting for the next batch reports the lost peer: {}",
        error(1)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn death_with_no_checkpoints_restarts_fresh_and_stays_bitwise() {
    // checkpoint_every = 0: nothing to roll back to. The recovery sync
    // must agree on phase 0 and the whole run replays — expensive, but
    // still bitwise identical, which is the point being pinned: the
    // rollback protocol's *correctness* is independent of cadence.
    let fault = MpFault { rank: 2, die_at_phase: 5, site: FaultSite::Halo };
    let (want, got) = recover_from("no-ckpt-kill", || builder(4, 12), 0, fault);
    assert_eq!(
        got.snapshot, want.snapshot,
        "fresh-restart recovery diverged from the undisturbed run"
    );
    assert!(
        got.events.iter().any(|e| matches!(
            e,
            Event::Recovery { stage, phase: 0, .. } if stage.name() == "rollback"
        )),
        "with no checkpoints the mesh must agree on a phase-0 restart"
    );
    let _ = fs::remove_dir_all(&got.dir);
    let _ = fs::remove_dir_all(&want.dir);
}

#[test]
fn torn_checkpoint_surfaces_a_typed_corrupt_error_on_resume() {
    // Write real checkpoints, then tear the newest one mid-"write" the
    // way a crash would: truncate it. A resume from the torn phase must
    // fail with the typed corrupt-checkpoint error, attributed to the
    // right rank — never load a silently shorter state.
    let dir = scratch_dir("torn");
    let mut full = builder(2, 10).multiprocess().unwrap();
    full.config_mut().worker_exe = Some(WORKER_EXE.into());
    full.config_mut().dir = Some(dir.clone());
    full.config_mut().checkpoint_every = 5;
    full.run().expect("full run failed");

    let victim = dir.join("ckpt-rank1-phase5.bin");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

    let mut resumed = builder(2, 5).multiprocess().unwrap();
    resumed.config_mut().worker_exe = Some(WORKER_EXE.into());
    resumed.config_mut().dir = Some(dir.clone());
    resumed.config_mut().resume_phase = Some(5);
    let failure = resumed.run().expect_err("resume from a torn checkpoint must fail");
    let (_, err) = failure
        .rank_errors
        .iter()
        .find(|(r, _)| *r == 1)
        .expect("the torn rank must be named");
    assert!(
        err.contains("corrupt checkpoint"),
        "expected the typed corrupt error, got: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
