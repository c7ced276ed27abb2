//! The fault matrix: wherever a rank dies — just before any of its sends
//! or receives — the supervised multi-process runtime must either recover
//! to a bitwise-identical result or fail with a typed, attributable error.
//!
//! A seeded property draws scenario × ranks × rank × checkpoint cadence ×
//! supervised or not × the message a rank dies before, taking the message
//! from the undisturbed run's own traffic counts. Beside it, hand-picked
//! legs pin what a draw cannot see:
//! * death in a **remap round** (load-index exchange) — recovery rolls
//!   back past the interrupted balance state and replays;
//! * death **between the batches of a migration** — the receiver has
//!   installed part of a move; recovery discards it, and without the
//!   supervisor both ranks fail with typed errors;
//! * death with **no checkpoints at all** — the driver finds no phase
//!   to roll back to and restarts the gang fresh, still bitwise identical
//!   (rollback correctness does not depend on checkpoint cadence, only its
//!   cost does);
//! * death **after every peer has finished** — the peers that exited clean
//!   are restarted with the rest of the gang and roll back with it;
//! * a **torn checkpoint** — the CRC trailer turns silent truncation into
//!   a typed `corrupt checkpoint` error end to end.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use microslip::cluster::Scheme;
use microslip::comm::Tag;
use microslip::lbm::Snapshot;
use microslip::obs::{validate_jsonl, Event, TraceSink};
use microslip::runtime::LoadModel;
use microslip::{MpFault, Scenario};
use proptest::prelude::*;

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

/// Rank 0 dies before the second batch of its phase-4 move: in the
/// undisturbed run it receives 3 planes in 2 batches at phase 2 (batches
/// of 2 planes at 200×20), so that batch is its 4th `migrate_data`
/// message (checked against the reference in
/// `death_between_migration_batches_recovers_bitwise`).
const MID_MOVE: MpFault = MpFault { rank: 0, tag: Tag::MIGRATE_DATA, nth: 4 };

/// Sends plus receives of `rank` on `tag`, from a run's traffic events.
fn traffic(events: &[Event], rank: usize, tag: Tag) -> u64 {
    events
        .iter()
        .map(|e| match e {
            Event::Traffic { node, tag: name, sent_messages, recv_messages, .. }
                if *node == rank && name == tag.name() =>
            {
                sent_messages + recv_messages
            }
            _ => 0,
        })
        .sum()
}

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
    // Rank 1 dies on the first load-index send of the phase-6 remap round
    // — its neighbors are left holding a half-finished balance exchange.
    // The rollback discards that partial state wholesale. Rank 1 of 4 has
    // both line neighbors and a neighbor's neighbor on the right, so each
    // round (phases 3, 6, 9, 12) it sends 4 load messages and receives 3:
    // that send is its 8th load message.
    let fault = MpFault { rank: 1, tag: Tag::LOAD, nth: 8 };
    let (want, got) = recover_from("remap-kill", || builder(4, 12), 3, fault);
    assert_eq!(traffic(&want.events, 1, Tag::LOAD), 4 * 7, "7 load messages per round");
    assert_eq!(
        got.snapshot, want.snapshot,
        "recovery from a mid-remap death diverged from the undisturbed run"
    );
    let stages = recovery_stages(&got.events);
    for s in ["death-detected", "rollback", "resumed"] {
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
    let into_rank0: Vec<(u64, usize)> = want
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Migration { phase, to: 0, planes, .. } => Some((*phase, *planes)),
            _ => None,
        })
        .collect();
    assert_eq!(into_rank0, [(2, 3)], "MID_MOVE counts 2 received batches before the move");
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
    // checkpoint_every = 0: nothing to roll back to. The driver chooses
    // phase 0 and the whole run replays — expensive, but
    // still bitwise identical, which is the point being pinned: the
    // rollback protocol's *correctness* is independent of cadence.
    // Mid F-halo exchange at phase 5: a rank sends two halo messages and
    // receives two per phase, so that phase's second send is message
    // 4 × 4 + 2.
    let fault = MpFault { rank: 2, tag: Tag::F_HALO, nth: 18 };
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
        "with no checkpoints the gang must restart from phase 0"
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

    let mut resumed = builder(2, 10).multiprocess().unwrap();
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

/// Runs `scenario` on ranks with `fault` injected and holds the outcome to
/// the undisturbed fields `want`. Supervised, the run must recover bitwise
/// and its trace tell the recovery; unsupervised, it must fail, naming the
/// killed rank with the injected exit code, while every other rank exits
/// clean or reports a typed transport error. Returns the recovered run's
/// trace (empty when unsupervised).
fn strike(
    label: &str,
    scenario: Scenario,
    checkpoint_every: u64,
    supervised: bool,
    fault: MpFault,
    want: &Snapshot,
) -> Vec<Event> {
    let ranks = scenario.workers;
    let dir = scratch_dir(label);
    // Every failure below leaves the run directory behind; say where.
    let kept = format!("run directory kept: {}", dir.display());
    let mut mp = scenario.multiprocess().unwrap_or_else(|e| panic!("{fault}: {e}; {kept}"));
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    mp.config_mut().checkpoint_every = checkpoint_every;
    mp.config_mut().fault = Some(fault);
    mp.config_mut().recover = supervised;
    let events = if supervised {
        let got = mp.run().unwrap_or_else(|e| panic!("{fault}: recovery failed: {e}; {kept}"));
        assert!(got.snapshot == *want, "{fault}: the recovered run diverged; {kept}");
        let stages = recovery_stages(&got.events);
        for s in ["death-detected", "rollback", "resumed"] {
            assert!(stages.contains(s), "{fault}: missing stage {s}: {stages:?}; {kept}");
        }
        validate_jsonl(&microslip::obs::to_jsonl(&got.events)).unwrap_or_else(|e| panic!("{fault}: {e}; {kept}"));
        got.events
    } else {
        let Err(failure) = mp.run() else { panic!("{fault}: an unsupervised death must fail the run; {kept}") };
        let error = |rank| {
            failure.rank_errors.iter().find(|(r, _)| *r == rank).map(|(_, e)| e.as_str())
        };
        let killed = error(fault.rank)
            .unwrap_or_else(|| panic!("{fault}: killed rank not named: {failure}; {kept}"));
        assert!(killed.contains("13"), "{fault}: expected the injected exit code: {killed}; {kept}");
        for rank in (0..ranks).filter(|&r| r != fault.rank) {
            match error(rank) {
                Some(e) => assert!(e.contains("transport failure"), "{fault}: rank {rank}: {e}; {kept}"),
                None => assert!(
                    dir.join(format!("rank{rank}.state")).exists(),
                    "{fault}: rank {rank} neither failed typed nor finished clean; {kept}"
                ),
            }
        }
        Vec::new()
    };
    let _ = fs::remove_dir_all(&dir);
    events
}

#[test]
fn a_death_after_every_peer_finished_rejoins_them_and_recovers_bitwise() {
    // Rank 1 dies just before its last ψ receive (priming and six phases
    // of two sends and two receives: 28), after rank 0 has received all
    // it needs and exited clean. The driver restarts both from their
    // newest common checkpoint, phase 3.
    let scenario = || Scenario::paper_scaled(16, 6, 4).workers(2).phases(6).remap_every(0);
    let want = scenario().runtime().unwrap().run().snapshot;
    let fault = MpFault { rank: 1, tag: Tag::PSI_HALO, nth: 28 };
    let events = strike("after-finish", scenario(), 3, true, fault, &want);
    let at_phase3 = |stage: &str, rank: usize| {
        events.iter().any(|e| matches!(
            e,
            Event::Recovery { node, stage: s, phase: 3, .. } if *node == rank && s.name() == stage
        ))
    };
    assert!(at_phase3("rollback", 1), "the gang must roll back to phase 3");
    for rank in 0..2 {
        assert!(at_phase3("resumed", rank), "rank {rank} must resume from phase 3");
    }
}

#[test]
fn a_fault_that_never_fires_fails_the_run() {
    let dir = scratch_dir("unfired");
    let mut mp = builder(2, 6).multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    mp.config_mut().recover = true;
    mp.config_mut().fault = Some(MpFault { rank: 1, tag: Tag::F_HALO, nth: 999 });
    let failure = mp.run().expect_err("a fault that never struck proves nothing");
    assert!(failure.message.contains("kill:1@f_halo:999 never fired"), "{failure}");
    // Six phases of two halo sends and two receives.
    assert_eq!(
        failure.rank_errors,
        [(1, "made 24 sends and receives on f_halo, fewer than 999".to_string())]
    );
    for rank in 0..2 {
        assert!(dir.join(format!("rank{rank}.state")).exists(), "no rank died");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A drawn run: a small throttled channel whose message sequence is a
/// pure function of the scenario (synthetic load), a fraction of a second
/// on ranks.
fn drawn(nx: usize, phases: u64, remap_every: u64, ranks: usize, conservative: bool) -> Scenario {
    Scenario::paper_scaled(nx, 6, 4)
        .workers(ranks)
        .phases(phases)
        .remap_every(remap_every)
        .predictor_window(2)
        .scheme(if conservative { Scheme::Conservative } else { Scheme::Filtered })
        .throttle(ranks - 1, 5.0)
        .load_model(LoadModel::Synthetic { per_point: 1.0 })
}

static DRAWS: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_death_at_any_message_recovers_bitwise_or_fails_typed(
        shape in (12usize..=20, 4u64..=8, 0u64..=3, any::<bool>()),
        mesh in (2usize..=4, any::<usize>(), 0u64..=3, any::<bool>()),
        at in (any::<u64>(), any::<u64>()),
    ) {
        let (nx, phases, remap_every, conservative) = shape;
        let (ranks, rank, checkpoint_every, supervised) = mesh;
        let rank = rank % ranks;
        let scenario = drawn(nx, phases, remap_every, ranks, conservative);

        // The undisturbed run gives the reference fields and the rank's
        // messages per tag; the fault strikes before one of them.
        let (sink, recorder) = TraceSink::recorder(1 << 16);
        let want = scenario.clone().trace(sink).runtime().unwrap().run().snapshot;
        let events = recorder.events();
        let tags: Vec<Tag> =
            Tag::ALL.into_iter().filter(|&tag| traffic(&events, rank, tag) > 0).collect();
        let tag = tags[(at.0 % tags.len() as u64) as usize];
        let fault = MpFault { rank, tag, nth: 1 + at.1 % traffic(&events, rank, tag) };

        let label = format!("draw-{}", DRAWS.fetch_add(1, Ordering::Relaxed));
        strike(&label, scenario, checkpoint_every, supervised, fault, &want);
    }
}
