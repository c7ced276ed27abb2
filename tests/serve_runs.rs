//! End-to-end tests of the sweep daemon: submit → schedule → cache →
//! fetch over real TCP with real `microslip run-job` subprocesses.
//! Covers the cache contract (hit, miss, dedupe, eviction) and the
//! supervision contract (a worker killed mid-job restarts from its
//! checkpoint and the sweep still completes, with results byte-identical
//! to an undisturbed direct run).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use microslip::lbm::{CacheStore, ResultArtifact};
use microslip::obs::{from_jsonl, validate_jsonl, Event, JobStage};
use microslip::runtime::LoadModel;
use microslip::serve::{self, RunJobArgs, ServeConfig, SweepRequest};
use microslip::Scenario;

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_microslip");

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microslip-serve-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Small enough that a job runs in well under a second.
fn base_scenario(phases: u64) -> Scenario {
    Scenario::paper_scaled(8, 6, 4)
        .workers(2)
        .phases(phases)
        .load_model(LoadModel::Synthetic { per_point: 1.0 })
}

/// Starts a daemon on an ephemeral port in a background thread and waits
/// for it to publish its address.
fn start_daemon(cfg: ServeConfig) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let addr_file = cfg.dir.join("serve.addr");
    let handle = std::thread::spawn(move || serve::run_serve(&cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = fs::read_to_string(&addr_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return (addr, handle);
            }
        }
        assert!(Instant::now() < deadline, "daemon never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs `scenario` directly (no daemon, no subprocess) and returns the
/// sealed artifact bytes — the reference a cached result must match
/// bit for bit.
fn direct_run(scenario: &Scenario, dir: &Path) -> Vec<u8> {
    let scenario_path = dir.join("direct.scenario");
    let out_path = dir.join("direct.artifact");
    fs::write(&scenario_path, scenario.canonical_bytes()).expect("write scenario");
    serve::run_job(&RunJobArgs {
        scenario_path,
        out_path: out_path.clone(),
        checkpoint_dir: dir.join("direct-ckpt"),
        checkpoint_every: 0,
        resume: false,
        die_at_phase: None,
    })
    .expect("direct run-job");
    fs::read(&out_path).expect("read direct artifact")
}

fn job_events(dir: &Path) -> Vec<Event> {
    let jsonl = fs::read_to_string(dir.join("serve.jsonl")).expect("read serve.jsonl");
    validate_jsonl(&jsonl).expect("serve.jsonl must validate");
    from_jsonl(&jsonl).expect("parse serve.jsonl")
}

fn stage_count(events: &[Event], want: JobStage) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, Event::Job { stage, .. } if *stage == want))
        .count()
}

#[test]
fn sweep_dedupes_caches_and_serves_bitwise_identical_results() {
    let dir = scratch_dir("cache");
    let mut cfg = ServeConfig::new(&dir, WORKER_EXE);
    cfg.cache_capacity = 1; // exercise eviction at shutdown
    let (addr, handle) = start_daemon(cfg);

    // Three grid points, two unique: the duplicate must be deduped
    // within the sweep, not computed twice.
    let req = SweepRequest {
        base: base_scenario(8),
        checkpoint_every: Some(0),
        axes: vec![("wall-amplitude".into(), vec![0.1, 0.2, 0.1])],
    };
    let ticket = serve::submit(&addr, &req).expect("submit");
    assert_eq!(ticket.jobs, 3);
    assert_eq!(ticket.scheduled, 2, "two unique scenarios to compute");
    assert_eq!(ticket.cached, 1, "the in-sweep duplicate is a cache hit");
    assert_eq!(ticket.keys.len(), 3);
    assert_eq!(ticket.keys[0], ticket.keys[2], "same parameters, same key");

    let report = serve::wait_idle(&addr, Duration::from_secs(60)).expect("sweep completes");
    assert!(report.contains("state=done"), "jobs must finish: {report}");

    // Resubmitting the identical sweep computes nothing.
    let again = serve::submit(&addr, &req).expect("resubmit");
    assert_eq!(again.scheduled, 0, "everything served from cache");
    assert_eq!(again.cached, 3);
    assert_eq!(again.keys, ticket.keys);

    // Fetched bytes are the sealed artifact, verbatim and self-consistent.
    let sealed = serve::fetch(&addr, &ticket.keys[0]).expect("fetch");
    let duplicate = serve::fetch(&addr, &ticket.keys[2]).expect("fetch duplicate");
    assert_eq!(sealed, duplicate, "one key, one artifact");
    let artifact = ResultArtifact::unseal(&sealed).expect("unseal");
    assert_eq!(artifact.key, ticket.keys[0]);
    assert_eq!(artifact.phases, 8);

    // ... and byte-identical to running the same scenario directly.
    let mut expected = req.base.clone();
    expected.channel.wall.amplitude = 0.1;
    assert_eq!(expected.key(), ticket.keys[0], "client derives the same key");
    let direct = direct_run(&expected, &dir);
    assert_eq!(sealed, direct, "cached result differs from a direct run");

    // Unknown and hostile keys are typed errors, not hangs or panics.
    assert!(serve::fetch(&addr, "00000000deadbeef").unwrap_err().contains("unknown key"));
    assert!(serve::fetch(&addr, "../escape").is_err());

    serve::shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exits clean");

    // The trace records exactly the cache hits we observed: 1 in-sweep
    // dedupe + 3 on resubmit; 2 jobs computed, none failed or restarted.
    let events = job_events(&dir);
    assert_eq!(stage_count(&events, JobStage::CacheHit), 4);
    assert_eq!(stage_count(&events, JobStage::Done), 2);
    assert_eq!(stage_count(&events, JobStage::Restarted), 0);
    assert_eq!(stage_count(&events, JobStage::Failed), 0);

    // Capacity 1: the shutdown trim evicted down to one entry.
    let store = CacheStore::open(dir.join("cache")).expect("open store");
    assert_eq!(store.keys().expect("keys").len(), 1, "eviction must trim to capacity");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_cache_entry_is_recomputed_not_served() {
    let dir = scratch_dir("evicted");
    let (addr, handle) = start_daemon(ServeConfig::new(&dir, WORKER_EXE));
    let req = SweepRequest { base: base_scenario(8), checkpoint_every: Some(4), axes: vec![] };
    let ticket = serve::submit(&addr, &req).expect("submit");
    assert_eq!(ticket.scheduled, 1);
    serve::wait_idle(&addr, Duration::from_secs(60)).expect("sweep completes");
    let key = &ticket.keys[0];

    // The result was moved into the cache, and once it was cached the
    // job's checkpoints went; its stderr log stays.
    let job = dir.join("jobs").join(key);
    assert!(!job.join("result.artifact").exists(), "the result is moved, not copied");
    assert!(!job.join("ckpt").exists(), "a cached job keeps no checkpoints");
    assert!(job.join("job.stderr").exists());

    // Rot the entry behind the daemon's back: the resubmit is a miss that
    // schedules the job again, not a hit on the finished job.
    let entry = dir.join("cache").join(format!("{key}.artifact"));
    let mut bytes = fs::read(&entry).expect("cache entry");
    bytes[100] ^= 0xff;
    fs::write(&entry, &bytes).unwrap();
    let again = serve::submit(&addr, &req).expect("resubmit");
    assert_eq!((again.scheduled, again.cached), (1, 0), "a corrupt entry is a miss");
    serve::wait_idle(&addr, Duration::from_secs(60)).expect("recompute completes");
    let sealed = serve::fetch(&addr, key).expect("fetch the recomputed result");
    serve::shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exits clean");
    assert_eq!(sealed, direct_run(&req.base, &dir), "the recomputed result differs");

    let events = job_events(&dir);
    assert_eq!(stage_count(&events, JobStage::Done), 2);
    assert_eq!(stage_count(&events, JobStage::CacheHit), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_restarts_from_checkpoint_and_matches_direct_run_bitwise() {
    let dir = scratch_dir("death");
    let mut cfg = ServeConfig::new(&dir, WORKER_EXE);
    // The first scheduled job's first attempt dies right before phase 9 —
    // after the cadence-4 checkpoints at phases 4 and 8 are on disk.
    cfg.chaos = Some((0, 9));
    let (addr, handle) = start_daemon(cfg);

    let req = SweepRequest {
        base: base_scenario(12),
        checkpoint_every: Some(4),
        axes: vec![],
    };
    let ticket = serve::submit(&addr, &req).expect("submit");
    assert_eq!(ticket.scheduled, 1);
    let key = ticket.keys[0].clone();

    let report = serve::wait_idle(&addr, Duration::from_secs(60)).expect("sweep completes");
    assert!(
        report.contains("state=done") && report.contains("respawns=1"),
        "job must finish after one respawn: {report}"
    );

    let sealed = serve::fetch(&addr, &key).expect("fetch");
    serve::shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exits clean despite the kill");

    // The first attempt's dying words survive the respawn that succeeded.
    let stderr = fs::read_to_string(dir.join("jobs").join(&key).join("job.stderr")).unwrap();
    assert!(
        stderr.contains("injected fault") && stderr.contains("before phase 9"),
        "job.stderr lost the first attempt's output: {stderr:?}"
    );

    // The supervision story is on the record: a restart, then completion,
    // and never a sweep failure.
    let events = job_events(&dir);
    assert!(stage_count(&events, JobStage::Restarted) >= 1, "restart must be recorded");
    assert_eq!(stage_count(&events, JobStage::Done), 1);
    assert_eq!(stage_count(&events, JobStage::Failed), 0);

    // Checkpoint-restart is invisible in the result: bitwise-equal to an
    // undisturbed direct run of the same scenario.
    let direct = direct_run(&req.base, &dir);
    assert_eq!(
        sealed, direct,
        "result computed across a worker death differs from an undisturbed run"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_a_torn_newest_checkpoint_and_stays_bitwise() {
    use microslip::lbm::checkpoint;
    let dir = scratch_dir("torn-resume");
    let scenario = base_scenario(12);
    let scenario_path = dir.join("job.scenario");
    fs::write(&scenario_path, scenario.canonical_bytes()).expect("write scenario");
    let ckpt = dir.join("ckpt");
    let job = |out: &str, resume: bool| {
        serve::run_job(&RunJobArgs {
            scenario_path: scenario_path.clone(),
            out_path: dir.join(out),
            checkpoint_dir: ckpt.clone(),
            checkpoint_every: 4,
            resume,
            die_at_phase: None,
        })
        .expect("run-job");
        fs::read(dir.join(out)).expect("read artifact")
    };
    let want = job("whole.artifact", false);
    assert_eq!(checkpoint::valid_phases(&ckpt, 0), vec![4, 8, 12]);

    // A crash tore the newest checkpoint; the oldest is gone, so a restart
    // from scratch would have to write it again.
    let newest = checkpoint::path(&ckpt, 0, 12);
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() - 3]).unwrap();
    fs::remove_file(checkpoint::path(&ckpt, 0, 4)).unwrap();
    assert_eq!(checkpoint::valid_phases(&ckpt, 0), vec![8]);

    let got = job("resumed.artifact", true);
    assert_eq!(got, want, "resuming past a torn checkpoint changed the result");
    // It restored phase 8 — not the torn 12, not phase 0 — and replayed
    // 9..=12, sealing 12 again on the way.
    assert_eq!(checkpoint::valid_phases(&ckpt, 0), vec![8, 12]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_job_refuses_a_bad_trt_magic_with_exit_1() {
    use microslip::lbm::CollisionOperator;
    let dir = scratch_dir("trt-magic");
    for magic in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
        let mut scenario = base_scenario(2);
        scenario.channel.components[0].0.collision = CollisionOperator::Trt { magic };
        let path = dir.join("bad.scenario");
        fs::write(&path, scenario.canonical_bytes()).expect("write scenario");
        let out = std::process::Command::new(WORKER_EXE)
            .args(["run-job", "--scenario"])
            .arg(&path)
            .arg("--out")
            .arg(dir.join("bad.artifact"))
            .arg("--checkpoint-dir")
            .arg(dir.join("ckpt"))
            .output()
            .expect("spawn run-job");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "magic {magic}: {stderr}");
        assert!(stderr.contains("TRT magic parameter must be positive"), "magic {magic}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
