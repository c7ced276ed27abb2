//! The sweep daemon's memory does not grow with the artifacts it handles:
//! a job's result is checked in one streamed pass and renamed into the
//! cache, and a fetch is verified and sent from the file, both a chunk at
//! a time. A counting allocator bounds the largest block the daemon's
//! thread ever asks for while it absorbs two results four times that size
//! and answers a fetch of one.

use std::fs;
use std::time::{Duration, Instant};

use microslip::serve::{self, ServeConfig, SweepRequest};
use microslip::Scenario;

mod common {
    pub mod counting;
}
use common::counting;

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_microslip");

#[test]
fn the_daemon_thread_never_holds_an_artifact() {
    let dir = std::env::temp_dir().join(format!("microslip-serve-memory-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    let cfg = ServeConfig::new(&dir, WORKER_EXE);
    let daemon = std::thread::spawn(move || {
        counting::reset();
        let served = serve::run_serve(&cfg);
        (served, counting::largest())
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match fs::read_to_string(dir.join("serve.addr")) {
            Ok(text) if !text.trim().is_empty() => break text.trim().to_string(),
            _ => assert!(Instant::now() < deadline, "daemon never published its address"),
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // Two jobs on the 100×50×20 channel: 4 MB artifacts.
    let req = SweepRequest {
        base: Scenario::paper_scaled(100, 50, 20).phases(2),
        checkpoint_every: Some(0),
        axes: vec![("wall-amplitude".into(), vec![0.1, 0.2])],
    };
    let ticket = serve::submit(&addr, &req).expect("submit");
    assert_eq!(ticket.scheduled, 2);
    let report = serve::wait_idle(&addr, Duration::from_secs(300)).expect("sweep completes");
    assert!(!report.contains("state=failed"), "{report}");
    let sealed = serve::fetch(&addr, &ticket.keys[0]).expect("fetch");
    assert!(sealed.len() > 4_000_000, "the artifact is {} bytes", sealed.len());
    serve::shutdown(&addr).expect("shutdown");

    let (served, largest) = daemon.join().expect("daemon thread");
    served.expect("daemon exits clean");
    assert!(
        largest < 1 << 20,
        "the daemon thread allocated {largest} bytes at once, for {}-byte artifacts",
        sealed.len()
    );
    let _ = fs::remove_dir_all(&dir);
}
