//! TcpTransport against the generic Transport contract, plus the failure
//! modes only a real network backend has: read deadlines, refused
//! connections, handshake verification, clean shutdown.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use microslip_comm::{contract, CommError, Tag, Transport};
use microslip_net::{join_mesh, localhost_mesh, parse_port, port_path, NetConfig, TcpTransport};

fn test_cfg() -> NetConfig {
    NetConfig { read_timeout: Duration::from_secs(10), handshake_timeout: Duration::from_secs(10) }
}

/// A fresh, empty run directory for one test.
fn run_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microslip-net-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Ranks `ranks` of a mesh of `size` joining in `dir`, each on its own
/// thread; their results in the order of `ranks`.
fn join_all(dir: &Path, ranks: &[usize], size: usize, cfg: &NetConfig) -> Vec<Result<TcpTransport, CommError>> {
    let handles: Vec<_> = ranks
        .iter()
        .map(|&rank| {
            let (dir, cfg) = (dir.to_path_buf(), cfg.clone());
            std::thread::spawn(move || join_mesh(&dir, rank, size, &cfg))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn tcp_transport_satisfies_the_contract() {
    let cfg = test_cfg();
    contract::run_suite(|n| localhost_mesh(n, &cfg));
}

#[test]
fn recv_deadline_surfaces_as_timeout() {
    let cfg = NetConfig { read_timeout: Duration::from_millis(50), ..test_cfg() };
    let mut mesh = localhost_mesh(2, &cfg);
    let _b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    // Rank 1 is alive but silent: the read deadline, not a disconnect.
    assert_eq!(a.recv(1, Tag::F_HALO), Err(CommError::Timeout { peer: 1 }));
    // A timeout is not fatal — traffic afterwards still works.
    a.send(1, Tag::LOAD, vec![5.0]).unwrap();
}

#[test]
fn explicit_close_reports_disconnected_to_peer() {
    let cfg = test_cfg();
    let mut mesh = localhost_mesh(2, &cfg);
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    a.send(1, Tag::LOAD, vec![1.0]).unwrap();
    a.close();
    // The pre-close message is still deliverable, then the goodbye.
    assert_eq!(b.recv(0, Tag::LOAD).unwrap(), vec![1.0]);
    assert_eq!(b.recv(0, Tag::LOAD), Err(CommError::Disconnected { peer: 0 }));
    assert_eq!(b.send(0, Tag::LOAD, vec![2.0]), Err(CommError::Disconnected { peer: 0 }));
}

#[test]
fn ranks_meeting_in_a_run_directory_form_a_working_mesh() {
    for n in 1..=4 {
        let dir = run_dir(&format!("mesh-{n}"));
        // Highest rank first: a rank may start before the ranks it dials.
        let ranks: Vec<usize> = (0..n).rev().collect();
        let mut mesh: Vec<_> =
            join_all(&dir, &ranks, n, &test_cfg()).into_iter().map(Result::unwrap).collect();
        mesh.reverse();
        assert_eq!(mesh.iter().map(|t| t.rank()).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        // Every rank of a real mesh published its port; one rank needs none.
        assert_eq!((0..n).all(|r| port_path(&dir, r).exists()), n > 1);
        // Ring exchange proves every socket pair is wired to the right rank.
        let handles: Vec<_> = mesh
            .into_iter()
            .filter(|t| t.size() > 1)
            .map(|mut t| {
                std::thread::spawn(move || {
                    let (me, n) = (t.rank(), t.size());
                    t.send((me + 1) % n, Tag::F_HALO, vec![me as f64]).unwrap();
                    let left = (me + n - 1) % n;
                    assert_eq!(t.recv(left, Tag::F_HALO).unwrap(), vec![left as f64]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_rank_that_never_publishes_is_named_by_the_others() {
    // Rank 1 of three dies before it publishes its port. Rank 2 waits for
    // its port file and rank 0 for its IDENT; both must fail with handshake
    // errors naming it, within the bounded handshake.
    let dir = run_dir("missing");
    let cfg = NetConfig { handshake_timeout: Duration::from_secs(1), ..test_cfg() };
    let started = Instant::now();
    let results = join_all(&dir, &[0, 2], 3, &cfg);
    assert!(started.elapsed() < Duration::from_secs(2), "handshake wall-time unbounded");
    for (rank, result) in [0, 2].into_iter().zip(results) {
        match result {
            Err(CommError::Handshake { detail }) => {
                assert!(detail.contains("[1"), "rank {rank}: {detail}");
            }
            other => panic!("rank {rank}: expected Handshake error, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_port_file_fails_at_once() {
    // A port file left by a rank that is gone names a port nobody listens
    // on. The listener came before the file, so the refused dial is final:
    // no retry, no waiting out the handshake deadline.
    let dir = run_dir("stale");
    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    fs::write(port_path(&dir, 0), format!("{port}\n")).unwrap();
    let started = Instant::now();
    match join_mesh(&dir, 1, 2, &test_cfg()) {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("could not connect to rank 0"), "unhelpful detail: {detail}");
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(2), "a refused dial must fail at once");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_data_listener_admits_only_ident_frames() {
    // A peer that opens with anything but IDENT — here a GOODBYE — is
    // refused before any mesh forms.
    use microslip_net::wire::{encode, Frame};
    let dir = run_dir("ident");
    let rank0 = {
        let dir = dir.clone();
        std::thread::spawn(move || join_mesh(&dir, 0, 2, &test_cfg()))
    };
    let path = port_path(&dir, 0);
    let port = (0..500)
        .find_map(|_| match fs::read(&path) {
            Ok(bytes) => Some(parse_port(0, &bytes).unwrap()),
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                None
            }
        })
        .expect("rank 0 publishes its port");
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    std::io::Write::write_all(&mut stream, &encode(&Frame::goodbye(1))).unwrap();
    match rank0.join().unwrap() {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("expected IDENT, got Goodbye"), "{detail}")
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_rank_outside_the_mesh_is_refused() {
    let dir = run_dir("range");
    let out_of_range = join_mesh(&dir, 2, 2, &test_cfg()).err();
    assert_eq!(out_of_range, Some(CommError::InvalidRank { rank: 2, size: 2 }));
    assert!(matches!(join_mesh(&dir, 0, 0, &test_cfg()), Err(CommError::Handshake { .. })));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn large_payload_roundtrip_is_bit_exact() {
    // A realistic halo plane: tens of thousands of doubles in one frame.
    let cfg = test_cfg();
    let mut mesh = localhost_mesh(2, &cfg);
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    let payload: Vec<f64> = (0..40_000)
        .map(|i| (i as f64).sin() * 1e-3 + f64::MIN_POSITIVE * i as f64)
        .collect();
    let expect = payload.clone();
    let h = std::thread::spawn(move || {
        let got = b.recv(0, Tag::F_HALO).unwrap();
        b.send(0, Tag::PSI_HALO, got).unwrap();
    });
    a.send(1, Tag::F_HALO, payload).unwrap();
    let back = a.recv(1, Tag::PSI_HALO).unwrap();
    assert!(back.iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits()));
    h.join().unwrap();
}
