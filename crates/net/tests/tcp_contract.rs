//! TcpTransport against the generic Transport contract, plus the failure
//! modes only a real network backend has: read deadlines, refused
//! connections, handshake verification, clean shutdown.

use std::net::TcpListener;
use std::time::Duration;

use microslip_comm::{contract, CommError, Tag, Transport};
use microslip_net::{connect, coordinate_mesh, localhost_mesh, NetConfig};

fn test_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(2),
        connect_retries: 20,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        read_timeout: Some(Duration::from_secs(10)),
        handshake_timeout: Duration::from_secs(10),
    }
}

/// Rank 0's rendezvous listener on a free port, and its address.
fn rendezvous() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

#[test]
fn tcp_transport_satisfies_the_contract() {
    let cfg = test_cfg();
    contract::run_suite(|n| localhost_mesh(n, &cfg));
}

#[test]
fn recv_deadline_surfaces_as_timeout() {
    let cfg = NetConfig { read_timeout: Some(Duration::from_millis(50)), ..test_cfg() };
    let mut mesh = localhost_mesh(2, &cfg);
    let _b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    // Rank 1 is alive but silent: the read deadline, not a disconnect.
    assert_eq!(a.recv(1, Tag::F_HALO), Err(CommError::Timeout { peer: 1 }));
    // A timeout is not fatal — traffic afterwards still works.
    a.send(1, Tag::LOAD, vec![5.0]).unwrap();
}

#[test]
fn connect_to_dead_port_fails_with_handshake_error() {
    // A bound-then-released port refuses connections; bounded retry
    // must give up with a typed error, not hang or panic.
    let port = rendezvous().0.local_addr().unwrap().port();
    let cfg = NetConfig {
        connect_retries: 3,
        backoff: Duration::from_millis(1),
        handshake_timeout: Duration::from_secs(2),
        ..test_cfg()
    };
    match connect(Some(1), 2, &format!("127.0.0.1:{port}"), &cfg) {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("connect"), "unhelpful detail: {detail}");
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
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
fn auto_assigned_ranks_form_a_working_mesh() {
    let (listener, addr) = rendezvous();
    let mut listener = Some(listener);
    let cfg = test_cfg();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let (addr, cfg, listener) = (addr.clone(), cfg.clone(), listener.take());
            // Only rank 0 knows who it is; the others ask to be assigned.
            std::thread::spawn(move || match listener {
                Some(listener) => coordinate_mesh(listener, 3, &cfg).unwrap(),
                None => connect(None, 3, &addr, &cfg).unwrap(),
            })
        })
        .collect();
    let mut mesh: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    mesh.sort_by_key(|t| t.rank());
    let ranks: Vec<_> = mesh.iter().map(|t| t.rank()).collect();
    assert_eq!(ranks, vec![0, 1, 2]);
    // Ring exchange proves every socket pair is wired to the right rank.
    let handles: Vec<_> = mesh
        .into_iter()
        .map(|mut t| {
            std::thread::spawn(move || {
                let n = t.size();
                let me = t.rank();
                t.send((me + 1) % n, Tag::F_HALO, vec![me as f64]).unwrap();
                let left = (me + n - 1) % n;
                assert_eq!(t.recv(left, Tag::F_HALO).unwrap(), vec![left as f64]);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn duplicate_rank_claim_is_rejected() {
    let (listener, addr) = rendezvous();
    let cfg = NetConfig { handshake_timeout: Duration::from_secs(5), ..test_cfg() };
    let coordinator = {
        let cfg = cfg.clone();
        std::thread::spawn(move || coordinate_mesh(listener, 3, &cfg))
    };
    let joiners = [Some(1), Some(1)].into_iter().map(|claim| {
        let (addr, cfg) = (addr.clone(), cfg.clone());
        std::thread::spawn(move || connect(claim, 3, &addr, &cfg))
    });
    let handles: Vec<_> = std::iter::once(coordinator).chain(joiners).collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // The coordinator must detect the duplicate; with it gone, nobody can
    // complete the handshake.
    assert!(
        results.iter().all(|r| r.is_err()),
        "a mesh with duplicate rank claims must not form"
    );
    assert!(results.iter().any(|r| matches!(
        r,
        Err(CommError::Handshake { detail }) if detail.contains("claimed twice")
    )));
}

#[test]
fn the_coordinator_admits_only_hello_frames() {
    // A joiner that opens with anything but HELLO — here the IDENT of a
    // data connection — is refused before any mesh forms.
    use microslip_net::wire::{encode, Frame, FrameKind};
    let (listener, addr) = rendezvous();
    let cfg = test_cfg();
    let coordinator = {
        let cfg = cfg.clone();
        std::thread::spawn(move || coordinate_mesh(listener, 2, &cfg))
    };
    let mut stream = (0..200)
        .find_map(|_| {
            std::net::TcpStream::connect(&addr)
                .map_err(|_| std::thread::sleep(Duration::from_millis(10)))
                .ok()
        })
        .expect("the coordinator listens");
    let ident = Frame { kind: FrameKind::Ident, from: 1, tag: 0, payload: vec![] };
    std::io::Write::write_all(&mut stream, &encode(&ident)).unwrap();
    match coordinator.join().unwrap() {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("expected HELLO, got Ident"), "{detail}")
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
}

#[test]
fn handshake_timeout_names_the_missing_ranks() {
    // Rank 2 never shows up (died before its HELLO). The coordinator must
    // classify that as a handshake failure naming the offending rank, not
    // a generic timeout — and within the bounded rendezvous wall-time.
    let (listener, addr) = rendezvous();
    let cfg = NetConfig { handshake_timeout: Duration::from_secs(2), ..test_cfg() };
    let joiner = {
        let cfg = cfg.clone();
        std::thread::spawn(move || connect(Some(1), 3, &addr, &cfg))
    };
    let started = std::time::Instant::now();
    let result = coordinate_mesh(listener, 3, &cfg);
    assert!(started.elapsed() < Duration::from_secs(10), "rendezvous wall-time unbounded");
    match result {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("[2]"), "must name the missing rank: {detail}");
            assert!(detail.contains("1 of 2"), "must count arrivals: {detail}");
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
    assert!(joiner.join().unwrap().is_err(), "the mesh must not form without rank 2");
}

#[test]
fn a_mesh_forms_with_rank_0_on_port_0() {
    // Rank 0 binds the rendezvous to port 0 and hands out the address it
    // got, so no port is released between being chosen and being bound.
    for n in 1..=4 {
        let mut mesh = localhost_mesh(n, &test_cfg());
        assert_eq!(mesh.iter().map(|t| t.rank()).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        if n > 1 {
            let handles: Vec<_> = mesh
                .drain(..)
                .map(|mut t| {
                    std::thread::spawn(move || {
                        let me = t.rank();
                        t.send((me + 1) % n, Tag::LOAD, vec![me as f64]).unwrap();
                        let left = (me + n - 1) % n;
                        assert_eq!(t.recv(left, Tag::LOAD).unwrap(), vec![left as f64]);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }
}

#[test]
fn rank_0_of_a_mesh_cannot_join_through_connect() {
    // Rank 0 coordinates through `coordinate_mesh` on a listener it bound;
    // `connect` is the joiners' side only.
    match connect(Some(0), 2, "127.0.0.1:1", &test_cfg()) {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("coordinate_mesh"), "unhelpful detail: {detail}");
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
}

#[test]
fn single_rank_mesh_needs_no_sockets() {
    let t = connect(Some(0), 1, "127.0.0.1:1", &test_cfg()).unwrap();
    assert_eq!(t.rank(), 0);
    assert_eq!(t.size(), 1);
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
