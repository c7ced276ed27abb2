//! The [`Transport`] contract, executable against any implementation.
//!
//! Every guarantee the worker protocol relies on is written down here as a
//! checked property: per-(sender, tag) FIFO order, out-of-order tag
//! buffering (concurrent protocols must not steal each other's messages),
//! self-send and invalid-rank rejection, and peer-hangup reporting. The
//! in-process channel transport and the TCP transport both run the full
//! suite, so a new backend is conformant iff `run_suite` passes with its
//! mesh constructor.
//!
//! The checks `panic!` on violation (they are test assertions), but live
//! in the library so other crates' integration tests can reuse them.

use std::thread;

use crate::transport::{CommError, Tag, Transport};

/// Runs every contract check. `make_mesh(n)` must return a fully connected
/// communicator of `n` fresh transports, element `i` being rank `i`.
pub fn run_suite<T, F>(make_mesh: F)
where
    T: Transport + 'static,
    F: Fn(usize) -> Vec<T>,
{
    check_identity(&make_mesh);
    check_ping_pong(&make_mesh);
    check_fifo_per_tag(&make_mesh);
    check_out_of_order_tags_buffered(&make_mesh);
    check_senders_do_not_mix(&make_mesh);
    check_concurrent_protocols_do_not_steal(&make_mesh);
    check_self_send_rejected(&make_mesh);
    check_invalid_rank_rejected(&make_mesh);
    check_dropped_peer_reported(&make_mesh);
}

/// Ranks and size must be consistent with the mesh constructor.
pub fn check_identity<T: Transport>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let m = make_mesh(3);
    assert_eq!(m.len(), 3);
    for (i, t) in m.iter().enumerate() {
        assert_eq!(t.rank(), i, "mesh element {i} reports rank {}", t.rank());
        assert_eq!(t.size(), 3);
    }
}

/// A round trip delivers payloads unchanged.
pub fn check_ping_pong<T: Transport + 'static>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let mut m = make_mesh(2);
    let mut b = m.pop().unwrap();
    let mut a = m.pop().unwrap();
    let h = thread::spawn(move || {
        let x = b.recv(0, Tag::F_HALO).expect("peer recv");
        b.send(0, Tag::F_HALO, vec![x[0] * 2.0, f64::MIN_POSITIVE]).expect("peer send");
    });
    a.send(1, Tag::F_HALO, vec![21.0]).expect("send");
    let r = a.recv(1, Tag::F_HALO).expect("recv");
    assert_eq!(r, vec![42.0, f64::MIN_POSITIVE], "payload not preserved bit-exactly");
    h.join().unwrap();
}

/// Messages of one (sender, tag) stream arrive in send order.
pub fn check_fifo_per_tag<T: Transport + 'static>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let mut m = make_mesh(2);
    let mut b = m.pop().unwrap();
    let mut a = m.pop().unwrap();
    let h = thread::spawn(move || {
        for k in 0..32 {
            a.send(1, Tag::LOAD, vec![k as f64]).unwrap();
        }
        a
    });
    for k in 0..32 {
        assert_eq!(b.recv(0, Tag::LOAD).unwrap(), vec![k as f64], "FIFO order broken at {k}");
    }
    h.join().unwrap();
}

/// Receiving tags in an order different from the send order must work:
/// mismatched arrivals are buffered, not dropped or misdelivered.
pub fn check_out_of_order_tags_buffered<T: Transport + 'static>(
    make_mesh: &impl Fn(usize) -> Vec<T>,
) {
    let mut m = make_mesh(2);
    let mut b = m.pop().unwrap();
    let mut a = m.pop().unwrap();
    let h = thread::spawn(move || {
        a.send(1, Tag::F_HALO, vec![1.0]).unwrap();
        a.send(1, Tag::PSI_HALO, vec![2.0]).unwrap();
        a.send(1, Tag::MIGRATE_COUNT, vec![3.0]).unwrap();
        a
    });
    // Receive in reverse order.
    assert_eq!(b.recv(0, Tag::MIGRATE_COUNT).unwrap(), vec![3.0]);
    assert_eq!(b.recv(0, Tag::PSI_HALO).unwrap(), vec![2.0]);
    assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![1.0]);
    h.join().unwrap();
}

/// Messages with the same tag from different senders must not mix.
pub fn check_senders_do_not_mix<T: Transport + 'static>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let mut m = make_mesh(3);
    let mut c = m.pop().unwrap();
    let mut b = m.pop().unwrap();
    let mut a = m.pop().unwrap();
    let ha = thread::spawn(move || {
        a.send(2, Tag::LOAD, vec![10.0]).unwrap();
        a
    });
    let hb = thread::spawn(move || {
        b.send(2, Tag::LOAD, vec![20.0]).unwrap();
        b
    });
    // Ask for rank 1's message first even if rank 0's arrives first.
    assert_eq!(c.recv(1, Tag::LOAD).unwrap(), vec![20.0]);
    assert_eq!(c.recv(0, Tag::LOAD).unwrap(), vec![10.0]);
    ha.join().unwrap();
    hb.join().unwrap();
}

/// Two protocols interleaved over the same pair of ranks — a halo
/// exchange racing a migration — must each see exactly their own
/// messages, in their own order, regardless of the interleaving the
/// receiver chooses.
pub fn check_concurrent_protocols_do_not_steal<T: Transport + 'static>(
    make_mesh: &impl Fn(usize) -> Vec<T>,
) {
    let mut m = make_mesh(2);
    let mut b = m.pop().unwrap();
    let mut a = m.pop().unwrap();
    let h = thread::spawn(move || {
        // Protocol 1 (halo): three F_HALO messages.
        // Protocol 2 (migration): count announcement + two data planes.
        a.send(1, Tag::F_HALO, vec![1.0]).unwrap();
        a.send(1, Tag::MIGRATE_COUNT, vec![2.0]).unwrap();
        a.send(1, Tag::F_HALO, vec![3.0]).unwrap();
        a.send(1, Tag::MIGRATE_DATA, vec![4.0, 4.5]).unwrap();
        a.send(1, Tag::F_HALO, vec![5.0]).unwrap();
        a.send(1, Tag::MIGRATE_DATA, vec![6.0]).unwrap();
        a
    });
    // The receiver drives the migration protocol to completion first,
    // then the halo protocol; each stream must be intact and ordered.
    assert_eq!(b.recv(0, Tag::MIGRATE_COUNT).unwrap(), vec![2.0]);
    assert_eq!(b.recv(0, Tag::MIGRATE_DATA).unwrap(), vec![4.0, 4.5]);
    assert_eq!(b.recv(0, Tag::MIGRATE_DATA).unwrap(), vec![6.0]);
    assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![1.0]);
    assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![3.0]);
    assert_eq!(b.recv(0, Tag::F_HALO).unwrap(), vec![5.0]);
    h.join().unwrap();
}

/// Self-sends are rejected with [`CommError::SelfSend`] in both
/// directions.
pub fn check_self_send_rejected<T: Transport>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let mut m = make_mesh(2);
    let mut a = m.remove(0);
    assert!(
        matches!(a.send(0, Tag::LOAD, vec![7.0]), Err(CommError::SelfSend { rank: 0 })),
        "self-send must be rejected"
    );
    assert!(
        matches!(a.recv(0, Tag::LOAD), Err(CommError::SelfSend { rank: 0 })),
        "self-recv must be rejected"
    );
}

/// Out-of-range ranks are rejected with [`CommError::InvalidRank`].
pub fn check_invalid_rank_rejected<T: Transport>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let mut m = make_mesh(2);
    let mut a = m.remove(0);
    assert!(matches!(
        a.send(5, Tag::LOAD, vec![]),
        Err(CommError::InvalidRank { rank: 5, size: 2 })
    ));
    assert!(matches!(a.recv(7, Tag::LOAD), Err(CommError::InvalidRank { .. })));
}

/// Dropping a transport must surface as [`CommError::Disconnected`] on
/// peers blocked on (or later addressing) that rank — not as a hang.
pub fn check_dropped_peer_reported<T: Transport + 'static>(make_mesh: &impl Fn(usize) -> Vec<T>) {
    let mut m = make_mesh(3);
    let _c = m.pop().unwrap(); // keeps the rest of the mesh alive
    let b = m.pop().unwrap();
    let mut a = m.pop().unwrap();
    drop(b);
    match a.recv(1, Tag::F_HALO) {
        Err(CommError::Disconnected { peer: 1 }) => {}
        other => panic!("expected Disconnected {{ peer: 1 }}, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::channel::mesh;

    #[test]
    fn channel_transport_satisfies_the_contract() {
        super::run_suite(mesh);
    }
}
