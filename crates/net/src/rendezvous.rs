//! Rendezvous handshake and mesh establishment.
//!
//! Every participant first binds its own *data listener* on an ephemeral
//! localhost port, then meets the others at the rendezvous address:
//!
//! 1. Rank 0 ([`coordinate_mesh`]) accepts `size − 1` connections on a
//!    rendezvous listener it bound itself, and joiners ([`connect`])
//!    dial its address. Each joiner sends a HELLO frame carrying its
//!    claimed rank (or [`wire::ASSIGN_ME`]) and its data port. Rank 0 verifies claims are unique and in range,
//!    hands free ranks to assign-me joiners in arrival order, and answers
//!    each with a ROSTER frame (`from` = that joiner's final rank,
//!    payload = every rank's data port).
//! 2. Mesh: rank `i` connects to the data port of every rank `j < i`,
//!    sending an IDENT frame, and accepts `size − 1 − i` connections from
//!    higher ranks, identifying each by its IDENT. Because every data
//!    listener exists *before* the rendezvous, connects complete through
//!    the TCP backlog regardless of what the peer is currently doing —
//!    the sequential connect-then-accept order cannot deadlock.
//!
//! **Bounded wall-time.** One `handshake_timeout` deadline covers the
//! whole rendezvous — connect retries, accepts and handshake reads
//! all charge against it, so per-attempt timeouts cannot stack unbounded.
//! An accept that times out names the ranks that never arrived, so a
//! worker dying *during* the handshake is classified as a
//! [`CommError::Handshake`] naming the offending rank rather than a
//! generic timeout.
//!
//! All failures before the communicator exists surface as
//! [`CommError::Handshake`].

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

use microslip_comm::{CommError, NodeId, Transport};

use crate::tcp::{NetConfig, TcpTransport};
use crate::wire::{self, Frame, FrameError, FrameKind, ASSIGN_ME};

fn handshake<T>(detail: impl Into<String>) -> Result<T, CommError> {
    Err(CommError::Handshake { detail: detail.into() })
}

/// Stores `port` at `rank`, surfacing an out-of-range rank as a handshake
/// error instead of an index panic.
fn set_port(ports: &mut [u16], rank: NodeId, port: u16) -> Result<(), CommError> {
    let size = ports.len();
    match ports.get_mut(rank) {
        Some(slot) => {
            *slot = port;
            Ok(())
        }
        None => handshake(format!("rank {rank} out of range for a mesh of {size}")),
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, CommError> {
    match addr.to_socket_addrs() {
        Ok(mut it) => match it.next() {
            Some(a) => Ok(a),
            None => handshake(format!("address {addr} resolved to nothing")),
        },
        Err(e) => handshake(format!("cannot resolve {addr}: {e}")),
    }
}

/// Dials `addr` with bounded retries. Each attempt and each backoff sleep
/// charges against `deadline`, so the total wall-time spent here can never
/// exceed the rendezvous budget no matter how the retry knobs are set.
fn connect_with_retry(
    addr: SocketAddr,
    cfg: &NetConfig,
    deadline: Instant,
) -> Result<TcpStream, CommError> {
    let mut last = String::new();
    let attempts = cfg.connect_retries.max(1);
    for attempt in 0..attempts {
        if attempt > 0 && Instant::now() >= deadline {
            return handshake(format!(
                "could not connect to {addr} within the rendezvous deadline \
                 ({attempt} attempts): {last}"
            ));
        }
        let per_attempt = cfg
            .connect_timeout
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(1));
        match TcpStream::connect_timeout(&addr, per_attempt) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
        thread::sleep(cfg.backoff_for(attempt).min(deadline.saturating_duration_since(Instant::now())));
    }
    handshake(format!("could not connect to {addr} after {attempts} attempts: {last}"))
}

/// Accepts one connection before `deadline`. `missing` renders, lazily,
/// who we were still waiting for — a joiner that died mid-handshake shows
/// up here by rank instead of as an anonymous timeout.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
    missing: impl Fn() -> String,
) -> Result<TcpStream, CommError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| CommError::Handshake { detail: format!("listener setup: {e}") })?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return handshake(format!(
                        "timed out waiting for peers to arrive: {}",
                        missing()
                    ));
                }
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return handshake(format!("accept failed: {e}")),
        }
    }
}

fn read_handshake_frame(stream: &mut TcpStream, deadline: Instant) -> Result<Frame, CommError> {
    let budget = deadline.saturating_duration_since(Instant::now());
    let budget = if budget.is_zero() { Duration::from_millis(1) } else { budget };
    stream
        .set_read_timeout(Some(budget))
        .map_err(|e| CommError::Handshake { detail: format!("socket setup: {e}") })?;
    match wire::read_frame(stream) {
        Ok(frame) => Ok(frame),
        Err(FrameError::Io(e)) => handshake(format!("peer went away mid-handshake: {e}")),
        Err(FrameError::Protocol(d)) => handshake(format!("malformed handshake frame: {d}")),
    }
}

fn send_handshake_frame(stream: &mut TcpStream, frame: &Frame) -> Result<(), CommError> {
    stream
        .write_all(&wire::encode(frame))
        .map_err(|e| CommError::Handshake { detail: format!("handshake send failed: {e}") })
}

/// Rank 0's side of the rendezvous on its bound `listener`: collect
/// HELLOs, assign/verify ranks, answer with ROSTERs. Returns the data port
/// of every rank.
fn coordinate(
    listener: &TcpListener,
    size: usize,
    my_data_port: u16,
    deadline: Instant,
) -> Result<Vec<u16>, CommError> {
    let mut arrivals: Vec<(TcpStream, Option<NodeId>, u16)> = Vec::with_capacity(size - 1);
    let mut claimed: HashSet<NodeId> = HashSet::new();
    for _ in 1..size {
        let mut stream = accept_with_deadline(listener, deadline, || {
            let missing: Vec<NodeId> = (1..size).filter(|r| !claimed.contains(r)).collect();
            format!(
                "{} of {} joiners arrived, ranks {missing:?} never did",
                arrivals.len(),
                size - 1
            )
        })?;
        let hello = read_handshake_frame(&mut stream, deadline)?;
        if hello.kind != FrameKind::Hello {
            return handshake(format!("expected HELLO, got {:?}", hello.kind));
        }
        let port = match u16::try_from(hello.tag) {
            Ok(p) if p != 0 => p,
            _ => return handshake(format!("HELLO carries invalid data port {}", hello.tag)),
        };
        let claim = if hello.from == ASSIGN_ME {
            None
        } else {
            let rank = hello.from as NodeId;
            if rank == 0 || rank >= size {
                return handshake(format!(
                    "joiner claimed rank {rank}, valid range is 1..{size}"
                ));
            }
            if !claimed.insert(rank) {
                return handshake(format!("rank {rank} claimed twice"));
            }
            Some(rank)
        };
        arrivals.push((stream, claim, port));
    }
    // Hand free ranks to assign-me joiners in arrival order.
    let mut free = (1..size).filter(|r| !claimed.contains(r));
    let mut ports = vec![0u16; size];
    set_port(&mut ports, 0, my_data_port)?;
    let mut resolved: Vec<(TcpStream, NodeId)> = Vec::with_capacity(size - 1);
    for (stream, claim, port) in arrivals {
        let rank = match claim {
            Some(r) => r,
            // Unreachable by counting (claims are unique and in range), but
            // a typed error here costs nothing and cannot take rank 0 down.
            None => match free.next() {
                Some(r) => r,
                None => return handshake("assign-me joiners outnumber free ranks"),
            },
        };
        set_port(&mut ports, rank, port)?;
        resolved.push((stream, rank));
    }
    let roster_payload: Vec<f64> = ports.iter().map(|&p| p as f64).collect();
    for (mut stream, rank) in resolved {
        let Ok(from) = u32::try_from(rank) else {
            return handshake(format!("rank {rank} overflows the wire's u32 rank field"));
        };
        send_handshake_frame(
            &mut stream,
            &Frame { kind: FrameKind::Roster, from, tag: 0, payload: roster_payload.clone() },
        )?;
        // The rendezvous connection has served its purpose; dropping it
        // sends our FIN and the joiner reads the roster from its buffer.
    }
    Ok(ports)
}

/// A joiner's side of the rendezvous. Returns (final rank, data ports).
fn join(
    rendezvous: SocketAddr,
    claimed: Option<NodeId>,
    size: usize,
    my_data_port: u16,
    cfg: &NetConfig,
    deadline: Instant,
) -> Result<(NodeId, Vec<u16>), CommError> {
    let mut stream = connect_with_retry(rendezvous, cfg, deadline)?;
    let from = match claimed {
        Some(rank) => match u32::try_from(rank) {
            Ok(r) => r,
            Err(_) => {
                return handshake(format!("claimed rank {rank} overflows the wire's u32 rank field"))
            }
        },
        None => ASSIGN_ME,
    };
    let announce = Frame { kind: FrameKind::Hello, from, tag: my_data_port as u64, payload: vec![] };
    send_handshake_frame(&mut stream, &announce)?;
    let roster = read_handshake_frame(&mut stream, deadline)?;
    if roster.kind != FrameKind::Roster {
        return handshake(format!("expected ROSTER, got {:?}", roster.kind));
    }
    let rank = roster.from as NodeId;
    if rank == 0 || rank >= size {
        return handshake(format!("roster assigns impossible rank {rank}"));
    }
    if let Some(c) = claimed {
        if rank != c {
            return handshake(format!("claimed rank {c} but roster says {rank}"));
        }
    }
    if roster.payload.len() != size {
        return handshake(format!(
            "roster lists {} ports for a mesh of {size}",
            roster.payload.len()
        ));
    }
    let mut ports = Vec::with_capacity(size);
    for &p in &roster.payload {
        if p.fract() != 0.0 || !(1.0..=u16::MAX as f64).contains(&p) {
            return handshake(format!("roster contains invalid port {p}"));
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "p is validated as an integer in 1..=u16::MAX just above"
        )]
        let port = p as u16;
        ports.push(port);
    }
    Ok((rank, ports))
}

/// Builds the fully connected mesh once ranks and ports are known.
fn establish_mesh(
    rank: NodeId,
    ports: &[u16],
    data_listener: &TcpListener,
    cfg: &NetConfig,
    deadline: Instant,
) -> Result<Vec<Option<TcpStream>>, CommError> {
    let size = ports.len();
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    // Lower ranks: we dial and identify ourselves.
    let Ok(wire_rank) = u32::try_from(rank) else {
        return handshake(format!("rank {rank} overflows the wire's u32 rank field"));
    };
    for (j, &port) in ports.iter().enumerate().take(rank) {
        let mut stream =
            connect_with_retry(SocketAddr::from(([127, 0, 0, 1], port)), cfg, deadline)?;
        send_handshake_frame(
            &mut stream,
            &Frame { kind: FrameKind::Ident, from: wire_rank, tag: 0, payload: vec![] },
        )?;
        match streams.get_mut(j) {
            Some(slot) => *slot = Some(stream),
            None => return handshake(format!("dialed rank {j} outside a mesh of {size}")),
        }
    }
    // Higher ranks: they dial us; their IDENT says who they are.
    for _ in rank + 1..size {
        let mut stream = accept_with_deadline(data_listener, deadline, || {
            let missing: Vec<NodeId> = (rank + 1..size)
                .filter(|&p| !matches!(streams.get(p), Some(Some(_))))
                .collect();
            format!("rank {rank} never received IDENT from ranks {missing:?}")
        })?;
        let ident = read_handshake_frame(&mut stream, deadline)?;
        if ident.kind != FrameKind::Ident {
            return handshake(format!("expected IDENT, got {:?}", ident.kind));
        }
        let peer = ident.from as NodeId;
        if peer <= rank || peer >= size {
            return handshake(format!(
                "IDENT from rank {peer}, expected one of {}..{size}",
                rank + 1
            ));
        }
        let Some(slot) = streams.get_mut(peer) else {
            return handshake(format!("IDENT rank {peer} outside a mesh of {size}"));
        };
        if slot.is_some() {
            return handshake(format!("rank {peer} connected twice"));
        }
        *slot = Some(stream);
    }
    for stream in streams.iter_mut().flatten() {
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(cfg.read_timeout))
            .map_err(|e| CommError::Handshake { detail: format!("socket setup: {e}") })?;
    }
    Ok(streams)
}

/// Joins a TCP mesh of `size` ranks whose rank 0 coordinates it at
/// `rendezvous_addr`. `rank` is the claimed rank; `None` asks rank 0 to
/// assign one. Rank 0 itself enters through [`coordinate_mesh`] (a claim
/// of rank 0 is a handshake error unless the mesh has one rank, which
/// needs no sockets).
pub fn connect(
    rank: Option<NodeId>,
    size: usize,
    rendezvous_addr: &str,
    cfg: &NetConfig,
) -> Result<TcpTransport, CommError> {
    if let Some(r) = rank.filter(|&r| r >= size && size > 0) {
        return Err(CommError::InvalidRank { rank: r, size });
    }
    if rank == Some(0) && size > 1 {
        return handshake("rank 0 coordinates the mesh through coordinate_mesh, not connect");
    }
    let deadline = Instant::now() + cfg.handshake_timeout;
    mesh(Rendezvous::Join(rendezvous_addr, rank), size, cfg, deadline)
}

/// Rank 0's side of the mesh, on a rendezvous `listener` it bound
/// itself — to port 0 if it likes, and handing the bound address to the
/// joiners: no port is released between being chosen and being bound, so
/// no other socket can take it in between.
pub fn coordinate_mesh(listener: TcpListener, size: usize, cfg: &NetConfig) -> Result<TcpTransport, CommError> {
    let deadline = Instant::now() + cfg.handshake_timeout;
    mesh(Rendezvous::Coordinate(listener), size, cfg, deadline)
}

/// How a participant meets the others.
enum Rendezvous<'a> {
    /// Rank 0, on its bound rendezvous listener.
    Coordinate(TcpListener),
    /// A joiner dialling the rendezvous address, with its claimed rank.
    Join(&'a str, Option<NodeId>),
}

fn mesh(role: Rendezvous<'_>, size: usize, cfg: &NetConfig, deadline: Instant) -> Result<TcpTransport, CommError> {
    if size == 0 {
        return handshake("mesh size must be at least 1");
    }
    if size == 1 {
        // Degenerate mesh: no peers, no sockets. The worker protocol
        // uses its periodic-ghost fast path and never sends.
        return match role {
            Rendezvous::Coordinate(_) | Rendezvous::Join(_, Some(0) | None) => Ok(TcpTransport::new(0, vec![None])),
            Rendezvous::Join(_, Some(r)) => Err(CommError::InvalidRank { rank: r, size }),
        };
    }
    let data_listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CommError::Handshake { detail: format!("cannot bind data listener: {e}") })?;
    let my_data_port = data_listener
        .local_addr()
        .map_err(|e| CommError::Handshake { detail: format!("listener address: {e}") })?
        .port();
    let (my_rank, ports) = match role {
        Rendezvous::Coordinate(listener) => (0, coordinate(&listener, size, my_data_port, deadline)?),
        Rendezvous::Join(addr, rank) => join(resolve(addr)?, rank, size, my_data_port, cfg, deadline)?,
    };
    let streams = establish_mesh(my_rank, &ports, &data_listener, cfg, deadline)?;
    Ok(TcpTransport::new(my_rank, streams))
}

/// Test/bench helper: builds an `n`-rank TCP mesh over localhost threads.
/// Element `i` of the result is rank `i`'s transport. Panics on failure —
/// production code goes through [`coordinate_mesh`] and [`connect`].
#[expect(
    clippy::expect_used,
    reason = "test/bench helper documented to panic on failure; production code uses coordinate_mesh() and connect()"
)]
pub fn localhost_mesh(n: usize, cfg: &NetConfig) -> Vec<TcpTransport> {
    // Rank 0's rendezvous listener, bound here to any free port.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous listener");
    let addr = listener.local_addr().expect("rendezvous address").to_string();
    let mut listener = Some(listener);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let (addr, cfg, listener) = (addr.clone(), cfg.clone(), listener.take());
            thread::spawn(move || match listener {
                Some(listener) => coordinate_mesh(listener, n, &cfg),
                None => connect(Some(i), n, &addr, &cfg),
            })
        })
        .collect();
    let mut out: Vec<TcpTransport> = handles
        .into_iter()
        .map(|h| h.join().expect("mesh thread panicked").expect("mesh establishment"))
        .collect();
    out.sort_by_key(|t| t.rank());
    out
}
