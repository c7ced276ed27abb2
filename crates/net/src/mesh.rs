//! Mesh establishment through the run directory.
//!
//! The ranks of a gang already share one run directory, and it is their
//! only rendezvous:
//!
//! 1. Each rank binds its *data listener* on an ephemeral localhost port
//!    and publishes the port as `DIR/rank{r}.port` ([`port_path`]) through
//!    [`microslip_codec::publish`], so a reader finds a whole file or none.
//! 2. It waits for the port files of the ranks below it, dials each and
//!    sends an IDENT frame, then accepts one connection from every rank
//!    above it, identifying each by its IDENT. A listener exists before its
//!    port file does, so a dial completes through the TCP backlog whatever
//!    the peer is doing — the connect-then-accept order cannot deadlock —
//!    and a refused dial means the peer is gone: it fails at once.
//!
//! **Bounded wall-time.** One `handshake_timeout` deadline covers the
//! whole of it: waiting for port files, dials, accepts and IDENT reads.
//! A wait that times out names the ranks whose port files never appeared
//! or who never dialled in, so a rank dying *during* the handshake is a
//! [`CommError::Handshake`] naming it rather than a generic timeout.
//!
//! All failures before the communicator exists surface as
//! [`CommError::Handshake`].

use std::fs;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use microslip_codec::publish;
use microslip_comm::{CommError, NodeId};

use crate::tcp::{NetConfig, TcpTransport};
use crate::wire::{self, Frame, FrameError, FrameKind};

/// How often a waiting rank looks again for port files and connections.
const POLL: Duration = Duration::from_millis(2);

fn handshake<T>(detail: impl Into<String>) -> Result<T, CommError> {
    Err(CommError::Handshake { detail: detail.into() })
}

/// Where rank `rank` publishes its data port in the run directory `dir`.
pub fn port_path(dir: &Path, rank: NodeId) -> PathBuf {
    dir.join(format!("rank{rank}.port"))
}

/// Parses rank `rank`'s port file: a decimal port in `1..=65535` and a
/// newline. Anything else is a [`CommError::Handshake`].
pub fn parse_port(rank: NodeId, bytes: &[u8]) -> Result<u16, CommError> {
    let port = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| text.strip_suffix('\n'))
        .and_then(|digits| digits.parse::<u16>().ok());
    match port {
        Some(port) if port != 0 => Ok(port),
        _ => handshake(format!(
            "rank {rank}'s port file holds {:?}, not a port",
            String::from_utf8_lossy(bytes)
        )),
    }
}

/// Binds a data listener on an ephemeral localhost port.
fn bind_data_listener() -> Result<(TcpListener, u16), CommError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .or_else(|e| handshake(format!("cannot bind data listener: {e}")))?;
    let port = listener.local_addr().or_else(|e| handshake(format!("listener address: {e}")))?.port();
    Ok((listener, port))
}

/// Waits, until `deadline`, for the port files of every rank below `rank`
/// in `dir`; returns their ports in rank order.
fn await_ports(dir: &Path, rank: NodeId, deadline: Instant) -> Result<Vec<u16>, CommError> {
    let mut ports: Vec<Option<u16>> = vec![None; rank];
    loop {
        for (peer, slot) in ports.iter_mut().enumerate().filter(|(_, slot)| slot.is_none()) {
            let path = port_path(dir, peer);
            match fs::read(&path) {
                Ok(bytes) => *slot = Some(parse_port(peer, &bytes)?),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return handshake(format!("read {}: {e}", path.display())),
            }
        }
        let missing: Vec<NodeId> = (0..rank).filter(|&p| matches!(ports.get(p), Some(None))).collect();
        if missing.is_empty() {
            return Ok(ports.into_iter().flatten().collect());
        }
        if Instant::now() >= deadline {
            return handshake(format!(
                "rank {rank} timed out waiting for the port files of ranks {missing:?} in {}",
                dir.display()
            ));
        }
        thread::sleep(POLL);
    }
}

/// Dials rank `peer`'s data listener at `port`, once: the listener was
/// bound before its port was published, so a refusal means the peer is
/// gone.
fn dial(peer: NodeId, port: u16, deadline: Instant) -> Result<TcpStream, CommError> {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let budget = deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));
    TcpStream::connect_timeout(&addr, budget)
        .or_else(|e| handshake(format!("could not connect to rank {peer} at {addr}: {e}")))
}

/// Accepts one connection before `deadline`. `missing` renders, lazily,
/// who we were still waiting for — a peer that died mid-handshake shows
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return handshake(format!(
                        "timed out waiting for peers to arrive: {}",
                        missing()
                    ));
                }
                thread::sleep(POLL);
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

/// Builds rank `rank`'s side of the fully connected mesh of `size`: it
/// dials the ranks below it at their ports `lower`, then accepts the ranks
/// above it on its bound `listener`.
fn establish_mesh(
    rank: NodeId,
    size: usize,
    lower: &[u16],
    listener: &TcpListener,
    cfg: &NetConfig,
    deadline: Instant,
) -> Result<Vec<Option<TcpStream>>, CommError> {
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    // Lower ranks: we dial and identify ourselves.
    let Ok(wire_rank) = u32::try_from(rank) else {
        return handshake(format!("rank {rank} overflows the wire's u32 rank field"));
    };
    let ident = wire::encode(&Frame { kind: FrameKind::Ident, from: wire_rank, tag: 0, payload: vec![] });
    for (j, &port) in lower.iter().enumerate() {
        let mut stream = dial(j, port, deadline)?;
        stream
            .write_all(&ident)
            .or_else(|e| handshake(format!("IDENT to rank {j} failed: {e}")))?;
        match streams.get_mut(j) {
            Some(slot) => *slot = Some(stream),
            None => return handshake(format!("dialed rank {j} outside a mesh of {size}")),
        }
    }
    // Higher ranks: they dial us; their IDENT says who they are.
    for _ in rank + 1..size {
        let mut stream = accept_with_deadline(listener, deadline, || {
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
            .and_then(|_| stream.set_read_timeout(Some(cfg.read_timeout)))
            .map_err(|e| CommError::Handshake { detail: format!("socket setup: {e}") })?;
    }
    Ok(streams)
}

/// Joins, as rank `rank`, the TCP mesh of `size` ranks that meets in the
/// run directory `dir`: binds a data listener, publishes its port as
/// [`port_path`]`(dir, rank)`, waits for the port files of the ranks below
/// and builds the mesh, all within `cfg.handshake_timeout`. A mesh of one
/// rank needs no sockets and writes no file.
pub fn join_mesh(dir: &Path, rank: NodeId, size: usize, cfg: &NetConfig) -> Result<TcpTransport, CommError> {
    if size == 0 {
        return handshake("mesh size must be at least 1");
    }
    if rank >= size {
        return Err(CommError::InvalidRank { rank, size });
    }
    if size == 1 {
        // Degenerate mesh: no peers, no sockets. The worker protocol
        // uses its periodic-ghost fast path and never sends.
        return Ok(TcpTransport::new(0, vec![None]));
    }
    let deadline = Instant::now() + cfg.handshake_timeout;
    let (listener, port) = bind_data_listener()?;
    let path = port_path(dir, rank);
    publish(&path, |file| writeln!(file, "{port}"))
        .or_else(|e| handshake(format!("publish {}: {e}", path.display())))?;
    let lower = await_ports(dir, rank, deadline)?;
    let streams = establish_mesh(rank, size, &lower, &listener, cfg, deadline)?;
    Ok(TcpTransport::new(rank, streams))
}

/// Test/bench helper: builds an `n`-rank TCP mesh over localhost threads,
/// its listeners bound in-process and no file written. Element `i` of the
/// result is rank `i`'s transport. Panics on failure — production code
/// goes through [`join_mesh`].
#[expect(
    clippy::expect_used,
    reason = "test/bench helper documented to panic on failure; production code uses join_mesh()"
)]
pub fn localhost_mesh(n: usize, cfg: &NetConfig) -> Vec<TcpTransport> {
    let listeners: Vec<(TcpListener, u16)> =
        (0..n).map(|_| bind_data_listener().expect("bind data listener")).collect();
    let ports: Vec<u16> = listeners.iter().map(|&(_, port)| port).collect();
    let deadline = Instant::now() + cfg.handshake_timeout;
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, (listener, _))| {
            let (lower, cfg) = (ports.iter().take(rank).copied().collect::<Vec<_>>(), cfg.clone());
            thread::spawn(move || {
                establish_mesh(rank, n, &lower, &listener, &cfg, deadline)
                    .map(|streams| TcpTransport::new(rank, streams))
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("mesh thread panicked").expect("mesh establishment"))
        .collect()
}
