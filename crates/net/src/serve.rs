//! Request/reply accept loop for the sweep service.
//!
//! Where [`mesh`](crate::mesh) builds a long-lived
//! fully-connected mesh, the sweep daemon speaks a much simpler shape:
//! each client connection carries **one request frame and one reply
//! frame**, then closes. [`ServeLoop`] owns the listening socket and the
//! per-connection framing; the daemon supplies a handler that maps a
//! decoded [`Frame`] to a reply. Keeping the loop here (and generic over
//! payload bytes) means `microslip-net` owns every byte that crosses the
//! wire while the facade owns what the bytes *mean* — the same layering
//! as the rank mesh.
//!
//! Protocol properties the loop enforces:
//!
//! - **Typed rejection, never a hang.** A malformed or v1-range frame is
//!   answered with a [`FrameKind::ServeError`] reply carrying the decoder
//!   detail, then the connection closes. Old mesh peers dialing the serve
//!   port get the same typed `Protocol` error their own decoder would
//!   produce for a serve frame (see the versioning notes in [`wire`]).
//! - **Bounded reads and writes.** Every per-connection read and write
//!   runs under `read_timeout`; a client that connects and stalls, or asks
//!   for a fetch and never reads the reply, cannot wedge the daemon,
//!   because the accept loop only ever services one connection per
//!   [`poll`](ServeLoop::poll) call and the scheduler keeps polling
//!   between supervision rounds.
//! - **Panic-free decoding.** Under the crate's boundary header, nothing
//!   on the request path indexes, unwraps, or panics on untrusted input.
//! - **Bounded memory.** Every reply is one byte-payload frame sent by one
//!   writer ([`wire::write_bytes_frame`]), from memory or streamed from a
//!   file a chunk at a time, so a reply as large as a sealed artifact is
//!   never whole in the daemon; the client streams it on the same way
//!   ([`wire::Incoming::bytes_into`]).

use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::wire::{self, Frame, FrameError, FrameKind, Incoming};

/// What a single [`ServeLoop::poll`] call observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Served {
    /// No client was waiting.
    Idle,
    /// One request was read, handled, and answered.
    Handled,
    /// The handled request asked the daemon to shut down (the reply has
    /// already been sent).
    ShutdownRequested,
    /// A connection arrived but its request never became a valid frame;
    /// the peer was answered with a typed [`FrameKind::ServeError`] where
    /// possible. Carries the decoder detail for the daemon's log.
    Rejected(String),
}

/// The daemon's answer to one request frame: a byte-payload frame.
pub struct Reply {
    /// Kind of the frame sent back on the same connection.
    pub kind: FrameKind,
    /// Its byte payload.
    pub body: Body,
    /// True when the request asked the daemon to finish and exit; the
    /// loop reports [`Served::ShutdownRequested`] after replying.
    pub shutdown: bool,
}

/// Where a reply's bytes come from.
pub enum Body {
    Bytes(Vec<u8>),
    /// A file already verified, positioned at its first byte, and its
    /// length: sent as it is read.
    File(File, u64),
}

impl Reply {
    /// A reply carrying `bytes`.
    pub fn bytes(kind: FrameKind, bytes: impl Into<Vec<u8>>) -> Reply {
        Reply { kind, body: Body::Bytes(bytes.into()), shutdown: false }
    }

    /// A reply carrying the `len` bytes of `file`.
    pub fn file(kind: FrameKind, file: File, len: u64) -> Reply {
        Reply { kind, body: Body::File(file, len), shutdown: false }
    }

    /// A typed error reply carrying `detail` as its byte payload.
    pub fn error(detail: &str) -> Reply {
        Reply::bytes(FrameKind::ServeError, detail)
    }

    /// Sends the reply as one frame, its bytes taken from memory or read
    /// from the file as they go out.
    pub fn write_to(self, w: &mut impl Write) -> io::Result<()> {
        match self.body {
            Body::Bytes(bytes) => {
                wire::write_bytes_frame(w, self.kind, 0, bytes.len() as u64, bytes.as_slice())
            }
            Body::File(file, len) => wire::write_bytes_frame(w, self.kind, 0, len, file),
        }
    }
}

/// One-request/one-reply-per-connection server socket.
///
/// The listener is non-blocking; [`poll`](Self::poll) returns
/// [`Served::Idle`] immediately when no client is waiting, so the daemon
/// can interleave accept polling with job supervision on one thread.
pub struct ServeLoop {
    listener: TcpListener,
    read_timeout: Duration,
}

impl ServeLoop {
    /// Binds the serve socket. Pass port 0 to let the OS choose; read the
    /// result back with [`local_addr`](Self::local_addr).
    pub fn bind(addr: &str, read_timeout: Duration) -> std::io::Result<ServeLoop> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ServeLoop { listener, read_timeout })
    }

    /// The bound address (for port files and logs).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts at most one waiting connection, reads its single request
    /// frame, passes it to `handler`, and writes the reply. Socket-level
    /// failures on an individual connection are contained: they surface
    /// as [`Served::Rejected`], never as an error that could take the
    /// daemon down.
    pub fn poll(&self, handler: impl FnOnce(Frame) -> Reply) -> Served {
        let stream = match self.listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Served::Idle,
            Err(e) => return Served::Rejected(format!("accept failed: {e}")),
        };
        self.serve_one(stream, handler)
    }

    fn serve_one(&self, mut stream: TcpStream, handler: impl FnOnce(Frame) -> Reply) -> Served {
        if let Err(e) = stream
            .set_nonblocking(false)
            .and_then(|_| stream.set_read_timeout(Some(self.read_timeout)))
            .and_then(|_| stream.set_write_timeout(Some(self.read_timeout)))
            .and_then(|_| stream.set_nodelay(true))
        {
            return Served::Rejected(format!("socket setup: {e}"));
        }
        let request = match wire::read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(FrameError::Io(e)) => {
                return Served::Rejected(format!("request never arrived: {e}"));
            }
            Err(FrameError::Protocol(detail)) => {
                // Answer with a typed error so a confused client sees a
                // reason instead of a silent close; best-effort, since the
                // peer may be an old mesh rank that cannot decode it.
                let _ = Reply::error(&detail).write_to(&mut stream);
                return Served::Rejected(detail);
            }
        };
        let reply = handler(request);
        let shutdown = reply.shutdown;
        if let Err(e) = reply.write_to(&mut stream) {
            return Served::Rejected(format!("reply send failed: {e}"));
        }
        if shutdown {
            Served::ShutdownRequested
        } else {
            Served::Handled
        }
    }
}

/// Client side: dial `addr`, send one request frame, read the single
/// reply's header; its payload is still on the connection, for the caller
/// to read whole or stream on. Used by `microslip submit`/`status`/`fetch`.
pub fn request(
    addr: &str,
    frame: &Frame,
    timeout: Duration,
) -> Result<Incoming<TcpStream>, FrameError> {
    let stream = connect(addr, timeout)?;
    exchange(stream, frame, timeout)
}

fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, FrameError> {
    use std::net::ToSocketAddrs;
    let mut addrs = addr
        .to_socket_addrs()
        .map_err(|e| FrameError::Protocol(format!("cannot resolve {addr}: {e}")))?;
    let sock = addrs
        .next()
        .ok_or_else(|| FrameError::Protocol(format!("address {addr} resolved to nothing")))?;
    Ok(TcpStream::connect_timeout(&sock, timeout)?)
}

fn exchange(
    mut stream: TcpStream,
    frame: &Frame,
    timeout: Duration,
) -> Result<Incoming<TcpStream>, FrameError> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(&wire::encode(frame))?;
    wire::read_header(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn loop_on_ephemeral() -> (ServeLoop, String) {
        let serve = ServeLoop::bind("127.0.0.1:0", TIMEOUT).expect("bind");
        let addr = format!("127.0.0.1:{}", serve.local_addr().unwrap().port());
        (serve, addr)
    }

    /// Polls until one connection is served (the client thread races the
    /// accept loop, so the first polls may be idle).
    fn poll_until_served(serve: &ServeLoop, handler: impl Fn(Frame) -> Reply) -> Served {
        for _ in 0..500 {
            match serve.poll(&handler) {
                Served::Idle => std::thread::sleep(Duration::from_millis(2)),
                other => return other,
            }
        }
        panic!("client never arrived");
    }

    #[test]
    fn idle_poll_returns_immediately() {
        let (serve, _) = loop_on_ephemeral();
        assert_eq!(serve.poll(|_| Reply::error("unreachable")), Served::Idle);
    }

    #[test]
    fn request_reply_roundtrip() {
        let (serve, addr) = loop_on_ephemeral();
        let client = std::thread::spawn(move || {
            request(&addr, &Frame::from_bytes(FrameKind::Fetch, 7, b"a-key"), TIMEOUT)
        });
        let served = poll_until_served(&serve, |req| {
            assert_eq!(req.kind, FrameKind::Fetch);
            assert_eq!(req.from, 7);
            assert_eq!(req.bytes_payload().unwrap(), b"a-key");
            Reply::bytes(FrameKind::FetchReply, b"artifact bytes".as_slice())
        });
        assert_eq!(served, Served::Handled);
        let reply = client.join().unwrap().expect("client reply");
        assert_eq!(reply.kind, FrameKind::FetchReply);
        let mut bytes = Vec::new();
        assert_eq!(reply.bytes_into(&mut bytes).unwrap(), 14);
        assert_eq!(bytes, b"artifact bytes");
    }

    #[test]
    fn a_file_reply_streams_the_file_verbatim() {
        // Larger than a chunk and not a whole number of elements.
        let content: Vec<u8> =
            (0..3 * microslip_codec::CHUNK + 5).map(|i| u8::try_from(i % 253).unwrap()).collect();
        let path =
            std::env::temp_dir().join(format!("microslip-serve-reply-{}", std::process::id()));
        std::fs::write(&path, &content).unwrap();
        let (serve, addr) = loop_on_ephemeral();
        let client = std::thread::spawn(move || {
            let reply = request(&addr, &Frame::from_bytes(FrameKind::Fetch, 0, b"k"), TIMEOUT)?;
            let mut bytes = Vec::new();
            reply.bytes_into(&mut bytes).map(|_| bytes)
        });
        let served = poll_until_served(&serve, |_| {
            let file = File::open(&path).unwrap();
            Reply::file(FrameKind::FetchReply, file, content.len() as u64)
        });
        assert_eq!(served, Served::Handled);
        assert_eq!(client.join().unwrap().expect("client reply"), content);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_request_is_surfaced_after_reply() {
        let (serve, addr) = loop_on_ephemeral();
        let client = std::thread::spawn(move || {
            let f = Frame { kind: FrameKind::Shutdown, from: 0, tag: 0, payload: vec![] };
            request(&addr, &f, TIMEOUT)
        });
        let served = poll_until_served(&serve, |_| Reply {
            shutdown: true,
            ..Reply::bytes(FrameKind::StatusReply, Vec::new())
        });
        assert_eq!(served, Served::ShutdownRequested);
        assert_eq!(client.join().unwrap().unwrap().kind, FrameKind::StatusReply);
    }

    #[test]
    fn garbage_request_gets_typed_error_reply() {
        let (serve, addr) = loop_on_ephemeral();
        let addr2 = addr.clone();
        let client = std::thread::spawn(move || {
            use std::io::Read;
            let mut stream = std::net::TcpStream::connect(addr2).unwrap();
            stream.set_read_timeout(Some(TIMEOUT)).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            // Pad to a full frame header so the server's read completes.
            stream.write_all(&[0u8; 64]).unwrap();
            let mut buf = Vec::new();
            let _ = stream.read_to_end(&mut buf);
            buf
        });
        let served = poll_until_served(&serve, |_| Reply::error("unreachable: frame never decodes"));
        match served {
            Served::Rejected(detail) => assert!(detail.contains("magic"), "{detail}"),
            other => panic!("{other:?}"),
        }
        // The client got a decodable ServeError frame back.
        let raw = client.join().unwrap();
        let reply = wire::read_frame(&mut std::io::Cursor::new(&raw)).expect("error frame");
        assert_eq!(reply.kind, FrameKind::ServeError);
        let detail = String::from_utf8(reply.bytes_payload().unwrap()).unwrap();
        assert!(detail.contains("magic"), "{detail}");
    }

    #[test]
    fn a_client_that_never_reads_cannot_wedge_the_loop() {
        // A fetch whose reply is far larger than the loopback buffers, to a
        // client that never reads it: the bounded write must give up, and
        // the next client must be served.
        let timeout = Duration::from_millis(200);
        let serve = ServeLoop::bind("127.0.0.1:0", timeout).expect("bind");
        let addr = format!("127.0.0.1:{}", serve.local_addr().unwrap().port());
        let path = std::env::temp_dir().join(format!("microslip-serve-sparse-{}", std::process::id()));
        File::create(&path).unwrap().set_len(64 << 20).unwrap();
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(&wire::encode(&Frame::from_bytes(FrameKind::Fetch, 0, b"k"))).unwrap();
        let started = std::time::Instant::now();
        let served = poll_until_served(&serve, |_| {
            Reply::file(FrameKind::FetchReply, File::open(&path).unwrap(), 64 << 20)
        });
        match served {
            Served::Rejected(detail) => assert!(detail.contains("reply send failed"), "{detail}"),
            other => panic!("{other:?}"),
        }
        assert!(started.elapsed() < 10 * timeout, "the write took {:?}", started.elapsed());
        let client = std::thread::spawn(move || {
            request(&addr, &Frame::from_bytes(FrameKind::Fetch, 0, b"k"), TIMEOUT).map(|r| r.kind)
        });
        let served = poll_until_served(&serve, |_| Reply::bytes(FrameKind::FetchReply, b"small".as_slice()));
        assert_eq!(served, Served::Handled);
        assert_eq!(client.join().unwrap().unwrap(), FrameKind::FetchReply);
        drop(stalled);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stalled_client_cannot_wedge_the_loop() {
        let serve = ServeLoop::bind("127.0.0.1:0", Duration::from_millis(50)).expect("bind");
        let addr = format!("127.0.0.1:{}", serve.local_addr().unwrap().port());
        // Connect and send nothing: the bounded read must give up.
        let _stall = std::net::TcpStream::connect(addr).unwrap();
        let served = poll_until_served(&serve, |_| Reply::error("unreachable"));
        match served {
            Served::Rejected(detail) => assert!(detail.contains("never arrived"), "{detail}"),
            other => panic!("{other:?}"),
        }
    }
}
