//! The daemon's transport half: TCP and Unix-domain listeners, a
//! std-only thread-per-connection acceptor, and the two framing pieces
//! every connection handler shares — [`read_request`] on the way in and
//! [`FrameSink`] on the way out.
//!
//! The acceptor is handler-generic: [`Server::start_with`] plugs in any
//! connection handler. The `msmr-cluster` engine's request loop (the
//! daemon) and the `msmr-router` forwarder are the two handlers; this
//! crate interprets no requests itself.

use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{encode_line, DoneFrame, ErrorFrame, Frame, Request, Response};

/// How long an idle acceptor sleeps between shutdown-flag polls.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Where a daemon listens (transport only).
#[derive(Debug, Clone, Default)]
pub struct Listen {
    /// TCP listen address (e.g. `127.0.0.1:7471`).
    pub tcp: Option<String>,
    /// Unix-domain socket path (removed and re-created on bind).
    pub uds: Option<PathBuf>,
}

/// One accepted connection, transport-erased. Produced by the acceptor
/// and consumed by a connection handler (see [`Server::start_with`]).
pub enum ConnStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Uds(UnixStream),
}

impl ConnStream {
    /// Splits the connection into an owned reader/writer pair (TCP gets
    /// `TCP_NODELAY`, since every frame is one flushed line and Nagle +
    /// delayed ACK would add tens of milliseconds per streamed verdict).
    ///
    /// # Errors
    ///
    /// Propagates `try_clone` failures.
    pub fn into_split(self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            ConnStream::Tcp(stream) => {
                let _ = stream.set_nodelay(true);
                Ok((Box::new(stream.try_clone()?), Box::new(stream)))
            }
            #[cfg(unix)]
            ConnStream::Uds(stream) => Ok((Box::new(stream.try_clone()?), Box::new(stream))),
        }
    }
}

/// A per-connection handler: receives the accepted stream and the
/// daemon-wide shutdown flag (raise it to stop the acceptors). Runs on a
/// dedicated thread per connection.
pub type ConnHandler = Arc<dyn Fn(ConnStream, Arc<AtomicBool>) + Send + Sync + 'static>;

/// A running daemon: bound listeners plus their acceptor threads.
///
/// [`Server::start_with`] hands every accepted connection to a
/// caller-supplied handler on its own thread. [`Server::stop`] (or a
/// client's `shutdown` op) makes the acceptors exit; [`Server::join`]
/// waits for them.
pub struct Server {
    shutdown: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl Server {
    /// Binds the configured listeners and hands every accepted
    /// connection to `handler` on a dedicated thread.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; fails with `InvalidInput` when neither a
    /// TCP address nor a socket path is configured.
    pub fn start_with(listen: Listen, handler: ConnHandler) -> io::Result<Server> {
        if listen.tcp.is_none() && listen.uds.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "configure at least one of --tcp / --uds",
            ));
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut acceptors = Vec::new();
        let mut tcp_addr = None;
        let mut uds_path = None;

        if let Some(addr) = &listen.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let flag = Arc::clone(&shutdown);
            let handler = Arc::clone(&handler);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(
                    || match listener.accept() {
                        Ok((stream, _)) => Some(Ok(ConnStream::Tcp(stream))),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                        Err(e) => Some(Err(e)),
                    },
                    &handler,
                    &flag,
                );
            }));
        }

        #[cfg(unix)]
        if let Some(path) = &listen.uds {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            uds_path = Some(path.clone());
            let flag = Arc::clone(&shutdown);
            let handler = Arc::clone(&handler);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(
                    || match listener.accept() {
                        Ok((stream, _)) => Some(Ok(ConnStream::Uds(stream))),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                        Err(e) => Some(Err(e)),
                    },
                    &handler,
                    &flag,
                );
            }));
        }
        #[cfg(not(unix))]
        if listen.uds.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            ));
        }

        Ok(Server {
            shutdown,
            acceptors,
            tcp_addr,
            uds_path,
        })
    }

    /// The bound TCP address, when a TCP listener is configured (useful
    /// with port 0).
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound socket path, when a UDS listener is configured.
    #[must_use]
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// The flag a `shutdown` op (or this method) raises to stop the
    /// acceptors.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// A handle on the shutdown flag, for daemon-side background threads
    /// (e.g. the cluster TTL reaper) that must exit with the acceptors.
    #[must_use]
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// `true` once a shutdown was requested.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits until the acceptors exit (i.e. until a shutdown is
    /// requested), then removes a bound socket file.
    pub fn join(self) {
        for handle in self.acceptors {
            let _ = handle.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Shared nonblocking accept loop: polls `accept`, spawns one detached
/// connection thread per stream, exits when the shutdown flag rises.
fn accept_loop(
    accept: impl Fn() -> Option<io::Result<ConnStream>>,
    handler: &ConnHandler,
    shutdown: &Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match accept() {
            Some(Ok(stream)) => {
                let handler = Arc::clone(handler);
                let flag = Arc::clone(shutdown);
                std::thread::spawn(move || handler(stream, flag));
            }
            Some(Err(_)) | None => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Streams responses for one frame sequence, counting frames and trapping
/// the first I/O error so verdict sinks (plain `FnMut(&Verdict)`) can
/// write without a fallible signature. Every frame a daemon or the
/// router authors goes through one of these, encoded into a buffer the
/// connection reuses: each frame leaves in one write as it is sent,
/// unless the sink is [held](FrameSink::hold).
pub struct FrameSink<'a, W: Write> {
    writer: &'a mut W,
    /// Encoded frames not written yet.
    out: &'a mut Vec<u8>,
    id: u64,
    frames: u64,
    held: bool,
    error: Option<io::Error>,
}

impl<'a, W: Write> FrameSink<'a, W> {
    /// A sink for the frame stream answering request `id`, encoding into
    /// `out` (cleared first).
    pub fn new(writer: &'a mut W, out: &'a mut Vec<u8>, id: u64) -> Self {
        out.clear();
        FrameSink {
            writer,
            out,
            id,
            frames: 0,
            held: false,
            error: None,
        }
    }

    /// Answers request `id` with one `Error` frame and the terminating
    /// `Done` — the whole response of a request refused before any work.
    ///
    /// # Errors
    ///
    /// The first I/O error writing either frame.
    pub fn reply_error(writer: &mut W, id: u64, message: impl Into<String>) -> io::Result<()> {
        let mut out = Vec::new();
        let mut sink = FrameSink::new(writer, &mut out, id);
        sink.send(Frame::Error(ErrorFrame {
            message: message.into(),
        }));
        sink.finish()
    }

    /// Keeps every further frame in the buffer until
    /// [`FrameSink::finish`] writes them, `Done` included, in one call.
    pub fn hold(&mut self) {
        self.held = true;
    }

    /// Sends one frame: written at once, or kept while the sink is held.
    /// After a write error, further sends are dropped and the error
    /// surfaces from [`FrameSink::finish`].
    pub fn send(&mut self, frame: Frame) {
        if self.error.is_some() {
            return;
        }
        let response = Response { id: self.id, frame };
        match encode_line(self.out, &response).and_then(|()| self.write_out()) {
            Ok(()) => self.frames += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Writes the buffered frames in one call, unless the sink is held.
    fn write_out(&mut self) -> io::Result<()> {
        if self.held {
            return Ok(());
        }
        let written = self.writer.write_all(self.out);
        self.out.clear();
        written.and_then(|()| self.writer.flush())
    }

    /// Terminates the request's stream with the `Done` frame — writing
    /// it together with anything held — and surfaces any trapped error.
    ///
    /// # Errors
    ///
    /// The first I/O error any [`FrameSink::send`] hit.
    pub fn finish(mut self) -> io::Result<()> {
        let frames = self.frames;
        self.held = false;
        self.send(Frame::Done(DoneFrame { frames }));
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Reads the next request off a connection — the one place a socket
/// line becomes a [`Request`], shared by the daemon's request loop and
/// the router's forwarder. Blank lines are skipped; a line that does not
/// parse is answered on the spot with a `malformed request` error on the
/// reserved id 0 (there is no id to correlate with) and reading goes on.
/// On `Some`, `buffer` holds the request's raw line for callers that
/// relay it. `None` means the peer closed the connection.
///
/// # Errors
///
/// Transport errors from `reader`, or from `writer` while answering a
/// malformed line.
pub fn read_request(
    reader: &mut impl BufRead,
    buffer: &mut Vec<u8>,
    writer: &mut impl Write,
) -> io::Result<Option<Request>> {
    loop {
        buffer.clear();
        if reader.read_until(b'\n', buffer)? == 0 {
            return Ok(None);
        }
        // Lossy conversion instead of `lines()`: a line of binary junk
        // must degrade to a parse failure answered with an Error frame,
        // not an InvalidData error that tears the connection down.
        let line = String::from_utf8_lossy(buffer);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<Request>(line) {
            Ok(request) => return Ok(Some(request)),
            Err(e) => FrameSink::reply_error(writer, 0, format!("malformed request: {e}"))?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_response, write_request, Op, StatusOp};

    fn responses(output: &[u8]) -> Vec<Response> {
        let mut reader = output;
        std::iter::from_fn(|| read_response(&mut reader).unwrap()).collect()
    }

    #[test]
    fn malformed_lines_report_on_id_zero() {
        let mut reader: &[u8] = b"this is not json\n";
        let (mut buffer, mut output) = (Vec::new(), Vec::new());
        let request = read_request(&mut reader, &mut buffer, &mut output).unwrap();
        assert_eq!(request, None, "nothing parses before the peer closes");
        let responses = responses(&output);
        assert_eq!(responses.len(), 2, "one Error frame, then its Done");
        assert!(responses.iter().all(|r| r.id == 0));
        let Frame::Error(error) = &responses[0].frame else {
            panic!("expected error frame, got {:?}", responses[0].frame);
        };
        assert!(error.message.starts_with("malformed request: "));
        assert!(matches!(
            responses[1].frame,
            Frame::Done(DoneFrame { frames: 1 })
        ));
    }

    #[test]
    fn garbage_and_truncated_frames_never_kill_the_connection() {
        // A fuzz-ish sweep over the malformed-frame space: truncated
        // JSON, wrong-typed fields, binary junk, overlong ids, partial
        // protocol structures. Every line must be answered with a typed
        // Error frame on id 0 (no correlatable id parses out of any of
        // them) and reading must go on — proven by the healthy Status
        // request at the end coming out parsed, its raw line left in the
        // buffer for a relaying caller.
        let garbage: &[&[u8]] = &[
            b"{\"id\":1,\"op\":{\"Admit\"",
            b"{\"id\":\"one\",\"op\":{\"Status\":{}}}",
            b"\x00\xff\xfe binary junk \x01\x02",
            b"{}",
            b"[1,2,3]",
            b"{\"id\":2,\"op\":{\"NoSuchOp\":{}}}",
            b"{\"id\":3,\"op\":{\"Withdraw\":{\"job\":\"not-a-number\"}}}",
            b"{\"id\":4,\"op\":{\"Admit\":{\"job\":{\"arrival\":-1}}}}",
            b"\"just a string\"",
        ];
        let mut input = Vec::new();
        for line in garbage {
            input.extend_from_slice(line);
            // Each followed by a blank line, which is skipped silently.
            input.extend_from_slice(b"\n  \n");
        }
        let healthy = Request {
            id: 99,
            op: Op::Status(StatusOp {}),
        };
        let mut healthy_line = Vec::new();
        write_request(&mut healthy_line, &healthy).unwrap();
        input.extend_from_slice(&healthy_line);

        let mut reader = input.as_slice();
        let (mut buffer, mut output) = (Vec::new(), Vec::new());
        let request = read_request(&mut reader, &mut buffer, &mut output).unwrap();
        assert_eq!(
            request,
            Some(healthy),
            "the connection survives the garbage"
        );
        assert_eq!(buffer, healthy_line);
        let closed = read_request(&mut reader, &mut buffer, &mut output).unwrap();
        assert_eq!(closed, None);

        let mut errors = 0;
        for response in responses(&output) {
            assert_eq!(response.id, 0, "malformed lines report on id 0");
            match response.frame {
                Frame::Error(_) => errors += 1,
                Frame::Done(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(errors, garbage.len());
    }
}
