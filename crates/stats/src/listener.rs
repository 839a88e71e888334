//! The `--stats-addr` side channel.
//!
//! A tiny TCP listener on its own thread with its own socket, so
//! scraping (dashboards, CI asserts, `watch`-style polling) never
//! competes with admission traffic for the daemon's accept loop or
//! worker pool. The accept loop is nonblocking with a short poll, keyed
//! off the same shutdown flag as the main server, mirroring the
//! daemon's acceptor.
//!
//! Every connection first receives one JSON [`StatsSnapshot`] line —
//! byte-identical to the historical one-line-per-connection encoding,
//! so legacy pollers ([`fetch_stats_json`]) keep working unchanged. The
//! client may then speak a one-line command:
//!
//! * *(nothing — close)* — the legacy poll: one snapshot, done.
//! * `stream [interval_ms]` — the connection stays open and receives
//!   one JSON [`StatsDelta`] line per interval; the snapshot already
//!   sent is the baseline, and folding the deltas onto it with
//!   [`crate::delta::apply`] reconstructs the server's snapshot at
//!   every frame exactly (the merge contract pinned in
//!   `tests/delta_props.rs`).
//! * `flight` — one JSON [`FlightDump`] line (the flight recorder's
//!   seq-ordered recent events), then close.
//!
//! Side-channel connections are observability, not admission clients:
//! they never touch the attached-clients gauge (pinned by a regression
//! test below), so a dashboard polling or streaming cannot distort the
//! very gauge it displays.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::delta::{self, StatsDelta};
use crate::events::FlightDump;
use crate::model::StatsSnapshot;

/// Poll interval of the nonblocking accept loop (and the shutdown
/// check granularity of streaming connections).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a fresh connection may take to announce a command before
/// the server treats it as a legacy one-shot poll and closes.
const COMMAND_WINDOW: Duration = Duration::from_millis(150);

/// Streaming interval when the `stream` command names none.
pub const DEFAULT_STREAM_INTERVAL_MS: u64 = 1000;

/// Snapshot provider: called once per connection plus once per
/// streamed frame.
pub type SnapshotProvider = Arc<dyn Fn() -> StatsSnapshot + Send + Sync>;

/// Flight-dump provider for the `flight` command.
pub type FlightProvider = Arc<dyn Fn() -> FlightDump + Send + Sync>;

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the side channel until
/// `shutdown` is raised. Returns the bound address (useful with port 0)
/// and the listener thread's join handle.
///
/// `provider` is called once per connection (and once per streamed
/// frame); the daemons pass a closure that layers their gauges over
/// `StatsRegistry::snapshot`. Connections without a flight provider
/// answer the `flight` command with an empty dump; see
/// [`serve_stats_channel`].
///
/// # Errors
///
/// Returns the underlying I/O error when the address cannot be bound.
pub fn serve_stats(
    addr: &str,
    provider: SnapshotProvider,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    serve_stats_channel(addr, provider, None, shutdown)
}

/// [`serve_stats`] with a flight-dump provider wired to the `flight`
/// command.
///
/// # Errors
///
/// Returns the underlying I/O error when the address cannot be bound.
pub fn serve_stats_channel(
    addr: &str,
    provider: SnapshotProvider,
    flight: Option<FlightProvider>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    connections.retain(|conn| !conn.is_finished());
                    let provider = Arc::clone(&provider);
                    let flight = flight.clone();
                    let shutdown = Arc::clone(&shutdown);
                    connections.push(std::thread::spawn(move || {
                        let _ = handle_connection(stream, &provider, flight.as_ref(), &shutdown);
                    }));
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        for conn in connections {
            let _ = conn.join();
        }
    });
    Ok((local, handle))
}

fn json_line<T: serde::Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn handle_connection(
    mut stream: TcpStream,
    provider: &SnapshotProvider,
    flight: Option<&FlightProvider>,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    // The baseline snapshot line goes out first, unconditionally —
    // this is the whole legacy protocol, byte-stable.
    let mut prev = provider();
    let json = json_line(&prev)?;
    let _ = stream.set_nodelay(true);
    stream.write_all(json.as_bytes())?;
    stream.write_all(b"\n")?;

    // Then give the client a short window to announce a command.
    stream.set_read_timeout(Some(COMMAND_WINDOW))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut command = String::new();
    match reader.read_line(&mut command) {
        Ok(0) => return Ok(()), // closed — legacy one-shot poll
        Ok(_) => {}
        Err(err)
            if matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(()); // silent client — legacy one-shot poll
        }
        Err(err) => return Err(err),
    }
    let command = command.trim();
    if command == "flight" {
        let dump = flight.map_or_else(FlightDump::default, |f| f());
        let json = json_line(&dump)?;
        stream.write_all(json.as_bytes())?;
        stream.write_all(b"\n")?;
        return Ok(());
    }
    if let Some(rest) = command.strip_prefix("stream") {
        let interval_ms = rest
            .trim()
            .parse::<u64>()
            .unwrap_or(DEFAULT_STREAM_INTERVAL_MS)
            .max(10);
        loop {
            let mut waited = Duration::ZERO;
            let interval = Duration::from_millis(interval_ms);
            while waited < interval {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                let step = ACCEPT_POLL.min(interval - waited);
                std::thread::sleep(step);
                waited += step;
            }
            let next = provider();
            let frame = delta::diff(&prev, &next);
            let json = json_line(&frame)?;
            // A write error means the client went away; done.
            stream.write_all(json.as_bytes())?;
            stream.write_all(b"\n")?;
            prev = next;
        }
    }
    Ok(()) // unknown command — close
}

/// Fetches one snapshot from a side-channel listener as raw JSON (the
/// legacy one-shot poll).
///
/// # Errors
///
/// Returns the connection error, or `InvalidData` when the listener
/// sent no line.
pub fn fetch_stats_json(addr: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    let line = line.trim();
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stats listener sent no snapshot",
        ));
    }
    Ok(line.to_string())
}

/// Fetches the flight-recorder dump over the side channel.
///
/// # Errors
///
/// Returns the connection error, or `InvalidData` when either line is
/// missing or malformed.
pub fn fetch_flight_dump(addr: &str) -> io::Result<FlightDump> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"flight\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?; // baseline snapshot — not needed here
    line.clear();
    reader.read_line(&mut line)?;
    if line.trim().is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stats listener sent no flight dump",
        ));
    }
    serde_json::from_str(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A client of the streaming mode: holds one connection, keeps the
/// folded snapshot current by applying each received [`StatsDelta`].
pub struct StatsStream {
    reader: BufReader<TcpStream>,
    snapshot: StatsSnapshot,
}

impl StatsStream {
    /// Connects to a side-channel listener and enters streaming mode,
    /// reading the baseline snapshot.
    ///
    /// # Errors
    ///
    /// Returns the connection error, or `InvalidData` when the baseline
    /// is missing or malformed.
    pub fn connect(addr: &str, interval_ms: u64) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.write_all(format!("stream {interval_ms}\n").as_bytes())?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let snapshot: StatsSnapshot = serde_json::from_str(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(StatsStream { reader, snapshot })
    }

    /// The folded snapshot: baseline ⊕ every delta received so far.
    #[must_use]
    pub fn snapshot(&self) -> &StatsSnapshot {
        &self.snapshot
    }

    /// Blocks for the next delta frame, folds it into the snapshot and
    /// returns it.
    ///
    /// # Errors
    ///
    /// Returns the read error, or `InvalidData` on a malformed frame or
    /// a closed stream.
    pub fn next_frame(&mut self) -> io::Result<StatsDelta> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stats stream closed",
            ));
        }
        let frame: StatsDelta = serde_json::from_str(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.snapshot = delta::apply(&self.snapshot, &frame);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::StatsRegistry;
    use std::time::Instant;

    fn plain_provider(stats: &Arc<StatsRegistry>) -> SnapshotProvider {
        let stats = Arc::clone(stats);
        Arc::new(move || stats.snapshot())
    }

    #[test]
    fn side_channel_serves_snapshots_until_shutdown() {
        let stats = Arc::new(StatsRegistry::new());
        stats.record_admit_for(None, None, true, 42);
        let provider = {
            let stats = Arc::clone(&stats);
            Arc::new(move || {
                let mut snapshot = stats.snapshot();
                snapshot.gauges.queue_depth = 5;
                snapshot
            }) as SnapshotProvider
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) =
            serve_stats("127.0.0.1:0", provider, Arc::clone(&shutdown)).expect("listener binds");

        for _ in 0..2 {
            let json = fetch_stats_json(&addr.to_string()).expect("snapshot fetches");
            let snapshot: StatsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            assert_eq!(snapshot.counters.admits, 1);
            assert_eq!(snapshot.gauges.queue_depth, 5);
        }

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
        assert!(fetch_stats_json(&addr.to_string()).is_err());
    }

    #[test]
    fn legacy_line_is_byte_identical_to_the_serialized_snapshot() {
        let stats = Arc::new(StatsRegistry::new());
        stats.record_admit_for(None, None, true, 50);
        stats.record_admit_for(None, None, false, 1500);
        stats.record_withdraw_for(None, None, 80);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) =
            serve_stats("127.0.0.1:0", plain_provider(&stats), Arc::clone(&shutdown))
                .expect("listener binds");

        let line = fetch_stats_json(&addr.to_string()).expect("snapshot fetches");
        let expected = serde_json::to_string(&stats.snapshot()).expect("snapshots serialize");
        assert_eq!(line, expected, "legacy wire line is the raw serialization");

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
    }

    #[test]
    fn stream_mode_folds_deltas_back_to_the_live_snapshot() {
        let stats = Arc::new(StatsRegistry::new());
        stats.record_admit_for(None, None, true, 30);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) =
            serve_stats("127.0.0.1:0", plain_provider(&stats), Arc::clone(&shutdown))
                .expect("listener binds");

        let mut stream = StatsStream::connect(&addr.to_string(), 20).expect("stream connects");
        assert_eq!(stream.snapshot().counters.admits, 1, "baseline received");

        // Mutate between frames; the folded snapshot must converge to
        // the live one exactly once the recording stops.
        stats.record_admit_for(None, None, true, 60);
        stats.record_admit_for(None, None, false, 90);
        stats.record_submit_for(None, 700);
        stats.record_dedup_for(None, None);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let frame = stream.next_frame().expect("delta frame arrives");
            if frame.is_quiescent() && *stream.snapshot() == stats.snapshot() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "stream never converged: folded {:?} live {:?}",
                stream.snapshot().counters,
                stats.snapshot().counters
            );
        }

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
    }

    #[test]
    fn flight_command_returns_the_recorder_dump() {
        let stats = Arc::new(StatsRegistry::new());
        stats.record_admit_for(None, None, true, 40);
        stats.record_overload_for(None);
        let flight = {
            let stats = Arc::clone(&stats);
            Arc::new(move || stats.flight_dump()) as FlightProvider
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = serve_stats_channel(
            "127.0.0.1:0",
            plain_provider(&stats),
            Some(flight),
            Arc::clone(&shutdown),
        )
        .expect("listener binds");

        let dump = fetch_flight_dump(&addr.to_string()).expect("flight dump fetches");
        assert_eq!(dump.recorded, 2);
        assert_eq!(dump.count(crate::events::EventKind::Admit), 1);
        assert_eq!(dump.count(crate::events::EventKind::Overload), 1);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
    }

    #[test]
    fn side_channel_connections_never_touch_the_attached_gauge() {
        // Regression: the dashboard's own polling/streaming must not
        // count as attached clients — only main-endpoint connections
        // move the gauge.
        let stats = Arc::new(StatsRegistry::new());
        stats.client_attached(); // one real admission client
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) =
            serve_stats("127.0.0.1:0", plain_provider(&stats), Arc::clone(&shutdown))
                .expect("listener binds");

        for _ in 0..3 {
            let _ = fetch_stats_json(&addr.to_string()).expect("snapshot fetches");
        }
        let mut stream = StatsStream::connect(&addr.to_string(), 20).expect("stream connects");
        let _ = stream.next_frame().expect("delta frame arrives");
        assert_eq!(
            stream.snapshot().gauges.attached_clients,
            1,
            "side-channel churn left the gauge at the single real client"
        );
        assert_eq!(stats.attached(), 1);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
    }
}
