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
//! the one-line-per-connection poll [`fetch_stats_json`] reads. The
//! client may then speak one command line:
//!
//! * *(nothing — close)* — the poll: one snapshot, done.
//! * `flight` — one JSON [`FlightDump`] line (the flight recorder's
//!   seq-ordered recent events), then close.
//!
//! Any other line closes the connection after the snapshot.
//!
//! Side-channel connections are observability, not admission clients:
//! they never touch the attached-clients gauge (pinned by a regression
//! test below), so a polling dashboard cannot distort the very gauge it
//! displays.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::events::FlightDump;
use crate::model::StatsSnapshot;

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a fresh connection may take to announce a command before
/// the server treats it as a one-shot poll and closes.
const COMMAND_WINDOW: Duration = Duration::from_millis(150);

/// Snapshot provider: called once per connection.
pub type SnapshotProvider = Arc<dyn Fn() -> StatsSnapshot + Send + Sync>;

/// Flight-dump provider for the `flight` command.
pub type FlightProvider = Arc<dyn Fn() -> FlightDump + Send + Sync>;

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the side channel until
/// `shutdown` is raised. Returns the bound address (useful with port 0)
/// and the listener thread's join handle.
///
/// `provider` is called once per connection; the daemons pass a closure
/// that layers their gauges over `StatsRegistry::snapshot`. Without a
/// `flight` provider the `flight` command answers with an empty dump.
///
/// # Errors
///
/// Returns the underlying I/O error when the address cannot be bound.
pub fn serve_stats(
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
                    connections.push(std::thread::spawn(move || {
                        let _ = handle_connection(stream, &provider, flight.as_ref());
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
) -> io::Result<()> {
    // The snapshot line goes out first, unconditionally — this is the
    // whole poll protocol, byte-stable.
    let json = json_line(&provider())?;
    let _ = stream.set_nodelay(true);
    stream.write_all(json.as_bytes())?;
    stream.write_all(b"\n")?;

    // Then give the client a short window to announce a command.
    stream.set_read_timeout(Some(COMMAND_WINDOW))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut command = String::new();
    match reader.read_line(&mut command) {
        Ok(_) => {}
        Err(err)
            if matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(()); // silent client — one-shot poll
        }
        Err(err) => return Err(err),
    }
    if command.trim() == "flight" {
        let dump = flight.map_or_else(FlightDump::default, |f| f());
        let json = json_line(&dump)?;
        stream.write_all(json.as_bytes())?;
        stream.write_all(b"\n")?;
    }
    Ok(()) // any other command — close
}

/// Fetches one snapshot from a side-channel listener as raw JSON (the
/// one-shot poll).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::StatsRegistry;
    use std::io::Read;

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
        let (addr, handle) = serve_stats("127.0.0.1:0", provider, None, Arc::clone(&shutdown))
            .expect("listener binds");

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
        let (addr, handle) = serve_stats(
            "127.0.0.1:0",
            plain_provider(&stats),
            None,
            Arc::clone(&shutdown),
        )
        .expect("listener binds");

        let line = fetch_stats_json(&addr.to_string()).expect("snapshot fetches");
        let expected = serde_json::to_string(&stats.snapshot()).expect("snapshots serialize");
        assert_eq!(line, expected, "legacy wire line is the raw serialization");

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
    }

    #[test]
    fn unknown_commands_get_the_snapshot_line_then_eof() {
        // A client speaking any other command (here an old `stream`
        // client) gets exactly the poll's one snapshot line, then EOF.
        let stats = Arc::new(StatsRegistry::new());
        stats.record_admit_for(None, None, true, 30);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = serve_stats(
            "127.0.0.1:0",
            plain_provider(&stats),
            None,
            Arc::clone(&shutdown),
        )
        .expect("listener binds");

        let mut stream = TcpStream::connect(addr).expect("side channel connects");
        stream.write_all(b"stream 20\n").expect("command sends");
        let mut received = String::new();
        stream
            .read_to_string(&mut received)
            .expect("server closes after the snapshot");
        let expected = serde_json::to_string(&stats.snapshot()).expect("snapshots serialize");
        assert_eq!(received, format!("{expected}\n"));

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
        let (addr, handle) = serve_stats(
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
        // Regression: the dashboard's own polls and flight dumps must
        // not count as attached clients — only main-endpoint
        // connections move the gauge.
        let stats = Arc::new(StatsRegistry::new());
        stats.client_attached(); // one real admission client
        let flight = {
            let stats = Arc::clone(&stats);
            Arc::new(move || stats.flight_dump()) as FlightProvider
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = serve_stats(
            "127.0.0.1:0",
            plain_provider(&stats),
            Some(flight),
            Arc::clone(&shutdown),
        )
        .expect("listener binds");

        for _ in 0..3 {
            let _ = fetch_flight_dump(&addr.to_string()).expect("flight dump fetches");
            let json = fetch_stats_json(&addr.to_string()).expect("snapshot fetches");
            let snapshot: StatsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            assert_eq!(
                snapshot.gauges.attached_clients, 1,
                "side-channel churn left the gauge at the single real client"
            );
        }
        assert_eq!(stats.attached(), 1);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("listener thread joins");
    }
}
