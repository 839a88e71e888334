//! `msmr-served` — the admission-control daemon.
//!
//! ```text
//! msmr-served [--tcp ADDR] [--uds PATH] [--bound NAME] [--decider SOLVER]
//!             [--opt-nodes N] [--cluster] [--shards N] [--workers N] [--queue N]
//!             [--snapshot-dir DIR] [--session-ttl SECS] [--stats-addr ADDR]
//!             [--trace-out PATH] [--flight-out PATH] [--pidfile PATH]
//! ```
//!
//! At least one of `--tcp` / `--uds` is required. The daemon prints one
//! `listening on ...` line per bound endpoint and runs until a client
//! sends the `shutdown` op or the process receives `SIGTERM` — the
//! signal triggers the same graceful path (named sessions are
//! snapshotted first when a snapshot directory is configured), so
//! scripts can kill-and-wait deterministically. `--pidfile PATH` writes
//! the daemon's pid after the endpoints are bound and removes the file
//! on clean shutdown, giving scripts both the pid to signal and a
//! ready/down marker to poll.
//!
//! One engine serves every connection, and every daemon answers every
//! op. A connection starts bound to a **private session** of its own —
//! nameless, solved on the connection's thread, gone with the
//! connection — so `submit`/`admit`/`withdraw` work from the first
//! line. Sending `attach` rebinds it to a *named shared* session:
//! any number of connections attach to the same name. A decider-only
//! `admit`/`withdraw` on it runs on the connection's thread when the
//! session is free and no work is queued; any other solve work runs on
//! a fixed worker pool behind a bounded queue (saturation is answered
//! with the typed overload frame). `--snapshot-dir`
//! enables snapshot/restore persistence — sessions found there are
//! restored, warm tables included, at startup. `--session-ttl SECS`
//! evicts (snapshot-then-drop) named sessions that have no attached
//! connection and have been idle past the TTL, so the session store
//! stops growing without bound. `--cluster` changes one thing:
//! connections start *unbound* (session ops answer `not attached` until
//! the client attaches), which is what a multi-tenant deployment and
//! the router tier want.
//!
//! Observability: the daemon always answers the protocol's
//! v4 `stats` op with a live [`msmr_stats::StatsSnapshot`].
//! `--stats-addr ADDR` additionally binds a side-channel listener that
//! writes one JSON snapshot line per connection (what `msmr-top`
//! polls), so stats stay reachable while the main endpoint is saturated.
//! The side channel also answers the `flight` command with a
//! seq-ordered dump of the in-memory flight recorder.
//! `--trace-out PATH` streams Chrome trace events into PATH (load it in
//! `about:tracing` / Perfetto): one span per solver verdict on a stable
//! per-solver lane, plus counter tracks sampled four times a second
//! (worker-queue depth, attached clients, live sessions) so load lines
//! up with the solver work it caused. The array is closed on clean
//! shutdown and remains loadable after a crash.
//!
//! `--flight-out PATH` writes the flight-recorder dump to PATH on
//! shutdown — including the SIGTERM path — and from a panic hook, so a
//! dying daemon leaves its last moments on disk.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use msmr_cluster::{ClusterConfig, ClusterEngine};
use msmr_serve::{parse_bound, Listen};
use msmr_stats::{serve_stats, FlightProvider, StatsRegistry, StatsSnapshot, TraceWriter};

fn usage() -> &'static str {
    "usage: msmr-served [--tcp ADDR] [--uds PATH] [--bound NAME] [--decider SOLVER]\n                   [--opt-nodes N] [--cluster] [--shards N] [--workers N] [--queue N]\n                   [--snapshot-dir DIR] [--session-ttl SECS] [--stats-addr ADDR]\n                   [--trace-out PATH] [--flight-out PATH] [--pidfile PATH]\n\n  --tcp ADDR         listen on a TCP address (e.g. 127.0.0.1:7471)\n  --uds PATH         listen on a unix-domain socket path\n  --bound NAME       delay bound (eq1..eq6, eq10; default eq10)\n  --decider NAME     solver deciding admissions (default OPDCA)\n  --opt-nodes N      node budget of the exact engines (default 200000)\n\nsessions (a connection starts on a private session; `attach` binds a named shared one):\n  --cluster          start connections unbound instead: no private session,\n                     session ops need an `attach` first\n  --shards N         session-store shards (default 8)\n  --workers N        worker threads for named-session solves that would wait\n                     (default 0 = all cores)\n  --queue N          bounded queue of those solves; full => typed overload\n                     response (default 64)\n  --snapshot-dir DIR enable snapshot/restore persistence of named sessions in DIR\n  --session-ttl SECS evict detached named sessions idle past SECS (snapshot first)\n\nobservability:\n  --stats-addr ADDR  serve one-line JSON stats snapshots on a TCP side channel\n                     (plus the `flight` dump command)\n  --trace-out PATH   write one Chrome trace-event span per solver verdict to PATH\n  --flight-out PATH  write the flight-recorder event dump to PATH on shutdown,\n                     SIGTERM and panic\n\nlifecycle:\n  --pidfile PATH     write the daemon pid to PATH once bound; SIGTERM shuts the\n                     daemon down gracefully (named sessions are snapshotted\n                     first) and removes the file"
}

struct Options {
    listen: Listen,
    config: ClusterConfig,
    stats_addr: Option<String>,
    trace_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
    pidfile: Option<PathBuf>,
}

/// Serializes the flight recorder's dump to `path`, logging either way.
fn write_flight_dump(path: &std::path::Path, stats: &StatsRegistry) {
    match serde_json::to_string(&stats.flight_dump()) {
        Ok(json) => match std::fs::write(path, json + "\n") {
            Ok(()) => println!("msmr-served flight dump at {}", path.display()),
            Err(e) => eprintln!(
                "msmr-served: cannot write --flight-out {}: {e}",
                path.display()
            ),
        },
        Err(e) => eprintln!("msmr-served: cannot serialize the flight dump: {e}"),
    }
}

/// Raised by the `SIGTERM` handler; the lifecycle thread polls it.
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Installs a `SIGTERM` handler that raises [`SIGTERM_RECEIVED`]. Raw
/// `signal(2)` FFI: the handler only stores into an atomic, which is
/// async-signal-safe, and the daemon needs no libc binding for anything
/// else.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_RECEIVED.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        listen: Listen::default(),
        config: ClusterConfig {
            start_private: true,
            ..ClusterConfig::default()
        },
        stats_addr: None,
        trace_out: None,
        flight_out: None,
        pidfile: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--tcp" => options.listen.tcp = Some(value("--tcp")?),
            "--uds" => options.listen.uds = Some(PathBuf::from(value("--uds")?)),
            "--bound" => {
                let name = value("--bound")?;
                options.config.session.bound =
                    parse_bound(&name).ok_or_else(|| format!("unknown bound `{name}`"))?;
            }
            "--decider" => options.config.session.decider = value("--decider")?,
            "--opt-nodes" => {
                options.config.session.node_limit = Some(
                    value("--opt-nodes")?
                        .parse()
                        .map_err(|_| "invalid --opt-nodes value".to_string())?,
                );
            }
            "--cluster" => options.config.start_private = false,
            "--shards" => {
                options.config.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "invalid --shards value".to_string())?;
            }
            "--workers" => {
                options.config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "invalid --workers value".to_string())?;
            }
            "--queue" => {
                options.config.queue = value("--queue")?
                    .parse()
                    .map_err(|_| "invalid --queue value".to_string())?;
            }
            "--snapshot-dir" => {
                options.config.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir")?));
            }
            "--session-ttl" => {
                let secs: u64 = value("--session-ttl")?
                    .parse()
                    .map_err(|_| "invalid --session-ttl value (seconds)".to_string())?;
                if secs == 0 {
                    return Err("--session-ttl must be positive".to_string());
                }
                options.config.session_ttl = Some(std::time::Duration::from_secs(secs));
            }
            "--stats-addr" => options.stats_addr = Some(value("--stats-addr")?),
            "--trace-out" => options.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--flight-out" => options.flight_out = Some(PathBuf::from(value("--flight-out")?)),
            "--pidfile" => options.pidfile = Some(PathBuf::from(value("--pidfile")?)),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let mut options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("msmr-served: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // One daemon-wide registry: every session — private or named —
    // feeds it, the v4 `stats` op and the side channel read it, and the
    // trace writer hangs off it.
    let stats = Arc::new(StatsRegistry::new());
    if let Some(path) = &options.trace_out {
        match TraceWriter::create(path) {
            Ok(writer) => {
                stats.set_trace_writer(writer);
                println!("msmr-served tracing to {}", path.display());
            }
            Err(e) => {
                eprintln!(
                    "msmr-served: cannot create --trace-out {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    options.config.session.stats = Some(Arc::clone(&stats));
    if let Some(path) = options.flight_out.clone() {
        // A panicking daemon still leaves its flight record behind: the
        // hook runs before the default one unwinds/aborts the process.
        let stats = Arc::clone(&stats);
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            write_flight_dump(&path, &stats);
            default_hook(info);
        }));
    }
    let (server, engine) = match ClusterEngine::start(options.listen, options.config) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("msmr-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    let restored = engine.store().len();
    if restored > 0 {
        println!("msmr-served: restored {restored} session(s) from snapshots");
    }
    if let Some(addr) = server.tcp_addr() {
        println!("msmr-served listening on tcp://{addr}");
    }
    if let Some(path) = server.uds_path() {
        println!("msmr-served listening on unix://{}", path.display());
    }
    // Lifecycle plumbing for scripts: the pidfile appears only after
    // every endpoint is bound, and SIGTERM takes the same graceful path
    // as the protocol's `shutdown` op.
    install_sigterm_handler();
    if let Some(path) = &options.pidfile {
        if let Err(e) = std::fs::write(path, format!("{}\n", std::process::id())) {
            eprintln!(
                "msmr-served: cannot write --pidfile {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    {
        let shutdown = server.shutdown_handle();
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !shutdown.load(Ordering::SeqCst) {
                if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
                    eprintln!("msmr-served: SIGTERM received, shutting down");
                    if let Err(e) = engine.snapshot_all() {
                        eprintln!("msmr-served: shutdown snapshot failed: {e}");
                    }
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
    }
    // Snapshots carry the engine gauges (queue depth, shards, session
    // rows) on top of the registry's counters and latency views.
    let provider: Arc<dyn Fn() -> StatsSnapshot + Send + Sync> =
        Arc::new(move || engine.stats_snapshot());
    if options.trace_out.is_some() {
        // Periodic gauge samples into the trace: Perfetto renders each
        // as its own counter track next to the solver lanes, so load
        // (queue depth, clients, sessions) lines up with the spans it
        // caused. Four samples a second keeps traces small.
        let shutdown = server.shutdown_handle();
        let stats = Arc::clone(&stats);
        let provider = Arc::clone(&provider);
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !shutdown.load(Ordering::SeqCst) {
                let snapshot = provider();
                stats.trace_counter("queue depth", snapshot.gauges.queue_depth);
                stats.trace_counter("attached clients", snapshot.gauges.attached_clients);
                stats.trace_counter("live sessions", snapshot.gauges.live_sessions);
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
        });
    }
    if let Some(addr) = &options.stats_addr {
        let flight: FlightProvider = {
            let stats = Arc::clone(&stats);
            Arc::new(move || stats.flight_dump())
        };
        match serve_stats(
            addr,
            Arc::clone(&provider),
            Some(flight),
            server.shutdown_handle(),
        ) {
            Ok((bound, _listener)) => println!("msmr-served stats on tcp://{bound}"),
            Err(e) => {
                eprintln!("msmr-served: cannot bind --stats-addr {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    server.join();
    if options.trace_out.is_some() {
        if let Err(e) = stats.close_trace() {
            eprintln!("msmr-served: closing the trace failed: {e}");
        }
    }
    if let Some(path) = &options.flight_out {
        // Covers both graceful exits: the protocol `shutdown` op and
        // SIGTERM (which funnels into the same join). Panics are
        // covered by the hook installed above.
        write_flight_dump(path, &stats);
    }
    if let Some(path) = &options.pidfile {
        let _ = std::fs::remove_file(path);
    }
    println!("msmr-served: shutdown complete");
    ExitCode::SUCCESS
}
