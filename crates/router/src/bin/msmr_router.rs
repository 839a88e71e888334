//! `msmr-router` — the distributed admission tier's front door.
//!
//! ```text
//! msmr-router --listen ADDR --backend ADDR [--backend ADDR ...]
//!             [--admin-addr ADDR] [--stats-addr ADDR]
//!             [--health-interval-ms N] [--health-failures N]
//!             [--pidfile PATH]
//! ```
//!
//! The router fronts K `msmr-served --cluster` daemons: named sessions
//! are placed by rendezvous hashing, request/response lines are relayed
//! verbatim, dead backends fail their sessions over to the survivors
//! (snapshot-warm, version-guarded), and `migrate SESSION BACKEND` on
//! the admin channel moves a session live. `--stats-addr` serves the
//! tier-wide merged [`msmr_stats::StatsSnapshot`] on the same one-line
//! JSON side channel the daemons use, so `msmr-top` points at a router
//! exactly like it points at a daemon.
//!
//! Lifecycle mirrors `msmr-served`: one `listening on ...` line per
//! bound endpoint, `--pidfile` written after binding and removed on
//! clean shutdown, and `SIGTERM` takes the same graceful path as the
//! protocol's `shutdown` op (which the router broadcasts to every
//! alive backend before exiting).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use msmr_router::{stats_agg, Router, RouterConfig};
use msmr_stats::{serve_stats, StatsSnapshot};

fn usage() -> &'static str {
    "usage: msmr-router --listen ADDR --backend ADDR [--backend ADDR ...]\n                   [--admin-addr ADDR] [--stats-addr ADDR]\n                   [--health-interval-ms N] [--health-failures N]\n                   [--pidfile PATH]\n\n  --listen ADDR           client listen address (e.g. 127.0.0.1:7470)\n  --backend ADDR          one msmr-served --cluster daemon (repeatable;\n                          every daemon must share one --snapshot-dir)\n  --admin-addr ADDR       operator channel (migrate/backends/routes)\n  --stats-addr ADDR       serve the tier-wide merged stats snapshot on\n                          a one-line JSON side channel (msmr-top reads it)\n  --health-interval-ms N  probe period in milliseconds (default 250)\n  --health-failures N     consecutive misses before a backend is\n                          declared dead (default 3)\n  --pidfile PATH          write the router pid to PATH once bound;\n                          SIGTERM shuts down gracefully and removes it"
}

struct Options {
    config: RouterConfig,
    stats_addr: Option<String>,
    pidfile: Option<PathBuf>,
}

/// Raised by the `SIGTERM` handler; the lifecycle thread polls it.
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Installs a `SIGTERM` handler that raises [`SIGTERM_RECEIVED`]. Same
/// raw `signal(2)` FFI as `msmr-served`: the handler only stores into
/// an atomic, which is async-signal-safe.
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
        config: RouterConfig::default(),
        stats_addr: None,
        pidfile: None,
    };
    let mut listen_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--listen" | "--tcp" => {
                options.config.listen = value("--listen")?;
                listen_set = true;
            }
            "--backend" => options.config.backends.push(value("--backend")?),
            "--admin-addr" => options.config.admin = Some(value("--admin-addr")?),
            "--stats-addr" => options.stats_addr = Some(value("--stats-addr")?),
            "--health-interval-ms" => {
                let ms: u64 = value("--health-interval-ms")?
                    .parse()
                    .map_err(|_| "invalid --health-interval-ms value".to_string())?;
                if ms == 0 {
                    return Err("--health-interval-ms must be positive".to_string());
                }
                options.config.health_interval = Duration::from_millis(ms);
            }
            "--health-failures" => {
                options.config.health_failures = value("--health-failures")?
                    .parse()
                    .map_err(|_| "invalid --health-failures value".to_string())?;
            }
            "--pidfile" => options.pidfile = Some(PathBuf::from(value("--pidfile")?)),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !listen_set {
        return Err("--listen is required".to_string());
    }
    if options.config.backends.is_empty() {
        return Err("configure at least one --backend".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("msmr-router: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let router = match Router::start(options.config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("msmr-router: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("msmr-router listening on tcp://{}", router.addr());
    if let Some(admin) = router.admin_addr() {
        println!("msmr-router admin on tcp://{admin}");
    }
    install_sigterm_handler();
    if let Some(path) = &options.pidfile {
        if let Err(e) = std::fs::write(path, format!("{}\n", std::process::id())) {
            eprintln!(
                "msmr-router: cannot write --pidfile {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    // SIGTERM funnels into the same graceful stop as the protocol's
    // `shutdown` op, minus the backend broadcast: killing the router
    // must not take the tier down with it.
    {
        let shutdown = router.shutdown_handle();
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !shutdown.load(Ordering::SeqCst) {
                if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
                    eprintln!("msmr-router: SIGTERM received, shutting down");
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
    }
    if let Some(addr) = &options.stats_addr {
        let provider: Arc<dyn Fn() -> StatsSnapshot + Send + Sync> = {
            let state = Arc::clone(router.state());
            Arc::new(move || stats_agg::aggregate(&state))
        };
        match serve_stats(addr, provider, None, router.shutdown_handle()) {
            Ok((bound, _listener)) => println!("msmr-router stats on tcp://{bound}"),
            Err(e) => {
                eprintln!("msmr-router: cannot bind --stats-addr {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    router.join();
    if let Some(path) = &options.pidfile {
        let _ = std::fs::remove_file(path);
    }
    println!("msmr-router: shutdown complete");
    ExitCode::SUCCESS
}
