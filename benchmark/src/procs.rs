//! Child-process hygiene and `/proc` accounting.
//!
//! The socket workloads drive the real `msmr-served` / `msmr-router`
//! release binaries. A leftover idle daemon cost about a fifth of the
//! request rate when the run was sized, so every child is killed and
//! reaped on every exit path — normal return and panic through
//! [`Child`]'s `Drop`, `SIGINT`/`SIGTERM` through a signal handler — and
//! a run refuses to start while a stray daemon or router exists. The
//! children and the client threads are pinned to disjoint CPUs
//! ([`CpuSplit`]).

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::{Duration, Instant};

const DAEMON: &str = "msmr-served";
const ROUTER: &str = "msmr-router";

/// Pids the signal handler must kill; 0 marks a free slot. A run has at
/// most one daemon and one router alive at a time.
static LIVE_CHILDREN: [AtomicI32; 4] = [
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
];

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn _exit(status: i32) -> !;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel takes it: bit `i` of word `i / 64` is CPU `i`.
type CpuMask = [u64; 16];

fn current_affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the pointer and the byte length describe `mask`, which the
    // call fills; pid 0 is the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (status == 0).then_some(mask)
}

fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: the pointer and the byte length describe `mask`, which the
    // call only reads; pid 0 is the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        )),
    }
}

/// Where the two sides of a socket workload run: the system under test
/// (daemon and router) on the first half of the CPUs this process may
/// use, the load generator's client threads on the second half.
///
/// Left to the scheduler, client and daemon threads drift between
/// sharing a core and waking each other across cores, and on a small VM
/// the two placements differ by a fifth in round-trip time for minutes on
/// end: ten unpinned runs of `admit_direct` spread 20 % on `ops_per_sec`
/// and 27 % on `op_p90_us` between their quartiles. Fixing the placement
/// is what makes two runs of one build agree.
#[derive(Clone, Copy)]
pub struct CpuSplit {
    system: CpuMask,
    generator: CpuMask,
    all: CpuMask,
}

impl CpuSplit {
    /// `None` when the process has a single CPU (nothing to split) or may
    /// not read or set its affinity; the run is then left to the scheduler.
    pub fn detect() -> Option<CpuSplit> {
        let all = current_affinity()?;
        set_affinity(&all).ok()?;
        let cpus: Vec<usize> = (0..all.len() * 64)
            .filter(|&i| all[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        if cpus.len() < 2 {
            return None;
        }
        let mask_of = |cpus: &[usize]| {
            let mut mask: CpuMask = [0; 16];
            for &cpu in cpus {
                mask[cpu / 64] |= 1 << (cpu % 64);
            }
            mask
        };
        let (system, generator) = cpus.split_at(cpus.len() / 2);
        Some(CpuSplit {
            system: mask_of(system),
            generator: mask_of(generator),
            all,
        })
    }

    /// Pins the calling thread to the generator's CPUs.
    pub fn pin_generator_thread(&self) -> Result<(), String> {
        set_affinity(&self.generator)
    }
}

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

extern "C" fn kill_children_and_exit(signum: i32) {
    for slot in &LIVE_CHILDREN {
        let pid = slot.load(Ordering::SeqCst);
        if pid > 0 {
            // SAFETY: kill(2) is async-signal-safe and takes plain integers.
            unsafe { kill(pid, SIGKILL) };
        }
    }
    // SAFETY: _exit(2) is async-signal-safe; the killed children are
    // re-parented to init, which reaps them.
    unsafe { _exit(128 + signum) }
}

/// Makes `SIGINT` and `SIGTERM` kill every live child before the process
/// exits.
pub fn install_signal_handlers() {
    for signum in [SIGINT, SIGTERM] {
        // SAFETY: the handler only loads atomics and calls kill/_exit, all
        // async-signal-safe; `signal` itself takes plain integers.
        unsafe { signal(signum, kill_children_and_exit as *const () as usize) };
    }
}

/// Microseconds per scheduler tick of the `utime`/`stime` fields.
fn tick_micros() -> f64 {
    // SAFETY: sysconf(3) takes an integer and returns one.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    1e6 / if hz > 0 { hz as f64 } else { 100.0 }
}

/// A spawned child process. Dropping it kills and reaps the process.
pub struct Child {
    child: std::process::Child,
    /// The TCP address a daemon or router announced.
    pub addr: String,
}

impl Child {
    /// Spawns `command` with piped stdout and registers the pid with the
    /// signal handler; from then on the child is reaped on every path.
    fn spawn(command: &mut Command) -> Result<Child, String> {
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {:?}: {e}", command.get_program()))?;
        let pid = child.id() as i32;
        let registered = LIVE_CHILDREN.iter().any(|slot| {
            slot.compare_exchange(0, pid, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
        let guard = Child {
            child,
            addr: String::new(),
        };
        if registered {
            Ok(guard)
        } else {
            Err("too many live children".to_string())
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id() as i32;
        for slot in &LIVE_CHILDREN {
            let _ = slot.compare_exchange(pid, 0, Ordering::SeqCst, Ordering::SeqCst);
        }
    }
}

/// Runs this executable again with `args` and returns what it printed.
/// Offline repetitions run this way, each in a process of its own, so
/// that peak memory and CPU time belong to one repetition — like the
/// socket repetitions, which each get fresh daemons.
pub fn run_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut guard = Child::spawn(Command::new(exe).args(args))?;
    let mut printed = String::new();
    guard
        .child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut printed)
        .map_err(|e| e.to_string())?;
    let status = guard.child.wait().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(printed)
    } else {
        Err(format!("repetition process ended with {status}"))
    }
}

/// Spawns `binary args…` and waits for its `<name> listening on tcp://`
/// line. Stdout keeps being drained so the child never blocks on a full
/// pipe; stderr is inherited so its diagnostics stay visible.
fn spawn_listening(
    binary: &Path,
    name: &str,
    args: &[&str],
    cpus: Option<&CpuSplit>,
) -> Result<Child, String> {
    // A child inherits the affinity of the thread that spawns it.
    if let Some(split) = cpus {
        set_affinity(&split.system)?;
    }
    let spawned = Child::spawn(Command::new(binary).args(args));
    if let Some(split) = cpus {
        set_affinity(&split.all)?;
    }
    let mut guard = spawned?;
    let stdout = guard.child.stdout.take().expect("stdout is piped");
    let prefix = format!("{name} listening on tcp://");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err(format!("{name} exited before announcing its address"));
        }
        if let Some(addr) = line.trim().strip_prefix(&prefix) {
            guard.addr = addr.to_string();
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("{name} never announced its address"));
        }
    }
    // Detached on purpose: it ends when the child's stdout closes, which
    // `Drop` forces by killing the child.
    std::thread::spawn(move || {
        let _ = reader.read_to_end(&mut Vec::new());
    });
    Ok(guard)
}

/// Finds a product binary: `MSMR_<NAME>_BIN` when set, else next to this
/// executable (both land in `<target>/release/`).
fn product_binary(name: &str, env: &str) -> Result<PathBuf, String> {
    let path = match std::env::var_os(env) {
        Some(path) => PathBuf::from(path),
        None => {
            let mut dir = std::env::current_exe().map_err(|e| e.to_string())?;
            dir.pop();
            if dir.ends_with("deps") {
                dir.pop();
            }
            dir.join(name)
        }
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{name} not found at `{}`: build it with benchmark/run.sh or set {env}",
            path.display()
        ))
    }
}

/// Spawns `msmr-served --cluster` with the flags every socket workload
/// uses (defaults otherwise).
pub fn spawn_daemon(snapshot_dir: &Path, cpus: Option<&CpuSplit>) -> Result<Child, String> {
    let binary = product_binary(DAEMON, "MSMR_SERVED_BIN")?;
    let dir = snapshot_dir.to_string_lossy();
    spawn_listening(
        &binary,
        DAEMON,
        &["--cluster", "--tcp", "127.0.0.1:0", "--snapshot-dir", &dir],
        cpus,
    )
}

/// Spawns `msmr-router` fronting one backend.
pub fn spawn_router(backend: &str, cpus: Option<&CpuSplit>) -> Result<Child, String> {
    let binary = product_binary(ROUTER, "MSMR_ROUTER_BIN")?;
    spawn_listening(
        &binary,
        ROUTER,
        &["--listen", "127.0.0.1:0", "--backend", backend],
        cpus,
    )
}

/// Fails when a daemon or router of some other run is alive.
pub fn refuse_if_product_running() -> Result<(), String> {
    let entries = std::fs::read_dir("/proc").map_err(|e| format!("reading /proc: {e}"))?;
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        if [DAEMON, ROUTER].contains(&comm.trim()) {
            return Err(format!(
                "another {} (pid {pid}) is running; stop it first — an idle daemon \
                 skews every latency this benchmark reports",
                comm.trim()
            ));
        }
    }
    Ok(())
}

fn proc_file(pid: Option<u32>, file: &str) -> Result<String, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
}

/// `utime + stime` of a process (`None` = this one) in microseconds.
pub fn cpu_micros(pid: Option<u32>) -> Result<f64, String> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let rest = stat.rsplit_once(") ").ok_or("malformed /proc stat line")?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> Option<f64> { fields.next()?.parse().ok() };
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) * tick_micros()),
        _ => Err("malformed /proc stat line".to_string()),
    }
}

/// Peak resident set (`VmHWM`) of a process (`None` = this one) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let status = proc_file(pid, "status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// One-minute load average, recorded with every results file.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_accounting_reads() {
        let before = cpu_micros(None).unwrap();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_micros(None).unwrap() > before);
        assert!(peak_rss_mb(None).unwrap() > 0.5);
    }
}
