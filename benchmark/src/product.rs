//! Driving the product the way a user does: the `gpa` binary built from
//! this checkout, as cold `gpa optimize` processes, `gpa batch` runs and
//! a `gpa serve` daemon. Every process started here is waited for.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `gpa` executable, which the build puts next to this benchmark's.
pub struct Gpa(PathBuf);

/// How one finished `gpa` process went.
pub struct Exit {
    pub ok: bool,
    pub stderr: String,
}

impl Gpa {
    pub fn locate() -> Result<Gpa, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let gpa = exe.with_file_name("gpa");
        if gpa.is_file() {
            Ok(Gpa(gpa))
        } else {
            Err(format!(
                "{} not found: build it with `cargo build --release -p gpa-cli`",
                gpa.display()
            ))
        }
    }

    /// Runs `gpa <args>` to completion.
    pub fn run(&self, args: &[&str]) -> Result<Exit, String> {
        let out = Command::new(&self.0)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| format!("spawn gpa: {e}"))?;
        Ok(Exit {
            ok: out.status.success(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        })
    }

    /// Starts `gpa serve --listen 127.0.0.1:0 --workers <workers>` and
    /// waits until it reports its address.
    pub fn serve(&self, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(&self.0)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn gpa serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        // Owned by the guard from here on, so an early return still stops
        // the process.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("gpa serve: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("gpa-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("gpa serve did not report an address: {line:?}"))?;
        Ok(daemon)
    }
}

/// A running `gpa serve`. Dropping it kills the process if it is still
/// running and waits for it.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Held open so the daemon never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    pub fn connect(&self) -> Result<TcpStream, String> {
        TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// CPU time the daemon's live threads have used so far, in s, from
    /// each thread's `schedstat` (nanosecond resolution). The daemon's
    /// workers live as long as it does.
    pub fn cpu_s(&self) -> f64 {
        let dir = format!("/proc/{}/task", self.child.id());
        let Ok(tasks) = std::fs::read_dir(&dir) else {
            return 0.0;
        };
        let ns: u64 = tasks
            .filter_map(Result::ok)
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum();
        ns as f64 / 1e9
    }

    /// Drains the daemon with a Shutdown frame and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        gpa_serve::send_shutdown(&mut conn).map_err(|e| format!("shutdown: {e}"))?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("gpa serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("gpa serve did not drain within 60 s".to_owned()),
                Err(e) => return Err(format!("wait gpa serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // layout (two timevals, then fourteen longs); getrusage writes only it
    // and leaves it zeroed when it fails.
    unsafe { getrusage(who, &mut usage) };
    usage
}

fn cpu_of(usage: &RUsage) -> f64 {
    let s = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    s(usage.ru_utime) + s(usage.ru_stime)
}

/// The largest resident set of any child waited for so far, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).ru_maxrss as f64 / 1024.0
}

/// CPU time (user and system) of every child waited for so far, in s.
pub fn children_cpu_s() -> f64 {
    cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Restricts this thread, and every thread and process it starts from now
/// on, to the lowest-numbered CPU it may run on. Returns that CPU.
///
/// The machine's speed changes from second to second and differs between
/// its CPUs; on one CPU, a calibration timed next to an operation sees the
/// speed the operation saw (see `speed`).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable cpu_set_t of `size` bytes, and pid
    // 0 names the calling thread; the call writes only the mask.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live cpu_set_t of `size` bytes naming one CPU the
    // thread may already run on; the call only reads it.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}
