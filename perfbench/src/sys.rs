//! Child processes and what the kernel reports about them: spawning
//! the server binaries on a free loopback port, waiting for their first
//! answer, CPU time and peak RSS from `/proc`, and the run-validity
//! facts (core count, kernel, filesystem of the data directory).

use std::fs::File;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A server binary running as a child process. Killed (SIGKILL) and
/// reaped on drop, so no run leaves a process behind.
pub struct ServerProc {
    child: Option<Child>,
    /// The client-facing address.
    pub addr: String,
    /// The file the child's stderr goes to.
    pub log: PathBuf,
}

impl ServerProc {
    /// Starts `bin` with `args`, stderr to `log`, serving on `addr`.
    pub fn spawn(bin: &Path, args: &[String], addr: &str, log: &Path) -> io::Result<ServerProc> {
        let err = File::create(log)?;
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("cannot start {bin:?}: {e}")))?;
        Ok(ServerProc {
            child: Some(child),
            addr: addr.to_string(),
            log: log.to_path_buf(),
        })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Connects to the child's address, retrying every millisecond
    /// until it accepts or `limit` passes. Fails early if the child
    /// exited.
    pub fn connect(&mut self, limit: Duration) -> io::Result<TcpStream> {
        let start = Instant::now();
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => {
                    s.set_nodelay(true)?;
                    return Ok(s);
                }
                Err(e) => {
                    if let Some(status) = self.child.as_mut().expect("running").try_wait()? {
                        return Err(io::Error::other(format!(
                            "server exited with {status} before listening: {}",
                            self.log_tail()
                        )));
                    }
                    if start.elapsed() > limit {
                        return Err(io::Error::new(
                            e.kind(),
                            format!(
                                "server did not listen within {limit:?}: {}",
                                self.log_tail()
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// The last lines of the child's stderr, for error messages.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// SIGKILLs the child and waits for it to end.
    pub fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn rss_peak_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A loopback address with a currently free port. The listener is
/// closed before returning; the port stays free in practice because
/// nothing connected to it.
pub fn free_addr() -> io::Result<String> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    Ok(l.local_addr()?.to_string())
}

/// CPU time of process `pid` in seconds: the sum of every live
/// thread's scheduler run time (nanosecond resolution), falling back to
/// the tick-resolution `utime + stime` of `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let mut total_ns: u64 = 0;
    let mut found = false;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(t.path().join("schedstat")) {
                if let Some(ns) = s
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    total_ns += ns;
                    found = true;
                }
            }
        }
    }
    if found {
        return Ok(total_ns as f64 / 1e9);
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    Ok((ticks(11) + ticks(12)) / 100.0)
}

/// CPU time of this process (the load generator), seconds.
pub fn self_cpu_s() -> f64 {
    cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The filesystem type `path` lives on, from the longest matching
/// mount point in `/proc/mounts`.
pub fn fs_type(path: &Path) -> io::Result<String> {
    let path = std::fs::canonicalize(path)?;
    let mounts = std::fs::read_to_string("/proc/mounts")?;
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 {
            continue;
        }
        let mnt = f[1].replace("\\040", " ");
        if path.starts_with(&mnt) && best.as_ref().is_none_or(|(l, _)| mnt.len() > *l) {
            best = Some((mnt.len(), f[2].to_string()));
        }
    }
    best.map(|(_, t)| t)
        .ok_or_else(|| io::Error::other(format!("no mount covers {path:?}")))
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        let e = e?;
        let meta = e.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&e.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Copies the directory tree `from` to `to` (which must not exist).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dest = to.join(e.file_name());
        if e.metadata()?.is_dir() {
            copy_dir(&e.path(), &dest)?;
        } else {
            std::fs::copy(e.path(), dest)?;
        }
    }
    Ok(())
}

/// Writes every dirty page of the filesystem that holds `dir` to disk
/// (`syncfs`). A copied journal left dirty in the page cache would be
/// flushed by the kernel about 30 s after the copy, in the middle of a
/// measured step, and slow every fsync the server makes while it lasts.
pub fn sync_fs(dir: &Path) -> io::Result<()> {
    let f = File::open(dir)?;
    // SAFETY: `f` is an open descriptor for the whole call; `syncfs`
    // only reads it.
    if unsafe { syncfs(f.as_raw_fd()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn syncfs(fd: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` has bytes to read (or its peer hung up), for at
/// most `wait`. Socket receive timeouts round up to whole scheduler
/// ticks; `ppoll` sleeps on a high-resolution timer, so an open-loop
/// send due in 200 µs goes out in about 200 µs, not a tick later.
pub fn wait_readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly aligned `#[repr(C)]`
    // values laid out as the kernel's `struct pollfd` and (64-bit)
    // `struct timespec`; `nfds` is 1, matching the single entry; a null
    // signal mask leaves the mask unchanged. `ppoll` writes only
    // `fd.revents`.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}
