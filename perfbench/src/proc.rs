//! Child processes of the product: one-shot `ofence` runs reaped with
//! their own resource usage, and an `ofence serve` daemon that is always
//! stopped, even when the benchmark fails or panics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A one-shot run may not take longer than this before it is killed and
/// counted as failed (the benchmark itself must end within 180 s).
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sync();
}

const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;
const SC_CLK_TCK: i32 = 2;
const EINTR: i32 = 4;

/// A command for the product whose process is killed if the benchmark
/// dies first (even by a signal that skips every destructor), so no
/// orphan outlives the run.
fn product_command(bin: &Path, cwd: &Path, tmp: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.current_dir(cwd).env("TMPDIR", tmp).stdin(Stdio::null());
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one async-signal-safe syscall.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
            Ok(())
        });
    }
    cmd
}

/// Flush dirty pages to disk, so writeback left by an earlier run does
/// not stall this run's timed file writes.
pub fn settle_disk() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() };
}

/// How one finished `ofence` process went.
pub struct Finished {
    pub stdout: Vec<u8>,
    pub exit_code: Option<i32>,
    pub wall_ms: f64,
    pub cpu_ms: f64,
    pub maxrss_mb: f64,
    pub timed_out: bool,
    pub stderr: String,
}

/// Run `bin args...` to completion, timing it from spawn to reap, and
/// read its CPU time and peak resident set from `wait4`.
pub fn run_to_end(bin: &Path, args: &[String], cwd: &Path) -> Result<Finished, String> {
    let env_tmp = cwd.join("tmp");
    std::fs::create_dir_all(&env_tmp).map_err(|e| format!("{}: {e}", env_tmp.display()))?;
    let err_path = env_tmp.join("stderr.txt");
    let err_file =
        std::fs::File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let t0 = Instant::now();
    let mut child = product_command(bin, cwd, &env_tmp)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::from(err_file))
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let pid = child.id() as i32;
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(OP_TIMEOUT).is_err() {
            // SAFETY: plain syscall on the pid of a child this process
            // has not reaped yet (the reaper signals `done` first).
            unsafe { kill(pid, SIGKILL) };
            return true;
        }
        false
    });
    let mut stdout = Vec::new();
    if let Some(mut out) = child.stdout.take() {
        let _ = out.read_to_end(&mut stdout);
    }
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    loop {
        // SAFETY: `status` and `usage` are valid, writable, and laid out
        // as the kernel's `int` and `struct rusage`.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(format!("wait4: {err}"));
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = done_tx.send(());
    let timed_out = watchdog.join().unwrap_or(false);
    // The process is reaped; `Child` must not wait on the pid again.
    drop(child);
    let exit_code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let _ = std::fs::remove_file(&err_path);
    let tv_ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Ok(Finished {
        stdout,
        exit_code,
        wall_ms,
        cpu_ms: tv_ms(&usage.utime) + tv_ms(&usage.stime),
        maxrss_mb: usage.rest[0] as f64 / 1024.0,
        timed_out,
        stderr,
    })
}

/// User+system CPU milliseconds a live process has used so far (all of
/// its threads), from `/proc/<pid>/stat`.
pub fn process_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some((utime + stime) * 1e3 / hz)
}

/// Peak resident set (`VmHWM`) of a live process in MiB.
pub fn process_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A running `ofence serve`. Dropping it stops the daemon: a `shutdown`
/// request first, then SIGKILL if it has not exited, then a reap — so no
/// orphaned daemon outlives the benchmark, whatever path it leaves by.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn start(bin: &Path, args: &[String], cwd: &Path) -> Result<Daemon, String> {
        let env_tmp = cwd.join("tmp");
        std::fs::create_dir_all(&env_tmp).map_err(|e| format!("{}: {e}", env_tmp.display()))?;
        let mut child = product_command(bin, cwd, &env_tmp)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<String>();
        // Keep draining stdout after the address line so the daemon
        // never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut sent = false;
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if !sent {
                    if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
                        let _ = tx.send(addr.to_string());
                        sent = true;
                    }
                }
                line.clear();
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => return Err("daemon did not report its address".into()),
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(|c| c.id()).unwrap_or(0)
    }

    /// Stop the daemon and wait for it; errors are reported, not raised.
    pub fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = s.write_all(b"{\"id\":0,\"method\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A fresh, empty directory (removed first if a previous run left it).
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
