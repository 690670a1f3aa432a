//! Child processes of the program under test, with their exit code, wall
//! time and peak RSS.
//!
//! Peak RSS comes from `wait4` (a direct `extern "C"` binding, the way the
//! repository's `mmap_sys.rs` binds `mmap`). Linux counts in a process's
//! peak the memory of the process it was spawned from, up to its `exec`,
//! so a program started straight from the ledger would report at least
//! the ledger's own peak. Every program therefore runs under a small
//! helper, `ledger --reap REPORT PROGRAM ARGS…` ([`reap_main`]), which
//! spawns it, reaps it, and writes the figures to `REPORT`. The helper
//! and its child share a process group that the ledger ends on any early
//! exit.

use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s (user and system
/// time), then fourteen longs starting with `ru_maxrss` (KiB). Only the
/// peak RSS is read; the rest is there for the layout.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    times: [i64; 4],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SIG_IGN: usize = 1;

/// Reaps `pid`, retrying on `EINTR`; returns the exit code (`None` when a
/// signal ended it) and the peak RSS in KiB.
fn reap(pid: u32) -> std::io::Result<(Option<i32>, i64)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: both out-pointers are valid for the call's duration.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if r == pid as i32 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage.ru_maxrss))
}

/// The helper: run `PROGRAM ARGS…` with this process's stdio and working
/// directory, then write `CODE WALL_S MAXRSS_KIB` to `REPORT`. It ignores
/// the `SIGTERM` the ledger sends its process group, so it outlives its
/// child and still reaps it.
pub fn reap_main(report: &Path, program: &str, args: &[String]) -> ExitCode {
    let start = Instant::now();
    let figures = Command::new(program).args(args).spawn().and_then(|child| {
        // Only now: an ignored signal would stay ignored in the child.
        // SAFETY: installs the predefined SIG_IGN disposition.
        unsafe { signal(SIGTERM, SIG_IGN) };
        reap(child.id())
    });
    let (code, maxrss) = match figures {
        Ok(figures) => figures,
        Err(e) => {
            eprintln!("ledger: cannot run {program}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let line = format!("{} {wall} {maxrss}\n", code.unwrap_or(-1));
    if std::fs::write(report, line).is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::from(u8::try_from(code.unwrap_or(1)).unwrap_or(1))
}

/// How a reaped program ended and what it used.
#[derive(Clone, Debug)]
pub struct Exit {
    pub code: Option<i32>,
    /// Exec to reap.
    pub wall_s: f64,
    /// Peak RSS, its own reaped children (e.g. net-backend workers)
    /// included.
    pub maxrss_mib: f64,
    pub stdout: String,
    pub stderr: String,
}

impl Exit {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

fn collect(pipe: Option<impl Read + Send + 'static>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut out = String::new();
        if let Some(mut p) = pipe {
            let _ = p.read_to_string(&mut out);
        }
        out
    })
}

/// Starts `program args` in `dir` under the helper, in a new process
/// group, with piped stdout and stderr.
fn spawn_helper(
    program: &Path,
    args: &[String],
    dir: &Path,
    report: &Path,
) -> std::io::Result<Child> {
    Command::new(std::env::current_exe()?)
        .arg("--reap")
        .arg(report)
        .arg(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn()
}

/// Reads the helper's report once it has exited.
fn read_report(report: &Path, stdout: String, stderr: String) -> Exit {
    let text = std::fs::read_to_string(report).unwrap_or_default();
    let _ = std::fs::remove_file(report);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    let mut next = || fields.next().and_then(Result::ok);
    let code = next().map(|c| c as i32).filter(|&c| c >= 0);
    Exit {
        code,
        wall_s: next().unwrap_or(f64::NAN),
        maxrss_mib: next().unwrap_or(f64::NAN) / 1024.0,
        stdout,
        stderr,
    }
}

/// Runs `program args` to completion in `dir`.
pub fn run(program: &Path, args: &[String], dir: &Path) -> std::io::Result<Exit> {
    let report = dir.join(".reap");
    let mut child = spawn_helper(program, args, dir, &report)?;
    let out = collect(child.stdout.take());
    let err = collect(child.stderr.take());
    child.wait()?;
    let stdout = out.join().unwrap_or_default();
    let stderr = err.join().unwrap_or_default();
    Ok(read_report(&report, stdout, stderr))
}

/// Ends the helper's process group: `SIGTERM` stops the program (and any
/// workers it started) while the helper reaps it; whatever is left after
/// 5 s gets `SIGKILL`. Returns once the helper is reaped.
fn terminate(helper: &mut Child) {
    let group = -(helper.id() as i32);
    let signal_group = |sig| {
        // SAFETY: a plain syscall on the process group this ledger created.
        unsafe { kill(group, sig) };
    };
    signal_group(SIGTERM);
    let start = Instant::now();
    while matches!(helper.try_wait(), Ok(None)) {
        if start.elapsed() > Duration::from_secs(5) {
            signal_group(SIGKILL);
            let _ = helper.wait();
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A `dbtf serve` under the helper. Dropping it ends the whole process
/// group and waits for it, so no server outlives the ledger on any exit
/// path.
pub struct Server {
    child: Option<Child>,
    report: PathBuf,
    pub addr: std::net::SocketAddr,
    stdout: Option<std::thread::JoinHandle<()>>,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Server {
    /// Spawns `program args` in `dir` and waits for its `listening on
    /// ADDR` line.
    pub fn spawn(program: &Path, args: &[String], dir: &Path) -> Result<Server, String> {
        let report = dir.join(".reap-serve");
        let mut child = spawn_helper(program, args, dir, &report)
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let stderr = Some(collect(child.stderr.take()));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut server = Server {
            child: Some(child),
            report,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            stdout: None,
            stderr,
        };
        let mut lines = BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        server.addr = addr
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                        break;
                    }
                }
                _ => return Err(format!("serve exited early: {}", server.stop())),
            }
        }
        // Keep draining stdout so the server never blocks on a full pipe.
        server.stdout = Some(std::thread::spawn(move || for _ in lines {}));
        Ok(server)
    }

    /// Ends the process group if it still runs, reaps the helper, joins
    /// the pipe readers, and returns what went to stderr.
    fn stop(&mut self) -> String {
        if let Some(mut child) = self.child.take() {
            terminate(&mut child);
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    /// Waits (up to `deadline`) for the server to exit after a drain
    /// request; past the deadline it is killed.
    pub fn wait(mut self, deadline: Duration) -> Result<Exit, String> {
        let mut child = self.child.take().expect("server not yet reaped");
        let start = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if start.elapsed() > deadline => {
                    terminate(&mut child);
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for serve: {e}")),
            }
        }
        let stderr = self.stop();
        Ok(read_report(&self.report, String::new(), stderr))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
