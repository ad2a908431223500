//! Running the `spacetime` binary as a child process, timed from spawn to
//! reap, with the child's own peak resident set size.
//!
//! `std::process` does not expose a child's resource usage, so the child
//! is reaped with `wait4(2)`, which returns it for exactly that child.

use std::fs::File;
use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child resource usage through the 64-bit Linux wait4 ABI");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps `pid`, returning its wait status and peak RSS in KiB.
fn reap(pid: u32) -> Result<(i32, u64), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage {
        _utime: [0; 2],
        _stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the 64-bit Linux ABI expects (checked by the cfg above); `pid` is
        // our own unreaped child, so wait4 touches no other process state.
        let ret = unsafe { wait4(pid, &raw mut status, 0, &raw mut usage) };
        if ret == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// What one child run produced.
#[derive(Debug)]
pub struct Exit {
    /// Spawn-to-reap wall time in seconds.
    pub wall_s: f64,
    /// The exit code; a signal death is an error instead.
    pub code: i32,
    /// Everything the child wrote to standard output.
    pub stdout: Vec<u8>,
    /// The child's peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

/// Runs `program args…` with standard error sent to `stderr_log`.
///
/// # Errors
///
/// The child cannot be spawned, its output cannot be read, or it died from
/// a signal.
pub fn run(program: &Path, args: &[&str], stderr_log: &Path) -> Result<Exit, String> {
    let log = File::create(stderr_log)
        .map_err(|e| format!("cannot create {}: {e}", stderr_log.display()))?;
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .map_or(Ok(0), |mut pipe| pipe.read_to_end(&mut stdout));
    if let Err(e) = read {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("reading {} output: {e}", program.display()));
    }
    // The child is reaped here, so its `Child` handle is never waited on.
    let (status, rss_kib) = reap(child.id())?;
    let wall_s = started.elapsed().as_secs_f64();
    if status & 0x7f != 0 {
        return Err(format!(
            "{} {} died from signal {}",
            program.display(),
            args.join(" "),
            status & 0x7f
        ));
    }
    Ok(Exit {
        wall_s,
        code: (status >> 8) & 0xff,
        stdout,
        peak_rss_mb: rss_kib as f64 / 1024.0,
    })
}

/// This process's own peak resident set size (`VmHWM`) in MiB.
#[must_use]
pub fn self_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
