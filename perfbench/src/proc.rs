//! Child processes: timed runs and peak resident memory.

use std::ffi::OsStr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `program` to completion with its output discarded; returns the
/// wall time from spawn to exit and whether it exited with code 0.
pub fn run_timed<I, S>(program: &std::path::Path, args: I) -> Result<(Duration, bool), String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<OsStr>,
{
    let started = Instant::now();
    let status = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("running {}: {e}", program.display()))?;
    Ok((started.elapsed(), status.success()))
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Largest resident set, in MiB, of any child this process has waited
/// for — Linux's `ru_maxrss` for `RUSAGE_CHILDREN`.
pub fn children_peak_rss_mb() -> Result<f64, String> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` (two timevals and
    // fourteen longs on 64-bit Linux), which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// A live process's peak resident set (`VmHWM`), in MiB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}
