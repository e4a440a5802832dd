//! What the standard library does not expose about a process: its CPU time
//! (rusage, for this process and for a reaped child) and its peak resident
//! set.

use std::io;
use std::process::Child;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds.
fn cpu_s(raw: &RawRusage) -> f64 {
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(raw.ru_utime) + secs(raw.ru_stime)
}

/// CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a properly aligned, writable `struct rusage` that
    // outlives the call; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    cpu_s(&raw)
}

/// Waits for `child` to exit and returns its exit status code (or -1 when
/// killed by a signal) with the CPU seconds it used. The child is reaped
/// here, so `Child::wait` must not be called on it afterwards.
pub fn wait_with_cpu(child: &Child) -> io::Result<(i32, f64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut raw = RawRusage::default();
    let mut status = 0i32;
    loop {
        // SAFETY: `status` and `raw` are valid, writable and outlive the
        // call; wait4 writes only into them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED / WEXITSTATUS.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok((code, cpu_s(&raw)))
}

/// Peak resident set (`VmHWM`) in MiB of this process (`None`) or of a
/// live child; `None` once the process is gone.
///
/// rusage's `ru_maxrss` would not do: execve folds the replaced image's
/// peak into it, so a child spawned by a large harness would report the
/// harness's peak.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
