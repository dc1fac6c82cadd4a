//! Process counters: CPU time, context switches, syscall and byte counts,
//! and per-run peak RSS, read from `getrusage` and `/proc`.

use std::io;

/// `struct rusage` as the Linux ABI lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

const _: () = assert!(
    std::mem::size_of::<usize>() == 8,
    "rusage layout assumes 64-bit"
);

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
/// Indices into `RawRusage::counters` (after `ru_maxrss` at 0).
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// CPU time and context switches of a process (or of its reaped
/// children), as cumulative totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

fn rusage(who: i32) -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `RawRusage` whose layout matches
    // the kernel's `struct rusage` on 64-bit Linux (2 timevals + 14 longs),
    // so the call writes only inside it.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        cpu_s: secs(raw.utime) + secs(raw.stime),
        ctx_switches: (raw.counters[NVCSW] + raw.counters[NIVCSW]) as u64,
    }
}

/// Totals for this process, all threads included (exited ones too).
pub fn usage_self() -> Usage {
    rusage(RUSAGE_SELF)
}

/// Totals for every child this process has waited for.
pub fn usage_children() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

/// Read/write syscall and byte counts from `/proc/<pid>/io`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Io {
    /// `read`-family syscalls.
    pub syscr: u64,
    /// `write`-family syscalls.
    pub syscw: u64,
    /// Bytes passed to `read`-family syscalls.
    pub rchar: u64,
    /// Bytes passed to `write`-family syscalls.
    pub wchar: u64,
}

impl Io {
    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Io) -> Io {
        Io {
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
            rchar: self.rchar.saturating_sub(earlier.rchar),
            wchar: self.wchar.saturating_sub(earlier.wchar),
        }
    }

    /// Adds another delta to this one.
    pub fn add(&mut self, other: &Io) {
        self.syscr += other.syscr;
        self.syscw += other.syscw;
        self.rchar += other.rchar;
        self.wchar += other.wchar;
    }

    /// Read plus write syscalls.
    pub fn syscalls(&self) -> u64 {
        self.syscr + self.syscw
    }

    /// Mean bytes moved per syscall (0 when there were none).
    pub fn bytes_per_syscall(&self) -> f64 {
        let calls = self.syscalls();
        if calls == 0 {
            0.0
        } else {
            (self.rchar + self.wchar) as f64 / calls as f64
        }
    }
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// The `/proc/<pid>/io` counters (`None` = this process).
pub fn io(pid: Option<u32>) -> io::Result<Io> {
    let text = std::fs::read_to_string(proc_path(pid, "io"))?;
    let mut out = Io::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value: u64 = value.trim().parse().unwrap_or(0);
        match key {
            "syscr" => out.syscr = value,
            "syscw" => out.syscw = value,
            "rchar" => out.rchar = value,
            "wchar" => out.wchar = value,
            _ => {}
        }
    }
    Ok(out)
}

/// `VmHWM`, the peak resident set, in bytes (`None` = this process).
pub fn peak_rss_bytes(pid: Option<u32>) -> io::Result<u64> {
    let text = std::fs::read_to_string(proc_path(pid, "status"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Resets this process's `VmHWM` to its current RSS, so the next reading
/// covers only what runs after this call (`echo 5 > clear_refs`).
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
