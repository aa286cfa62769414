//! Process resource usage (CPU time and peak resident memory) via
//! `getrusage(2)`, which the standard library does not expose.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// This process's resource usage so far.
pub struct Usage {
    /// User plus system CPU time, summed over all threads.
    pub cpu: Duration,
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
}

/// Reads this process's resource usage.
pub fn usage() -> Usage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_SELF is a valid `who`; the call writes
    // only into `r`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        cpu: Duration::from_micros(micros(&r.utime) + micros(&r.stime)),
        max_rss_kib: r.maxrss as u64,
    }
}
