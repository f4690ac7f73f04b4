//! Process resource usage: CPU time of every thread (the engine's PTI
//! daemon threads included) and peak resident set size, from one
//! `getrusage(RUSAGE_SELF)` call.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads struct rusage with the 64-bit Linux layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of the whole process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time over all threads, exited ones included.
    pub cpu: Duration,
    /// Peak resident set size in bytes.
    pub peak_rss: u64,
}

/// Reads the process's resource usage.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
/// valid buffer.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (checked at compile time
    // above), and getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &Timeval| {
        u64::try_from(t.sec).unwrap_or(0) * 1_000_000 + u64::try_from(t.usec).unwrap_or(0)
    };
    Usage {
        cpu: Duration::from_micros(micros(&ru.utime) + micros(&ru.stime)),
        peak_rss: u64::try_from(ru.counters[0]).unwrap_or(0) * 1024,
    }
}
