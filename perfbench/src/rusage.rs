//! Process-wide resource counters from `getrusage(RUSAGE_SELF)`.
//!
//! `RUSAGE_SELF` sums every thread the process ever ran, including the
//! simulator's already-exited per-virtual-thread OS threads, which a
//! per-thread source such as `/proc/self/status` would miss. The counters
//! are process-wide, so a delta is attributable to one call only when
//! nothing else runs concurrently: callers sample around whole phases or
//! around calls made one at a time.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// (`ru_maxrss` first, `ru_nvcsw` and `ru_nivcsw` last).
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// One sample of the process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, in microseconds.
    pub cpu_us: i64,
    /// Peak resident set size, in KiB.
    pub max_rss_kb: i64,
    /// Voluntary context switches (the thread blocked or yielded).
    pub vcsw: i64,
    /// Involuntary context switches (the thread was preempted).
    pub ivcsw: i64,
}

impl Usage {
    /// Sample the counters now.
    pub fn now() -> Usage {
        let mut raw = RawRusage {
            utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            longs: [0; 14],
        };
        // SAFETY: `raw` is a live, writable value laid out as the 64-bit
        // Linux `struct rusage` (checked by the `compile_error!` gate
        // above), and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail on valid arguments"
        );
        let us = |t: Timeval| t.tv_sec * 1_000_000 + t.tv_usec;
        Usage {
            cpu_us: us(raw.utime) + us(raw.stime),
            max_rss_kb: raw.longs[0],
            vcsw: raw.longs[12],
            ivcsw: raw.longs[13],
        }
    }

    /// Counters accrued from `earlier` to `self` (the peak RSS is kept as
    /// sampled, since it is a high-water mark, not a sum).
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            max_rss_kb: self.max_rss_kb,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }
}
