//! Host-side measurement primitives: order statistics and the process
//! resource counters (`getrusage`) every run phase is bracketed with.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the e2e harness reads the 64-bit Linux `struct rusage` layout");

/// Median of `values` (mean of the two middle elements when even).
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a measured quantity.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Keeps the faster half of `operations` (rounded up), by `seconds`.
///
/// Whatever else the box runs only ever adds time to an operation, in
/// bursts that can outlast a third of a run, and the clock calibration
/// (`trace.rs`) sees only the part of it that slows a multiply chain. So
/// a run's slower half counts as disturbed and is checked but not timed:
/// statistics of the faster half repeat from run to run about twice as
/// closely as those of the whole (README, "The reference clock").
pub fn undisturbed_half<T>(mut operations: Vec<T>, seconds: impl Fn(&T) -> f64) -> Vec<T> {
    operations.sort_by(|a, b| seconds(a).total_cmp(&seconds(b)));
    operations.truncate(operations.len().div_ceil(2));
    operations
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Cumulative process-wide resource use (all threads, including ones
/// that already exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, µs.
    pub cpu_us: f64,
    /// System CPU time alone, µs.
    pub sys_us: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Samples the counters now.
    pub fn now() -> Usage {
        let mut ru = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            rest: [0; 14],
        };
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // the cfg gate above pins; RUSAGE_SELF (0) is always valid, so the
        // call only writes that struct.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let us = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
        Usage {
            cpu_us: us(ru.utime) + us(ru.stime),
            sys_us: us(ru.stime),
            ctx_switches: (ru.rest[12] + ru.rest[13]) as u64,
        }
    }

    /// Counters accumulated since `earlier`, CPU times scaled to the
    /// reference clock by `scale` (see `trace.rs`).
    pub fn since(&self, earlier: &Usage, scale: f64) -> Usage {
        Usage {
            cpu_us: (self.cpu_us - earlier.cpu_us) * scale,
            sys_us: (self.sys_us - earlier.sys_us) * scale,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set of this process, KiB: `VmHWM` of
/// `/proc/self/status`. (`ru_maxrss` will not do: it survives `exec`, so
/// a child reports its parent's peak when that was larger.)
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .expect("/proc/self/status reports VmHWM")
}
