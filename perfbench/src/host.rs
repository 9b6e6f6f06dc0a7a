//! Host counters — process CPU time (the stopwatch host times are taken
//! with) and, from procfs, peak resident set size; Linux only,
//! elsewhere they read as unavailable — and the gauge host times are
//! scaled by.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// CPU time of this process so far — every thread, live or exited —
/// nanoseconds, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
///
/// The scheduler's run-time clock leaves out time the hypervisor stole
/// from the VM and time a thread spent waiting for a core, so on a
/// shared host it counts the stack's own work where wall time also
/// counts the co-tenants'. The C library is linked into every Rust
/// program on Linux, so this needs no crate.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> Option<u64> {
    /// `struct timespec` where `time_t` and `long` are 64 bits.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    (rc == 0).then(|| t.sec as u64 * 1_000_000_000 + t.nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> Option<u64> {
    None
}

/// Measures host time: process CPU time ([`cpu_ns`]) where the platform
/// provides it, wall time elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu: Option<u64>,
    wall: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu, cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1.0e9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Host time one [`Gauge`] reading takes on the nominal host,
/// nanoseconds: about its median on an idle 2-core cloud VM, so scaled
/// times stay close to raw ones on such a host.
pub const GAUGE_NOMINAL_NS: f64 = 2_000_000.0;

/// Activation rows, contraction and output width of the gauge's GEMM.
const GAUGE_ROWS: usize = 16;
const GAUGE_K: usize = 192;
const GAUGE_N: usize = 192;
/// Entries of the gauge's table (2 MiB, more than L2 holds) and loads
/// of one walk over it.
const GAUGE_TABLE: usize = 1 << 19;
const GAUGE_WALK: usize = 1 << 14;

/// A fixed piece of CPU work, timed between the stack's calls as a
/// gauge of how fast the shared host runs at the moment.
///
/// Co-tenants of a shared host slow every instruction by tens of
/// percent for minutes at a time, so raw host times of one build differ
/// that much between runs. The benchmark reads the gauge throughout a
/// run and reports host times scaled by the gauge's median over
/// [`GAUGE_NOMINAL_NS`]: seconds of a host on which the gauge takes its
/// nominal time. The work mixes what the stack spends its time on — f32
/// multiply-adds over a weight-sized matrix, `exp` as in softmax, and
/// dependent loads over a table larger than L2 as in KV reads — and is
/// the benchmark's own code, so no change to the stack moves it.
pub struct Gauge {
    x: Vec<f32>,
    w: Vec<f32>,
    y: Vec<f32>,
    table: Vec<u32>,
}

fn xorshift(s: &mut u32) -> u32 {
    *s ^= *s << 13;
    *s ^= *s >> 17;
    *s ^= *s << 5;
    *s
}

fn unit(s: &mut u32) -> f32 {
    (xorshift(s) % 2001) as f32 / 1000.0 - 1.0
}

impl Default for Gauge {
    /// The gauge's inputs are fixed, not seeded: every run times the
    /// same work.
    fn default() -> Gauge {
        let mut s = 0x9E37_79B9u32;
        Gauge {
            x: (0..GAUGE_ROWS * GAUGE_K).map(|_| unit(&mut s)).collect(),
            w: (0..GAUGE_K * GAUGE_N)
                .map(|_| unit(&mut s) * 0.05)
                .collect(),
            y: vec![0.0; GAUGE_ROWS * GAUGE_N],
            table: (0..GAUGE_TABLE)
                .map(|_| xorshift(&mut s) & (GAUGE_TABLE as u32 - 1))
                .collect(),
        }
    }
}

impl Gauge {
    /// Runs the work once; returns its host time ([`Stopwatch`]),
    /// nanoseconds.
    pub fn time_ns(&mut self) -> f64 {
        let start = Stopwatch::start();
        let x = black_box(&self.x);
        let w = black_box(&self.w);
        for (x, y) in x
            .chunks_exact(GAUGE_K)
            .zip(self.y.chunks_exact_mut(GAUGE_N))
        {
            y.fill(0.0);
            for (&a, w) in x.iter().zip(w.chunks_exact(GAUGE_N)) {
                for (y, &w) in y.iter_mut().zip(w) {
                    *y += a * w;
                }
            }
        }
        let max = self.y.iter().copied().fold(f32::MIN, f32::max);
        let sum: f32 = self.y.iter().map(|&v| (v - max).exp()).sum();
        let table = black_box(&self.table);
        let mut j = 0usize;
        for i in 0..GAUGE_WALK {
            j = (table[j] as usize + i) & (GAUGE_TABLE - 1);
        }
        black_box((sum, j));
        start.elapsed_s() * 1.0e9
    }
}

/// Clock ticks per second `/proc/self/stat` counts CPU time in. Linux
/// has reported 100 to user space on every architecture since 2.6.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process so far, seconds.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

/// `utime + stime` from a `/proc/<pid>/stat` line, seconds. The command
/// name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime field 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// The `VmHWM:` line of `/proc/<pid>/status`, converted from KiB.
fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command() {
        let line = "1234 (a (weird) name) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(line), Some(3.0));
    }

    #[test]
    fn the_stopwatch_counts_work_and_not_sleep() {
        if cpu_ns().is_none() {
            return;
        }
        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(watch.elapsed_s() < 0.05);
        let mut gauge = Gauge::default();
        let watch = Stopwatch::start();
        let ns = gauge.time_ns();
        assert!(ns > 0.0 && watch.elapsed_s() * 1.0e9 >= ns);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t 9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn the_gauge_times_the_same_work_every_reading() {
        let mut a = Gauge::default();
        let b = Gauge::default();
        assert_eq!((&a.x, &a.w, &a.table), (&b.x, &b.w, &b.table));
        assert!(a.table.iter().all(|&j| (j as usize) < GAUGE_TABLE));
        assert!(a.time_ns() > 0.0);
        let y = a.y.clone();
        a.time_ns();
        assert_eq!(a.y, y);
    }

    #[test]
    fn live_counters_are_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
