//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts under the
//! neighbours' load: on a 2-vCPU container one hot-read run moved between
//! 2.1M and 4.1M blocks/s in stretches of seconds, a fixed spin loop took
//! from 1.4 to 4.2 ns per iteration between runs, and the hypervisor took
//! up to 16% of a thread's wall time away (steal). Two corrections follow.
//!
//! * Speed: every timed thread runs a short fixed reference kernel between
//!   its intervals of work, and each interval is scaled by [`NOMINAL_NS`]
//!   over the kernel time measured on both sides of it.
//! * Time taken away: an interval in which the thread never gave up its
//!   CPU on its own (no voluntary context switch) counts only the CPU time
//!   the thread got; an interval in which it blocked (a lock, I/O) counts
//!   its wall time, since the waiting belongs to the program.
//!
//! A scaled time reads as the interval would on a host where one reference
//! pass takes [`NOMINAL_NS`] and nothing else runs. The kernel is the
//! benchmark's own code: no change to the measured crates can move it. The
//! host line keeps the unscaled figures.

use std::time::{Duration, Instant};

/// Words of the table the kernel walks: 256 KiB, the size of a core's
/// L2 and of the hot working sets the workloads keep there.
const TABLE_WORDS: usize = 1 << 15;

/// Steps of one reference pass.
const PASS_STEPS: usize = 1 << 13;

/// Passes per measurement; their median is kept, so an interrupt that
/// lands in one pass, or a first pass over a table the work evicted,
/// does not read as a slow host.
const PASSES: usize = 5;

/// Nanoseconds of one reference pass on the nominal host: the median
/// measured on a 2-vCPU x86-64 container at the time the benchmark was
/// defined.
pub const NOMINAL_NS: f64 = 77_000.0;

/// Longest stretch of `mem-*` work between two measurements.
pub const WINDOW: Duration = Duration::from_millis(25);

/// One thread's reference kernel.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
    /// The factor measured last.
    last: f64,
}

impl Calibrator {
    /// A calibrator with its table resident, measured once.
    pub fn new() -> Calibrator {
        let mut cal = Calibrator {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 0x5EED,
            last: 1.0,
        };
        cal.measure();
        cal
    }

    /// One fixed pass: a SplitMix64 chain whose outputs pick dependent
    /// loads, data-dependent branches and stores in the table.
    fn pass(&mut self) -> u64 {
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..PASS_STEPS {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let i = ((z ^ acc) as usize) & (TABLE_WORDS - 1);
            let v = self.table[i];
            acc = if v & 1 == 0 {
                acc.wrapping_add(v)
            } else {
                acc ^ v.rotate_left(13)
            };
            self.table[i] = v ^ z;
        }
        self.state = x;
        acc
    }

    /// Measures the host now and returns its speed factor: [`NOMINAL_NS`]
    /// over the median pass time, above 1 on a host faster than nominal.
    pub fn measure(&mut self) -> f64 {
        let mut ns = [0f64; PASSES];
        for slot in &mut ns {
            let t0 = Instant::now();
            std::hint::black_box(self.pass());
            *slot = t0.elapsed().as_nanos() as f64;
        }
        ns.sort_by(f64::total_cmp);
        self.last = NOMINAL_NS / ns[PASSES / 2].max(1.0);
        self.last
    }

    /// The factor of the interval since the last measurement: the mean
    /// of the measurements on both sides of it.
    pub fn interval_factor(&mut self) -> f64 {
        let before = self.last;
        (before + self.measure()) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; RUSAGE_WORDS]) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Linux `RUSAGE_THREAD`.
const RUSAGE_THREAD: i32 = 1;

/// `struct rusage` on 64-bit Linux in 64-bit words: two `timeval`s, then
/// fourteen `long` counters.
const RUSAGE_WORDS: usize = 18;

/// Word index of `ru_nvcsw`, the voluntary context switches.
const RU_NVCSW: usize = 16;

/// The calling thread's CPU nanoseconds and voluntary context switches,
/// or `None` when the kernel does not report them.
fn thread_clock() -> Option<(u64, i64)> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let mut usage = [0i64; RUSAGE_WORDS];
    // SAFETY: each call writes only into its out-parameter, which is
    // exclusively borrowed and laid out as the kernel's `struct timespec`
    // and `struct rusage` on 64-bit Linux.
    let ok = unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) == 0
            && getrusage(RUSAGE_THREAD, &mut usage) == 0
    };
    let cpu_ns = u64::try_from(ts.sec).ok()? * 1_000_000_000 + u64::try_from(ts.nsec).ok()?;
    ok.then_some((cpu_ns, usage[RU_NVCSW]))
}

/// What an interval of work on one thread took, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Took {
    /// Wall time.
    pub wall_ns: f64,
    /// The thread's CPU time.
    pub cpu_ns: f64,
    /// The time that counts: the CPU time when the thread never blocked
    /// on its own in the interval, else the wall time.
    pub busy_ns: f64,
}

/// The start of an interval of work on the calling thread.
#[derive(Clone, Copy)]
pub struct Mark {
    /// Wall-clock start.
    pub at: Instant,
    clock: Option<(u64, i64)>,
}

impl Mark {
    /// Starts an interval now.
    pub fn now() -> Mark {
        let clock = thread_clock();
        Mark {
            at: Instant::now(),
            clock,
        }
    }

    /// Ends the interval; call it on the thread that started it.
    pub fn end(&self) -> Took {
        let wall_ns = self.at.elapsed().as_nanos() as f64;
        let (cpu_ns, blocked) = match (self.clock, thread_clock()) {
            (Some((cpu0, vol0)), Some((cpu1, vol1))) => {
                (cpu1.saturating_sub(cpu0) as f64, vol1 != vol0)
            }
            _ => (wall_ns, true),
        };
        Took {
            wall_ns,
            cpu_ns,
            busy_ns: if blocked {
                wall_ns
            } else {
                cpu_ns.min(wall_ns)
            },
        }
    }
}

/// Raw and scaled time summed over intervals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scaled {
    /// Host wall nanoseconds.
    pub raw_ns: f64,
    /// Busy nanoseconds scaled to the nominal host.
    pub ns: f64,
    /// CPU nanoseconds scaled to the nominal host.
    pub cpu_ns: f64,
}

impl Scaled {
    /// Adds an interval at speed `factor`.
    pub fn add(&mut self, took: Took, factor: f64) {
        self.raw_ns += took.wall_ns;
        self.ns += took.busy_ns * factor;
        self.cpu_ns += took.cpu_ns * factor;
    }

    /// Scaled over raw time (1 when nothing was added): above 1 on a host
    /// faster than nominal, lower the more time the host took away.
    pub fn factor(&self) -> f64 {
        if self.raw_ns == 0.0 {
            1.0
        } else {
            self.ns / self.raw_ns
        }
    }
}

impl std::iter::Sum for Scaled {
    fn sum<I: Iterator<Item = Scaled>>(iter: I) -> Scaled {
        iter.fold(Scaled::default(), |a, b| Scaled {
            raw_ns: a.raw_ns + b.raw_ns,
            ns: a.ns + b.ns,
            cpu_ns: a.cpu_ns + b.cpu_ns,
        })
    }
}

/// Runs `work` between two measurements of the host and returns its
/// result with its scaled and its raw seconds.
pub fn timed<T>(cal: &mut Calibrator, work: impl FnOnce() -> T) -> (T, f64, f64) {
    cal.measure();
    let mark = Mark::now();
    let out = work();
    let took = mark.end();
    let factor = cal.interval_factor();
    (out, took.busy_ns * factor / 1e9, took.wall_ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_measurement_is_a_positive_finite_factor() {
        let mut cal = Calibrator::new();
        let f = cal.measure();
        assert!(f.is_finite() && f > 0.0);
        let g = cal.interval_factor();
        assert!(g.is_finite() && g > 0.0);
    }

    #[test]
    fn a_running_thread_counts_its_cpu_time_and_a_sleeping_one_its_wall_time() {
        let mark = Mark::now();
        let spin: u64 = (0..2_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(spin);
        let ran = mark.end();
        assert!(ran.cpu_ns > 0.0 && ran.busy_ns <= ran.wall_ns);
        let mark = Mark::now();
        std::thread::sleep(Duration::from_millis(5));
        let slept = mark.end();
        assert_eq!(
            slept.busy_ns, slept.wall_ns,
            "a sleep is a voluntary switch"
        );
        assert!(slept.cpu_ns < slept.wall_ns);
    }

    #[test]
    fn scaled_sums_weight_the_factor_by_time() {
        let took = |wall_ns, busy_ns| Took {
            wall_ns,
            cpu_ns: busy_ns,
            busy_ns,
        };
        let mut s = Scaled::default();
        assert_eq!(s.factor(), 1.0);
        s.add(took(100.0, 100.0), 2.0);
        s.add(took(300.0, 150.0), 2.0);
        assert_eq!((s.raw_ns, s.ns, s.cpu_ns), (400.0, 500.0, 500.0));
        assert_eq!(s.factor(), 1.25);
        let total: Scaled = [s, s].into_iter().sum();
        assert_eq!((total.raw_ns, total.ns), (800.0, 1000.0));
    }
}
