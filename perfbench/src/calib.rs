//! Host-speed calibration.
//!
//! On shared hosts the speed of one vCPU drifts by up to 1.7× over
//! seconds to minutes as neighbours load the machine, and a 30 s run can
//! sit wholly in a slow or a fast phase. A fixed integer dot-product loop
//! owned by the benchmark slows down in step with the mixq kernels (the
//! ratio of their rates held within 0.4 % while the walk's rate moved by
//! 40 %), so every run interleaves short slices of it with the measured
//! work and reports host times scaled to the nominal speed of that loop.
//! A change to mixq moves the measured work and not the loop; a change of
//! host phase moves both. Raw times are printed alongside.
//!
//! Serial work is timed on the process's CPU clock ([`Clock::Cpu`]),
//! which leaves out the time the process spends preempted or, on a
//! paravirtualized guest, stolen by the hypervisor: such stalls last
//! milliseconds, land on a random few percent of the calls in a busy
//! phase, and moved a run's p99 by up to 30 % on the wall clock. Work
//! moved to another thread of the process still counts.

use std::ffi::c_int;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// A clock for the benchmark's busy work, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// CPU time of the whole process: for work that runs on one thread
    /// at a time.
    Cpu,
    /// The wall clock: for a walk split across a thread pool, whose
    /// threads run at once.
    Wall,
}

impl Clock {
    /// The clock that times work spread over `threads` threads.
    pub fn for_threads(threads: usize) -> Clock {
        if threads <= 1 {
            Clock::Cpu
        } else {
            Clock::Wall
        }
    }

    /// The current reading, ns.
    pub fn now(self) -> u64 {
        match self {
            Clock::Cpu => cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID),
            Clock::Wall => {
                static ORIGIN: OnceLock<Instant> = OnceLock::new();
                ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
        }
    }

    /// Nanoseconds since the reading `start`.
    pub fn since(self, start: u64) -> f64 {
        self.now().saturating_sub(start) as f64
    }
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Reads a Linux CPU-time clock, ns.
#[cfg(target_os = "linux")]
fn cpu_clock_ns(clock: c_int) -> u64 {
    use std::ffi::c_long;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` for
    // the call to write, and both clock ids are ones Linux always has.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere the CPU-time clocks fall back to the wall clock.
#[cfg(not(target_os = "linux"))]
fn cpu_clock_ns(_clock: c_int) -> u64 {
    Clock::Wall.now()
}

/// Calibration passes per second at nominal host speed (the loop's rate
/// on an unloaded 2-vCPU x86-64 host with AVX2). It only fixes the unit:
/// scaled times read as they would at this speed.
const NOMINAL_PASSES_PER_S: f64 = 86_000.0;

/// Bytes per operand: both operands stay in L1/L2, like the kernels'.
const LEN: usize = 64 * 1024;

/// Passes per slice: about 4 ms at nominal speed.
const SLICE_PASSES: usize = 256;

/// The calibration loop's operands.
pub struct Calibrator {
    a: Vec<u8>,
    b: Vec<u8>,
}

#[inline(never)]
fn dot(a: &[u8], b: &[u8]) -> i32 {
    a.iter().zip(b).fold(0i32, |acc, (&x, &y)| {
        acc.wrapping_add(i32::from(x) * i32::from(y))
    })
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            a: (0..LEN).map(|i| (i * 7 % 251) as u8).collect(),
            b: (0..LEN).map(|i| (i * 13 % 241) as u8).collect(),
        }
    }

    /// Host speed relative to nominal (1.0 = nominal, 0.6 = a slow phase)
    /// from one slice on this thread, timed on the thread's CPU clock.
    pub fn speed(&self) -> f64 {
        let t = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
        let mut s = 0i32;
        for _ in 0..SLICE_PASSES {
            s = s.wrapping_add(dot(black_box(&self.a), black_box(&self.b)));
        }
        black_box(s);
        SLICE_PASSES as f64 / (cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID).saturating_sub(t) as f64 * 1e-9) / NOMINAL_PASSES_PER_S
    }

    /// Host speed over `threads` threads running a slice at once, as the
    /// slowest of them: a walk split across threads waits for its slowest
    /// part.
    pub fn speed_on(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.speed();
        }
        std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(|| self.speed())).collect();
            let mine = self.speed();
            others
                .into_iter()
                .map(|h| h.join().expect("calibration thread does not panic"))
                .fold(mine, f64::min)
        })
    }
}
