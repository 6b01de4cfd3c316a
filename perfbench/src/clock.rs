//! The clock the end-to-end host timings use: CPU time of this process.
//!
//! On a host shared with other machines, wall time also counts the time
//! the scheduler and the hypervisor give to someone else; CPU time summed
//! over this process's threads does not (a paravirtualised kernel leaves
//! stolen time out of it), so repeated runs of the same code agree far more
//! closely. Work the program spreads over several threads is counted once
//! per thread, as the CPU time it costs.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time this process has used so far, in seconds.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A point on the process CPU clock.
#[derive(Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    pub fn now() -> Self {
        CpuInstant(cpu_s())
    }

    /// CPU seconds since `self`.
    pub fn elapsed_s(self) -> f64 {
        cpu_s() - self.0
    }
}
