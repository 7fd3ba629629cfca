//! The process's `ITIMER_PROF` timer and its `SIGPROF` handler: the only
//! `unsafe` code in the workspace, two libc calls std already links.
//!
//! The timer counts the process's CPU time and is armed while at least
//! one thread profiles. Switching profiling off does not disarm it:
//! the handler does, at the first tick that finds no thread profiling.
//! Profiling is switched on and off often (a traced benchmark repetition
//! runs one virtual millisecond at a time, each a fraction of a tick in
//! host time), and Linux adds a tick to every value a timer is armed
//! with, so that it never fires early: a timer re-armed at every switch
//! would never fire at all.
//!
//! Linux only (the signal number and the timer id are Linux's);
//! elsewhere the timer is never armed and a report holds no samples.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

/// Threads with profiling on.
static PROFILING: AtomicUsize = AtomicUsize::new(0);
/// Whether the timer is armed. Whoever flips it to `true` arms it.
static ARMED: AtomicBool = AtomicBool::new(false);

/// A thread switched profiling on: arm the timer unless it is armed.
pub(crate) fn thread_on() {
    PROFILING.fetch_add(1, SeqCst);
    if !ARMED.swap(true, SeqCst) {
        install();
        set(true);
    }
}

/// A thread switched profiling off; the next tick disarms the timer if
/// it was the last.
pub(crate) fn thread_off() {
    PROFILING.fetch_sub(1, SeqCst);
}

#[cfg(target_os = "linux")]
use linux::{install, set};

#[cfg(not(target_os = "linux"))]
fn install() {}

#[cfg(not(target_os = "linux"))]
fn set(_armed: bool) {}

#[cfg(target_os = "linux")]
mod linux {
    use super::{ARMED, PROFILING};
    use std::ffi::{c_int, c_long};
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Once;

    /// Sampling interval in CPU time. Linux delivers the signal on a
    /// kernel tick, so the interval is rounded up to it: 4 ms, 250
    /// samples a second, at `HZ=250`.
    const INTERVAL_US: c_long = 1000;

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    }

    /// Books the sample, and disarms the timer if no thread profiles. A
    /// thread that switched profiling on meanwhile either saw the timer
    /// armed, and is seen here and re-armed for, or flips `ARMED` back
    /// itself after this disarm and arms it.
    extern "C" fn on_sigprof(_: c_int) {
        crate::profiler::tick();
        if PROFILING.load(SeqCst) == 0 {
            set(false);
            ARMED.store(false, SeqCst);
            if PROFILING.load(SeqCst) > 0 && !ARMED.swap(true, SeqCst) {
                set(true);
            }
        }
    }

    /// Installs the `SIGPROF` handler, once per process, before the
    /// timer is first armed: the signal's default action ends the process.
    pub(super) fn install() {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            // SAFETY: `on_sigprof` is async-signal-safe: it reads and
            // bumps const-initialised thread-locals that have no
            // destructor and process-wide atomics, and makes at most two
            // `setitimer` system calls; it allocates nothing, borrows no
            // `RefCell` and takes no lock. glibc's `signal` installs it
            // with `SA_RESTART`, so a sample does not fail a blocking call.
            let old = unsafe { signal(SIGPROF, on_sigprof) };
            assert_ne!(old, usize::MAX, "cannot install the SIGPROF handler");
        });
    }

    /// Arms the timer to fire every [`INTERVAL_US`] of CPU time, or
    /// disarms it.
    pub(super) fn set(armed: bool) {
        let every = Timeval {
            sec: 0,
            usec: if armed { INTERVAL_US } else { 0 },
        };
        let new = Itimerval {
            interval: every,
            value: every,
        };
        // SAFETY: `new` is a live `itimerval` laid out as the C struct
        // (two `long` pairs on Linux), and a null old value is allowed.
        let rc = unsafe { setitimer(ITIMER_PROF, &new, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
    }
}
