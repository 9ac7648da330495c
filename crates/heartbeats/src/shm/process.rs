//! Process helpers: per-process retry jitter, and minimal fork/wait
//! helpers for cross-process tests and examples.
//!
//! [`jittered`] stretches a retry backoff by a deterministic per-process
//! amount; the client's attach retries and the supervisor's restart
//! backoff both use it.
//!
//! The fork-based test suite and `examples/shm_external_controller.rs`
//! need a real second process that inherits a shared mapping. These
//! helpers wrap `fork`/`waitpid`/`kill` so those call sites stay free of
//! raw FFI. A [`ForkedChild`] that is dropped without being waited for
//! is killed and reaped, so a panicking parent never leaves an orphan.
//!
//! **Constraints on the child closure.** `fork` in a (potentially)
//! multi-threaded process clones only the calling thread; locks held by
//! other threads stay locked forever in the child. The closure must
//! therefore avoid anything that may take a process-global lock — heap
//! allocation included. The shm producer path satisfies this by design:
//! attach and `try_push` allocate nothing on success. The child never
//! returns to the caller: it exits via `_exit`, skipping destructors and
//! (deliberately) leaving its PID claimed in any attached segment, exactly
//! like a real crashed application.

#[cfg(unix)]
use std::os::raw::c_int;
use std::time::Duration;

#[cfg(unix)]
use crate::shm::error::ShmError;
use crate::shm::segment::{current_pid, process_start_nonce};

/// Deterministic per-process jitter in permille of a backoff interval
/// (0..=250, i.e. up to a 25% stretch), mixed from the process identity
/// (PID plus its kernel start-time nonce) and the attempt index — no RNG
/// dependency, yet processes orphaned by the same daemon crash
/// desynchronize their retry storms instead of hammering the restarted
/// daemon in phase.
fn jitter_permille(attempt: u32) -> u128 {
    let pid = current_pid();
    let mut x = (u64::from(pid) << 32)
        ^ process_start_nonce(pid).unwrap_or(0)
        ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer: avalanche the structured inputs.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    u128::from(x % 251)
}

/// `base` stretched by this process's jitter for the given attempt: at
/// least `base`, at most `base + base / 4`, and the same for the same
/// process and attempt.
pub fn jittered(base: Duration, attempt: u32) -> Duration {
    let extra = base.as_nanos().saturating_mul(jitter_permille(attempt)) / 1000;
    base + Duration::from_nanos(extra.min(u128::from(u64::MAX)) as u64)
}

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    pub const SIGKILL: c_int = 9;

    extern "C" {
        pub fn fork() -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn _exit(code: c_int) -> !;
    }
}

/// How a forked child terminated.
#[cfg(unix)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildExit {
    /// `_exit(code)`.
    Exited(i32),
    /// Killed by a signal.
    Signaled(i32),
}

/// A forked child process. Dropping it before [`ForkedChild::wait`]
/// kills and reaps the child.
#[cfg(unix)]
#[derive(Debug)]
pub struct ForkedChild {
    pid: c_int,
    /// The forking process. Only it may kill the child on drop: a forked
    /// copy of the parent's memory must never signal its sibling.
    parent: u32,
    /// Set once `waitpid` has reaped the child; its PID may then belong
    /// to an unrelated process, so drop must not signal it.
    reaped: bool,
}

/// Forks; the child runs `child` and `_exit`s with its return value, the
/// parent gets a [`ForkedChild`] to wait on or kill.
///
/// See the module docs for what `child` may safely do.
///
/// # Errors
///
/// Returns [`ShmError::Io`] when `fork` fails.
#[cfg(unix)]
pub fn fork_child(child: impl FnOnce() -> i32) -> Result<ForkedChild, ShmError> {
    // SAFETY: fork itself is always sound to call; the constraints on what
    // the child may do are documented on this function and the module.
    match unsafe { sys::fork() } {
        -1 => Err(ShmError::Io {
            op: "fork",
            source: std::io::Error::last_os_error(),
        }),
        0 => {
            let code = child();
            // SAFETY: terminating the child without unwinding into the
            // cloned parent state is exactly what `_exit` is for.
            unsafe { sys::_exit(code) }
        }
        pid => Ok(ForkedChild {
            pid,
            parent: current_pid(),
            reaped: false,
        }),
    }
}

#[cfg(unix)]
impl ForkedChild {
    /// The child's PID (as stored in segment headers).
    pub fn pid(&self) -> u32 {
        self.pid as u32
    }

    /// Blocks until the child terminates and reports how.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when `waitpid` fails.
    pub fn wait(mut self) -> Result<ChildExit, ShmError> {
        let status = self.reap()?;
        // POSIX status decoding: low 7 bits are the terminating signal
        // (0 = normal exit), the next byte is the exit code.
        if status & 0x7f == 0 {
            Ok(ChildExit::Exited((status >> 8) & 0xff))
        } else {
            Ok(ChildExit::Signaled(status & 0x7f))
        }
    }

    /// `waitpid` on the child, returning its raw status.
    fn reap(&mut self) -> Result<c_int, ShmError> {
        let mut status: c_int = 0;
        // SAFETY: `pid` is a child of this process that has not been
        // reaped yet (`reaped` is only set below).
        if unsafe { sys::waitpid(self.pid, &mut status, 0) } == -1 {
            return Err(ShmError::Io {
                op: "waitpid",
                source: std::io::Error::last_os_error(),
            });
        }
        self.reaped = true;
        Ok(status)
    }

    /// Sends the child `SIGKILL` (the "application crashed mid-stream"
    /// fault the reap tests inject). Call [`ForkedChild::wait`] afterwards
    /// to release the zombie.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when `kill` fails.
    pub fn kill(&self) -> Result<(), ShmError> {
        // SAFETY: signalling our own child.
        if unsafe { sys::kill(self.pid, sys::SIGKILL) } == -1 {
            return Err(ShmError::Io {
                op: "kill",
                source: std::io::Error::last_os_error(),
            });
        }
        Ok(())
    }
}

#[cfg(unix)]
impl Drop for ForkedChild {
    /// Kills and reaps a child nobody waited for (a test that panicked
    /// between fork and `wait`), so it neither outlives the test run nor
    /// keeps inherited pipes open.
    fn drop(&mut self) {
        // Reap only after a successful kill: `waitpid` on a child that
        // is still running would block the drop forever.
        if !self.reaped && current_pid() == self.parent && self.kill().is_ok() {
            let _ = self.reap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for attempt in 0..64 {
            let permille = jitter_permille(attempt);
            assert!(permille <= 250, "attempt {attempt}: {permille} > 250");
            assert_eq!(permille, jitter_permille(attempt), "must be replayable");
        }
        let base = Duration::from_millis(100);
        for attempt in 0..16u32 {
            let j = jittered(base, attempt);
            assert_eq!(j, jittered(base, attempt), "same inputs, same stretch");
            assert!(j >= base, "jitter only extends the backoff");
            assert!(
                j <= base + base / 4,
                "stretch is capped at 25% (got {j:?} for attempt {attempt})"
            );
        }
        // The permille value actually varies across attempts (the mix is
        // not degenerate): 16 attempts hitting one value is ~250^-15.
        let first = jitter_permille(0);
        assert!(
            (1..16).any(|attempt| jitter_permille(attempt) != first),
            "jitter must depend on the attempt index"
        );
    }

    #[cfg(unix)]
    #[test]
    fn child_exit_code_is_reported() {
        let child = fork_child(|| 7).unwrap();
        assert!(child.pid() > 0);
        assert_eq!(child.wait().unwrap(), ChildExit::Exited(7));
    }

    #[cfg(unix)]
    #[test]
    fn killed_child_is_reported_as_signaled() {
        let child = fork_child(|| loop {
            std::hint::spin_loop();
        })
        .unwrap();
        child.kill().unwrap();
        assert_eq!(child.wait().unwrap(), ChildExit::Signaled(sys::SIGKILL));
    }

    #[cfg(unix)]
    #[test]
    fn dropping_an_unwaited_child_kills_and_reaps_it() {
        let child = fork_child(|| loop {
            std::hint::spin_loop();
        })
        .unwrap();
        let pid = child.pid();
        assert!(crate::shm::pid_alive(pid));
        drop(child);
        // Reaped, not a zombie: the PID no longer names any process.
        assert!(!crate::shm::pid_alive(pid), "child {pid} outlived its drop");
    }
}
