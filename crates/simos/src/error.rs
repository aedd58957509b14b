//! Error types for the simulated OS.
//!
//! The substrate distinguishes three failure layers, mirroring Linux:
//!
//! * [`Errno`] — a syscall failed in an ordinary, recoverable way
//!   (`ENOENT`, `EBADF`, ...). The process keeps running.
//! * [`Fault`] — the process performed an illegal memory access (or was
//!   killed by the seccomp filter). The kernel marks it crashed, exactly
//!   like a `SIGSEGV`/`SIGSYS` delivery with default disposition.
//! * [`SimError`] — the *simulation* was misused (unknown pid, dead
//!   process, unknown channel). These indicate harness bugs, not simulated
//!   program behaviour.

use crate::mem::Addr;
use crate::process::Pid;
use crate::syscall::SyscallNo;
use std::fmt;

/// POSIX-style error numbers returned by failed syscalls.
///
/// Only the values the simulated frameworks actually produce are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Errno {
    /// No such file or directory.
    Enoent,
    /// Bad file descriptor.
    Ebadf,
    /// Permission denied.
    Eacces,
    /// Invalid argument.
    Einval,
    /// Operation not permitted (e.g. locked filter reconfiguration).
    Eperm,
    /// Resource temporarily unavailable (e.g. empty ring buffer).
    Eagain,
    /// No space left (ring buffer full, fs quota).
    Enospc,
    /// Function not implemented on this device/fd.
    Enosys,
    /// Out of memory: the process's page budget is spent (`RLIMIT_AS`).
    Enomem,
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Errno::Enoent => "ENOENT",
            Errno::Ebadf => "EBADF",
            Errno::Eacces => "EACCES",
            Errno::Einval => "EINVAL",
            Errno::Eperm => "EPERM",
            Errno::Eagain => "EAGAIN",
            Errno::Enospc => "ENOSPC",
            Errno::Enosys => "ENOSYS",
            Errno::Enomem => "ENOMEM",
        };
        f.write_str(name)
    }
}

impl std::error::Error for Errno {}

/// Why a process was forcibly terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Access to an unmapped address (classic wild pointer).
    Unmapped,
    /// Access violating page permissions (e.g. write to read-only page).
    ///
    /// This is the fault FreePart's temporal permissions are designed to
    /// induce when an exploit writes protected data.
    Protection,
    /// The seccomp-style filter rejected a syscall (`SIGSYS`).
    SyscallDenied(SyscallNo),
    /// The process deliberately aborted (e.g. a DoS payload).
    Abort,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Unmapped => write!(f, "segfault (unmapped)"),
            FaultKind::Protection => write!(f, "segfault (protection)"),
            FaultKind::SyscallDenied(no) => write!(f, "SIGSYS (denied syscall {no:?})"),
            FaultKind::Abort => write!(f, "abort"),
        }
    }
}

/// A delivered fatal fault: which process died, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The faulting process.
    pub pid: Pid,
    /// Fault classification.
    pub kind: FaultKind,
    /// Faulting address, when the fault is memory-related.
    pub addr: Option<Addr>,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process {} killed: {}", self.pid, self.kind)?;
        if let Some(a) = self.addr {
            write!(f, " at {a}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Fault {}

/// Top-level error type for all kernel entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A syscall returned an errno; the process continues.
    Errno(Errno),
    /// The process crashed; it is now [`ProcessState::Crashed`].
    ///
    /// [`ProcessState::Crashed`]: crate::process::ProcessState::Crashed
    Fault(Fault),
    /// The pid does not exist.
    NoSuchProcess(Pid),
    /// The target process is not running (crashed or exited).
    ProcessDead(Pid),
    /// The IPC channel id does not exist or the caller is not an endpoint.
    BadChannel,
}

impl SimError {
    /// Returns the contained fault, if this error is a crash.
    pub fn as_fault(&self) -> Option<&Fault> {
        match self {
            SimError::Fault(f) => Some(f),
            _ => None,
        }
    }

    /// True when the error is a process crash (segfault / SIGSYS / abort).
    pub fn is_fault(&self) -> bool {
        matches!(self, SimError::Fault(_))
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Errno(e) => write!(f, "syscall failed: {e}"),
            SimError::Fault(fault) => fault.fmt(f),
            SimError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            SimError::ProcessDead(pid) => write!(f, "process not running: {pid}"),
            SimError::BadChannel => f.write_str("bad ipc channel"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<Errno> for SimError {
    fn from(e: Errno) -> Self {
        SimError::Errno(e)
    }
}

impl From<Fault> for SimError {
    fn from(f: Fault) -> Self {
        SimError::Fault(f)
    }
}

/// Convenience alias used across the substrate.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_display_matches_posix_names() {
        assert_eq!(Errno::Enoent.to_string(), "ENOENT");
        assert_eq!(Errno::Eperm.to_string(), "EPERM");
    }

    #[test]
    fn fault_display_includes_pid_and_kind() {
        let f = Fault {
            pid: Pid(3),
            kind: FaultKind::Protection,
            addr: Some(Addr(0x1000)),
        };
        let s = f.to_string();
        assert!(s.contains("process 3"), "{s}");
        assert!(s.contains("protection"), "{s}");
    }

    #[test]
    fn sim_error_fault_accessors() {
        let f = Fault {
            pid: Pid(1),
            kind: FaultKind::Abort,
            addr: None,
        };
        let e = SimError::from(f.clone());
        assert!(e.is_fault());
        assert_eq!(e.as_fault(), Some(&f));
        assert!(!SimError::from(Errno::Einval).is_fault());
    }
}
