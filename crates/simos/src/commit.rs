//! The kernel flight recorder: an append-only commit log of every
//! state-mutating kernel transition.
//!
//! When recording is enabled (see [`Kernel::enable_commit_log`]), every
//! public kernel entry point that can change kernel state appends one
//! [`CommitRecord`] describing the operation ([`CommitOp`]), a compact
//! summary of its result ([`CommitOutcome`]), and the kernel's
//! [state digest](crate::KernelState::digest) *after* the operation
//! applied. Pure reads record nothing; a read that faults surfaces as the
//! [`CommitOp::DeliverFault`] transition it really is.
//!
//! The log is the ground truth for [`replay`](crate::replay): folding the
//! ops through the pure [`step`](crate::core::step) over a fresh
//! [`KernelState`](crate::KernelState) built from the same [`CostModel`]
//! must reproduce every outcome summary and every digest, bit for bit. It
//! is also the substrate for whole-trace invariant auditing and forensic
//! walks — see [`crate::replay`] and the `freepart-core` forensics layer.
//!
//! [`Kernel::enable_commit_log`]: crate::Kernel::enable_commit_log
//! [`CostModel`]: crate::CostModel

use crate::cost::CostModel;
use crate::error::{Fault, FaultKind, SimError};
use crate::ipc::ChannelId;
use crate::mem::{Addr, Perms};
use crate::process::Pid;
use crate::shm::ShmId;
use crate::syscall::{Syscall, SyscallRet};
use crate::{SyscallFilter, WindowId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into a running FNV-1a hash.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds a byte slice into a running FNV-1a hash (length-prefixed, so
/// adjacent fields cannot alias).
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = mix(h, bytes.len() as u64);
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of a byte slice from the standard offset basis.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fold_bytes(FNV_OFFSET, bytes)
}

/// FNV-1a hash of a string from the standard offset basis.
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// The fresh-fingerprint seed shared by all incrementally-fingerprinted
/// kernel structures ([`AddressSpace`], segments, the file system, ring
/// channels, the network log).
///
/// [`AddressSpace`]: crate::AddressSpace
pub const FINGERPRINT_SEED: u64 = FNV_OFFSET;

/// One state-mutating kernel transition, with enough payload to re-apply
/// it against a fresh kernel.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum CommitOp {
    /// A process was spawned.
    Spawn { name: String },
    /// A fatal fault was delivered directly (crash injection, or a fault
    /// raised by an otherwise pure read such as `mem_read`/`shm_read`).
    DeliverFault {
        pid: Pid,
        kind: FaultKind,
        addr: Option<Addr>,
    },
    /// A dead process was reaped.
    Reap { pid: Pid },
    /// Harness-level memory allocation.
    Alloc { pid: Pid, len: u64, perms: Perms },
    /// Bytes written into a process address space.
    MemWrite {
        pid: Pid,
        addr: Addr,
        bytes: Vec<u8>,
    },
    /// Harness-level protection change of every `(pid, addr, len)`
    /// range to `perms`, applied atomically: all ranges are validated
    /// before any page changes. A transition storm is one such op per
    /// direction.
    Protect {
        perms: Perms,
        ranges: Vec<(Pid, Addr, u64)>,
    },
    /// Shared-memory segment creation (payload adopted, owner granted RW).
    ShmCreate { owner: Pid, bytes: Vec<u8> },
    /// A `(segment, pid)` grant was issued or replaced.
    ShmGrant { id: ShmId, pid: Pid, perms: Perms },
    /// A segment was page-mapped into a view.
    ShmMap { pid: Pid, id: ShmId },
    /// A `(segment, pid)` grant and mapping were revoked.
    ShmRevoke { id: ShmId, pid: Pid },
    /// Every grant on a segment was moved to `perms`.
    ShmProtectAll { id: ShmId, perms: Perms },
    /// A segment payload was replaced.
    ShmWrite { pid: Pid, id: ShmId, bytes: Vec<u8> },
    /// A segment was destroyed.
    ShmDestroy { id: ShmId },
    /// A seccomp-style filter was installed (or the attempt was refused).
    InstallFilter { pid: Pid, filter: SyscallFilter },
    /// One syscall, filter check included.
    Syscall { pid: Pid, call: Syscall },
    /// An IPC ring channel was created.
    CreateChannel { a: Pid, b: Pid, capacity: usize },
    /// A frame was sent.
    IpcSend {
        pid: Pid,
        chan: ChannelId,
        payload: Vec<u8>,
    },
    /// A receive attempt (mutates the ring and the receiver timeline).
    IpcRecv { pid: Pid, chan: ChannelId },
    /// A channel's B endpoint was re-bound after a restart.
    RebindChannel { chan: ChannelId, new_b: Pid },
    /// Raw virtual-time charge.
    ChargeTime { ns: u64 },
    /// Cross-address-space deep copy accounting.
    ChargeCopy { bytes: u64 },
    /// Framework compute charge.
    ChargeCompute { pid: Pid, units: u64 },
    /// Batched hooked-call accounting.
    NoteCallsBatched { n: u64 },
    /// Snapshot payload-copy accounting.
    NoteSnapshotCopy { bytes: u64 },
    /// Snapshot clean-skip accounting.
    NoteSnapshotSkip,
    /// The kernel switched to per-process virtual timelines.
    EnablePerProcessTime,
    /// The pid-less-cost time context changed.
    SetTimeContext { pid: Option<Pid> },
    /// A timeline was advanced by a happens-before merge.
    AdvanceTimeline { pid: Pid, ns: u64 },
    /// Clock and counters were reset between measurements.
    ResetAccounting,
    /// Harness-level file seeding (`Kernel::fs_put`).
    FsPut { path: String, bytes: Vec<u8> },
    /// A deterministic camera was attached.
    AttachCamera { seed: u64, frame_len: usize },
    /// The runtime sealed a process (`PR_SET_NO_NEW_PRIVS` from outside).
    SetNoNewPrivs { pid: Pid },
    /// The supervisor force-exited a process before reaping it.
    ForceExit { pid: Pid, code: i32 },
    /// A GUI window was created.
    WinCreate { title: String },
    /// A frame was presented to a window.
    WinPresent { win: WindowId, frame_len: usize },
    /// Every GUI window was destroyed.
    WinDestroyAll,
    /// One key press was polled off the input queue.
    WinPollKey,
    /// A synthetic key press was queued.
    PushKey { key: u8 },
}

impl CommitOp {
    /// Short stable name of the operation, for reports and forensics.
    pub fn name(&self) -> &'static str {
        use CommitOp as O;
        match self {
            O::Spawn { .. } => "spawn",
            O::DeliverFault { .. } => "deliver_fault",
            O::Reap { .. } => "reap",
            O::Alloc { .. } => "alloc",
            O::MemWrite { .. } => "mem_write",
            O::Protect { .. } => "protect",
            O::ShmCreate { .. } => "shm_create",
            O::ShmGrant { .. } => "shm_grant",
            O::ShmMap { .. } => "shm_map",
            O::ShmRevoke { .. } => "shm_revoke",
            O::ShmProtectAll { .. } => "shm_protect_all",
            O::ShmWrite { .. } => "shm_write",
            O::ShmDestroy { .. } => "shm_destroy",
            O::InstallFilter { .. } => "install_filter",
            O::Syscall { .. } => "syscall",
            O::CreateChannel { .. } => "create_channel",
            O::IpcSend { .. } => "ipc_send",
            O::IpcRecv { .. } => "ipc_recv",
            O::RebindChannel { .. } => "rebind_channel",
            O::ChargeTime { .. } => "charge_time",
            O::ChargeCopy { .. } => "charge_copy",
            O::ChargeCompute { .. } => "charge_compute",
            O::NoteCallsBatched { .. } => "note_calls_batched",
            O::NoteSnapshotCopy { .. } => "note_snapshot_copy",
            O::NoteSnapshotSkip => "note_snapshot_skip",
            O::EnablePerProcessTime => "enable_per_process_time",
            O::SetTimeContext { .. } => "set_time_context",
            O::AdvanceTimeline { .. } => "advance_timeline",
            O::ResetAccounting => "reset_accounting",
            O::FsPut { .. } => "fs_put",
            O::AttachCamera { .. } => "attach_camera",
            O::SetNoNewPrivs { .. } => "set_no_new_privs",
            O::ForceExit { .. } => "force_exit",
            O::WinCreate { .. } => "win_create",
            O::WinPresent { .. } => "win_present",
            O::WinDestroyAll => "win_destroy_all",
            O::WinPollKey => "win_poll_key",
            O::PushKey { .. } => "push_key",
        }
    }

    /// The process the operation acts on behalf of, when one exists. A
    /// protect batch has one only when every range names the same pid.
    pub fn acting_pid(&self) -> Option<Pid> {
        use CommitOp as O;
        match self {
            O::Protect { ranges, .. } => {
                let (first, ..) = *ranges.first()?;
                ranges.iter().all(|r| r.0 == first).then_some(first)
            }
            O::DeliverFault { pid, .. }
            | O::Reap { pid }
            | O::Alloc { pid, .. }
            | O::MemWrite { pid, .. }
            | O::ShmGrant { pid, .. }
            | O::ShmMap { pid, .. }
            | O::ShmRevoke { pid, .. }
            | O::ShmWrite { pid, .. }
            | O::InstallFilter { pid, .. }
            | O::Syscall { pid, .. }
            | O::IpcSend { pid, .. }
            | O::IpcRecv { pid, .. }
            | O::ChargeCompute { pid, .. }
            | O::AdvanceTimeline { pid, .. }
            | O::SetNoNewPrivs { pid }
            | O::ForceExit { pid, .. } => Some(*pid),
            O::ShmCreate { owner, .. } => Some(*owner),
            _ => None,
        }
    }
}

/// Compact summary of an operation's result: a per-site `u64` digest of
/// the success value, or of the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The operation succeeded; the payload summarizes its return value.
    Ok(u64),
    /// The operation failed; the payload summarizes the error.
    Err(u64),
}

impl CommitOutcome {
    /// True for the `Ok` variant.
    pub fn is_ok(&self) -> bool {
        matches!(self, CommitOutcome::Ok(_))
    }

    /// The raw summary payload, whichever variant.
    pub fn raw(&self) -> u64 {
        match self {
            CommitOutcome::Ok(v) | CommitOutcome::Err(v) => *v,
        }
    }
}

/// Types that can summarize themselves into a commit-outcome word.
///
/// Summaries of plain identifiers are transparent (the id itself), so the
/// invariant auditor can read grant/page arithmetic straight off the log;
/// structured values hash.
pub trait OpSummary {
    /// The `u64` summary recorded in the log.
    fn summary(&self) -> u64;
}

impl OpSummary for () {
    fn summary(&self) -> u64 {
        0
    }
}

impl OpSummary for u64 {
    fn summary(&self) -> u64 {
        *self
    }
}

impl OpSummary for bool {
    fn summary(&self) -> u64 {
        u64::from(*self)
    }
}

impl OpSummary for Pid {
    fn summary(&self) -> u64 {
        u64::from(self.0)
    }
}

impl OpSummary for Addr {
    fn summary(&self) -> u64 {
        self.0
    }
}

impl OpSummary for ShmId {
    fn summary(&self) -> u64 {
        self.0
    }
}

impl OpSummary for ChannelId {
    fn summary(&self) -> u64 {
        u64::from(self.0)
    }
}

impl OpSummary for WindowId {
    fn summary(&self) -> u64 {
        u64::from(self.0)
    }
}

impl OpSummary for Fault {
    fn summary(&self) -> u64 {
        hash_str(&format!("{self:?}"))
    }
}

impl OpSummary for Vec<u8> {
    fn summary(&self) -> u64 {
        hash_bytes(self)
    }
}

impl OpSummary for Option<Vec<u8>> {
    fn summary(&self) -> u64 {
        match self {
            None => 0,
            Some(b) => mix(1, hash_bytes(b)),
        }
    }
}

impl OpSummary for Option<Pid> {
    fn summary(&self) -> u64 {
        match self {
            None => 0,
            Some(p) => mix(1, u64::from(p.0)),
        }
    }
}

impl OpSummary for Option<u8> {
    fn summary(&self) -> u64 {
        match self {
            None => 0,
            Some(k) => mix(1, u64::from(*k)),
        }
    }
}

impl OpSummary for SyscallRet {
    fn summary(&self) -> u64 {
        match self {
            SyscallRet::Ok => 1,
            SyscallRet::NewFd(fd) => mix(2, u64::from(fd.0)),
            SyscallRet::Bytes(b) => mix(3, hash_bytes(b)),
            SyscallRet::Num(n) => mix(4, *n),
            SyscallRet::Mapped(a) => mix(5, a.0),
        }
    }
}

/// Summary of a kernel error (hash of its debug rendering — errors carry
/// structure but never kernel state, so the rendering is stable).
pub fn err_summary(e: &SimError) -> u64 {
    hash_str(&format!("{e:?}"))
}

/// Summarizes a kernel result into a [`CommitOutcome`] — the single
/// function both the recorder and the replayer use, so their summaries
/// cannot drift apart.
pub fn outcome_of<T: OpSummary>(r: &Result<T, SimError>) -> CommitOutcome {
    match r {
        Ok(v) => CommitOutcome::Ok(v.summary()),
        Err(e) => CommitOutcome::Err(err_summary(e)),
    }
}

/// One appended transition: the op, its outcome summary, and the kernel
/// state digest immediately after it applied.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Zero-based position in the log.
    pub index: u64,
    /// The transition.
    pub op: CommitOp,
    /// Result summary.
    pub outcome: CommitOutcome,
    /// Kernel [state digest](crate::KernelState::digest) after the op.
    pub digest: u64,
}

/// The append-only commit log: a genesis cost model plus the record
/// sequence. A log plus [`crate::replay::replay`] fully determines a
/// kernel state.
#[derive(Debug, Clone)]
pub struct CommitLog {
    genesis: CostModel,
    records: Vec<CommitRecord>,
}

impl CommitLog {
    /// An empty log whose replays start from `Kernel::with_cost_model`.
    pub fn new(genesis: CostModel) -> CommitLog {
        CommitLog {
            genesis,
            records: Vec::new(),
        }
    }

    /// Reassembles a log from parts (tamper-injection in tests, or logs
    /// deserialized from external storage). Indices are renumbered.
    pub fn from_parts(genesis: CostModel, records: Vec<CommitRecord>) -> CommitLog {
        let mut log = CommitLog { genesis, records };
        for (i, r) in log.records.iter_mut().enumerate() {
            r.index = i as u64;
        }
        log
    }

    /// The cost model replays must start from.
    pub fn genesis(&self) -> &CostModel {
        &self.genesis
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The full record sequence.
    pub fn records(&self) -> &[CommitRecord] {
        &self.records
    }

    pub(crate) fn push(&mut self, op: CommitOp, outcome: CommitOutcome, digest: u64) {
        let index = self.records.len() as u64;
        self.records.push(CommitRecord {
            index,
            op,
            outcome,
            digest,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_and_fold_are_order_sensitive() {
        assert_ne!(
            mix(mix(FINGERPRINT_SEED, 1), 2),
            mix(mix(FINGERPRINT_SEED, 2), 1)
        );
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ba"));
        // Length prefixing keeps adjacent fields from aliasing.
        assert_ne!(
            fold_bytes(fold_bytes(0, b"a"), b"bc"),
            fold_bytes(fold_bytes(0, b"ab"), b"c"),
        );
    }

    #[test]
    fn outcome_summaries_distinguish_results() {
        let ok: Result<u64, SimError> = Ok(7);
        let err: Result<u64, SimError> = Err(SimError::BadChannel);
        assert_eq!(outcome_of(&ok), CommitOutcome::Ok(7));
        assert!(!outcome_of(&err).is_ok());
        assert_ne!(
            SyscallRet::Num(3).summary(),
            SyscallRet::NewFd(crate::Fd(3)).summary()
        );
    }

    #[test]
    fn from_parts_renumbers_indices() {
        let rec = CommitRecord {
            index: 99,
            op: CommitOp::NoteSnapshotSkip,
            outcome: CommitOutcome::Ok(0),
            digest: 0,
        };
        let log = CommitLog::from_parts(CostModel::default(), vec![rec.clone(), rec]);
        assert_eq!(log.records()[0].index, 0);
        assert_eq!(log.records()[1].index, 1);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }
}
