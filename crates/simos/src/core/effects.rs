//! The effect vocabulary of the pure kernel core.
//!
//! [`step`](crate::core::step::step) never performs a side effect
//! directly: every externally observable consequence of a transition —
//! the commit record, virtual-time charges, metrics movements, faults,
//! filter kills — is *described* as an [`Effect`] pushed into an
//! [`Effects`] buffer. The shell ([`Kernel`](crate::Kernel)) interprets
//! the buffer after each step: it appends the [`Effect::Record`] to the
//! commit log when recording and exposes the rest to observability
//! layers. Because the state mutation itself already happened inside
//! `step`, effects are purely informational — dropping them changes
//! nothing about the state machine, which is what makes the core
//! replayable by construction.

use crate::commit::{CommitOp, CommitOutcome};
use crate::error::Fault;
use crate::metrics::Metrics;
use crate::process::Pid;
use crate::syscall::SyscallNo;

/// One metrics counter, mirroring the fields of [`Metrics`] so effect
/// streams can name the counter they moved without carrying the whole
/// struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// [`Metrics::ipc_messages`].
    IpcMessages,
    /// [`Metrics::ipc_bytes`].
    IpcBytes,
    /// [`Metrics::copied_bytes`].
    CopiedBytes,
    /// [`Metrics::copy_ops`].
    CopyOps,
    /// [`Metrics::syscalls`].
    Syscalls,
    /// [`Metrics::filter_kills`].
    FilterKills,
    /// [`Metrics::faults`].
    Faults,
    /// [`Metrics::spawns`].
    Spawns,
    /// [`Metrics::protected_pages`].
    ProtectedPages,
    /// [`Metrics::timeline_merges`].
    TimelineMerges,
    /// [`Metrics::shm_grants`].
    ShmGrants,
    /// [`Metrics::shm_revokes`].
    ShmRevokes,
    /// [`Metrics::shm_mapped_bytes`].
    ShmMappedBytes,
    /// [`Metrics::calls_batched`].
    CallsBatched,
    /// [`Metrics::snapshot_bytes_copied`].
    SnapshotBytesCopied,
    /// [`Metrics::snapshot_objects_skipped`].
    SnapshotObjectsSkipped,
    /// [`Metrics::reaps`].
    Reaps,
}

impl Counter {
    /// Every counter, in [`Metrics`] field order.
    pub const ALL: [Counter; crate::metrics::COUNTERS] = [
        Counter::IpcMessages,
        Counter::IpcBytes,
        Counter::CopiedBytes,
        Counter::CopyOps,
        Counter::Syscalls,
        Counter::FilterKills,
        Counter::Faults,
        Counter::Spawns,
        Counter::ProtectedPages,
        Counter::TimelineMerges,
        Counter::ShmGrants,
        Counter::ShmRevokes,
        Counter::ShmMappedBytes,
        Counter::CallsBatched,
        Counter::SnapshotBytesCopied,
        Counter::SnapshotObjectsSkipped,
        Counter::Reaps,
    ];

    /// Adds `delta` to the counter's field in `m`.
    pub fn apply(self, m: &mut Metrics, delta: u64) {
        *self.field_mut(m) += delta;
    }

    /// Reads the counter's current value from `m`.
    pub fn read(self, m: &Metrics) -> u64 {
        match self {
            Counter::IpcMessages => m.ipc_messages,
            Counter::IpcBytes => m.ipc_bytes,
            Counter::CopiedBytes => m.copied_bytes,
            Counter::CopyOps => m.copy_ops,
            Counter::Syscalls => m.syscalls,
            Counter::FilterKills => m.filter_kills,
            Counter::Faults => m.faults,
            Counter::Spawns => m.spawns,
            Counter::ProtectedPages => m.protected_pages,
            Counter::TimelineMerges => m.timeline_merges,
            Counter::ShmGrants => m.shm_grants,
            Counter::ShmRevokes => m.shm_revokes,
            Counter::ShmMappedBytes => m.shm_mapped_bytes,
            Counter::CallsBatched => m.calls_batched,
            Counter::SnapshotBytesCopied => m.snapshot_bytes_copied,
            Counter::SnapshotObjectsSkipped => m.snapshot_objects_skipped,
            Counter::Reaps => m.reaps,
        }
    }

    fn field_mut(self, m: &mut Metrics) -> &mut u64 {
        match self {
            Counter::IpcMessages => &mut m.ipc_messages,
            Counter::IpcBytes => &mut m.ipc_bytes,
            Counter::CopiedBytes => &mut m.copied_bytes,
            Counter::CopyOps => &mut m.copy_ops,
            Counter::Syscalls => &mut m.syscalls,
            Counter::FilterKills => &mut m.filter_kills,
            Counter::Faults => &mut m.faults,
            Counter::Spawns => &mut m.spawns,
            Counter::ProtectedPages => &mut m.protected_pages,
            Counter::TimelineMerges => &mut m.timeline_merges,
            Counter::ShmGrants => &mut m.shm_grants,
            Counter::ShmRevokes => &mut m.shm_revokes,
            Counter::ShmMappedBytes => &mut m.shm_mapped_bytes,
            Counter::CallsBatched => &mut m.calls_batched,
            Counter::SnapshotBytesCopied => &mut m.snapshot_bytes_copied,
            Counter::SnapshotObjectsSkipped => &mut m.snapshot_objects_skipped,
            Counter::Reaps => &mut m.reaps,
        }
    }
}

/// One externally observable consequence of a kernel transition.
///
/// Effects subsume every side channel the imperative kernel used to
/// drive in-line: commit-record emission, cost charges, metrics deltas,
/// and audit/trace signals (faults, filter kills).
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// The transition's commit record: the op that ran and its outcome
    /// summary. Exactly one `Record` is emitted per
    /// [`step`](crate::core::step::step), always last in the buffer.
    Record {
        /// The operation that was applied.
        op: CommitOp,
        /// Its outcome summary, as the commit log records it.
        outcome: CommitOutcome,
    },
    /// `ns` of virtual time charged, attributed to `pid` (or to the
    /// ambient time context / global clock when `None`).
    Charge {
        /// Timeline the charge was attributed to, if any.
        pid: Option<Pid>,
        /// Nanoseconds charged.
        ns: u64,
    },
    /// A metrics counter moved by `delta`.
    Metric {
        /// Which counter moved.
        counter: Counter,
        /// How far it moved.
        delta: u64,
    },
    /// A process transitioned to `Crashed` with this fault. Emitted only
    /// when the transition actually happened (faults delivered to
    /// already-dead or unknown pids are absorbed silently, as before).
    Fault(Fault),
    /// A seccomp-style filter denied a syscall with kill semantics.
    FilterKill {
        /// The process that was killed.
        pid: Pid,
        /// The syscall number the filter denied.
        denied: SyscallNo,
    },
}

/// An append-only buffer of [`Effect`]s for one transition.
///
/// The shell clears it before each [`step`](crate::core::step::step) and
/// reads it afterwards; keeping the allocation alive across steps keeps
/// the hot path allocation-free.
#[derive(Debug, Default)]
pub struct Effects {
    items: Vec<Effect>,
}

impl Effects {
    /// An empty buffer.
    pub fn new() -> Effects {
        Effects::default()
    }

    /// Drops all buffered effects, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Number of buffered effects.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no effects are buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates the buffered effects in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Effect> {
        self.items.iter()
    }

    /// The buffered effects as a slice, in emission order.
    pub fn as_slice(&self) -> &[Effect] {
        &self.items
    }

    pub(crate) fn push(&mut self, e: Effect) {
        self.items.push(e);
    }

    /// Removes and returns the trailing [`Effect::Record`], if present.
    /// `step` always emits it last, so the shell can move the op into
    /// the commit log without cloning.
    pub(crate) fn pop_record(&mut self) -> Option<(CommitOp, CommitOutcome)> {
        match self.items.last() {
            Some(Effect::Record { .. }) => match self.items.pop() {
                Some(Effect::Record { op, outcome }) => Some((op, outcome)),
                _ => unreachable!("checked last element"),
            },
            _ => None,
        }
    }
}
