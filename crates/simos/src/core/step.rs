//! The single total transition function of the kernel state machine.
//!
//! [`step`] takes a [`KernelState`], one [`CommitOp`], and an
//! [`Effects`] buffer, applies the transition, and returns the typed
//! result. Every kernel behavior — process lifecycle, memory
//! protection, shared memory, filters, syscall dispatch, IPC, virtual
//! time — lives behind this one function; the shell
//! ([`Kernel`](crate::Kernel)) merely translates its public entry
//! points into ops and interprets the emitted effects, and
//! [`replay`](crate::replay::replay) is literally a fold of `step` over
//! a log.
//!
//! `step` is total over its input vocabulary: it never panics on any
//! op/state combination (failures are values — [`SimError`]s or
//! delivered faults), performs no I/O, reads no ambient clock, and
//! draws no external entropy. In debug builds every transition is
//! followed by [`KernelState::check_invariants`].

use crate::commit::{err_summary, CommitOp, CommitOutcome, GroupMove, OpSummary};
use crate::cost::VirtualClock;
use crate::device::{Camera, WindowId};
use crate::error::{Errno, Fault, FaultKind, SimError};
use crate::filter::FilterDecision;
use crate::ipc::{ChannelId, RingChannel, RingError};
use crate::mem::{Addr, Perms, PAGE_SIZE};
use crate::process::{Pid, ProcessState, SimProcess};
use crate::shm::{ShmId, ShmSegment};
use crate::syscall::SyscallRet;

use super::dispatch::dispatch;
use super::effects::{Counter, Effect, Effects};
use super::state::{KernelState, TimelineMode};

/// The typed value a successful transition produces — one variant per
/// return shape of the shell's public entry points. Its [`OpSummary`]
/// impl delegates to the inner value's, so outcome summaries are
/// bit-identical with what the imperative kernel recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepValue {
    /// No interesting value (summary 0).
    Unit,
    /// A plain number (page counts, byte lengths).
    Num(u64),
    /// A process id (spawn).
    Proc(Pid),
    /// An optional process id (previous time context).
    ProcOpt(Option<Pid>),
    /// An address (alloc).
    Addr(Addr),
    /// A boolean (revoke/destroy/force-exit "did anything happen").
    Flag(bool),
    /// A shared-memory segment id.
    Seg(ShmId),
    /// An IPC channel id.
    Chan(ChannelId),
    /// An optional received payload (ipc_recv).
    PayloadOpt(Option<Vec<u8>>),
    /// An optional GUI key press.
    KeyOpt(Option<u8>),
    /// A GUI window id.
    Win(WindowId),
    /// A delivered fault (deliver_fault is infallible).
    Crash(Fault),
    /// A syscall return value.
    Ret(SyscallRet),
}

impl OpSummary for StepValue {
    fn summary(&self) -> u64 {
        match self {
            StepValue::Unit => ().summary(),
            StepValue::Num(n) => n.summary(),
            StepValue::Proc(pid) => pid.summary(),
            StepValue::ProcOpt(pid) => pid.summary(),
            StepValue::Addr(a) => a.summary(),
            StepValue::Flag(b) => b.summary(),
            StepValue::Seg(id) => id.summary(),
            StepValue::Chan(id) => id.summary(),
            StepValue::PayloadOpt(b) => b.summary(),
            StepValue::KeyOpt(k) => k.summary(),
            StepValue::Win(id) => id.summary(),
            StepValue::Crash(f) => f.summary(),
            StepValue::Ret(r) => r.summary(),
        }
    }
}

/// What one [`step`] produced: a typed value or a typed error.
pub type StepResult = Result<StepValue, SimError>;

/// The commit-log outcome summary of a [`StepResult`] — the same
/// summarization path the recorder uses, so core and shell cannot
/// drift.
pub fn outcome_of_step(r: &StepResult) -> CommitOutcome {
    match r {
        Ok(v) => CommitOutcome::Ok(v.summary()),
        Err(e) => CommitOutcome::Err(err_summary(e)),
    }
}

/// Applies one transition to `state`, pushing every observable
/// consequence into `fx` (ending with exactly one [`Effect::Record`])
/// and returning the typed result.
pub fn step(state: &mut KernelState, op: CommitOp, fx: &mut Effects) -> StepResult {
    let r = step_ref(state, &op, fx);
    let outcome = outcome_of_step(&r);
    fx.push(Effect::Record { op, outcome });
    r
}

/// The borrowing form of [`step`] for folds over ops someone else owns
/// (replay, audit): the same transition and effects, minus the trailing
/// [`Effect::Record`] — the only part that needs the op by value.
pub fn step_ref(state: &mut KernelState, op: &CommitOp, fx: &mut Effects) -> StepResult {
    let r = apply(state, op, fx);
    #[cfg(debug_assertions)]
    state.check_invariants();
    r
}

/// Crashes `pid` with a fault, if it exists and is running; returns the
/// fault either way (delivery to the already-dead is absorbed). The
/// core-internal form of the shell's `deliver_fault`: faults raised
/// *inside* another op (a denied write, a filter kill) go through here
/// and stay part of that op's single record.
pub(super) fn crash(
    state: &mut KernelState,
    fx: &mut Effects,
    pid: Pid,
    kind: FaultKind,
    addr: Option<Addr>,
) -> Fault {
    let fault = Fault { pid, kind, addr };
    if let Ok(p) = state.process_mut(pid) {
        if p.is_running() {
            p.state = ProcessState::Crashed(fault.clone());
            state.bump(fx, Counter::Faults, 1);
            fx.push(Effect::Fault(fault.clone()));
        }
    }
    fault
}

/// Moves every `(pid, addr, len)` range, and every page group a
/// [`GroupMove`] flips, to `perms`; returns the total number of pages
/// that changed. Everything is validated first — each pid running, each
/// range and joining range mapped, each flipped group mapped once its
/// leaving ranges are gone, no pid with two group moves (so no move can
/// change what another was validated against) — so a batch either
/// applies whole or fails with the first bad entry's error having
/// changed nothing, like a single
/// [`AddressSpace::protect`](crate::AddressSpace::protect).
///
/// A range's changed pages are charged to its pid; a group move's are
/// charged once, in one sum, to its pid (the cost is linear in pages, so
/// the totals equal per-range charging). Pages already at `perms` cost
/// nothing.
fn protect(
    state: &mut KernelState,
    fx: &mut Effects,
    perms: Perms,
    ranges: &[(Pid, Addr, u64)],
    groups: &[GroupMove],
) -> Result<u64, SimError> {
    for &(pid, addr, len) in ranges {
        state.require_running(pid)?;
        if !state.procs[&pid].aspace.is_mapped(addr, len) {
            return Err(SimError::Errno(Errno::Einval));
        }
    }
    for (i, g) in groups.iter().enumerate() {
        state.require_running(g.pid)?;
        if groups[..i].iter().any(|other| other.pid == g.pid) {
            return Err(SimError::Errno(Errno::Einval));
        }
        let aspace = &state.procs[&g.pid].aspace;
        let joins = g
            .join
            .iter()
            .all(|&(addr, len)| aspace.is_mapped(addr, len));
        if !joins || !aspace.group_mapped(g.from, &g.leave) {
            return Err(SimError::Errno(Errno::Einval));
        }
    }
    let mut total = 0;
    for &(pid, addr, len) in ranges {
        let p = state.process_mut(pid).expect("validated");
        let changed = p.aspace.protect(addr, len, perms).expect("validated");
        charge_protect(state, fx, pid, changed);
        total += changed;
    }
    for g in groups {
        let aspace = &mut state.process_mut(g.pid).expect("validated").aspace;
        for &(addr, len) in &g.leave {
            aspace.leave(g.from, addr, len);
        }
        for &(addr, len) in &g.join {
            aspace.join(g.from, addr, len).expect("validated");
        }
        let changed = aspace.flip(g.from, g.to, perms).expect("validated");
        charge_protect(state, fx, g.pid, changed);
        total += changed;
    }
    Ok(total)
}

/// Charges `pid` for `changed` re-protected pages.
pub(super) fn charge_protect(state: &mut KernelState, fx: &mut Effects, pid: Pid, changed: u64) {
    if changed > 0 {
        let ns = state.cost.mprotect_cost(changed);
        state.charge_to(fx, pid, ns);
        state.bump(fx, Counter::ProtectedPages, changed);
    }
}

#[allow(clippy::too_many_lines)]
fn apply(state: &mut KernelState, op: &CommitOp, fx: &mut Effects) -> StepResult {
    use CommitOp as O;
    match op {
        // ---------------- process lifecycle ----------------
        O::Spawn { name } => {
            let pid = Pid(state.next_pid);
            state.next_pid += 1;
            state.procs.insert(pid, SimProcess::new(pid, name));
            state.mark_process(pid);
            let ns = state.cost.spawn_ns;
            state.charge_ctx(fx, ns);
            if state.mode == TimelineMode::PerProcess {
                // The child exists once the spawner has paid the spawn
                // cost: its timeline starts at the spawner's current time.
                let birth = match state.time_ctx {
                    Some(p) => state.timeline_ns(p),
                    None => state.clock.now_ns(),
                };
                let mut c = VirtualClock::new();
                c.charge(birth);
                *state.timeline_mut(pid) = c;
            }
            state.bump(fx, Counter::Spawns, 1);
            Ok(StepValue::Proc(pid))
        }
        O::DeliverFault { pid, kind, addr } => Ok(StepValue::Crash(crash(
            state,
            fx,
            *pid,
            kind.clone(),
            *addr,
        ))),
        O::Reap { pid } => {
            let pid = *pid;
            let p = state.procs.get(&pid).ok_or(SimError::NoSuchProcess(pid))?;
            if p.is_running() {
                return Err(SimError::Errno(Errno::Eperm));
            }
            let pages = p.aspace.mapped_bytes() / PAGE_SIZE;
            state.procs.remove(&pid);
            state.mark_process(pid);
            let held: Vec<ShmId> = state
                .shm
                .iter()
                .filter(|(_, seg)| seg.grants.contains_key(&pid) || seg.is_mapped(pid))
                .map(|(id, _)| *id)
                .collect();
            for id in held {
                state.segment_mut(id).expect("listed").purge(pid);
            }
            state.bump(fx, Counter::Reaps, 1);
            Ok(StepValue::Num(pages))
        }
        O::ForceExit { pid, code } => {
            let changed = match state.process_mut(*pid) {
                Ok(p) if p.is_running() => {
                    p.state = ProcessState::Exited(*code);
                    true
                }
                _ => false,
            };
            Ok(StepValue::Flag(changed))
        }
        O::SetNoNewPrivs { pid } => {
            state.process_mut(*pid)?.no_new_privs = true;
            Ok(StepValue::Unit)
        }

        // ---------------- memory ----------------
        O::Alloc { pid, len, perms } => {
            state.require_running(*pid)?;
            let addr = state.process_mut(*pid)?.aspace.alloc(*len, *perms)?;
            Ok(StepValue::Addr(addr))
        }
        O::MemWrite { pid, addr, bytes } => {
            let (pid, addr) = (*pid, *addr);
            state.require_running(pid)?;
            let p = state.process_mut(pid).expect("checked");
            match p.aspace.write(addr, bytes) {
                Ok(()) => Ok(StepValue::Unit),
                Err(kind) => Err(crash(state, fx, pid, kind, Some(addr)).into()),
            }
        }
        O::Protect {
            perms,
            ranges,
            groups,
        } => protect(state, fx, *perms, ranges, groups).map(StepValue::Num),

        // ---------------- shared memory ----------------
        O::ShmCreate { owner, bytes } => {
            let owner = *owner;
            state.require_running(owner)?;
            let id = ShmId(state.next_shm);
            state.next_shm += 1;
            let len = bytes.len() as u64;
            let mut seg = ShmSegment::new(bytes.clone());
            seg.grants.insert(owner, Perms::RW);
            seg.mapped.insert(owner);
            state.shm.insert(id, seg);
            state.mark_segment(id);
            let ns = state.cost.syscall_ns + state.cost.shm_map_cost(len);
            state.charge_to(fx, owner, ns);
            state.bump(fx, Counter::ShmGrants, 1);
            state.bump(fx, Counter::ShmMappedBytes, len);
            Ok(StepValue::Seg(id))
        }
        O::ShmGrant { id, pid, perms } => {
            let pid = *pid;
            state.require_running(pid)?;
            let seg = state
                .segment_mut(*id)
                .ok_or(SimError::Errno(Errno::Ebadf))?;
            seg.grants.insert(pid, *perms);
            let ns = state.cost.syscall_ns;
            state.charge_to(fx, pid, ns);
            state.bump(fx, Counter::ShmGrants, 1);
            Ok(StepValue::Unit)
        }
        O::ShmMap { pid, id } => {
            let pid = *pid;
            state.require_running(pid)?;
            let seg = state
                .segment_mut(*id)
                .ok_or(SimError::Errno(Errno::Ebadf))?;
            if !seg.grants.contains_key(&pid) {
                return Err(SimError::Errno(Errno::Eacces));
            }
            let len = seg.len();
            if seg.mapped.insert(pid) {
                let ns = state.cost.syscall_ns + state.cost.shm_map_cost(len);
                state.charge_to(fx, pid, ns);
                state.bump(fx, Counter::ShmMappedBytes, len);
            } else {
                let ns = state.cost.syscall_ns;
                state.charge_to(fx, pid, ns);
            }
            Ok(StepValue::Num(len))
        }
        O::ShmRevoke { id, pid } => {
            let seg = state
                .segment_mut(*id)
                .ok_or(SimError::Errno(Errno::Ebadf))?;
            let existed = seg.grants.remove(pid).is_some();
            seg.mapped.remove(pid);
            if existed {
                let pages = seg.len().div_ceil(PAGE_SIZE).max(1);
                let ns = state.cost.mprotect_cost(pages);
                state.charge_ctx(fx, ns);
                state.bump(fx, Counter::ShmRevokes, 1);
            }
            Ok(StepValue::Flag(existed))
        }
        O::ShmProtectAll { id, perms } => {
            let seg = state
                .segment_mut(*id)
                .ok_or(SimError::Errno(Errno::Ebadf))?;
            let pages = seg.len().div_ceil(PAGE_SIZE).max(1);
            let mut changed = 0;
            for p in seg.grants.values_mut() {
                if *p != *perms {
                    *p = *perms;
                    changed += pages;
                }
            }
            if changed > 0 {
                let ns = state.cost.mprotect_cost(changed);
                state.charge_ctx(fx, ns);
                state.bump(fx, Counter::ProtectedPages, changed);
            }
            Ok(StepValue::Num(changed))
        }
        O::ShmWrite { pid, id, bytes } => {
            let pid = *pid;
            state.require_running(pid)?;
            let Some(seg) = state.shm.get(id) else {
                return Err(crash(state, fx, pid, FaultKind::Unmapped, None).into());
            };
            let ok = seg.is_mapped(pid) && seg.grant_of(pid).is_some_and(|p| p.writable());
            if !ok {
                return Err(crash(state, fx, pid, FaultKind::Protection, None).into());
            }
            let seg = state.segment_mut(*id).expect("checked");
            seg.replace_data(bytes);
            Ok(StepValue::Unit)
        }
        O::ShmDestroy { id } => {
            state.mark_segment(*id);
            Ok(StepValue::Flag(state.shm.remove(id).is_some()))
        }

        // ---------------- filters and syscalls ----------------
        O::InstallFilter { pid, filter } => {
            let pid = *pid;
            state.require_running(pid)?;
            let p = state.process_mut(pid).expect("checked");
            if p.no_new_privs {
                return Err(SimError::Errno(Errno::Eperm));
            }
            p.install_filter(filter.clone());
            Ok(StepValue::Unit)
        }
        O::Syscall { pid, call } => {
            let pid = *pid;
            state.require_running(pid)?;
            // Filter check (seccomp runs before the syscall body).
            let decision = state
                .procs
                .get(&pid)
                .expect("checked")
                .filter
                .as_ref()
                .map_or(FilterDecision::Allow, |f| f.evaluate(call));
            if decision == FilterDecision::Kill {
                state.bump(fx, Counter::FilterKills, 1);
                fx.push(Effect::FilterKill {
                    pid,
                    denied: call.number(),
                });
                let fault = crash(
                    state,
                    fx,
                    pid,
                    FaultKind::SyscallDenied(call.number()),
                    None,
                );
                return Err(fault.into());
            }
            let ns = state.cost.syscall_ns;
            state.charge_to(fx, pid, ns);
            state.bump(fx, Counter::Syscalls, 1);
            dispatch(state, fx, pid, call.clone()).map(StepValue::Ret)
        }

        // ---------------- IPC ----------------
        O::CreateChannel { a, b, capacity } => {
            state.require_running(*a)?;
            state.require_running(*b)?;
            let id = ChannelId(state.next_channel);
            state.next_channel += 1;
            state
                .channels
                .insert(id, RingChannel::new(*a, *b, *capacity));
            state.mark_channel(id);
            Ok(StepValue::Chan(id))
        }
        O::IpcSend { pid, chan, payload } => {
            let pid = *pid;
            state.require_running(pid)?;
            let latency = state.cost.ipc_latency_ns();
            let copy = state.cost.copy_cost(payload.len() as u64);
            // The frame is stamped with the sender's virtual time *after*
            // the charges below complete, so a receiver on its own
            // timeline merges against the true completion of the send.
            let send_ns = state.timeline_ns(pid) + latency + copy;
            let channel = state.channel_mut(*chan).ok_or(SimError::BadChannel)?;
            channel
                .send(pid, bytes::Bytes::copy_from_slice(payload), send_ns)
                .map_err(|e| match e {
                    RingError::Full => SimError::Errno(Errno::Enospc),
                    RingError::NotEndpoint => SimError::BadChannel,
                })?;
            state.charge_to(fx, pid, latency);
            state.charge_to(fx, pid, copy);
            state.bump(fx, Counter::IpcMessages, 1);
            state.bump(fx, Counter::IpcBytes, payload.len() as u64);
            Ok(StepValue::Unit)
        }
        O::IpcRecv { pid, chan } => {
            let pid = *pid;
            state.require_running(pid)?;
            let latency = state.cost.ipc_latency_ns();
            let channel = state.channel_mut(*chan).ok_or(SimError::BadChannel)?;
            match channel.try_recv(pid) {
                Ok(Some(frame)) => {
                    if state.mode == TimelineMode::PerProcess {
                        let t = state.timeline_mut(pid);
                        if frame.send_ns > t.now_ns() {
                            let delta = frame.send_ns - t.now_ns();
                            t.charge(delta);
                            state.bump(fx, Counter::TimelineMerges, 1);
                        }
                    }
                    state.charge_to(fx, pid, latency);
                    Ok(StepValue::PayloadOpt(Some(frame.payload.to_vec())))
                }
                Ok(None) => Ok(StepValue::PayloadOpt(None)),
                Err(_) => Err(SimError::BadChannel),
            }
        }
        O::RebindChannel { chan, new_b } => {
            let channel = state.channel_mut(*chan).ok_or(SimError::BadChannel)?;
            channel.rebind_b(*new_b);
            Ok(StepValue::Unit)
        }

        // ---------------- accounting ----------------
        O::ChargeTime { ns } => {
            state.charge_ctx(fx, *ns);
            Ok(StepValue::Unit)
        }
        O::ChargeCopy { bytes } => {
            let ns = state.cost.copy_cost(*bytes);
            state.charge_ctx(fx, ns);
            state.bump(fx, Counter::CopiedBytes, *bytes);
            state.bump(fx, Counter::CopyOps, 1);
            Ok(StepValue::Unit)
        }
        O::ChargeCompute { pid, units } => {
            let ns = state.cost.compute_cost(*units);
            state.charge_to(fx, *pid, ns);
            if let Ok(p) = state.process_mut(*pid) {
                p.cpu_ns += ns;
            }
            Ok(StepValue::Unit)
        }
        O::NoteCallsBatched { n } => {
            state.bump(fx, Counter::CallsBatched, *n);
            Ok(StepValue::Unit)
        }
        O::NoteSnapshotCopy { bytes } => {
            state.bump(fx, Counter::SnapshotBytesCopied, *bytes);
            Ok(StepValue::Unit)
        }
        O::NoteSnapshotSkip => {
            state.bump(fx, Counter::SnapshotObjectsSkipped, 1);
            Ok(StepValue::Unit)
        }
        O::ResetAccounting => {
            state.clock.reset();
            for pid in state.timelines.keys().copied().collect::<Vec<_>>() {
                state.timeline_mut(pid).reset();
            }
            state.metrics = crate::Metrics::new();
            Ok(StepValue::Unit)
        }

        // ---------------- virtual time ----------------
        O::EnablePerProcessTime => {
            if state.mode == TimelineMode::PerProcess {
                return Ok(StepValue::Unit);
            }
            state.mode = TimelineMode::PerProcess;
            let now = state.clock.now_ns();
            for pid in state.procs.keys().copied().collect::<Vec<_>>() {
                let mut c = VirtualClock::new();
                c.charge(now);
                *state.timeline_mut(pid) = c;
            }
            Ok(StepValue::Unit)
        }
        O::SetTimeContext { pid } => {
            let prev = std::mem::replace(&mut state.time_ctx, *pid);
            Ok(StepValue::ProcOpt(prev))
        }
        O::AdvanceTimeline { pid, ns } => {
            if state.mode == TimelineMode::PerProcess {
                let t = state.timeline_mut(*pid);
                if *ns > t.now_ns() {
                    let delta = *ns - t.now_ns();
                    t.charge(delta);
                    state.bump(fx, Counter::TimelineMerges, 1);
                }
            }
            Ok(StepValue::Unit)
        }

        // ---------------- harness seeding and GUI ----------------
        O::FsPut { path, bytes } => {
            state.fs.put(path, bytes.clone());
            Ok(StepValue::Unit)
        }
        O::AttachCamera { seed, frame_len } => {
            state.camera = Some(Camera::new(*seed, *frame_len));
            Ok(StepValue::Unit)
        }
        O::WinCreate { title } => Ok(StepValue::Win(state.display.create_window(title))),
        O::WinPresent { win, frame_len } => {
            Ok(StepValue::Flag(state.display.present(*win, *frame_len)))
        }
        O::WinDestroyAll => {
            state.display.destroy_all();
            Ok(StepValue::Unit)
        }
        O::WinPollKey => Ok(StepValue::KeyOpt(state.display.poll_key())),
        O::PushKey { key } => {
            state.display.push_key(*key);
            Ok(StepValue::Unit)
        }
    }
}
