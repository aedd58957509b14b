//! Randomized kernel workloads shared by the property tests: a step
//! vocabulary over a small cast of processes that exercises every
//! subsystem the commit log covers, and a driver that records a run.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use freepart_simos::{
    Addr, CommitLog, FaultKind, GroupKey, GroupMove, Kernel, Perms, Syscall, SyscallFilter,
    SyscallNo, SyscallRet, PAGE_SIZE,
};
use proptest::prelude::*;

/// One step of a randomized workload over a small cast of processes,
/// exercising every subsystem the commit log covers.
#[derive(Debug, Clone)]
pub enum Step {
    Spawn,
    Alloc(u8, u16),
    Write(u8, u8, Vec<u8>),
    Protect(u8, u8, u8),
    /// One range-list protect: `(pid, region, page offset, byte len)`
    /// per range — pids may be dead or reaped, ranges may overlap or run
    /// off their region into unmapped pages.
    ProtectBatch(Vec<(u8, u8, u8, u16)>, u8),
    ShmCreate(u8, u16),
    ShmGrant(u8, u8, u8),
    ShmMap(u8, u8),
    ShmRevoke(u8, u8),
    ShmWrite(u8, u8, Vec<u8>),
    Channel(u8, u8),
    Send(u8, u8, Vec<u8>),
    Recv(u8, u8),
    Filter(u8, bool),
    Seal(u8),
    Sys(u8, u8),
    ForceExit(u8),
    Reap(u8),
    FsPut(u8, Vec<u8>),
    Gui(u8),
    Compute(u8, u16),
    Reset,
    /// A fault delivered from outside (crash injection).
    Crash(u8),
    /// `openat` of one of four files, creating it.
    Open(u8, u8),
    /// `close`, `lseek` and `read` on a descriptor some earlier `Open`
    /// returned (its process may have died or been reaped since).
    Close(u8),
    Seek(u8, u16),
    ReadFd(u8, u16),
    ShmProtectAll(u8, u8),
    ShmDestroy(u8),
    Rebind(u8, u8),
    PerProcessTime,
    /// Sets (`true`) or clears the time context.
    TimeCtx(u8, bool),
    Advance(u8, u32),
    /// One page-group move over a region: `(region, mode, from, to,
    /// perms)` — mode 0 joins the region to `from`, 1 makes it leave,
    /// 2 flips `from` as it stands.
    Group(u8, u8, u8, u8, u8),
}

pub fn arb_step() -> impl Strategy<Value = Step> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..32);
    prop_oneof![
        Just(Step::Spawn),
        (any::<u8>(), 1u16..2048).prop_map(|(p, n)| Step::Alloc(p, n)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(p, r, d)| Step::Write(p, r, d)),
        (any::<u8>(), any::<u8>(), 0u8..5).prop_map(|(p, r, m)| Step::Protect(p, r, m)),
        (
            proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..3, 1u16..9000), 0..6),
            0u8..5
        )
            .prop_map(|(rs, m)| Step::ProtectBatch(rs, m)),
        (any::<u8>(), 1u16..2048).prop_map(|(p, n)| Step::ShmCreate(p, n)),
        (any::<u8>(), any::<u8>(), 0u8..5).prop_map(|(s, p, m)| Step::ShmGrant(s, p, m)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, p)| Step::ShmMap(s, p)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, p)| Step::ShmRevoke(s, p)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(s, p, d)| Step::ShmWrite(s, p, d)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Channel(a, b)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(c, p, d)| Step::Send(c, p, d)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, p)| Step::Recv(c, p)),
        (any::<u8>(), any::<bool>()).prop_map(|(p, wide)| Step::Filter(p, wide)),
        any::<u8>().prop_map(Step::Seal),
        (any::<u8>(), any::<u8>()).prop_map(|(p, s)| Step::Sys(p, s)),
        any::<u8>().prop_map(Step::ForceExit),
        any::<u8>().prop_map(Step::Reap),
        (any::<u8>(), bytes()).prop_map(|(p, d)| Step::FsPut(p, d)),
        any::<u8>().prop_map(Step::Gui),
        (any::<u8>(), 1u16..500).prop_map(|(p, u)| Step::Compute(p, u)),
        Just(Step::Reset),
        any::<u8>().prop_map(Step::Crash),
        (any::<u8>(), any::<u8>()).prop_map(|(p, f)| Step::Open(p, f)),
        any::<u8>().prop_map(Step::Close),
        (any::<u8>(), any::<u16>()).prop_map(|(f, pos)| Step::Seek(f, pos)),
        (any::<u8>(), 1u16..64).prop_map(|(f, n)| Step::ReadFd(f, n)),
        (any::<u8>(), 0u8..5).prop_map(|(s, m)| Step::ShmProtectAll(s, m)),
        any::<u8>().prop_map(Step::ShmDestroy),
        (any::<u8>(), any::<u8>()).prop_map(|(c, p)| Step::Rebind(c, p)),
        Just(Step::PerProcessTime),
        (any::<u8>(), any::<bool>()).prop_map(|(p, set)| Step::TimeCtx(p, set)),
        (any::<u8>(), any::<u32>()).prop_map(|(p, ns)| Step::Advance(p, ns)),
        (any::<u8>(), 0u8..3, 0u8..3, 0u8..3, 0u8..5)
            .prop_map(|(r, mode, from, to, m)| Step::Group(r, mode, from, to, m)),
    ]
}

pub fn perms_of(m: u8) -> Perms {
    match m {
        0 => Perms::NONE,
        1 => Perms::R,
        2 => Perms::RW,
        3 => Perms::RX,
        _ => Perms::RWX,
    }
}

pub fn pick<T: Copy>(items: &[T], i: u8) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[i as usize % items.len()])
    }
}

/// Drives a recording kernel through `steps`, ignoring per-step errors
/// (faults, dead processes, bad handles are all legitimate transitions —
/// the recorder must capture them too). Returns the detached log.
pub fn record(steps: &[Step]) -> CommitLog {
    let mut k = Kernel::new();
    k.enable_commit_log();
    let mut pids = vec![k.spawn("p0")];
    let mut regions = Vec::new();
    let mut segs = Vec::new();
    let mut chans = Vec::new();
    let mut fds = Vec::new();
    for s in steps {
        match s {
            Step::Spawn => {
                if pids.len() < 8 {
                    pids.push(k.spawn("p"));
                }
            }
            Step::Alloc(p, n) => {
                if let Some(pid) = pick(&pids, *p) {
                    if let Ok(a) = k.alloc(pid, u64::from(*n), Perms::RW) {
                        regions.push((pid, a, u64::from(*n)));
                    }
                }
            }
            Step::Write(p, r, d) => {
                if let (Some(pid), Some(&(_, a, len))) = (
                    pick(&pids, *p),
                    regions.get(*r as usize % regions.len().max(1)),
                ) {
                    let n = d.len().min(len as usize);
                    let _ = k.mem_write(pid, a, &d[..n]);
                }
            }
            Step::Protect(p, r, m) => {
                if let (Some(pid), Some(&(_, a, len))) = (
                    pick(&pids, *p),
                    regions.get(*r as usize % regions.len().max(1)),
                ) {
                    let _ = k.protect(pid, a, len, perms_of(*m));
                }
            }
            Step::ProtectBatch(rs, m) => {
                let ranges: Vec<_> = rs
                    .iter()
                    .filter_map(|&(p, r, off, len)| {
                        let (_, a, _) = pick(&regions, r)?;
                        let addr = Addr(a.0 + u64::from(off) * PAGE_SIZE);
                        Some((pick(&pids, p)?, addr, u64::from(len)))
                    })
                    .collect();
                let before = k.state_digest();
                if k.protect_ranges(perms_of(*m), ranges).is_err() {
                    assert_eq!(
                        k.state_digest(),
                        before,
                        "a failed batch must change nothing"
                    );
                }
            }
            Step::ShmCreate(p, n) => {
                if let Some(pid) = pick(&pids, *p) {
                    if let Ok(id) = k.shm_create(pid, vec![7; *n as usize]) {
                        segs.push(id);
                    }
                }
            }
            Step::ShmGrant(s, p, m) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_grant(id, pid, perms_of(*m));
                }
            }
            Step::ShmMap(s, p) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_map(pid, id);
                }
            }
            Step::ShmRevoke(s, p) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_revoke(id, pid);
                }
            }
            Step::ShmWrite(s, p, d) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_write(pid, id, d);
                }
            }
            Step::Channel(a, b) => {
                if let (Some(pa), Some(pb)) = (pick(&pids, *a), pick(&pids, *b)) {
                    if let Ok(c) = k.create_channel(pa, pb, 1 << 12) {
                        chans.push(c);
                    }
                }
            }
            Step::Send(c, p, d) => {
                if let (Some(ch), Some(pid)) = (pick(&chans, *c), pick(&pids, *p)) {
                    let _ = k.ipc_send(pid, ch, d);
                }
            }
            Step::Recv(c, p) => {
                if let (Some(ch), Some(pid)) = (pick(&chans, *c), pick(&pids, *p)) {
                    let _ = k.ipc_recv(pid, ch);
                }
            }
            Step::Filter(p, wide) => {
                if let Some(pid) = pick(&pids, *p) {
                    let f = if *wide {
                        SyscallFilter::allowing(SyscallNo::ALL.iter().copied())
                    } else {
                        SyscallFilter::allowing([SyscallNo::Getpid, SyscallNo::Prctl])
                    };
                    let _ = k.install_filter(pid, f);
                }
            }
            Step::Seal(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    let _ = k.set_no_new_privs(pid);
                }
            }
            Step::Sys(p, s) => {
                if let Some(pid) = pick(&pids, *p) {
                    let call = match s % 6 {
                        0 => Syscall::Getpid,
                        1 => Syscall::Fork,
                        2 => Syscall::Uname,
                        3 => Syscall::PrctlNoNewPrivs,
                        4 => Syscall::Brk { grow: 64 },
                        _ => Syscall::Getrandom { len: 8 },
                    };
                    let _ = k.syscall(pid, call);
                }
            }
            Step::ForceExit(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.force_exit(pid, 1);
                }
            }
            Step::Reap(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    let _ = k.reap(pid);
                }
            }
            Step::FsPut(p, d) => {
                k.fs_put(&format!("/f{}", p % 4), d.clone());
            }
            Step::Gui(p) => {
                let w = k.win_create(&format!("w{}", p % 3));
                k.win_present(w, 64);
                k.push_key(*p);
                k.win_poll_key();
                if p % 5 == 0 {
                    k.win_destroy_all();
                }
            }
            Step::Compute(p, u) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.charge_compute(pid, u64::from(*u));
                }
            }
            Step::Reset => k.reset_accounting(),
            Step::Crash(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.deliver_fault(pid, FaultKind::Abort, None);
                }
            }
            Step::Open(p, f) => {
                if let Some(pid) = pick(&pids, *p) {
                    let call = Syscall::Openat {
                        path: format!("/f{}", f % 4),
                        create: true,
                    };
                    if let Ok(SyscallRet::NewFd(fd)) = k.syscall(pid, call) {
                        fds.push((pid, fd));
                    }
                }
            }
            Step::Close(f) => {
                if let Some((pid, fd)) = pick(&fds, *f) {
                    let _ = k.syscall(pid, Syscall::Close { fd });
                }
            }
            Step::Seek(f, pos) => {
                if let Some((pid, fd)) = pick(&fds, *f) {
                    let pos = u64::from(*pos);
                    let _ = k.syscall(pid, Syscall::Lseek { fd, pos });
                }
            }
            Step::ReadFd(f, n) => {
                if let Some((pid, fd)) = pick(&fds, *f) {
                    let len = u64::from(*n);
                    let _ = k.syscall(pid, Syscall::Read { fd, len });
                }
            }
            Step::ShmProtectAll(s, m) => {
                if let Some(id) = pick(&segs, *s) {
                    let _ = k.shm_protect_all(id, perms_of(*m));
                }
            }
            Step::ShmDestroy(s) => {
                if let Some(id) = pick(&segs, *s) {
                    k.shm_destroy(id);
                }
            }
            Step::Rebind(c, p) => {
                if let (Some(ch), Some(pid)) = (pick(&chans, *c), pick(&pids, *p)) {
                    let _ = k.rebind_channel(ch, pid);
                }
            }
            Step::PerProcessTime => k.enable_per_process_time(),
            Step::TimeCtx(p, set) => {
                let pid = pick(&pids, *p).filter(|_| *set);
                k.set_time_context(pid);
            }
            Step::Advance(p, ns) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.advance_timeline_to(pid, u64::from(*ns));
                }
            }
            Step::Group(r, mode, from, to, m) => {
                if let Some((pid, addr, len)) = pick(&regions, *r) {
                    let range = vec![(addr, len)];
                    let (leave, join) = match mode {
                        0 => (Vec::new(), range),
                        1 => (range, Vec::new()),
                        _ => (Vec::new(), Vec::new()),
                    };
                    let mv = GroupMove {
                        pid,
                        leave,
                        join,
                        from: GroupKey(u64::from(*from)),
                        to: GroupKey(u64::from(*to)),
                    };
                    let _ = k.protect_groups(perms_of(*m), vec![mv]);
                }
            }
        }
    }
    k.take_commit_log().unwrap()
}
