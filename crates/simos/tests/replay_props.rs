//! Property tests of the flight recorder: arbitrary recorded operation
//! sequences replay digest-identical and audit clean, and tampered logs
//! are flagged.

use freepart_simos::core::{outcome_of_step, step};
use freepart_simos::replay::{audit, forensic_chain, replay, DivergenceKind};
use freepart_simos::{
    Addr, CommitLog, CommitOp, CommitOutcome, Effects, Kernel, KernelState, Perms, Pid, Syscall,
    SyscallFilter, SyscallNo, PAGE_SIZE,
};
use proptest::prelude::*;

/// One step of a randomized workload over a small cast of processes,
/// exercising every subsystem the commit log covers.
#[derive(Debug, Clone)]
enum Step {
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
}

fn arb_step() -> impl Strategy<Value = Step> {
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
    ]
}

fn perms_of(m: u8) -> Perms {
    match m {
        0 => Perms::NONE,
        1 => Perms::R,
        2 => Perms::RW,
        3 => Perms::RX,
        _ => Perms::RWX,
    }
}

fn pick<T: Copy>(items: &[T], i: u8) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[i as usize % items.len()])
    }
}

/// Drives a recording kernel through `steps`, ignoring per-step errors
/// (faults, dead processes, bad handles are all legitimate transitions —
/// the recorder must capture them too). Returns the detached log.
fn record(steps: &[Step]) -> CommitLog {
    let mut k = Kernel::new();
    k.enable_commit_log();
    let mut pids = vec![k.spawn("p0")];
    let mut regions = Vec::new();
    let mut segs = Vec::new();
    let mut chans = Vec::new();
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
        }
    }
    k.take_commit_log().unwrap()
}

/// A per-process-time kernel with one region of `pages[i]` pages per
/// process, some of it already re-protected by `pre`. Deterministic, so
/// two calls build identical kernels.
fn protect_fixture(pages: &[u64], pre: &[(u8, u8)]) -> (Kernel, Vec<(Pid, Addr, u64)>) {
    let mut k = Kernel::new();
    k.enable_per_process_time();
    let regions: Vec<_> = pages
        .iter()
        .map(|&n| {
            let pid = k.spawn("p");
            (
                pid,
                k.alloc(pid, n * PAGE_SIZE, Perms::RW).unwrap(),
                n * PAGE_SIZE,
            )
        })
        .collect();
    for &(r, m) in pre {
        let (pid, addr, len) = pick(&regions, r).unwrap();
        k.protect(pid, addr, len / 2 + 1, perms_of(m)).unwrap();
    }
    (k, regions)
}

proptest! {
    /// One batched protect over a list of valid ranges — overlapping or
    /// not, across several processes — leaves the kernel exactly where
    /// the same ranges applied one op each would: same changed-page
    /// total, `protected_pages`, per-pid virtual time, address-space
    /// fingerprints and state digest.
    #[test]
    fn batched_protect_equals_one_op_per_range(
        pages in proptest::collection::vec(1u64..5, 1..5),
        pre in proptest::collection::vec((any::<u8>(), 0u8..5), 0..6),
        picks in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..8),
        m in 0u8..5,
    ) {
        let (mut batched, regions) = protect_fixture(&pages, &pre);
        let (mut single, _) = protect_fixture(&pages, &pre);
        let ranges: Vec<(Pid, Addr, u64)> = picks
            .iter()
            .map(|&(r, off, len)| {
                let (pid, addr, size) = pick(&regions, r).unwrap();
                let off = off % size;
                (pid, Addr(addr.0 + off), 1 + len % (size - off))
            })
            .collect();
        let perms = perms_of(m);
        let total = batched.protect_ranges(perms, ranges.clone()).unwrap();
        let mut sum = 0;
        for &(pid, addr, len) in &ranges {
            sum += single.protect(pid, addr, len, perms).unwrap();
        }
        prop_assert_eq!(total, sum);
        prop_assert_eq!(batched.metrics().protected_pages, single.metrics().protected_pages);
        for &(pid, ..) in &regions {
            prop_assert_eq!(batched.timeline_ns(pid), single.timeline_ns(pid));
            prop_assert_eq!(
                batched.process(pid).unwrap().aspace.fingerprint(),
                single.process(pid).unwrap().aspace.fingerprint()
            );
        }
        prop_assert_eq!(batched.state_digest(), single.state_digest());
    }

    /// Any recorded run replays digest-identical — zero divergences —
    /// and the rebuilt kernel's final digest matches the log's last
    /// record. The whole-trace invariant auditor passes too: honest
    /// kernels never violate their own invariants.
    #[test]
    fn arbitrary_recorded_runs_replay_clean(steps in proptest::collection::vec(arb_step(), 1..60)) {
        let log = record(&steps);
        let (k, report) = replay(&log);
        prop_assert!(report.is_clean(), "divergences: {:?}", report.divergences);
        prop_assert_eq!(report.steps, log.len());
        if let Some(last) = log.records().last() {
            prop_assert_eq!(k.state_digest(), last.digest);
        }
        prop_assert_eq!(audit(&log), Vec::new());
    }

    /// Differential test of shell vs. core: the shell [`Kernel`] driven
    /// through its public entry points and a standalone [`KernelState`]
    /// folded through the pure [`step`] agree on the outcome summary and
    /// the state digest at **every** record — the shell adds nothing to
    /// the semantics.
    #[test]
    fn shell_and_pure_core_agree_step_for_step(steps in proptest::collection::vec(arb_step(), 1..60)) {
        let log = record(&steps);
        let mut state = KernelState::with_cost_model(log.genesis().clone());
        let mut fx = Effects::new();
        for rec in log.records() {
            fx.clear();
            let got = outcome_of_step(&step(&mut state, rec.op.clone(), &mut fx));
            prop_assert_eq!(got, rec.outcome, "outcome drift at index {}", rec.index);
            prop_assert_eq!(state.digest(), rec.digest, "digest drift at index {}", rec.index);
        }
    }

    /// Flipping any one op's payload byte, outcome, or digest in a
    /// non-empty log is detected by replay.
    #[test]
    fn any_single_record_tamper_is_detected(steps in proptest::collection::vec(arb_step(), 4..40),
                                            which in any::<u16>()) {
        let log = record(&steps);
        if !log.is_empty() {
            let mut records = log.records().to_vec();
            let idx = which as usize % records.len();
            // Tamper with the digest: the cheapest universal forgery.
            records[idx].digest ^= 0xdead_beef;
            let forged = CommitLog::from_parts(log.genesis().clone(), records);
            let (_, report) = replay(&forged);
            prop_assert!(report
                .divergences
                .iter()
                .any(|d| d.kind == DivergenceKind::Digest && d.index == idx as u64));
        }
    }

    /// Forensic chains are well-formed on arbitrary logs: they start at
    /// the queried record, stay in range, and are strictly decreasing.
    #[test]
    fn forensic_chains_are_well_formed(steps in proptest::collection::vec(arb_step(), 1..40),
                                       which in any::<u16>()) {
        let log = record(&steps);
        if log.is_empty() {
            return;
        }
        let from = u64::from(which) % log.len();
        let chain = forensic_chain(&log, from);
        prop_assert_eq!(chain[0], from);
        for pair in chain.windows(2) {
            prop_assert!(pair[1] < pair[0]);
        }
        // A seeded violation: splicing a grant to a pid the log already
        // recorded as dead trips the auditor.
        if let Some(seg_rec) = log
            .records()
            .iter()
            .find(|r| matches!(r.op, CommitOp::ShmCreate { .. }) && r.outcome.is_ok())
        {
            if let Some(dead_rec) = log
                .records()
                .iter()
                .find(|r| matches!(r.op, CommitOp::DeliverFault { .. }))
            {
                let seg = freepart_simos::ShmId(seg_rec.outcome.raw());
                let victim = dead_rec.op.acting_pid().unwrap();
                let mut records = log.records().to_vec();
                records.push(freepart_simos::CommitRecord {
                    index: 0,
                    op: CommitOp::ShmGrant {
                        id: seg,
                        pid: victim,
                        perms: Perms::RW,
                    },
                    outcome: CommitOutcome::Ok(0),
                    digest: 0,
                });
                let forged = CommitLog::from_parts(log.genesis().clone(), records);
                prop_assert!(audit(&forged).iter().any(|v| v.rule == "grant-to-dead"));
            }
        }
    }
}
