//! Property tests of the incremental state digest: after every step of
//! an arbitrary recorded run, the digest the kernel keeps up to date
//! equals the one recomputed from scratch — so no transition changes an
//! entity without marking it — and equals what the recorder wrote.

mod ops;

use freepart_simos::core::step;
use freepart_simos::replay::audit;
use freepart_simos::{
    CommitLog, CommitOp, Effects, FaultKind, GroupKey, GroupMove, Kernel, KernelState, Perms,
    Syscall, SyscallFilter, SyscallNo, SyscallRet,
};
use ops::{arb_step, record};
use proptest::prelude::*;

/// Folds `log` through a fresh state, comparing the incremental digest
/// with the from-scratch one (and the recorded one) after every
/// `every`-th step, and after the last.
fn check_fold(log: &CommitLog, every: usize) {
    let mut state = KernelState::with_cost_model(log.genesis().clone());
    prop_assert_eq!(state.digest(), state.digest_reference());
    let mut fx = Effects::new();
    let n = log.records().len();
    for (i, rec) in log.records().iter().enumerate() {
        fx.clear();
        let _ = step(&mut state, rec.op.clone(), &mut fx);
        if (i + 1) % every == 0 || i + 1 == n {
            let digest = state.digest();
            prop_assert_eq!(
                digest,
                state.digest_reference(),
                "drift after record {} ({})",
                rec.index,
                rec.op.name()
            );
            prop_assert_eq!(digest, rec.digest, "record {} digest", rec.index);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incremental digest equals the reference after every step.
    #[test]
    fn incremental_digest_matches_reference_after_every_step(
        steps in proptest::collection::vec(arb_step(), 1..80),
    ) {
        check_fold(&record(&steps), 1);
    }

    /// Digests taken only every few steps fold several ops' marks at
    /// once and still match.
    #[test]
    fn late_digests_fold_accumulated_marks(
        steps in proptest::collection::vec(arb_step(), 1..80),
        every in 2usize..12,
    ) {
        check_fold(&record(&steps), every);
    }
}

/// A fixed run touching every kind of transition the digest must see:
/// spawn, crash, reap, fd open/read/seek/close, filter install and lock,
/// channel create and rebind, the whole shm lifecycle, per-process time,
/// and a page-group protect.
fn tour() -> CommitLog {
    let mut k = Kernel::new();
    k.enable_commit_log();
    let a = k.spawn("a");
    let b = k.spawn("b");
    let c = k.spawn("c");
    k.fs_put("/f", vec![3; 256]);
    let Ok(SyscallRet::NewFd(fd)) = k.syscall(
        a,
        Syscall::Openat {
            path: "/f".into(),
            create: false,
        },
    ) else {
        panic!("open refused");
    };
    k.syscall(a, Syscall::Read { fd, len: 16 }).unwrap();
    k.syscall(a, Syscall::Lseek { fd, pos: 200 }).unwrap();
    k.syscall(a, Syscall::Close { fd }).unwrap();
    let filter = SyscallFilter::allowing([SyscallNo::Getpid, SyscallNo::Prctl]);
    k.install_filter(b, filter).unwrap();
    k.syscall(b, Syscall::PrctlNoNewPrivs).unwrap();
    let ch = k.create_channel(a, c, 1 << 12).unwrap();
    k.ipc_send(a, ch, b"hello").unwrap();
    let id = k.shm_create(a, vec![9; 5000]).unwrap();
    k.shm_grant(id, b, Perms::R).unwrap();
    k.shm_map(b, id).unwrap();
    k.shm_protect_all(id, Perms::NONE).unwrap();
    k.shm_revoke(id, b).unwrap();
    k.enable_per_process_time();
    k.set_time_context(Some(c));
    k.charge_time(500);
    k.advance_timeline_to(b, 1_000_000);
    let addr = k.alloc(a, 8 * 4096, Perms::RW).unwrap();
    k.protect_groups(
        Perms::R,
        vec![GroupMove {
            pid: a,
            leave: Vec::new(),
            join: vec![(addr, 8 * 4096)],
            from: GroupKey(1),
            to: GroupKey(2),
        }],
    )
    .unwrap();
    k.deliver_fault(c, FaultKind::Abort, None);
    k.reap(c).unwrap();
    let d = k.spawn("d");
    k.rebind_channel(ch, d).unwrap();
    k.ipc_recv(d, ch).unwrap();
    k.shm_destroy(id);
    k.reset_accounting();
    k.take_commit_log().unwrap()
}

#[test]
fn tour_covers_every_transition_kind_without_drift() {
    let log = tour();
    let names: Vec<&str> = log.records().iter().map(|r| r.op.name()).collect();
    for want in [
        "spawn",
        "deliver_fault",
        "reap",
        "syscall",
        "install_filter",
        "create_channel",
        "rebind_channel",
        "shm_create",
        "shm_grant",
        "shm_map",
        "shm_revoke",
        "shm_destroy",
        "enable_per_process_time",
        "advance_timeline",
        "protect",
    ] {
        assert!(names.contains(&want), "tour lacks {want}: {names:?}");
    }
    check_fold(&log, 1);
    assert!(audit(&log).is_empty(), "{:?}", audit(&log));
}

#[test]
fn audit_flags_nothing_but_real_drift() {
    // A clean log audits clean, including the digest-drift rule; the
    // rule's subject is the kernel, not the log, so no forgery can
    // trip it — only a missed dirty mark can.
    let log = tour();
    assert!(!audit(&log).iter().any(|v| v.rule == "digest-drift"));
    let mut records = log.records().to_vec();
    for r in &mut records {
        r.digest ^= 1;
        if let CommitOp::ChargeTime { ns } = &mut r.op {
            *ns += 1;
        }
    }
    let forged = CommitLog::from_parts(log.genesis().clone(), records);
    assert!(!audit(&forged).iter().any(|v| v.rule == "digest-drift"));
}
