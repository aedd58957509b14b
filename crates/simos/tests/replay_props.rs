//! Property tests of the flight recorder: arbitrary recorded operation
//! sequences replay digest-identical and audit clean, and tampered logs
//! are flagged.

mod ops;

use freepart_simos::core::{outcome_of_step, step};
use freepart_simos::replay::{audit, forensic_chain, replay, DivergenceKind};
use freepart_simos::{
    Addr, CommitLog, CommitOp, CommitOutcome, Effects, Kernel, KernelState, Perms, Pid, PAGE_SIZE,
};
use ops::{arb_step, perms_of, pick, record};
use proptest::prelude::*;

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
