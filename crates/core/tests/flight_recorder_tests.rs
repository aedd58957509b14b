//! End-to-end tests of the kernel flight recorder through the full
//! runtime: a recorded pipeline replays digest-identical from the
//! commit log alone, the replay-time auditors come back clean on honest
//! runs, the tracer's transition windows join to real commit slices,
//! and a recorded crash yields a forensic provenance chain.

use freepart::{
    crash_forensics, journal_exactly_once, transition_windows, w_grant_discipline, AuditRecord,
    Policy, Runtime,
};
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, Value};
use freepart_simos::replay::{audit, replay};
use freepart_simos::{CommitOp, FaultKind};

/// The OMR grader's per-sample call shape: walks the framework-state
/// machine through loading → processing → visualizing → storing.
fn omr_shaped_pipeline(rt: &mut Runtime) {
    rt.kernel.fs_put(
        "/in.simg",
        fileio::encode_image(&Image::new(16, 16, 3), None),
    );
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let gray = rt.call("cv2.cvtColor", &[img]).unwrap();
    let smooth = rt.call("cv2.GaussianBlur", &[gray]).unwrap();
    let thresh = rt.call("cv2.threshold", &[smooth]).unwrap();
    rt.call("cv2.findContours", std::slice::from_ref(&thresh))
        .unwrap();
    rt.call("cv2.imshow", &[Value::from("omr"), thresh.clone()])
        .unwrap();
    rt.call("cv2.imwrite", &[Value::from("/out.simg"), thresh])
        .unwrap();
}

#[test]
fn recording_is_off_by_default_and_free() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    omr_shaped_pipeline(&mut rt);
    assert_eq!(rt.kernel.commit_len(), 0);
    assert!(rt.kernel.take_commit_log().is_none());
}

#[test]
fn recorded_pipeline_replays_digest_identical_and_audits_clean() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
    rt.enable_tracing();
    omr_shaped_pipeline(&mut rt);

    let final_digest = rt.kernel.state_digest();
    let log = rt.kernel.take_commit_log().expect("recording was on");
    assert!(!log.is_empty(), "a full pipeline must commit transitions");

    // Digest-identical replay from the log alone: every step matches,
    // and the rebuilt kernel lands on the live kernel's final digest.
    let (rebuilt, report) = replay(&log);
    assert!(report.is_clean(), "divergences: {:?}", report.divergences);
    assert_eq!(report.steps, log.len());
    assert_eq!(rebuilt.state_digest(), final_digest);

    // The kernel-level invariant auditor finds nothing to flag.
    assert_eq!(audit(&log), Vec::new());

    // Every state transition that moved the kernel (locked or unlocked
    // pages) joins to a non-empty commit slice; transitions with
    // nothing to sweep legitimately commit nothing and carry no window.
    let windows = transition_windows(rt.tracer());
    let with_pages = rt
        .tracer()
        .audit_log()
        .iter()
        .filter(|r| matches!(r, AuditRecord::StateTransition { pages, .. } if *pages > 0))
        .count();
    assert!(!windows.is_empty(), "pipeline must change state");
    assert!(
        windows.len() >= with_pages,
        "{with_pages} page-moving transitions but only {} windows",
        windows.len()
    );
    for w in &windows {
        assert!(w.commits.0 < w.commits.1, "empty window: {w:?}");
        assert!(w.commits.1 <= log.len(), "window past log tail: {w:?}");
    }

    // Runtime-level disciplines hold across the whole trace.
    assert_eq!(
        w_grant_discipline(&log, &windows, rt.host_pid()),
        Vec::<String>::new()
    );
    assert_eq!(journal_exactly_once(rt.tracer()), Vec::<String>::new());
    assert!(crash_forensics(&log).is_empty(), "no crashes in this run");
}

#[test]
fn transition_storms_commit_at_most_two_protect_records() {
    // A cyclic pipeline: every sample re-enters each state, so the
    // per-state object sets (and the storms that walk them) keep growing.
    const SAMPLES: usize = 24;
    let run = |policy: Policy| {
        let mut rt = Runtime::install(standard_registry(), policy);
        rt.enable_tracing();
        for _ in 0..SAMPLES {
            omr_shaped_pipeline(&mut rt);
        }
        rt
    };
    let mut recorded = run(Policy::freepart_recorded());
    let plain = run(Policy::freepart());
    let log = recorded.kernel.take_commit_log().expect("recording was on");

    // One range-list protect per storm direction, however many objects
    // the storm covers.
    let windows = transition_windows(recorded.tracer());
    assert!(windows.len() >= 2 * SAMPLES, "{} windows", windows.len());
    for w in &windows {
        let protects = log.records()[w.commits.0 as usize..w.commits.1 as usize]
            .iter()
            .filter(|r| matches!(r.op, CommitOp::Protect { .. }))
            .count();
        assert!(protects <= 2, "{protects} protect records in {w:?}");
    }
    let widest = recorded
        .tracer()
        .audit_log()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::StateTransition { objects_locked, .. } => Some(*objects_locked),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(widest >= SAMPLES, "storms must grow: widest {widest}");

    // Recording changes what is logged, never what is modelled.
    assert_eq!(recorded.kernel.now_ns(), plain.kernel.now_ns());
    assert_eq!(
        recorded.kernel.metrics().protected_pages,
        plain.kernel.metrics().protected_pages
    );
}

#[test]
fn a_recorded_crash_yields_a_forensic_chain_to_its_provenance() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
    rt.enable_tracing();
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    rt.kernel.fs_put(
        "/evil.simg",
        fileio::encode_image(&Image::new(16, 16, 3), Some(&payload)),
    );
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);

    let log = rt.kernel.take_commit_log().expect("recording was on");
    let (_, report) = replay(&log);
    assert!(
        report.is_clean(),
        "crash runs replay too: {:?}",
        report.divergences
    );

    let crashes = crash_forensics(&log);
    assert!(!crashes.is_empty(), "the exploit must register as a crash");
    let c = &crashes[0];
    assert_eq!(c.kind, FaultKind::Abort);
    // The chain walks back from the fault through the agent's history:
    // at minimum the fault itself plus the commits that fed it.
    assert!(c.chain.len() >= 2, "thin chain: {:?}", c.chain);
    assert_eq!(c.chain[0], c.commit_index);
    assert!(c.chain.windows(2).all(|p| p[0] > p[1]), "most recent first");
}
