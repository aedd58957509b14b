//! Regression tests for the observability layer: the security audit
//! log's one-record-per-transition invariant, zero-cost-when-disabled
//! tracing, telemetry on the crash/replay path, and the Chrome
//! `trace_event` export.

use freepart::{AuditRecord, Policy, RestartBudget, Runtime, SpanPhase};
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, Value};
use freepart_simos::FaultKind;

/// Drives the OMR grader's per-sample call shape: load → process
/// (three hops) → contour extraction → display → store. Walks the
/// framework-state machine through every state.
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
fn every_transition_yields_one_audit_record_with_matching_page_delta() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    omr_shaped_pipeline(&mut rt);

    let transitions: Vec<_> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter(|r| matches!(r, AuditRecord::StateTransition { .. }))
        .collect();
    // Exactly one audit record per state-machine transition taken.
    assert_eq!(transitions.len() as u64, rt.stats().transitions);
    assert!(!transitions.is_empty(), "pipeline must change state");
    for r in &transitions {
        let AuditRecord::StateTransition { from, to, .. } = r else {
            unreachable!()
        };
        assert_ne!(from, to, "audit records only actual transitions");
    }

    // The audit log accounts for *every* mprotect page transition the
    // kernel counted: transition locks/unlocks plus migration reapplies.
    let audited: u64 = rt.tracer().audit_log().iter().map(AuditRecord::pages).sum();
    assert_eq!(audited, rt.kernel.metrics().protected_pages);
}

#[test]
fn tracing_disabled_records_nothing_and_enabled_costs_no_virtual_time() {
    let mut plain = Runtime::install(standard_registry(), Policy::freepart());
    plain.kernel.reset_accounting();
    omr_shaped_pipeline(&mut plain);
    assert!(plain.tracer().events().is_empty());
    assert!(plain.tracer().audit_log().is_empty());
    assert!(plain.tracer().stats().is_empty());

    let mut traced = Runtime::install(standard_registry(), Policy::freepart());
    traced.enable_tracing();
    traced.kernel.reset_accounting();
    omr_shaped_pipeline(&mut traced);
    assert!(!traced.tracer().events().is_empty());

    // Tracing only reads the virtual clock; both runs land on the same
    // nanosecond and the same kernel counters.
    assert_eq!(plain.kernel.now_ns(), traced.kernel.now_ns());
    assert_eq!(plain.kernel.metrics(), traced.kernel.metrics());
}

#[test]
fn replay_after_crash_shows_up_as_journal_hit_and_restart_span() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    rt.kernel.attach_camera(7, CAMERA_FRAME_LEN);
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();

    let read = rt.registry().id_of("cv2.VideoCapture.read").unwrap();
    let partition = rt.partition_of(read);
    rt.inject_crash_before_response(partition);
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();

    let journal_hits: u64 = rt
        .tracer()
        .partition_rollup()
        .values()
        .map(|s| s.journal_hits)
        .sum();
    assert_eq!(journal_hits, 1, "retry must be answered from the journal");
    let phases: Vec<SpanPhase> = rt.tracer().events().iter().map(|e| e.phase).collect();
    assert!(phases.contains(&SpanPhase::Replay));
    assert!(phases.contains(&SpanPhase::Restart));
}

#[test]
fn chrome_export_gives_each_application_thread_its_own_row() {
    use freepart::ThreadId;

    // A budgeted, snapshotting policy so the same two-thread run can
    // also exercise the supervisor instants below.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 1,
            restart_budget: Some(RestartBudget {
                burst: 1,
                refill_ns: 1 << 40,
                backoff_ns: 100,
            }),
            ..Policy::freepart()
        },
    );
    rt.enable_tracing();
    rt.kernel
        .fs_put("/in.simg", fileio::encode_image(&Image::new(8, 8, 3), None));
    let writer = rt.spawn_thread();
    let img = rt
        .call_on(ThreadId::MAIN, "cv2.imread", &[Value::from("/in.simg")])
        .unwrap();
    rt.call_on(writer, "cv2.imwrite", &[Value::from("/out.simg"), img])
        .unwrap();

    // Supervisor events: a snapshot lost to an injected restore failure
    // (the restart burns the only budget token), then a crash whose
    // respawn is denied on the empty bucket.
    rt.kernel.attach_camera(5, CAMERA_FRAME_LEN);
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    let loading = rt.partition_of(rt.registry().id_of("cv2.VideoCapture.read").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.inject_restore_failure(loading);
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    rt.restart_agent(loading);
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    rt.kernel.fs_put(
        "/evil.simg",
        fileio::encode_image(&Image::new(16, 16, 3), Some(&payload)),
    );
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    assert!(rt
        .tracer()
        .audit_log()
        .iter()
        .any(|r| matches!(r, AuditRecord::SnapshotLost { .. })));
    assert!(rt
        .tracer()
        .audit_log()
        .iter()
        .any(|r| matches!(r, AuditRecord::RestartDenied { .. })));

    let json = rt.export_chrome_trace();
    // One thread_name metadata row per application thread that emitted
    // events, so the two threads render as distinct Perfetto rows.
    assert!(
        json.contains("\"name\":\"thread_name\",\"pid\":0,\"tid\":0"),
        "main thread row missing"
    );
    assert!(
        json.contains(&format!(
            "\"name\":\"thread_name\",\"pid\":0,\"tid\":{}",
            writer.0
        )),
        "spawned thread row missing"
    );
    // And the spans themselves carry the real thread ids.
    assert!(json.contains(&format!("\"tid\":{},\"ts\"", writer.0)));

    // The supervisor actions render as global instant events on the
    // crash-storm timeline.
    assert!(
        json.contains("snapshot_lost"),
        "SnapshotLost instant missing"
    );
    assert!(
        json.contains("restart_denied"),
        "RestartDenied instant missing"
    );
    assert!(
        json.contains("\"cat\":\"supervisor\""),
        "supervisor category missing"
    );
    assert!(
        json.contains("\"ph\":\"i\"") && json.contains("\"s\":\"g\""),
        "supervisor events must be global-scope instants"
    );
}

#[test]
fn a_poller_consuming_incrementally_sees_every_record_exactly_once() {
    // The adaptive-controller consumption pattern: poll
    // `events_since`/`audit_since` between calls, resuming each poll at
    // the previous high-water mark. The concatenation of the polls must
    // equal the full log — nothing dropped, nothing duplicated.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    rt.kernel.fs_put(
        "/in.simg",
        fileio::encode_image(&Image::new(16, 16, 3), None),
    );

    let mut seen_events = Vec::new();
    let mut seen_audit = Vec::new();
    let mut ev_mark = 0;
    let mut audit_mark = 0;
    let mut poll = |rt: &Runtime, ev_mark: &mut usize, audit_mark: &mut usize| {
        let t = rt.tracer();
        seen_events.extend(t.events_since(*ev_mark).iter().cloned());
        seen_audit.extend(t.audit_since(*audit_mark).iter().cloned());
        *ev_mark = t.events().len();
        *audit_mark = t.audit_log().len();
    };

    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    poll(&rt, &mut ev_mark, &mut audit_mark);
    let gray = rt.call("cv2.cvtColor", &[img]).unwrap();
    poll(&rt, &mut ev_mark, &mut audit_mark);
    // An idle poll between calls yields nothing new.
    poll(&rt, &mut ev_mark, &mut audit_mark);
    rt.call("cv2.imwrite", &[Value::from("/out.simg"), gray])
        .unwrap();
    poll(&rt, &mut ev_mark, &mut audit_mark);

    assert!(!seen_events.is_empty() && !seen_audit.is_empty());
    assert_eq!(seen_events, rt.tracer().events());
    assert_eq!(seen_audit, rt.tracer().audit_log());
}

#[test]
fn chrome_export_names_host_and_every_partition() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    omr_shaped_pipeline(&mut rt);
    rt.trace_mark("omr:done");

    let json = rt.export_chrome_trace();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"name\":\"host\""));
    for (_, label) in rt.partition_labels() {
        assert!(json.contains(&label), "partition row missing: {label}");
    }
    assert!(json.contains("cv2.imread"), "Call spans carry API names");
    assert!(json.contains("omr:done"), "driver marks are exported");
}
