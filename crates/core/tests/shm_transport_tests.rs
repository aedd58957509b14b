//! Tests for the zero-copy shared-memory transport: temporal grants,
//! revoke-at-transition ordering in the audit log, counter surfacing in
//! [`RuntimeStats`], and the host-resident fast path of `fetch_bytes`.

use freepart::{AuditRecord, Policy, Runtime, SpanPhase};
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, Value};

/// Drives the OMR grader's call shape with a payload large enough to
/// clear [`Policy::DEFAULT_SHM_THRESHOLD`] (32×32×3 = 3072 bytes), so
/// image objects ride the segment path under [`Policy::freepart_shm`].
fn shm_sized_pipeline(rt: &mut Runtime) -> Value {
    rt.kernel.fs_put(
        "/in.simg",
        fileio::encode_image(&Image::new(32, 32, 3), None),
    );
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let gray = rt.call("cv2.cvtColor", std::slice::from_ref(&img)).unwrap();
    let smooth = rt.call("cv2.GaussianBlur", &[gray]).unwrap();
    let thresh = rt.call("cv2.threshold", &[smooth]).unwrap();
    rt.call("cv2.findContours", std::slice::from_ref(&thresh))
        .unwrap();
    rt.call("cv2.imwrite", &[Value::from("/out.simg"), thresh])
        .unwrap();
    img
}

#[test]
fn runtime_stats_surface_the_kernel_shm_counters() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_shm());
    shm_sized_pipeline(&mut rt);

    let stats = rt.stats();
    let m = rt.kernel.metrics();
    assert!(stats.shm_grants > 0, "large payloads must ride shm");
    assert!(stats.shm_revokes > 0, "transitions must revoke stale views");
    assert!(stats.shm_mapped_bytes > 0);
    assert_eq!(stats.shm_grants, m.shm_grants);
    assert_eq!(stats.shm_revokes, m.shm_revokes);
    assert_eq!(stats.shm_mapped_bytes, m.shm_mapped_bytes);

    // Off by default: the same pipeline under plain FreePart never
    // touches a segment.
    let mut plain = Runtime::install(standard_registry(), Policy::freepart());
    shm_sized_pipeline(&mut plain);
    assert_eq!(plain.stats().shm_grants, 0);
    assert_eq!(plain.stats().shm_mapped_bytes, 0);
}

#[test]
fn state_transitions_revoke_out_of_state_grants() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_shm());
    rt.kernel.fs_put(
        "/in.simg",
        fileio::encode_image(&Image::new(32, 32, 3), None),
    );
    let loader_pid = {
        let api = rt.registry().id_of("cv2.imread").unwrap();
        rt.agent(rt.partition_of(api)).unwrap().pid
    };
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    // The processing call promotes the image into a segment; the loader
    // (its creator and previous home) holds the owner grant. (cvtColor
    // would not do: it is type-neutral and runs in the loader itself.)
    let gray = rt
        .call("cv2.GaussianBlur", std::slice::from_ref(&img))
        .unwrap();
    let img_id = img.as_obj().unwrap();
    let (seg, _) = rt.objects.meta(img_id).unwrap().shm.expect("promoted");
    assert!(
        rt.kernel
            .shm_segment(seg)
            .unwrap()
            .grant_of(loader_pid)
            .is_some(),
        "creator keeps its view while the state holds"
    );
    // Storing transition: the drain barrier fires and every grant not
    // held by the segment's current home is torn down.
    rt.call("cv2.imwrite", &[Value::from("/out.simg"), gray])
        .unwrap();
    assert!(
        rt.kernel
            .shm_segment(seg)
            .unwrap()
            .grant_of(loader_pid)
            .is_none(),
        "out-of-state grant must be revoked at the transition"
    );
    assert!(
        rt.kernel.shm_read(loader_pid, seg).is_err(),
        "revoked process must fault on access"
    );
    let home = rt.objects.meta(img_id).unwrap().home;
    assert!(
        rt.kernel.shm_segment(seg).unwrap().grant_of(home).is_some(),
        "the current home keeps its view"
    );
    assert!(rt.stats().shm_revokes >= 1);
}

#[test]
fn revoke_audit_records_never_straddle_a_state_transition() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_shm());
    rt.enable_tracing();
    shm_sized_pipeline(&mut rt);

    let audit = rt.tracer().audit_log();
    let revokes: Vec<(usize, u64, u64)> = audit
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            AuditRecord::ShmRevoke { at_ns, seq, .. } => Some((i, *at_ns, *seq)),
            _ => None,
        })
        .collect();
    assert!(!revokes.is_empty(), "pipeline must revoke at transitions");
    assert_eq!(revokes.len() as u64, rt.stats().shm_revokes);

    // Every revoke belongs to exactly one transition: scanning forward
    // from a ShmRevoke, only sibling revokes of the same call may
    // intervene before the StateTransition record that closes it.
    for &(i, _, seq) in &revokes {
        let mut j = i + 1;
        loop {
            match audit.get(j) {
                Some(AuditRecord::ShmRevoke { seq: s, .. }) if *s == seq => j += 1,
                Some(AuditRecord::StateTransition { .. }) => break,
                other => panic!(
                    "revoke (seq {seq}) must be closed by its StateTransition, found {other:?}"
                ),
            }
        }
    }

    // The barrier property: the queue is drained before the sweep, so
    // no agent-side execution interval contains a revoke instant.
    for e in rt.tracer().events() {
        if e.phase != SpanPhase::Execute {
            continue;
        }
        for &(_, at_ns, _) in &revokes {
            assert!(
                at_ns <= e.start_ns || at_ns >= e.end_ns,
                "revoke at {at_ns} straddles an Execute span [{}, {}]",
                e.start_ns,
                e.end_ns
            );
        }
    }
}

#[test]
fn host_resident_fetch_is_free_of_ipc_and_timeline_merges() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_pipelining();
    let payload: Vec<u8> = (0..=255).collect();
    let id = rt.host_data("cfg", &payload);

    let before = rt.kernel.metrics();
    let bytes = rt.fetch_bytes(id).unwrap();
    let delta = rt.kernel.metrics().since(&before);

    assert_eq!(bytes, payload);
    assert_eq!(delta.ipc_messages, 0, "no RPC for a host-resident object");
    assert_eq!(
        delta.timeline_merges, 0,
        "no merge against its own timeline"
    );
}

#[test]
fn chrome_trace_carries_shm_grant_and_revoke_instants() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_shm());
    rt.enable_tracing();
    shm_sized_pipeline(&mut rt);

    let json = rt.export_chrome_trace();
    assert!(
        json.contains("\"cat\":\"shm\""),
        "shm instant events present"
    );
    assert!(json.contains("shm_grant "));
    assert!(json.contains("shm_revoke "));
    // Deliveries trace as page-map spans, not data copies.
    assert!(
        rt.tracer()
            .events()
            .iter()
            .any(|e| e.phase == SpanPhase::ShmMap),
        "shm deliveries record shm_map spans"
    );
}
