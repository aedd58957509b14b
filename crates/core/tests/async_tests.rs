//! End-to-end tests of the asynchronous hooked-call layer: the sync
//! path is exactly `call_async` + immediate `wait`, pipelining shrinks
//! the makespan without changing results, state transitions drain all
//! in-flight calls (the security barrier), the per-partition window
//! bounds both the queue and the completion journal, and journal
//! pruning never drops a seq the host has not acknowledged.

use freepart::{AuditRecord, CallHandle, Policy, Runtime, SpanPhase, ThreadId};
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, Value};
use freepart_simos::device::Camera;

fn seed(rt: &mut Runtime, n: u32) {
    for i in 0..n {
        rt.kernel.fs.put(
            &format!("/in-{i}.simg"),
            fileio::encode_image(&Image::new(12, 12, 3), None),
        );
    }
}

#[test]
fn sync_call_is_async_submit_plus_immediate_wait_on_the_same_nanosecond() {
    let mut a = Runtime::install(standard_registry(), Policy::freepart());
    let mut b = Runtime::install(standard_registry(), Policy::freepart());
    seed(&mut a, 1);
    seed(&mut b, 1);

    let mut ticks_a = Vec::new();
    let img = a.call("cv2.imread", &[Value::from("/in-0.simg")]).unwrap();
    ticks_a.push(a.kernel.now_ns());
    let gray = a.call("cv2.cvtColor", &[img]).unwrap();
    ticks_a.push(a.kernel.now_ns());
    let edges = a.call("cv2.Canny", &[gray]).unwrap();
    ticks_a.push(a.kernel.now_ns());
    a.call("cv2.imwrite", &[Value::from("/out.simg"), edges])
        .unwrap();
    ticks_a.push(a.kernel.now_ns());

    let mut ticks_b = Vec::new();
    let h = b
        .call_async("cv2.imread", &[Value::from("/in-0.simg")])
        .unwrap();
    let img = b.wait(h).unwrap();
    ticks_b.push(b.kernel.now_ns());
    let h = b.call_async("cv2.cvtColor", &[img]).unwrap();
    let gray = b.wait(h).unwrap();
    ticks_b.push(b.kernel.now_ns());
    let h = b.call_async("cv2.Canny", &[gray]).unwrap();
    let edges = b.wait(h).unwrap();
    ticks_b.push(b.kernel.now_ns());
    let h = b
        .call_async("cv2.imwrite", &[Value::from("/out.simg"), edges])
        .unwrap();
    b.wait(h).unwrap();
    ticks_b.push(b.kernel.now_ns());

    // Not just the same final time: the same nanosecond after every call.
    assert_eq!(ticks_a, ticks_b);
    assert_eq!(a.kernel.metrics(), b.kernel.metrics());
    assert_eq!(a.stats().rpc_calls, b.stats().rpc_calls);
}

#[test]
fn waiting_twice_returns_the_cached_outcome() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed(&mut rt, 1);
    let h = rt
        .call_async("cv2.imread", &[Value::from("/in-0.simg")])
        .unwrap();
    let first = rt.wait(h).unwrap();
    let ns = rt.kernel.now_ns();
    let second = rt.wait(h).unwrap();
    assert_eq!(first, second);
    assert_eq!(rt.kernel.now_ns(), ns, "a second wait is free");
    // A handle that was never issued is an error, not a hang.
    assert!(rt.wait(CallHandle::default()).is_err());
}

#[test]
fn pipelined_cross_thread_overlap_shrinks_the_makespan() {
    const N: u32 = 6;
    // Sequential baseline: the same calls on the same two threads.
    let mut sync_rt = Runtime::install(standard_registry(), Policy::freepart());
    seed(&mut sync_rt, N);
    let proc_t = sync_rt.spawn_thread();
    let mut sync_out = Vec::new();
    for i in 0..N {
        let img = sync_rt
            .call_on(
                ThreadId::MAIN,
                "cv2.imread",
                &[Value::Str(format!("/in-{i}.simg"))],
            )
            .unwrap();
        let blur = sync_rt.call_on(proc_t, "cv2.GaussianBlur", &[img]).unwrap();
        sync_out.push(sync_rt.fetch_bytes(blur.as_obj().unwrap()).unwrap());
    }
    let sync_ns = sync_rt.kernel.now_ns();

    // Pipelined: loading of frame i+1 overlaps processing of frame i.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed(&mut rt, N);
    let proc_t = rt.spawn_thread();
    rt.enable_pipelining();
    let mut handles = Vec::new();
    for i in 0..N {
        let h = rt
            .call_async_with(
                ThreadId::MAIN,
                "cv2.imread",
                &[Value::Str(format!("/in-{i}.simg"))],
                &[],
            )
            .unwrap();
        let img = rt.promise(h).unwrap();
        handles.push(
            rt.call_async_with(proc_t, "cv2.GaussianBlur", &[img], &[])
                .unwrap(),
        );
    }
    let mut pip_out = Vec::new();
    for h in handles {
        let blur = rt.wait(h).unwrap();
        pip_out.push(rt.fetch_bytes(blur.as_obj().unwrap()).unwrap());
    }
    rt.drain_inflight();
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(pip_out, sync_out, "pipelining never changes results");
    assert!(
        rt.kernel.makespan_ns() < sync_ns,
        "overlapped makespan {} should beat sequential {}",
        rt.kernel.makespan_ns(),
        sync_ns
    );
    assert!(rt.kernel.metrics().timeline_merges > 0);
}

#[test]
fn state_transitions_drain_every_in_flight_call_and_audit_once() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    seed(&mut rt, 4);
    rt.enable_pipelining();

    // A burst per framework state on one thread: Loading → Processing →
    // Storing. Each burst's first call would transition, so it must
    // drain the previous burst before the mprotect storm.
    let loads: Vec<_> = (0..4)
        .map(|i| {
            rt.call_async("cv2.imread", &[Value::Str(format!("/in-{i}.simg"))])
                .unwrap()
        })
        .collect();
    let imgs: Vec<Value> = loads.iter().map(|h| rt.promise(*h).unwrap()).collect();
    let blurs: Vec<_> = imgs
        .iter()
        .map(|img| {
            rt.call_async("cv2.GaussianBlur", std::slice::from_ref(img))
                .unwrap()
        })
        .collect();
    for (i, h) in blurs.iter().enumerate() {
        let blur = rt.promise(*h).unwrap();
        rt.call_async("cv2.imwrite", &[Value::Str(format!("/out-{i}.simg")), blur])
            .unwrap();
    }
    rt.drain_inflight();

    let transitions: Vec<u64> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::StateTransition { at_ns, .. } => Some(*at_ns),
            _ => None,
        })
        .collect();
    // Exactly one audit record per transition, pipelining or not.
    assert_eq!(transitions.len() as u64, rt.stats().transitions);
    assert!(
        transitions.len() >= 2,
        "pipeline crosses at least two states"
    );

    // The barrier: no API body may execute across an mprotect storm.
    // Drained calls complete before the transition; later calls start
    // after it (their agents merge past the post-transition request).
    for e in rt.tracer().events() {
        if e.phase != SpanPhase::Execute {
            continue;
        }
        for &t in &transitions {
            assert!(
                !(e.start_ns < t && t < e.end_ns),
                "execute span [{}, {}] straddles the transition at {}",
                e.start_ns,
                e.end_ns,
                t
            );
        }
    }
}

#[test]
fn pipeline_window_bounds_in_flight_calls_and_the_journal() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed(&mut rt, 8);
    rt.enable_pipelining();
    rt.set_pipeline_window(2);
    let partition = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    for i in 0..8 {
        rt.call_async("cv2.imread", &[Value::Str(format!("/in-{i}.simg"))])
            .unwrap();
        assert!(rt.in_flight() <= 2, "window of 2 exceeded at call {i}");
        // The journal holds only the un-acked window, not the whole run.
        assert!(rt.agent(partition).unwrap().journal_len() <= 2);
    }
    rt.drain_inflight();
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(rt.agent(partition).unwrap().journal_len(), 0);
    assert!(rt.agent(partition).unwrap().journal_watermark() > 0);
}

#[test]
fn journal_pruning_never_drops_an_unacked_seq() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.kernel.camera = Some(Camera::new(11, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    let read = rt.registry().id_of("cv2.VideoCapture.read").unwrap();
    let partition = rt.partition_of(read);
    for _ in 0..5 {
        rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
            .unwrap();
    }
    // Synchronous calls ack as they retire: everything is pruned.
    assert_eq!(rt.agent(partition).unwrap().journal_len(), 0);
    let watermark = rt.agent(partition).unwrap().journal_watermark();
    assert!(watermark > 0);

    // Crash after journalling, before the host consumes the response:
    // that seq is above the ack watermark, so pruning must have left it
    // in place for the retry to replay.
    rt.inject_crash_before_response(partition);
    let restarts = rt.stats().restarts;
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    assert_eq!(rt.stats().restarts, restarts + 1, "agent really crashed");
    // Exactly once: replayed from the journal, not re-executed.
    assert_eq!(rt.kernel.camera.as_ref().unwrap().frames_served(), 6);
    // The replayed seq is acked and pruned in turn.
    assert_eq!(rt.agent(partition).unwrap().journal_len(), 0);
    assert!(rt.agent(partition).unwrap().journal_watermark() > watermark);
}
