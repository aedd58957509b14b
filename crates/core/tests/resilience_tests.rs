//! Failure-injection and configuration-corner tests for the runtime:
//! restart storms, snapshot policy edges, manual sub-partitioning
//! (§A.6), transport penalties, and state-loss semantics (§6).

use freepart::{
    CallError, ChannelTransport, PartitionId, PartitionPlan, Policy, RestartPolicy, Runtime,
    SandboxLevel,
};
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, Value};
use freepart_simos::FaultKind;

fn seed_image(rt: &mut Runtime, path: &str) {
    let img = Image::new(16, 16, 3);
    rt.kernel.fs_put(path, fileio::encode_image(&img, None));
}

fn dos_payload(cve: &str) -> ExploitPayload {
    ExploitPayload {
        cve: cve.into(),
        actions: vec![ExploitAction::CrashSelf],
    }
}

#[test]
fn restart_storm_survives_many_crashes() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed_image(&mut rt, "/ok.simg");
    let img = Image::new(16, 16, 3);
    rt.kernel.fs_put(
        "/evil.simg",
        fileio::encode_image(&img, Some(&dos_payload("CVE-2017-14136"))),
    );
    for round in 0..10 {
        let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
        // After every crash the agent must come back and serve cleanly.
        let ok = rt.call("cv2.imread", &[Value::from("/ok.simg")]);
        assert!(ok.is_ok(), "round {round}: {ok:?}");
    }
    assert!(rt.stats().restarts >= 10);
    assert!(rt.kernel.is_running(rt.host_pid()));
}

#[test]
fn crashed_agent_objects_are_state_lost_not_silently_wrong() {
    // §6: values in a crashed process are deliberately not restored.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed_image(&mut rt, "/ok.simg");
    let held = rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    // Kill the loading agent under the runtime.
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    // The Mat payload died with the agent; using it must fail loudly.
    let err = rt
        .call("cv2.GaussianBlur", std::slice::from_ref(&held))
        .unwrap_err();
    assert!(matches!(err, CallError::StateLost(_)), "{err:?}");
    let err = rt.fetch_bytes(held.as_obj().unwrap()).unwrap_err();
    assert!(matches!(err, CallError::StateLost(_)));
}

#[test]
fn snapshot_interval_zero_loses_stateful_objects_on_restart() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 0,
            ..Policy::freepart()
        },
    );
    rt.kernel.attach_camera(3, CAMERA_FRAME_LEN);
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    let loading = rt.partition_of(rt.registry().id_of("cv2.VideoCapture.read").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    // Without snapshots the capture handle's payload is gone — but the
    // handle itself is buffer-less, so the re-opened camera still works
    // (the paper's "re-executing initialization restores the state").
    let again = rt.call("cv2.VideoCapture.read", &[cap]);
    assert!(again.is_ok(), "{again:?}");
    assert!(rt.stats().restarts >= 1);
}

#[test]
fn manual_sub_partitioning_pins_one_api_into_its_own_agent() {
    // §A.6: FreePart allows manually sub-partitioning an agent process.
    let reg = standard_registry();
    let detect = reg.id_of("cv2.CascadeClassifier.detectMultiScale").unwrap();
    let mut plan = PartitionPlan::four();
    plan.pin(detect, PartitionId(9));
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            plan,
            ..Policy::freepart()
        },
    );
    seed_image(&mut rt, "/in.simg");
    rt.kernel.fs_put("/c.xml", vec![1; 8]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    rt.call(
        "cv2.CascadeClassifier.detectMultiScale",
        &[clf, img.clone()],
    )
    .unwrap();
    // The pinned API ran in its own agent, distinct from the ordinary
    // processing agent.
    let pinned_pid = rt.agent(PartitionId(9)).unwrap().pid;
    let processing_pid = rt
        .agent(rt.partition_of(reg.id_of("cv2.GaussianBlur").unwrap()))
        .unwrap()
        .pid;
    assert_ne!(pinned_pid, processing_pid);
    assert!(rt.agent(PartitionId(9)).unwrap().calls >= 1);
    // And a DoS through the pinned API leaves the main processing agent
    // untouched.
    let img2 = Image::new(32, 32, 3);
    rt.kernel.fs_put(
        "/evil.simg",
        fileio::encode_image(&img2, Some(&dos_payload("CVE-2019-14491"))),
    );
    let tainted = rt.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
    let clf2 = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let _ = rt.call("cv2.CascadeClassifier.detectMultiScale", &[clf2, tainted]);
    assert!(rt.kernel.is_running(processing_pid));
    // `img` was homed in the pinned agent when it crashed — its payload
    // is gone (§6 semantics). Fresh data flows keep working.
    assert!(matches!(
        rt.call("cv2.GaussianBlur", &[img]),
        Err(CallError::StateLost(_))
    ));
    seed_image(&mut rt, "/fresh.simg");
    let fresh = rt
        .call("cv2.imread", &[Value::from("/fresh.simg")])
        .unwrap();
    rt.call("cv2.GaussianBlur", &[fresh]).unwrap();
}

#[test]
fn pipe_transport_costs_more_virtual_time_than_shm() {
    let run = |transport: ChannelTransport| {
        let mut rt = Runtime::install(
            standard_registry(),
            Policy {
                transport,
                lazy_data_copy: false,
                ..Policy::freepart()
            },
        );
        seed_image(&mut rt, "/in.simg");
        rt.kernel.reset_accounting();
        let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        let a = rt.call("cv2.GaussianBlur", &[img]).unwrap();
        rt.call("cv2.erode", &[a]).unwrap();
        rt.kernel.clock().now_ns()
    };
    let shm = run(ChannelTransport::SharedMemory);
    let pipe = run(ChannelTransport::Pipe);
    assert!(pipe > shm, "pipe {pipe} vs shm {shm}");
}

#[test]
fn coarse_union_sandbox_admits_mprotect_per_agent_does_not() {
    use freepart_simos::SyscallNo;
    let check = |sandbox: SandboxLevel| -> bool {
        let mut rt = Runtime::install(
            standard_registry(),
            Policy {
                sandbox,
                ..Policy::freepart()
            },
        );
        seed_image(&mut rt, "/in.simg");
        rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
        let pid = rt.agent(loading).unwrap().pid;
        rt.kernel
            .filter_of(pid)
            .unwrap()
            .is_none_or(|f| f.allows_number(SyscallNo::Mprotect))
    };
    assert!(check(SandboxLevel::CoarseUnion), "coarse allows mprotect");
    assert!(!check(SandboxLevel::PerAgent), "per-agent blocks mprotect");
}

#[test]
fn sealed_agents_stay_sealed_across_restart() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed_image(&mut rt, "/ok.simg");
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    assert!(rt.agent(loading).unwrap().sealed);
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    let agent = rt.agent(loading).unwrap();
    assert_ne!(agent.pid, pid, "respawned");
    assert!(agent.sealed, "filter reinstated immediately");
    assert!(
        rt.kernel.filter_of(agent.pid).unwrap().is_some(),
        "kernel-side filter present"
    );
}

#[test]
fn no_sandbox_policy_leaves_agents_unfiltered() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            sandbox: SandboxLevel::None,
            ..Policy::freepart()
        },
    );
    seed_image(&mut rt, "/ok.simg");
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    for p in rt.partitions() {
        let pid = rt.agent(p).unwrap().pid;
        assert!(rt.kernel.filter_of(pid).unwrap().is_none());
    }
}

#[test]
fn stay_down_policy_reports_unavailable_consistently() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            restart: RestartPolicy::StayDown,
            ..Policy::freepart()
        },
    );
    let img = Image::new(16, 16, 3);
    rt.kernel.fs_put(
        "/evil.simg",
        fileio::encode_image(&img, Some(&dos_payload("CVE-2017-14136"))),
    );
    let first = rt
        .call("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap_err();
    assert!(matches!(first, CallError::AgentCrashed(_)));
    seed_image(&mut rt, "/ok.simg");
    for _ in 0..3 {
        let err = rt
            .call("cv2.imread", &[Value::from("/ok.simg")])
            .unwrap_err();
        assert!(matches!(err, CallError::AgentUnavailable(_)));
    }
    // Other partitions unaffected, indefinitely.
    rt.call("cv2.pollKey", &[]).unwrap();
}
