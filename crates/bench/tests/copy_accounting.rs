//! The runtime's copy counters agree with the kernel: every payload
//! copy the runtime books as lazy (`ldc_copies`) or non-lazy
//! (`host_copies`) is exactly one kernel copy operation, and no kernel
//! copy goes unbooked — under every delivery mode and the two pipe
//! baselines.

use freepart::{Policy, Runtime};
use freepart_apps::{drone, omr};
use freepart_baselines::{policy, SchemeKind};
use freepart_bench::{drone_universe, drone_workload};
use freepart_frameworks::registry::standard_registry;

fn assert_counters_match(name: &str, rt: &Runtime) {
    let s = rt.stats();
    let copy_ops = rt.kernel.metrics().copy_ops;
    assert_eq!(
        s.ldc_copies + s.host_copies,
        copy_ops,
        "{name}: ldc {} + host {} != kernel copy_ops",
        s.ldc_copies,
        s.host_copies
    );
}

fn run_omr(name: &str, policy: Policy) {
    let mut rt = Runtime::install(standard_registry(), policy);
    let r = omr::run(&mut rt, &omr::OmrConfig::benign(3));
    assert_eq!(r.completed, 3, "omr/{name}");
    assert_counters_match(&format!("omr/{name}"), &rt);
}

fn run_drone(name: &str, policy: Policy) {
    let mut rt = Runtime::install(standard_registry(), policy);
    let cfg = drone::DroneConfig {
        frames: 4,
        ..drone_workload()
    };
    let r = drone::run(&mut rt, &cfg);
    assert_eq!(r.frames_processed, 4, "drone/{name}");
    assert_counters_match(&format!("drone/{name}"), &rt);
}

#[test]
fn copy_counters_match_kernel_copy_ops_under_every_mode() {
    for (name, policy) in [
        ("freepart", Policy::freepart()),
        ("without_ldc", Policy::without_ldc()),
        ("freepart_shm", Policy::freepart_shm()),
        ("freepart_batched", Policy::freepart_batched()),
        ("freepart_adaptive", Policy::freepart_adaptive()),
        ("freepart_full", Policy::freepart_full()),
    ] {
        run_omr(name, policy.clone());
        run_drone(name, policy);
    }
}

#[test]
fn copy_counters_match_kernel_copy_ops_under_pipe_baselines() {
    let reg = standard_registry();
    for kind in [SchemeKind::CodeApiData, SchemeKind::LibraryPerApi] {
        let omr_policy = policy(kind, &reg, &omr::omr_universe(&reg));
        run_omr(kind.name(), omr_policy.expect("process-based scheme"));
        let drone_policy = policy(kind, &reg, &drone_universe(&reg));
        run_drone(kind.name(), drone_policy.expect("process-based scheme"));
    }
}
