//! A recorded run of each evaluation driver replays from its commit log
//! alone: every input the driver stages goes through a logged kernel
//! entry point, so the rebuilt kernel lands on the live digest.

use freepart::{Policy, Runtime};
use freepart_apps::drone::{self, DroneConfig};
use freepart_apps::omr::{self, OmrConfig};
use freepart_frameworks::registry::standard_registry;
use freepart_simos::replay::replay;

/// The recorder on, with synchronous and with batched retirement.
fn recorded_presets() -> [(&'static str, Policy); 2] {
    [
        ("recorded", Policy::freepart_recorded()),
        (
            "recorded+batched",
            Policy {
                batch_window: Some(8),
                ..Policy::freepart_recorded()
            },
        ),
    ]
}

fn assert_replays_clean(name: &str, rt: &mut Runtime) {
    let live = rt.kernel.state_digest();
    let log = rt.kernel.take_commit_log().expect("recording was on");
    assert!(!log.is_empty(), "{name}: nothing recorded");
    let (rebuilt, report) = replay(&log);
    assert!(
        report.is_clean(),
        "{name}: {} divergences, first: {:?}",
        report.divergences.len(),
        report.divergences.first()
    );
    assert_eq!(rebuilt.state_digest(), live, "{name}: digest mismatch");
}

#[test]
fn recorded_omr_run_replays_clean() {
    for (name, policy) in recorded_presets() {
        let mut rt = Runtime::install(standard_registry(), policy);
        let r = omr::run(&mut rt, &OmrConfig::benign(3));
        assert_eq!(r.completed, 3, "{name}");
        assert_replays_clean(&format!("omr/{name}"), &mut rt);
    }
}

#[test]
fn recorded_drone_run_replays_clean() {
    for (name, policy) in recorded_presets() {
        let mut rt = Runtime::install(standard_registry(), policy);
        let cfg = DroneConfig {
            frames: 4,
            evil_frame: None,
        };
        let r = drone::run(&mut rt, &cfg);
        assert_eq!(r.frames_processed, 4, "{name}");
        assert_replays_clean(&format!("drone/{name}"), &mut rt);
    }
}
