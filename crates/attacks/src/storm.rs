//! Crash-storm judgment: an adversary crashing one partition in a loop
//! is a *DoS-by-restart* attack — each crash costs the supervisor a
//! respawn, so an unbudgeted monitor can be driven into spending all of
//! its time restarting. The scenario is judged on three verdicts, all
//! against ground truth:
//!
//! * **Exactly-once replay** — every successful capture read consumed
//!   exactly one device frame, crashes and re-deliveries included
//!   (the camera's served-frame counter is the ground truth the
//!   completion journal must match).
//! * **Latency containment** — the p99 hooked-call latency of the
//!   *healthy* partitions stays within a constant factor of the same
//!   workload without the adversary (blast-radius isolation).
//! * **DoS detection** — the respawn loop was recognized: the abused
//!   partition was degraded and the denial audited.

use crate::judge::Verdict;
use freepart_simos::Kernel;

/// Healthy-partition p99 may grow by at most this factor under the
/// storm before the latency-containment verdict flips.
pub const LATENCY_BOUND_FACTOR: u64 = 4;

/// The three crash-storm verdicts (all [`Verdict::Prevented`] means the
/// supervisor absorbed the storm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormVerdicts {
    /// Replay stayed exactly-once (no lost or double-consumed frames).
    pub exactly_once: Verdict,
    /// Healthy partitions' p99 latency stayed bounded.
    pub latency_bounded: Verdict,
    /// The restart loop was detected, degraded, and audited.
    pub dos_detected: Verdict,
}

impl StormVerdicts {
    /// True when all three verdicts went the defender's way.
    pub fn all_prevented(self) -> bool {
        self.exactly_once.prevented()
            && self.latency_bounded.prevented()
            && self.dos_detected.prevented()
    }
}

/// Judges a finished crash-storm run.
///
/// * `successful_reads` — capture reads the application observed
///   completing (journal replays included).
/// * `healthy_p99_ns` / `baseline_p99_ns` — p99 latency of a hooked
///   call routed to an *un-attacked* partition, with and without the
///   adversary running.
/// * `dos_detected_and_audited` — whether the runtime both degraded the
///   abused partition and wrote a restart-denied audit record (the
///   caller checks its own trace, keeping this crate framework-only).
pub fn judge_storm(
    kernel: &Kernel,
    successful_reads: u64,
    healthy_p99_ns: u64,
    baseline_p99_ns: u64,
    dos_detected_and_audited: bool,
) -> StormVerdicts {
    let frames_served = kernel
        .camera
        .as_ref()
        .map_or(0, freepart_simos::Camera::frames_served);
    let exactly_once = if frames_served == successful_reads {
        Verdict::Prevented
    } else {
        Verdict::Succeeded
    };
    let latency_bounded = if healthy_p99_ns <= baseline_p99_ns.saturating_mul(LATENCY_BOUND_FACTOR)
    {
        Verdict::Prevented
    } else {
        Verdict::Succeeded
    };
    let dos_detected = if dos_detected_and_audited {
        Verdict::Prevented
    } else {
        Verdict::Succeeded
    };
    StormVerdicts {
        exactly_once,
        latency_bounded,
        dos_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_once_compares_against_device_ground_truth() {
        // Serve two frames through the device.
        let mut cam = freepart_simos::Camera::new(7, 8);
        let _ = cam.capture();
        let _ = cam.capture();
        let mut state = freepart_simos::KernelState::new();
        state.camera = Some(cam);
        let k = Kernel::from_state(state);
        let v = judge_storm(&k, 2, 100, 100, true);
        assert!(v.exactly_once.prevented());
        assert!(v.all_prevented());
        // Claiming three successes against two served frames is a replay
        // violation (a double-consumed or phantom frame).
        let v = judge_storm(&k, 3, 100, 100, true);
        assert!(!v.exactly_once.prevented());
        assert!(!v.all_prevented());
    }

    #[test]
    fn latency_bound_uses_the_constant_factor() {
        let k = Kernel::new();
        let at_bound = judge_storm(&k, 0, 400, 100, true);
        assert!(at_bound.latency_bounded.prevented());
        let over = judge_storm(&k, 0, 401, 100, true);
        assert!(!over.latency_bounded.prevented());
    }

    #[test]
    fn dos_detection_is_required() {
        let k = Kernel::new();
        let v = judge_storm(&k, 0, 0, 0, false);
        assert!(!v.dos_detected.prevented());
        assert!(!v.all_prevented());
    }
}
