//! Building per-agent syscall allowlists (paper §4.4.1, Fig. 12).
//!
//! An agent's filter is the **union** of the hybrid-analysis syscall
//! profiles of every API assigned to it, plus the small base set the
//! runtime itself needs (futex/shm for the IPC rings, exit). Devices
//! and sockets get fd-argument rules bound to the descriptors that exist
//! at seal time (the paper's "first execution unrestricted, then
//! restrict" design), and `connect`/`sendto` get destination-prefix
//! rules so a visualizing agent can only talk to the GUI subsystem and a
//! downloader only to HTTP origins.

use freepart_analysis::SyscallProfile;
use freepart_frameworks::api::{ApiId, ApiKind, ApiRegistry};
use freepart_simos::{DeviceKind, FdRule, SimProcess, SyscallFilter, SyscallNo};
use std::collections::BTreeSet;

/// Syscalls every agent needs regardless of its APIs: the runtime's own
/// IPC (shared-memory rings + futex) and orderly exit.
pub fn runtime_base() -> BTreeSet<SyscallNo> {
    [
        SyscallNo::Futex,
        SyscallNo::ShmOpen,
        SyscallNo::Exit,
        SyscallNo::SchedYield,
        SyscallNo::Brk,
    ]
    .into_iter()
    .collect()
}

/// Builds the sealed filter for one agent.
///
/// * `apis` — the APIs assigned to (or observed in) this agent.
/// * `process` — the agent process *after* its first-execution phase,
///   so device/GUI descriptors already exist and can be designated.
pub fn build_filter(
    reg: &ApiRegistry,
    profile: &SyscallProfile,
    apis: &BTreeSet<ApiId>,
    process: &SimProcess,
) -> SyscallFilter {
    let mut allowed = runtime_base();
    allowed.extend(profile.union_of(apis.iter().copied()));
    let mut filter = SyscallFilter::allowing(allowed.iter().copied());

    // ioctl / select / poll: designated device descriptors only.
    let mut device_fds: Vec<_> = process.fds_of_device(DeviceKind::Camera);
    device_fds.extend(process.fds_of_device(DeviceKind::Event));
    if allowed.contains(&SyscallNo::Ioctl) {
        filter.set_fd_rule(SyscallNo::Ioctl, FdRule::only(device_fds.iter().copied()));
    }

    // connect / sendto: destination prefixes derived from the agent's
    // API kinds — GUI traffic for visualizers, HTTP for downloaders.
    let mut prefixes: Vec<&str> = Vec::new();
    for id in apis {
        match reg.spec(*id).kind {
            ApiKind::ImShow | ApiKind::PlotShow | ApiKind::Window(_) | ApiKind::GuiStateRead => {
                prefixes.push("gui")
            }
            ApiKind::DownloadViaFile => prefixes.push("http"),
            _ => {}
        }
    }
    if allowed.contains(&SyscallNo::Connect) {
        let mut rule = FdRule::default();
        for p in &prefixes {
            rule = rule.with_dest_prefix(p);
        }
        filter.set_fd_rule(SyscallNo::Connect, rule.clone());
        if allowed.contains(&SyscallNo::Sendto) {
            filter.set_fd_rule(SyscallNo::Sendto, rule);
        }
    }
    filter
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_analysis::TestCorpus;
    use freepart_frameworks::registry::standard_registry;
    use freepart_simos::{FilterDecision, Kernel, Syscall};

    fn profile(reg: &ApiRegistry) -> SyscallProfile {
        SyscallProfile::build(reg, &TestCorpus::full(reg))
    }

    #[test]
    fn loading_agent_filter_blocks_send_and_mprotect() {
        let reg = standard_registry();
        let prof = profile(&reg);
        let apis: BTreeSet<ApiId> = [
            reg.id_of("cv2.imread").unwrap(),
            reg.id_of("cv2.VideoCapture").unwrap(),
            reg.id_of("cv2.VideoCapture.read").unwrap(),
        ]
        .into_iter()
        .collect();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("loading-agent");
        let filter = build_filter(&reg, &prof, &apis, kernel.process(pid).unwrap());
        assert!(filter.allows_number(SyscallNo::Openat));
        assert!(filter.allows_number(SyscallNo::Ioctl));
        assert!(!filter.allows_number(SyscallNo::Send));
        assert!(!filter.allows_number(SyscallNo::Connect));
        assert!(!filter.allows_number(SyscallNo::Mprotect));
        assert!(!filter.allows_number(SyscallNo::Fork));
    }

    #[test]
    fn visualizing_agent_connect_is_gui_only() {
        let reg = standard_registry();
        let prof = profile(&reg);
        let apis: BTreeSet<ApiId> = [
            reg.id_of("cv2.imshow").unwrap(),
            reg.id_of("cv2.pollKey").unwrap(),
        ]
        .into_iter()
        .collect();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("viz-agent");
        let filter = build_filter(&reg, &prof, &apis, kernel.process(pid).unwrap());
        let gui = Syscall::Connect {
            fd: freepart_simos::Fd(3),
            dest: "gui:display".into(),
        };
        let evil = Syscall::Connect {
            fd: freepart_simos::Fd(3),
            dest: "attacker:4444".into(),
        };
        assert_eq!(filter.evaluate(&gui), FilterDecision::Allow);
        assert_eq!(filter.evaluate(&evil), FilterDecision::Kill);
    }

    #[test]
    fn downloader_agent_connects_to_http_only() {
        let reg = standard_registry();
        let prof = profile(&reg);
        let apis: BTreeSet<ApiId> = [reg.id_of("tf.keras.utils.get_file").unwrap()]
            .into_iter()
            .collect();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("dl-agent");
        let filter = build_filter(&reg, &prof, &apis, kernel.process(pid).unwrap());
        let http = Syscall::Connect {
            fd: freepart_simos::Fd(3),
            dest: "http://weights.example".into(),
        };
        let evil = Syscall::Connect {
            fd: freepart_simos::Fd(3),
            dest: "attacker:4444".into(),
        };
        assert_eq!(filter.evaluate(&http), FilterDecision::Allow);
        assert_eq!(filter.evaluate(&evil), FilterDecision::Kill);
    }

    #[test]
    fn base_set_always_present() {
        let reg = standard_registry();
        let prof = profile(&reg);
        let apis = BTreeSet::new();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("empty-agent");
        let filter = build_filter(&reg, &prof, &apis, kernel.process(pid).unwrap());
        for sc in runtime_base() {
            assert!(filter.allows_number(sc), "{sc:?} missing");
        }
    }

    #[test]
    fn ioctl_bound_to_designated_devices() {
        let reg = standard_registry();
        let prof = profile(&reg);
        let apis: BTreeSet<ApiId> = [reg.id_of("cv2.VideoCapture.read").unwrap()]
            .into_iter()
            .collect();
        let mut kernel = Kernel::new();
        kernel.attach_camera(1, 16);
        let pid = kernel.spawn("agent");
        // First-execution phase: the agent opens the camera.
        let fd = kernel
            .syscall(
                pid,
                Syscall::Openat {
                    path: "/dev/video0".into(),
                    create: false,
                },
            )
            .unwrap()
            .fd();
        let filter = build_filter(&reg, &prof, &apis, kernel.process(pid).unwrap());
        assert_eq!(
            filter.evaluate(&Syscall::Ioctl { fd, request: 1 }),
            FilterDecision::Allow
        );
        // A descriptor conjured later (e.g. an attacker-opened socket)
        // fails the rule.
        assert_eq!(
            filter.evaluate(&Syscall::Ioctl {
                fd: freepart_simos::Fd(99),
                request: 1
            }),
            FilterDecision::Kill
        );
    }
}
