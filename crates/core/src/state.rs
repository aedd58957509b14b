//! The framework-state machine and temporal memory protection
//! (paper §4.4.3, Fig. 3).
//!
//! The runtime infers the application's pipeline position from the type
//! of the framework API being invoked. On a state *transition*, every
//! data object defined during the previous state is made read-only via
//! `mprotect` — so an exploit firing later in the pipeline cannot
//! corrupt earlier-stage data (OMRChecker's `template` after
//! `imread()` starts).

use freepart_frameworks::api::ApiType;
use freepart_frameworks::{ObjectId, ObjectStore};
use freepart_simos::{Addr, Kernel, Perms, Pid, ShmId, SimResult};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The five framework states (Initialization + the four API types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameworkState {
    /// Before any framework API has run.
    Initialization,
    /// Inside a run of APIs of one type.
    InType(ApiType),
}

impl fmt::Display for FrameworkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkState::Initialization => f.write_str("Initialization"),
            FrameworkState::InType(t) => t.fmt(f),
        }
    }
}

/// Tracks the current state, which objects were defined in which state,
/// and enforces the read-only transition rule.
#[derive(Debug)]
pub struct StateMachine {
    current: FrameworkState,
    /// Defining state per object (the reverse index of `by_state`).
    defined_in: BTreeMap<ObjectId, FrameworkState>,
    /// Objects defined during each state. Transitions walk only the
    /// previous and next states' sets instead of scanning every live
    /// object, so a transition costs O(objects in those two states).
    by_state: BTreeMap<FrameworkState, BTreeSet<ObjectId>>,
    /// Objects currently locked read-only.
    protected: BTreeSet<ObjectId>,
    /// Total state transitions taken.
    pub transitions: u64,
    /// `(virtual ns, new state, objects newly locked)` per transition —
    /// the Fig. 3 timeline.
    timeline: Vec<(u64, FrameworkState, usize)>,
    enabled: bool,
}

impl StateMachine {
    /// A fresh machine in the Initialization state.
    pub fn new(enabled: bool) -> StateMachine {
        StateMachine {
            current: FrameworkState::Initialization,
            defined_in: BTreeMap::new(),
            by_state: BTreeMap::new(),
            protected: BTreeSet::new(),
            transitions: 0,
            timeline: Vec::new(),
            enabled,
        }
    }

    /// The current framework state.
    pub fn current(&self) -> FrameworkState {
        self.current
    }

    /// True when observing an API of type `t` would change state (and
    /// therefore run an `mprotect` storm). The async runtime uses this
    /// to drain in-flight calls *before* the storm.
    pub fn would_transition(&self, t: ApiType) -> bool {
        FrameworkState::InType(t) != self.current
    }

    /// Registers an object as defined in the current state.
    pub fn define(&mut self, id: ObjectId) {
        if !self.defined_in.contains_key(&id) {
            self.defined_in.insert(id, self.current);
            self.by_state.entry(self.current).or_default().insert(id);
        }
    }

    /// The state an object was defined in, if tracked.
    pub fn defined_state(&self, id: ObjectId) -> Option<FrameworkState> {
        self.defined_in.get(&id).copied()
    }

    /// True when the object has been locked read-only.
    pub fn is_protected(&self, id: ObjectId) -> bool {
        self.protected.contains(&id)
    }

    /// Objects currently protected.
    pub fn protected(&self) -> &BTreeSet<ObjectId> {
        &self.protected
    }

    /// Observes an API call of type `t`; on a state change, locks every
    /// object defined during the previous state and — per Fig. 2-e's
    /// "writable *during* data loading APIs" — unlocks objects whose
    /// defining state is being re-entered (cyclic pipelines: video
    /// frames, training loops). Initialization-defined objects are never
    /// re-entered and stay locked forever (the motivating example's
    /// `template`). Returns the number of objects newly protected.
    ///
    /// Each direction of the storm is one kernel op however many
    /// buffer-resident objects it covers (shm-resident ones downgrade
    /// their grants instead). The kernel's differential protect makes
    /// pages already at the target permission free, so no host-side
    /// pre-check is needed.
    pub fn observe(
        &mut self,
        t: ApiType,
        kernel: &mut Kernel,
        objects: &ObjectStore,
    ) -> SimResult<usize> {
        let next = FrameworkState::InType(t);
        if next == self.current {
            return Ok(0);
        }
        let prev = self.current;
        self.current = next;
        self.transitions += 1;
        if !self.enabled {
            self.timeline.push((kernel.now_ns(), next, 0));
            return Ok(0);
        }
        // Lock everything defined during the state we just left — only
        // that state's index set is walked, not every tracked object.
        let leaving = self.tracked_in(prev, false);
        let newly = self.move_objects(kernel, objects, &leaving, Perms::R)?;
        // Unlock objects owned by the state we are re-entering.
        let reentered = self.tracked_in(next, true);
        self.move_objects(kernel, objects, &reentered, Perms::RW)?;
        self.timeline.push((kernel.now_ns(), next, newly));
        Ok(newly)
    }

    /// The Fig. 3 timeline: `(virtual ns, state entered, objects newly
    /// locked)` per transition.
    pub fn timeline(&self) -> &[(u64, FrameworkState, usize)] {
        &self.timeline
    }

    /// Objects defined in `state` whose protected flag equals `locked`.
    fn tracked_in(&self, state: FrameworkState, locked: bool) -> Vec<ObjectId> {
        self.by_state
            .get(&state)
            .map(|set| {
                set.iter()
                    .filter(|id| self.protected.contains(id) == locked)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Moves `ids` to `perms` — `R` locks, `RW` unlocks. Buffer-resident
    /// objects share one range-list protect op; shm-resident ones go
    /// through `shm_protect_all`. The protected set changes only after
    /// the kernel op that backs it succeeded, so on an error it still
    /// matches the kernel's permissions. Objects with nothing to protect
    /// (no payload, or a dead home) are not locked, but unlocking always
    /// drops them from the set. Returns the number of objects whose
    /// payload was moved.
    fn move_objects(
        &mut self,
        kernel: &mut Kernel,
        objects: &ObjectStore,
        ids: &[ObjectId],
        perms: Perms,
    ) -> SimResult<usize> {
        let lock = perms == Perms::R;
        let mut ranges = Vec::new();
        let mut batched = Vec::new();
        let mut moved = 0;
        for &id in ids {
            match Residency::of(kernel, objects, id) {
                Some(Residency::Shm(seg)) => {
                    kernel.shm_protect_all(seg, perms)?;
                    self.track(id, lock);
                    moved += 1;
                }
                Some(Residency::Buffer(pid, addr, len)) => {
                    ranges.push((pid, addr, len));
                    batched.push(id);
                }
                None if !lock => self.track(id, false),
                None => {}
            }
        }
        if !ranges.is_empty() {
            kernel.protect_ranges(perms, ranges)?;
        }
        moved += batched.len();
        for id in batched {
            self.track(id, lock);
        }
        Ok(moved)
    }

    fn track(&mut self, id: ObjectId, locked: bool) {
        if locked {
            self.protected.insert(id);
        } else {
            self.protected.remove(&id);
        }
    }

    /// Re-applies protection to one object (after the runtime migrated
    /// its payload to a new process, which re-materializes it writable).
    pub fn reapply(
        &self,
        kernel: &mut Kernel,
        objects: &ObjectStore,
        id: ObjectId,
    ) -> SimResult<()> {
        if !self.is_protected(id) {
            return Ok(());
        }
        match Residency::of(kernel, objects, id) {
            Some(Residency::Shm(seg)) => kernel.shm_protect_all(seg, Perms::R).map(drop),
            Some(Residency::Buffer(pid, addr, len)) => {
                kernel.protect(pid, addr, len, Perms::R).map(drop)
            }
            None => Ok(()),
        }
    }

    /// Forgets an object (destroyed).
    pub fn forget(&mut self, id: ObjectId) {
        if let Some(state) = self.defined_in.remove(&id) {
            if let Some(set) = self.by_state.get_mut(&state) {
                set.remove(&id);
            }
        }
        self.protected.remove(&id);
    }
}

/// Where an object's payload lives, for temporal protection.
enum Residency {
    /// A kernel-owned shared-memory segment: locked by downgrading every
    /// live grant, which works even while several processes hold mapped
    /// views.
    Shm(ShmId),
    /// A buffer `(home, addr, len)` in a running home process.
    Buffer(Pid, Addr, u64),
}

impl Residency {
    /// `None` when the object is unknown, has no payload, or its home
    /// is dead (the memory of a dead process cannot be protected).
    fn of(kernel: &Kernel, objects: &ObjectStore, id: ObjectId) -> Option<Residency> {
        let meta = objects.meta(id)?;
        if let Some((seg, _)) = meta.shm {
            return Some(Residency::Shm(seg));
        }
        let (addr, len) = meta.buffer?;
        kernel
            .is_running(meta.home)
            .then_some(Residency::Buffer(meta.home, addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::ObjectKind;
    use freepart_simos::{Errno, SimError, Syscall};

    fn setup() -> (Kernel, ObjectStore, freepart_simos::Pid) {
        let mut k = Kernel::new();
        let pid = k.spawn("host");
        (k, ObjectStore::new(), pid)
    }

    #[test]
    fn transition_protects_previous_state_objects() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(true);
        let template = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "template", &[1; 64])
            .unwrap();
        sm.define(template);
        // Initialization → Loading: template (defined in Initialization)
        // becomes read-only.
        let n = sm.observe(ApiType::DataLoading, &mut k, &store).unwrap();
        assert_eq!(n, 1);
        assert!(sm.is_protected(template));
        let meta = store.meta(template).unwrap();
        let err = k.mem_write(pid, meta.buffer.unwrap().0, &[9]).unwrap_err();
        assert!(matches!(err, SimError::Fault(_)));
    }

    #[test]
    fn same_state_calls_do_not_transition() {
        let (mut k, store, _) = setup();
        let mut sm = StateMachine::new(true);
        sm.observe(ApiType::DataProcessing, &mut k, &store).unwrap();
        sm.observe(ApiType::DataProcessing, &mut k, &store).unwrap();
        assert_eq!(sm.transitions, 1);
        assert_eq!(
            sm.current(),
            FrameworkState::InType(ApiType::DataProcessing)
        );
    }

    #[test]
    fn pipeline_progression_locks_stage_by_stage() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(true);
        sm.observe(ApiType::DataLoading, &mut k, &store).unwrap();
        let loaded = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "input", &[2; 32])
            .unwrap();
        sm.define(loaded);
        // Loading → Processing: `input` locks.
        let n = sm.observe(ApiType::DataProcessing, &mut k, &store).unwrap();
        assert_eq!(n, 1);
        let processed = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "result", &[3; 32])
            .unwrap();
        sm.define(processed);
        assert!(!sm.is_protected(processed), "current-state object writable");
        // Processing → Visualizing: `result` locks too.
        let n = sm.observe(ApiType::Visualizing, &mut k, &store).unwrap();
        assert_eq!(n, 1);
        assert!(sm.is_protected(processed));
    }

    #[test]
    fn disabled_machine_tracks_but_never_locks() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(false);
        let obj = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "x", &[0; 8])
            .unwrap();
        sm.define(obj);
        let n = sm.observe(ApiType::DataLoading, &mut k, &store).unwrap();
        assert_eq!(n, 0);
        assert!(!sm.is_protected(obj));
        assert_eq!(sm.transitions, 1, "state still tracked");
    }

    #[test]
    fn dead_home_processes_are_skipped() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(true);
        let obj = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "x", &[0; 8])
            .unwrap();
        sm.define(obj);
        k.deliver_fault(pid, freepart_simos::FaultKind::Abort, None);
        let n = sm.observe(ApiType::DataLoading, &mut k, &store).unwrap();
        assert_eq!(n, 0, "cannot protect memory of a dead process");
    }

    #[test]
    fn shm_resident_objects_lock_via_grant_downgrade() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(true);
        let obj = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "frame", &[7; 4096])
            .unwrap();
        let seg = store.promote_to_shm(&mut k, obj).unwrap().unwrap();
        sm.define(obj);
        let n = sm.observe(ApiType::DataLoading, &mut k, &store).unwrap();
        assert_eq!(n, 1, "shm residency must not evade temporal locking");
        assert!(sm.is_protected(obj));
        // The downgraded grant still reads, but a write now faults.
        assert!(k.shm_read(pid, seg).is_ok());
        assert!(k.shm_write(pid, seg, &[1; 4096]).is_err());
    }

    #[test]
    fn failed_storm_leaves_tracker_matching_the_kernel() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(true);
        let kept = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "kept", &[1; 64])
            .unwrap();
        let gone = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "gone", &[2; 64])
            .unwrap();
        sm.define(kept);
        sm.define(gone);
        // A wild munmap pulls one payload out from under the store, so
        // the lock batch holds an unmapped range and fails as a whole.
        let (addr, len) = store.meta(gone).unwrap().buffer.unwrap();
        k.syscall(pid, Syscall::Munmap { addr, len }).unwrap();
        let err = sm
            .observe(ApiType::DataLoading, &mut k, &store)
            .unwrap_err();
        assert!(matches!(err, SimError::Errno(Errno::Einval)));
        assert!(sm.protected().is_empty());
        assert_eq!(k.metrics().protected_pages, 0);
        for id in [kept, gone] {
            let (addr, _) = store.meta(id).unwrap().buffer.unwrap();
            let locked = k.process(pid).unwrap().aspace.perms_at(addr) == Some(Perms::R);
            assert_eq!(sm.is_protected(id), locked, "tracker drifted on {id:?}");
        }
    }

    #[test]
    fn forget_unprotects_tracking() {
        let (mut k, mut store, pid) = setup();
        let mut sm = StateMachine::new(true);
        let obj = store
            .create_with_data(&mut k, pid, ObjectKind::Blob, "x", &[0; 8])
            .unwrap();
        sm.define(obj);
        sm.observe(ApiType::DataLoading, &mut k, &store).unwrap();
        assert!(sm.is_protected(obj));
        sm.forget(obj);
        assert!(!sm.is_protected(obj));
        assert!(sm.defined_state(obj).is_none());
    }
}
