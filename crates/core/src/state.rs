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
use freepart_simos::{Addr, GroupKey, GroupMove, Kernel, Perms, Pid, ShmId, SimResult};
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

/// Where the machine last saw an object's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Not looked up yet: defined since its state's last storm.
    Fresh,
    /// A buffer `(addr, len)` in process `home`, running or not.
    Buffer(Pid, Addr, u64),
    /// A kernel-owned shared-memory segment: locked by downgrading every
    /// live grant, which works even while several processes hold mapped
    /// views.
    Shm(ShmId),
    /// Nothing to protect: no payload, or no such object any more.
    Nowhere,
}

impl Place {
    /// The object's place in the store now.
    fn of(objects: &ObjectStore, id: ObjectId) -> Place {
        match objects.meta(id) {
            Some(meta) => match (meta.shm, meta.buffer) {
                (Some((seg, _)), _) => Place::Shm(seg),
                (None, Some((addr, len))) => Place::Buffer(meta.home, addr, len),
                (None, None) => Place::Nowhere,
            },
            None => Place::Nowhere,
        }
    }
}

/// A pair of object sets, one per lock status.
#[derive(Debug, Default)]
struct Sides<T> {
    writable: T,
    locked: T,
}

impl<T> Sides<T> {
    /// `(from, to)` for a storm direction: locking moves `writable` to
    /// `locked`, unlocking the other way.
    fn split(&mut self, lock: bool) -> (&mut T, &mut T) {
        if lock {
            (&mut self.writable, &mut self.locked)
        } else {
            (&mut self.locked, &mut self.writable)
        }
    }

    fn side(&self, locked: bool) -> &T {
        if locked {
            &self.locked
        } else {
            &self.writable
        }
    }

    fn side_mut(&mut self, locked: bool) -> &mut T {
        if locked {
            &mut self.locked
        } else {
            &mut self.writable
        }
    }
}

/// The buffer objects of one (state, home, side), mirrored by one kernel
/// page group in the home's address space.
#[derive(Debug, Default)]
struct GroupSide {
    members: BTreeSet<ObjectId>,
    /// Members whose pages have not joined the group yet: resolved or
    /// relocated since the side last flipped.
    unjoined: BTreeSet<ObjectId>,
    /// Ranges still in the group whose object left the side (relocated
    /// or forgotten); they leave on the side's next flip.
    stale: Vec<(Addr, u64)>,
}

impl GroupSide {
    /// Moves every member below `bound` (all, when `None`) over to `to`;
    /// the moved members' pages join `to`'s group on its next flip.
    fn move_below(&mut self, to: &mut GroupSide, bound: Option<ObjectId>) {
        to.members
            .append(&mut split_below(&mut self.members, bound));
        to.unjoined
            .append(&mut split_below(&mut self.unjoined, bound));
    }
}

/// Takes the elements of `set` below `bound` (all, when `None`).
/// (`append` of the result into an empty set is a swap, not a merge.)
fn split_below(set: &mut BTreeSet<ObjectId>, bound: Option<ObjectId>) -> BTreeSet<ObjectId> {
    match bound {
        None => std::mem::take(set),
        Some(bound) => {
            let rest = set.split_off(&bound);
            std::mem::replace(set, rest)
        }
    }
}

/// The objects defined during one state, by where their payload lives
/// and lock status.
#[derive(Debug, Default)]
struct StateSets {
    /// Defined since the state's last storm; writable.
    fresh: BTreeSet<ObjectId>,
    /// Buffer objects per home process.
    homes: BTreeMap<Pid, Sides<GroupSide>>,
    /// Shared-memory objects.
    shm: Sides<BTreeSet<ObjectId>>,
    /// Objects with nothing to protect.
    nowhere: Sides<BTreeSet<ObjectId>>,
}

impl StateSets {
    /// True when `id`, at `place`, sits on the locked side.
    fn is_locked(&self, id: ObjectId, place: Place) -> bool {
        match place {
            Place::Fresh => false,
            Place::Buffer(home, ..) => self
                .homes
                .get(&home)
                .is_some_and(|h| h.locked.members.contains(&id)),
            Place::Shm(_) => self.shm.locked.contains(&id),
            Place::Nowhere => self.nowhere.locked.contains(&id),
        }
    }

    /// Removes `id` from `place`, returning whether it was locked. A
    /// buffer object whose pages joined its group leaves its range stale.
    fn remove(&mut self, id: ObjectId, place: Place) -> bool {
        let locked = self.is_locked(id, place);
        match place {
            Place::Fresh => {
                self.fresh.remove(&id);
            }
            Place::Buffer(home, addr, len) => {
                if let Some(h) = self.homes.get_mut(&home) {
                    let side = h.side_mut(locked);
                    side.members.remove(&id);
                    if !side.unjoined.remove(&id) {
                        side.stale.push((addr, len));
                    }
                }
            }
            Place::Shm(_) => {
                self.shm.side_mut(locked).remove(&id);
            }
            Place::Nowhere => {
                self.nowhere.side_mut(locked).remove(&id);
            }
        }
        locked
    }

    /// Adds `id` at a resolved `place`, on the `locked` side or not; a
    /// buffer object's pages join its group on the side's next flip.
    fn insert(&mut self, id: ObjectId, place: Place, locked: bool) {
        match place {
            Place::Fresh => unreachable!("only resolved places hold objects"),
            Place::Buffer(home, ..) => {
                let side = self.homes.entry(home).or_default().side_mut(locked);
                side.members.insert(id);
                side.unjoined.insert(id);
            }
            Place::Shm(_) => {
                self.shm.side_mut(locked).insert(id);
            }
            Place::Nowhere => {
                self.nowhere.side_mut(locked).insert(id);
            }
        }
    }
}

/// Tracks the current state, which objects were defined in which state,
/// and enforces the read-only transition rule.
///
/// Each (state, home process, lock status) set of buffer objects is
/// mirrored by one kernel page group in the home's address space, so a
/// storm direction flips whole groups instead of walking objects. What
/// still costs per object: objects defined since their state's last
/// storm (resolved once), objects the [`ObjectStore`] journaled as moved
/// (relocated from group to group), and shared-memory objects (one grant
/// downgrade each).
#[derive(Debug)]
pub struct StateMachine {
    current: FrameworkState,
    /// Defining state and last-seen place per object.
    defined_in: BTreeMap<ObjectId, (FrameworkState, Place)>,
    /// Objects defined during each state, by place and lock status. A
    /// transition touches only the left state's writable sets and the
    /// re-entered state's locked sets, and moves each over whole.
    by_state: BTreeMap<FrameworkState, StateSets>,
    /// The store's journal position the places are current to.
    synced: u64,
    /// This machine's page-group namespace, taken from the kernel on its
    /// first storm.
    namespace: Option<u32>,
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
            synced: 0,
            namespace: None,
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

    /// Registers an object as defined (and writable) in the current
    /// state.
    pub fn define(&mut self, id: ObjectId) {
        if !self.defined_in.contains_key(&id) {
            self.defined_in.insert(id, (self.current, Place::Fresh));
            self.by_state
                .entry(self.current)
                .or_default()
                .fresh
                .insert(id);
        }
    }

    /// The state an object was defined in, if tracked.
    pub fn defined_state(&self, id: ObjectId) -> Option<FrameworkState> {
        self.defined_in.get(&id).map(|&(state, _)| state)
    }

    /// True when the object has been locked read-only.
    pub fn is_protected(&self, id: ObjectId) -> bool {
        self.defined_in
            .get(&id)
            .is_some_and(|&(state, place)| self.by_state[&state].is_locked(id, place))
    }

    /// Objects currently protected, grouped by defining state.
    pub fn protected(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.by_state.values().flat_map(|sets| {
            let homes = sets.homes.values().flat_map(|h| h.locked.members.iter());
            homes
                .chain(sets.shm.locked.iter())
                .chain(sets.nowhere.locked.iter())
                .copied()
        })
    }

    /// Number of objects currently protected.
    pub fn protected_count(&self) -> usize {
        self.by_state
            .values()
            .map(|sets| {
                let homes: usize = sets.homes.values().map(|h| h.locked.members.len()).sum();
                homes + sets.shm.locked.len() + sets.nowhere.locked.len()
            })
            .sum()
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
        self.sync(objects);
        // Lock everything defined during the state we just left, then
        // unlock the objects owned by the state we are re-entering.
        let newly = self.move_state(kernel, objects, prev, true)?;
        self.move_state(kernel, objects, next, false)?;
        self.timeline.push((kernel.now_ns(), next, newly));
        Ok(newly)
    }

    /// The Fig. 3 timeline: `(virtual ns, state entered, objects newly
    /// locked)` per transition.
    pub fn timeline(&self) -> &[(u64, FrameworkState, usize)] {
        &self.timeline
    }

    /// Relocates every tracked object the store journaled as moved since
    /// the last sync to its current place, on the same side.
    fn sync(&mut self, objects: &ObjectStore) {
        for id in objects.moved_since(self.synced) {
            let Some(&(state, place)) = self.defined_in.get(&id) else {
                continue;
            };
            let now = Place::of(objects, id);
            if place == Place::Fresh || place == now {
                continue;
            }
            let sets = self.by_state.get_mut(&state).expect("defined state");
            let locked = sets.remove(id, place);
            sets.insert(id, now, locked);
            self.defined_in.insert(id, (state, now));
        }
        self.synced = objects.move_seq();
    }

    /// The kernel page group of `state`'s buffer objects on one side.
    fn group(&mut self, kernel: &mut Kernel, state: FrameworkState, locked: bool) -> GroupKey {
        let ns = *self
            .namespace
            .get_or_insert_with(|| kernel.group_namespace());
        let state = match state {
            FrameworkState::Initialization => 0,
            FrameworkState::InType(t) => 1 + t as u64,
        };
        GroupKey(u64::from(ns) << 8 | state << 1 | u64::from(locked))
    }

    /// Moves the objects of `state` to read-only (`lock`) or back to
    /// writable, and returns how many objects had their payload moved.
    ///
    /// Shared-memory objects go first, one `shm_protect_all` each in
    /// `ObjectId` order; then one group op flips, per running home with
    /// objects to move, that home's group (joining objects resolved or
    /// relocated since, dropping stale ranges). Objects with nothing to
    /// protect (no payload, or a dead home) are not locked, but
    /// unlocking always moves them.
    ///
    /// On an error the sets still match the kernel's permissions: shm
    /// objects before the failing one stay moved (and, when unlocking,
    /// the payload-less objects ordered before it), and every group
    /// stays put.
    fn move_state(
        &mut self,
        kernel: &mut Kernel,
        objects: &ObjectStore,
        state: FrameworkState,
        lock: bool,
    ) -> SimResult<usize> {
        let perms = if lock { Perms::R } else { Perms::RW };
        if !self.by_state.contains_key(&state) {
            return Ok(0);
        }
        let (from_group, to_group) = (
            self.group(kernel, state, !lock),
            self.group(kernel, state, lock),
        );
        let sets = self.by_state.get_mut(&state).expect("checked");
        for id in std::mem::take(&mut sets.fresh) {
            let place = Place::of(objects, id);
            sets.insert(id, place, false);
            self.defined_in.insert(id, (state, place));
        }
        // The first failing grant downgrade bounds what moves below.
        let mut bound = None;
        let mut failed = None;
        for &id in sets.shm.side(!lock) {
            let (_, Place::Shm(seg)) = self.defined_in[&id] else {
                unreachable!("a shm set member lives in a segment");
            };
            if let Err(e) = kernel.shm_protect_all(seg, perms) {
                bound = Some(id);
                failed = Some(e);
                break;
            }
        }
        let mut moves = Vec::new();
        if failed.is_none() {
            for (&pid, home) in &sets.homes {
                let from = home.side(!lock);
                if from.members.is_empty() || !kernel.is_running(pid) {
                    continue;
                }
                let join = from.unjoined.iter().map(|id| match self.defined_in[id] {
                    (_, Place::Buffer(_, addr, len)) => (addr, len),
                    _ => unreachable!("a group member lives in a buffer"),
                });
                moves.push(GroupMove {
                    pid,
                    leave: from.stale.clone(),
                    join: join.collect(),
                    from: from_group,
                    to: to_group,
                });
            }
        }
        let flipped: BTreeSet<Pid> = moves.iter().map(|m| m.pid).collect();
        if !moves.is_empty() {
            failed = kernel.protect_groups(perms, moves).err();
        }
        let (from, to) = sets.shm.split(lock);
        let mut shm = split_below(from, bound);
        let mut moved = shm.len();
        to.append(&mut shm);
        if !lock {
            let (from, to) = sets.nowhere.split(lock);
            to.append(&mut split_below(from, bound));
        }
        for (pid, home) in &mut sets.homes {
            let (from, to) = home.split(lock);
            if flipped.contains(pid) {
                if failed.is_none() {
                    moved += from.members.len();
                    from.unjoined.clear();
                    from.stale.clear();
                    to.members.append(&mut from.members);
                }
            } else if !lock && !kernel.is_running(*pid) {
                from.move_below(to, bound);
            }
        }
        failed.map_or(Ok(moved), Err)
    }

    /// Re-applies protection to one object (after the runtime migrated
    /// its payload to a new process, which re-materializes it writable).
    /// The object's group membership follows it on the next storm.
    pub fn reapply(
        &self,
        kernel: &mut Kernel,
        objects: &ObjectStore,
        id: ObjectId,
    ) -> SimResult<()> {
        if !self.is_protected(id) {
            return Ok(());
        }
        match Place::of(objects, id) {
            Place::Shm(seg) => kernel.shm_protect_all(seg, Perms::R).map(drop),
            Place::Buffer(pid, addr, len) if kernel.is_running(pid) => {
                kernel.protect(pid, addr, len, Perms::R).map(drop)
            }
            _ => Ok(()),
        }
    }

    /// Forgets an object (destroyed).
    pub fn forget(&mut self, id: ObjectId) {
        let Some((state, place)) = self.defined_in.remove(&id) else {
            return;
        };
        self.by_state
            .get_mut(&state)
            .expect("defined state")
            .remove(id, place);
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
        assert_eq!(sm.protected_count(), 0);
        assert_eq!(sm.protected().count(), 0);
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
