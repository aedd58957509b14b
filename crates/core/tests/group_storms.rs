//! Temporal protection by page group against the per-object reference.
//!
//! [`Reference`] is the transition storm as a walk over objects: every
//! direction resolves each object of the moving set through the
//! [`ObjectStore`] and rebuilds one range list from scratch. The
//! [`StateMachine`] instead flips kernel page groups and touches objects
//! only when they are new or journaled as moved. Random sequences of
//! definitions, transitions, forgets, migrations, promotions, home
//! crashes with re-homing, wild `munmap`s, agent `mprotect`s and segment
//! destructions must leave both sides with the same results, the same
//! page permissions, the same accounting and the same commit-record
//! count after every step.

use freepart::StateMachine;
use freepart_frameworks::api::ApiType;
use freepart_frameworks::{ObjectId, ObjectKind, ObjectStore};
use freepart_simos::{Addr, FaultKind, Kernel, Perms, Pid, ShmId, SimResult, Syscall, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The framework states, as the reference keys them.
type State = Option<ApiType>;

/// The objects defined during one state, split by lock status.
#[derive(Default)]
struct LockSets {
    writable: BTreeSet<ObjectId>,
    locked: BTreeSet<ObjectId>,
}

/// Where an object's payload lives, resolved afresh on every storm.
enum Residency {
    Shm(ShmId),
    Buffer(Pid, Addr, u64),
}

impl Residency {
    /// `None` when the object is unknown, has no payload, or its home
    /// is dead.
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

/// The per-object transition storm the page groups must reproduce.
struct Reference {
    current: State,
    defined_in: BTreeMap<ObjectId, State>,
    by_state: BTreeMap<State, LockSets>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            current: None,
            defined_in: BTreeMap::new(),
            by_state: BTreeMap::new(),
        }
    }

    fn define(&mut self, id: ObjectId) {
        if !self.defined_in.contains_key(&id) {
            self.defined_in.insert(id, self.current);
            let sets = self.by_state.entry(self.current).or_default();
            sets.writable.insert(id);
        }
    }

    fn is_protected(&self, id: ObjectId) -> bool {
        self.defined_in
            .get(&id)
            .is_some_and(|state| self.by_state[state].locked.contains(&id))
    }

    fn protected_count(&self) -> usize {
        self.by_state.values().map(|sets| sets.locked.len()).sum()
    }

    fn observe(
        &mut self,
        t: ApiType,
        kernel: &mut Kernel,
        objects: &ObjectStore,
    ) -> SimResult<usize> {
        let next = Some(t);
        if next == self.current {
            return Ok(0);
        }
        let prev = std::mem::replace(&mut self.current, next);
        let newly = self.move_state(kernel, objects, prev, Perms::R)?;
        self.move_state(kernel, objects, next, Perms::RW)?;
        Ok(newly)
    }

    /// One storm direction: every object of the moving set resolved
    /// through the store, shm ones downgraded one by one, buffer ones
    /// gathered into one range-list protect.
    fn move_state(
        &mut self,
        kernel: &mut Kernel,
        objects: &ObjectStore,
        state: State,
        perms: Perms,
    ) -> SimResult<usize> {
        let lock = perms == Perms::R;
        let Some(sets) = self.by_state.get_mut(&state) else {
            return Ok(0);
        };
        let (from, to) = if lock {
            (&mut sets.writable, &mut sets.locked)
        } else {
            (&mut sets.locked, &mut sets.writable)
        };
        let mut ranges = Vec::new();
        let mut settled = Vec::new();
        let mut stay = Vec::new();
        let mut moved = 0;
        let mut err = None;
        for &id in from.iter() {
            match Residency::of(kernel, objects, id) {
                Some(Residency::Shm(seg)) => {
                    if let Err(e) = kernel.shm_protect_all(seg, perms) {
                        err = Some(e);
                        break;
                    }
                    settled.push(id);
                    moved += 1;
                }
                Some(Residency::Buffer(pid, addr, len)) => {
                    ranges.push((pid, addr, len));
                    moved += 1;
                }
                None if lock => stay.push(id),
                None => settled.push(id),
            }
        }
        if err.is_none() && !ranges.is_empty() {
            err = kernel.protect_ranges(perms, ranges).err();
        }
        let mut moving = if err.is_some() {
            settled.iter().filter_map(|id| from.take(id)).collect()
        } else {
            let mut all = std::mem::take(from);
            if !stay.is_empty() {
                all.retain(|id| stay.binary_search(id).is_err());
                *from = stay.into_iter().collect();
            }
            all
        };
        to.append(&mut moving);
        err.map_or(Ok(moved), Err)
    }

    fn reapply(&self, kernel: &mut Kernel, objects: &ObjectStore, id: ObjectId) -> SimResult<()> {
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

    fn forget(&mut self, id: ObjectId) {
        if let Some(state) = self.defined_in.remove(&id) {
            let sets = self.by_state.get_mut(&state).expect("defined state");
            if !sets.locked.remove(&id) {
                sets.writable.remove(&id);
            }
        }
    }
}

/// What the test drives on either side.
trait Machine {
    fn define(&mut self, id: ObjectId);
    fn observe(
        &mut self,
        t: ApiType,
        kernel: &mut Kernel,
        objects: &ObjectStore,
    ) -> SimResult<usize>;
    fn reapply(&self, kernel: &mut Kernel, objects: &ObjectStore, id: ObjectId) -> SimResult<()>;
    fn forget(&mut self, id: ObjectId);
}

impl Machine for Reference {
    fn define(&mut self, id: ObjectId) {
        Reference::define(self, id);
    }
    fn observe(
        &mut self,
        t: ApiType,
        kernel: &mut Kernel,
        objects: &ObjectStore,
    ) -> SimResult<usize> {
        Reference::observe(self, t, kernel, objects)
    }
    fn reapply(&self, kernel: &mut Kernel, objects: &ObjectStore, id: ObjectId) -> SimResult<()> {
        Reference::reapply(self, kernel, objects, id)
    }
    fn forget(&mut self, id: ObjectId) {
        Reference::forget(self, id);
    }
}

impl Machine for StateMachine {
    fn define(&mut self, id: ObjectId) {
        StateMachine::define(self, id);
    }
    fn observe(
        &mut self,
        t: ApiType,
        kernel: &mut Kernel,
        objects: &ObjectStore,
    ) -> SimResult<usize> {
        StateMachine::observe(self, t, kernel, objects)
    }
    fn reapply(&self, kernel: &mut Kernel, objects: &ObjectStore, id: ObjectId) -> SimResult<()> {
        StateMachine::reapply(self, kernel, objects, id)
    }
    fn forget(&mut self, id: ObjectId) {
        StateMachine::forget(self, id);
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// A new object in home `h % 3`: a buffer of `len` bytes, promoted to
    /// shared memory when `shm`, or a buffer-less handle when `len == 0`.
    Define(u8, u16, bool),
    /// An API call of type `ApiType::ALL[t % 4]`.
    Observe(u8),
    /// Forget and destroy the `i`-th object created so far.
    Forget(u8),
    /// LDC move of object `i` into home `h`.
    MigrateDirect(u8, u8),
    /// Eager move of object `i` into home `h` through home `via`.
    MigrateVia(u8, u8, u8),
    /// Promote object `i` to shared memory.
    Promote(u8),
    /// Crash home `h`, then re-home every other one of its objects into
    /// a fresh process, as a restore does.
    Kill(u8),
    /// The home of object `i` unmaps the object's first page.
    Munmap(u8),
    /// The home of object `i` `mprotect`s its buffer to `perms_of(p)`.
    Mprotect(u8, u8),
    /// Destroy object `i`'s segment from under it.
    ShmDestroy(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let define =
        || (any::<u8>(), 0u16..9000, any::<bool>()).prop_map(|(h, n, shm)| Step::Define(h, n, shm));
    let observe = || any::<u8>().prop_map(Step::Observe);
    let migrate = || (any::<u8>(), any::<u8>()).prop_map(|(i, h)| Step::MigrateDirect(i, h));
    prop_oneof![
        define(),
        define(),
        define(),
        observe(),
        observe(),
        observe(),
        any::<u8>().prop_map(Step::Forget),
        migrate(),
        migrate(),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(i, v, h)| Step::MigrateVia(i, v, h)),
        any::<u8>().prop_map(Step::Promote),
        any::<u8>().prop_map(Step::Kill),
        any::<u8>().prop_map(Step::Munmap),
        (any::<u8>(), any::<u8>()).prop_map(|(i, p)| Step::Mprotect(i, p)),
        any::<u8>().prop_map(Step::ShmDestroy),
    ]
}

fn perms_of(p: u8) -> Perms {
    [Perms::NONE, Perms::R, Perms::RW, Perms::RX][p as usize % 4]
}

/// One kernel, store and machine, driven through the steps.
struct World<M> {
    k: Kernel,
    store: ObjectStore,
    sm: M,
    homes: [Pid; 3],
    /// Every object created so far, in creation order.
    created: Vec<ObjectId>,
}

/// What a step returned, compared across the two worlds.
type Outcome = Option<SimResult<usize>>;

impl<M: Machine> World<M> {
    fn new(sm: M) -> World<M> {
        let mut k = Kernel::new();
        k.enable_commit_log();
        k.enable_per_process_time();
        let homes = [k.spawn("home-a"), k.spawn("home-b"), k.spawn("home-c")];
        World {
            k,
            store: ObjectStore::new(),
            sm,
            homes,
            created: Vec::new(),
        }
    }

    fn pick(&self, i: u8) -> Option<ObjectId> {
        let id = *self.created.get(i as usize % self.created.len().max(1))?;
        self.store.meta(id).map(|_| id)
    }

    /// Re-protects a moved object as the runtime does after migrating it.
    fn moved(&mut self, id: ObjectId) -> Outcome {
        Some(self.sm.reapply(&mut self.k, &self.store, id).map(|()| 0))
    }

    fn apply(&mut self, step: &Step) -> Outcome {
        match *step {
            Step::Define(h, len, shm) => {
                let home = self.homes[h as usize % 3];
                if !self.k.is_running(home) {
                    return None;
                }
                let id = if len == 0 {
                    self.store.create_handle(home, ObjectKind::Blob, "handle")
                } else {
                    let data = vec![7; usize::from(len)];
                    let id = self
                        .store
                        .create_with_data(&mut self.k, home, ObjectKind::Blob, "obj", &data)
                        .unwrap();
                    if shm {
                        self.store.promote_to_shm(&mut self.k, id).unwrap();
                    }
                    id
                };
                self.sm.define(id);
                self.created.push(id);
                None
            }
            Step::Observe(t) => Some(self.sm.observe(
                ApiType::ALL[t as usize % 4],
                &mut self.k,
                &self.store,
            )),
            Step::Forget(i) => {
                let id = self.pick(i)?;
                self.sm.forget(id);
                self.store.destroy(id);
                None
            }
            Step::MigrateDirect(i, h) => {
                let id = self.pick(i)?;
                let dst = self.homes[h as usize % 3];
                if let Err(e) = self.store.migrate_direct(&mut self.k, id, dst) {
                    return Some(Err(e));
                }
                self.moved(id)
            }
            Step::MigrateVia(i, via, h) => {
                let id = self.pick(i)?;
                let (via, dst) = (self.homes[via as usize % 3], self.homes[h as usize % 3]);
                if let Err(e) = self.store.migrate_via(&mut self.k, id, via, dst) {
                    return Some(Err(e));
                }
                self.moved(id)
            }
            Step::Promote(i) => {
                let id = self.pick(i)?;
                if let Err(e) = self.store.promote_to_shm(&mut self.k, id) {
                    return Some(Err(e));
                }
                self.moved(id)
            }
            Step::Kill(h) => {
                let old = self.homes[h as usize % 3];
                if !self.k.is_running(old) {
                    return None;
                }
                self.k.deliver_fault(old, FaultKind::Abort, None);
                let new = self.k.spawn("restarted");
                self.homes[h as usize % 3] = new;
                let orphans: Vec<_> = self
                    .store
                    .iter()
                    .filter(|m| m.home == old && m.id.0 % 2 == 0)
                    .map(|m| (m.id, m.buffer))
                    .collect();
                let mut reapplied = Ok(0);
                for (id, buffer) in orphans {
                    let buffer = buffer.map(|(_, len)| {
                        let addr = self.k.alloc(new, len.max(1), Perms::RW).unwrap();
                        self.k.mem_write(new, addr, &vec![3; len as usize]).unwrap();
                        (addr, len)
                    });
                    self.store.rehome(id, new, buffer);
                    reapplied = reapplied.and(self.moved(id).expect("reapplied"));
                }
                Some(reapplied)
            }
            Step::Munmap(i) => {
                let meta = self.store.meta(self.pick(i)?)?;
                let (addr, home) = (meta.buffer?.0, meta.home);
                let call = Syscall::Munmap {
                    addr,
                    len: PAGE_SIZE,
                };
                Some(self.k.syscall(home, call).map(|_| 0))
            }
            Step::Mprotect(i, p) => {
                let meta = self.store.meta(self.pick(i)?)?;
                let ((addr, len), home) = (meta.buffer?, meta.home);
                let call = Syscall::Mprotect {
                    addr,
                    len,
                    perms: perms_of(p),
                };
                Some(self.k.syscall(home, call).map(|_| 0))
            }
            Step::ShmDestroy(i) => {
                let (seg, _) = self.store.meta(self.pick(i)?)?.shm?;
                self.k.shm_destroy(seg);
                None
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// After every step both worlds agree on the step's result, every
    /// object's metadata and lock status, the permissions of every page
    /// any object's payload has ever occupied, `protected_pages`, every
    /// process's virtual time and the number of commit records.
    #[test]
    fn group_storms_match_the_per_object_reference(
        steps in proptest::collection::vec(arb_step(), 1..90)
    ) {
        let mut groups = World::new(StateMachine::new(true));
        let mut reference = World::new(Reference::new());
        let mut buffers: BTreeSet<(Pid, Addr, u64)> = BTreeSet::new();
        for step in &steps {
            let got = groups.apply(step);
            let want = reference.apply(step);
            prop_assert_eq!(&got, &want, "step {:?}", step);
            let metas: Vec<_> = groups.store.iter().cloned().collect();
            prop_assert_eq!(&metas, &reference.store.iter().cloned().collect::<Vec<_>>());
            for m in &metas {
                if let Some((addr, len)) = m.buffer {
                    buffers.insert((m.home, addr, len));
                }
            }
            for &(pid, addr, len) in &buffers {
                for page in 0..len.div_ceil(PAGE_SIZE).max(1) {
                    let at = addr.offset(page * PAGE_SIZE);
                    let perms = |k: &Kernel| k.process(pid).ok().and_then(|p| p.aspace.perms_at(at));
                    prop_assert_eq!(perms(&groups.k), perms(&reference.k), "{} at {}", pid, at);
                }
            }
            for &id in &groups.created {
                prop_assert_eq!(groups.sm.is_protected(id), reference.sm.is_protected(id), "{}", id);
            }
            prop_assert_eq!(groups.sm.protected_count(), reference.sm.protected_count());
            prop_assert_eq!(groups.k.metrics().protected_pages, reference.k.metrics().protected_pages);
            for pid in groups.k.pids() {
                prop_assert_eq!(groups.k.timeline_ns(pid), reference.k.timeline_ns(pid), "{}", pid);
            }
            prop_assert_eq!(groups.k.commit_len(), reference.k.commit_len());
        }
    }
}
