//! Property test of temporal protection: the state machine's per-state
//! lock sets always agree with the page permissions the kernel holds.

use freepart::StateMachine;
use freepart_frameworks::api::ApiType;
use freepart_frameworks::{ObjectId, ObjectKind, ObjectStore};
use freepart_simos::{FaultKind, Kernel, Perms, Pid};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// A new object in home `0`/`1`: a buffer of `len` bytes, promoted to
    /// shared memory when `shm`, or a buffer-less handle when `len == 0`.
    Define(u8, u16, bool),
    /// An API call of type `ApiType::ALL[t % 4]`.
    Observe(u8),
    /// Forget the `i`-th object created so far (if still tracked).
    Forget(u8),
    /// Kill the second home (once; later kills are no-ops).
    Kill,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let define =
        || (0u8..2, 0u16..9000, any::<bool>()).prop_map(|(h, n, shm)| Step::Define(h, n, shm));
    let observe = || any::<u8>().prop_map(Step::Observe);
    prop_oneof![
        define(),
        define(),
        observe(),
        observe(),
        any::<u8>().prop_map(Step::Forget),
        Just(Step::Kill),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step: each tracked buffer object in a live home is
    /// protected exactly when its page is read-only, the locked count
    /// matches the locked objects listed, and `observe` reports exactly
    /// the objects that moved to locked.
    #[test]
    fn lock_sets_match_kernel_permissions(steps in proptest::collection::vec(arb_step(), 1..80)) {
        let mut k = Kernel::new();
        let homes: [Pid; 2] = [k.spawn("home-a"), k.spawn("home-b")];
        let mut store = ObjectStore::new();
        let mut sm = StateMachine::new(true);
        let mut created: Vec<ObjectId> = Vec::new();
        let mut tracked: Vec<ObjectId> = Vec::new();
        for step in steps {
            match step {
                Step::Define(h, len, shm) => {
                    let home = homes[h as usize];
                    if !k.is_running(home) {
                        continue;
                    }
                    let id = if len == 0 {
                        store.create_handle(home, ObjectKind::Blob, "handle")
                    } else {
                        let data = vec![7; usize::from(len)];
                        let id = store
                            .create_with_data(&mut k, home, ObjectKind::Blob, "obj", &data)
                            .unwrap();
                        if shm {
                            store.promote_to_shm(&mut k, id).unwrap();
                        }
                        id
                    };
                    sm.define(id);
                    created.push(id);
                    tracked.push(id);
                }
                Step::Observe(t) => {
                    let before: Vec<bool> = tracked.iter().map(|&id| sm.is_protected(id)).collect();
                    let newly = sm.observe(ApiType::ALL[t as usize % 4], &mut k, &store).unwrap();
                    let moved = tracked
                        .iter()
                        .zip(before)
                        .filter(|&(&id, was)| !was && sm.is_protected(id))
                        .count();
                    prop_assert_eq!(newly, moved);
                }
                Step::Forget(i) => {
                    if created.is_empty() {
                        continue;
                    }
                    let id = created[i as usize % created.len()];
                    sm.forget(id);
                    store.destroy(id);
                    tracked.retain(|&t| t != id);
                    prop_assert!(!sm.is_protected(id));
                    prop_assert!(sm.defined_state(id).is_none());
                }
                Step::Kill => {
                    k.deliver_fault(homes[1], FaultKind::Abort, None);
                }
            }
            for &id in &tracked {
                let meta = store.meta(id).unwrap();
                let Some((addr, _)) = meta.buffer else { continue };
                if !k.is_running(meta.home) {
                    continue;
                }
                let perms = k.process(meta.home).unwrap().aspace.perms_at(addr);
                prop_assert_eq!(sm.is_protected(id), perms == Some(Perms::R), "object {:?}", id);
            }
            prop_assert_eq!(sm.protected_count(), sm.protected().count());
            let locked = tracked.iter().filter(|&&id| sm.is_protected(id)).count();
            prop_assert_eq!(sm.protected_count(), locked);
        }
    }
}
