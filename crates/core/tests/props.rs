//! Property tests of the runtime: for *any* benign pipeline, FreePart
//! must be functionally transparent (same results as no isolation) and
//! must never destabilize the system.

use freepart::{AdaptiveConfig, Policy, Runtime};
use freepart_frameworks::api::ApiKind;
use freepart_frameworks::exec::execute;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ApiCtx, ObjectStore, Value};
use freepart_simos::Kernel;
use proptest::prelude::*;

/// Runs a random filter chain monolithically, returning final bytes.
fn run_monolithic(picks: &[u16], side: u32) -> Vec<u8> {
    let reg = standard_registry();
    let filters: Vec<_> = reg
        .iter()
        .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
        .map(|s| s.id)
        .collect();
    let mut kernel = Kernel::new();
    let pid = kernel.spawn("mono");
    let mut objects = ObjectStore::new();
    kernel.fs.put(
        "/in.simg",
        fileio::encode_image(&Image::new(side, side, 3), None),
    );
    let imread = reg.id_of("cv2.imread").unwrap();
    let mut ctx = ApiCtx::new(&mut kernel, &mut objects, pid);
    let mut cur = execute(&reg, imread, &[Value::from("/in.simg")], &mut ctx).unwrap();
    for p in picks {
        let api = filters[*p as usize % filters.len()];
        cur = execute(&reg, api, &[cur], &mut ctx).unwrap();
    }
    let id = cur.as_obj().unwrap();
    ctx.objects.read_bytes(ctx.kernel, id).unwrap()
}

/// Runs the same chain under full FreePart isolation.
fn run_freepart(picks: &[u16], side: u32) -> (Vec<u8>, Runtime) {
    run_freepart_with(Policy::freepart(), picks, side)
}

/// Runs the same chain under FreePart with an explicit policy (used to
/// sweep the payload transports: eager, lazy, shm, mixed).
fn run_freepart_with(policy: Policy, picks: &[u16], side: u32) -> (Vec<u8>, Runtime) {
    let reg = standard_registry();
    let filters: Vec<_> = reg
        .iter()
        .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
        .map(|s| s.name.clone())
        .collect();
    let mut rt = Runtime::install(standard_registry(), policy);
    rt.kernel.fs.put(
        "/in.simg",
        fileio::encode_image(&Image::new(side, side, 3), None),
    );
    let mut cur = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    for p in picks {
        let api = &filters[*p as usize % filters.len()];
        cur = rt.call(api, &[cur]).unwrap();
    }
    let bytes = rt.fetch_bytes(cur.as_obj().unwrap()).unwrap();
    (bytes, rt)
}

/// Runs the same chain through the asynchronous interface with
/// pipelining enabled (per-process virtual time, in-flight window).
fn run_freepart_async(picks: &[u16], side: u32) -> (Vec<u8>, Runtime) {
    let reg = standard_registry();
    let filters: Vec<_> = reg
        .iter()
        .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
        .map(|s| s.name.clone())
        .collect();
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.kernel.fs.put(
        "/in.simg",
        fileio::encode_image(&Image::new(side, side, 3), None),
    );
    rt.enable_pipelining();
    let h = rt
        .call_async("cv2.imread", &[Value::from("/in.simg")])
        .unwrap();
    let mut cur = rt.promise(h).unwrap();
    for p in picks {
        let api = &filters[*p as usize % filters.len()];
        let h = rt.call_async(api, &[cur]).unwrap();
        cur = rt.promise(h).unwrap();
    }
    rt.drain_inflight();
    let bytes = rt.fetch_bytes(cur.as_obj().unwrap()).unwrap();
    (bytes, rt)
}

/// Runs the same chain through the batched-submission plane: an
/// explicit batch window on top of `base`, handles threaded through
/// `promise` (which never retires, so batches accumulate), one drain at
/// the end.
fn run_freepart_batched(
    base: Policy,
    window: usize,
    picks: &[u16],
    side: u32,
) -> (Vec<u8>, Runtime) {
    let reg = standard_registry();
    let filters: Vec<_> = reg
        .iter()
        .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
        .map(|s| s.name.clone())
        .collect();
    let policy = Policy {
        batch_window: Some(window),
        ..base
    };
    let mut rt = Runtime::install(standard_registry(), policy);
    rt.kernel.fs.put(
        "/in.simg",
        fileio::encode_image(&Image::new(side, side, 3), None),
    );
    let h = rt
        .call_async("cv2.imread", &[Value::from("/in.simg")])
        .unwrap();
    let mut cur = rt.promise(h).unwrap();
    for p in picks {
        let api = &filters[*p as usize % filters.len()];
        let h = rt.call_async(api, &[cur]).unwrap();
        cur = rt.promise(h).unwrap();
    }
    rt.drain_inflight();
    let bytes = rt.fetch_bytes(cur.as_obj().unwrap()).unwrap();
    (bytes, rt)
}

/// Runs the same chain under the closed-loop adaptive controller,
/// through the same asynchronous submission plane as the batched
/// runner (so controller-opened batch windows can actually fill).
fn run_freepart_adaptive(cfg: AdaptiveConfig, picks: &[u16], side: u32) -> (Vec<u8>, Runtime) {
    let reg = standard_registry();
    let filters: Vec<_> = reg
        .iter()
        .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
        .map(|s| s.name.clone())
        .collect();
    let policy = Policy {
        adaptive: Some(cfg),
        ..Policy::freepart()
    };
    let mut rt = Runtime::install(standard_registry(), policy);
    rt.kernel.fs.put(
        "/in.simg",
        fileio::encode_image(&Image::new(side, side, 3), None),
    );
    let h = rt
        .call_async("cv2.imread", &[Value::from("/in.simg")])
        .unwrap();
    let mut cur = rt.promise(h).unwrap();
    for p in picks {
        let api = &filters[*p as usize % filters.len()];
        let h = rt.call_async(api, &[cur]).unwrap();
        cur = rt.promise(h).unwrap();
    }
    rt.drain_inflight();
    let bytes = rt.fetch_bytes(cur.as_obj().unwrap()).unwrap();
    (bytes, rt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Isolation transparency: any random filter chain produces byte-
    /// identical results under FreePart and under no isolation.
    #[test]
    fn freepart_is_functionally_transparent(
        picks in proptest::collection::vec(any::<u16>(), 1..8),
        side in 4u32..16,
    ) {
        let mono = run_monolithic(&picks, side);
        let (fp, rt) = run_freepart(&picks, side);
        prop_assert_eq!(mono, fp);
        // System-stability invariants, for any pipeline:
        prop_assert!(rt.kernel.is_running(rt.host_pid()));
        for p in rt.partitions() {
            prop_assert!(rt.kernel.is_running(rt.agent(p).unwrap().pid));
        }
        prop_assert!(rt.exploit_log.is_empty());
        prop_assert_eq!(rt.stats().restarts, 0);
        prop_assert_eq!(rt.kernel.metrics().filter_kills, 0, "no benign call killed");
    }

    /// Pipelining transparency: for any random filter chain, the
    /// asynchronous path produces byte-identical results to the
    /// synchronous path and to no isolation at all, and never
    /// destabilizes the system.
    #[test]
    fn async_pipelining_is_functionally_transparent(
        picks in proptest::collection::vec(any::<u16>(), 1..8),
        side in 4u32..16,
    ) {
        let mono = run_monolithic(&picks, side);
        let (sync_bytes, _) = run_freepart(&picks, side);
        let (async_bytes, rt) = run_freepart_async(&picks, side);
        prop_assert_eq!(&async_bytes, &sync_bytes);
        prop_assert_eq!(&async_bytes, &mono);
        prop_assert_eq!(rt.in_flight(), 0, "chain ends fully drained");
        prop_assert!(rt.kernel.is_running(rt.host_pid()));
        for p in rt.partitions() {
            prop_assert!(rt.kernel.is_running(rt.agent(p).unwrap().pid));
        }
        prop_assert!(rt.exploit_log.is_empty());
        prop_assert_eq!(rt.stats().restarts, 0);
        prop_assert_eq!(rt.kernel.metrics().filter_kills, 0, "no benign call killed");
    }

    /// Transport transparency: for any random filter chain, the choice
    /// of payload transport — eager through-host copies, lazy direct
    /// copies, shared-memory mapping for everything, or the mixed
    /// size-threshold policy — never changes a single output byte, and
    /// no mode destabilizes the system.
    #[test]
    fn transport_choice_is_functionally_transparent(
        picks in proptest::collection::vec(any::<u16>(), 1..8),
        side in 4u32..16,
    ) {
        let mono = run_monolithic(&picks, side);
        let (lazy, _) = run_freepart_with(Policy::freepart(), &picks, side);
        let (eager, _) = run_freepart_with(Policy::without_ldc(), &picks, side);
        let shm_everything = Policy {
            shm_threshold: Some(1),
            ..Policy::freepart()
        };
        let (shm, shm_rt) = run_freepart_with(shm_everything, &picks, side);
        let (mixed, _) = run_freepart_with(Policy::freepart_shm(), &picks, side);
        prop_assert_eq!(&lazy, &mono);
        prop_assert_eq!(&eager, &mono);
        prop_assert_eq!(&shm, &mono);
        prop_assert_eq!(&mixed, &mono);
        // The all-shm run really exercised the segment path…
        prop_assert!(shm_rt.stats().shm_grants > 0, "shm transport engaged");
        prop_assert!(shm_rt.stats().shm_mapped_bytes > 0);
        // …and stayed stable.
        prop_assert!(shm_rt.kernel.is_running(shm_rt.host_pid()));
        for p in shm_rt.partitions() {
            prop_assert!(shm_rt.kernel.is_running(shm_rt.agent(p).unwrap().pid));
        }
        prop_assert!(shm_rt.exploit_log.is_empty());
        prop_assert_eq!(shm_rt.stats().restarts, 0);
        prop_assert_eq!(shm_rt.kernel.metrics().filter_kills, 0, "no benign call killed");
    }

    /// Batching transparency: for any random filter chain, any batch
    /// window, and any payload transport (lazy LDC, eager through-host,
    /// shm size-threshold), coalescing frames never changes a single
    /// output byte, never inflates the frame count, and never
    /// destabilizes the system.
    #[test]
    fn batched_submission_is_functionally_transparent(
        picks in proptest::collection::vec(any::<u16>(), 1..8),
        side in 4u32..16,
        window in 1usize..10,
    ) {
        let mono = run_monolithic(&picks, side);
        for base in [Policy::freepart(), Policy::without_ldc(), Policy::freepart_shm()] {
            let (unbatched, urt) = run_freepart_with(base.clone(), &picks, side);
            let (batched, rt) = run_freepart_batched(base, window, &picks, side);
            prop_assert_eq!(&batched, &unbatched);
            prop_assert_eq!(&batched, &mono);
            prop_assert_eq!(rt.in_flight(), 0, "chain ends fully drained");
            let m = rt.kernel.metrics();
            prop_assert!(m.calls_batched > 0, "calls actually rode in batches");
            prop_assert!(
                m.ipc_messages <= urt.kernel.metrics().ipc_messages,
                "batching must never send more frames"
            );
            prop_assert!(rt.kernel.is_running(rt.host_pid()));
            for p in rt.partitions() {
                prop_assert!(rt.kernel.is_running(rt.agent(p).unwrap().pid));
            }
            prop_assert!(rt.exploit_log.is_empty());
            prop_assert_eq!(rt.stats().restarts, 0);
            prop_assert_eq!(m.filter_kills, 0, "no benign call killed");
        }
    }

    /// The LDC invariant: for any chain, lazy copies never exceed the
    /// number of hooked calls (at most one object move per call in a
    /// unary pipeline), and disabling LDC never changes results.
    #[test]
    fn ldc_bounds_and_equivalence(
        picks in proptest::collection::vec(any::<u16>(), 1..6),
    ) {
        let (with_ldc, rt) = run_freepart(&picks, 8);
        prop_assert!(rt.stats().ldc_copies <= rt.stats().rpc_calls);
        // Without LDC: identical output bytes.
        let reg = standard_registry();
        let filters: Vec<_> = reg
            .iter()
            .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
            .map(|s| s.name.clone())
            .collect();
        let mut rt2 = Runtime::install(standard_registry(), Policy::without_ldc());
        rt2.kernel.fs.put(
            "/in.simg",
            fileio::encode_image(&Image::new(8, 8, 3), None),
        );
        let mut cur = rt2.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        for p in &picks {
            let api = &filters[*p as usize % filters.len()];
            cur = rt2.call(api, &[cur]).unwrap();
        }
        let without = rt2.fetch_bytes(cur.as_obj().unwrap()).unwrap();
        prop_assert_eq!(with_ldc, without);
        // And eager mode always costs at least as much virtual time.
        prop_assert!(rt2.kernel.clock().now_ns() >= rt.kernel.clock().now_ns());
    }

    /// Adaptive transparency: for any random filter chain, any maximum
    /// batch window, and any promotion threshold, the closed-loop
    /// controller's knob choices never change a single output byte
    /// relative to a static-policy reference (and to no isolation at
    /// all), never destabilize the system, and always reach at least
    /// one decision point.
    #[test]
    fn adaptive_execution_is_functionally_transparent(
        picks in proptest::collection::vec(any::<u16>(), 1..8),
        side in 4u32..16,
        window in 1usize..10,
        threshold in 16u64..4096,
    ) {
        let mono = run_monolithic(&picks, side);
        let (static_ref, _) = run_freepart_batched(Policy::freepart(), window, &picks, side);
        let cfg = AdaptiveConfig {
            max_batch_window: window,
            shm_threshold: threshold,
            ..AdaptiveConfig::default()
        };
        let (adaptive, rt) = run_freepart_adaptive(cfg, &picks, side);
        prop_assert_eq!(&adaptive, &static_ref);
        prop_assert_eq!(&adaptive, &mono);
        prop_assert_eq!(rt.in_flight(), 0, "chain ends fully drained");
        prop_assert!(
            !rt.tracer().policy_decisions().is_empty(),
            "controller must reach a decision point"
        );
        prop_assert!(rt.kernel.is_running(rt.host_pid()));
        for p in rt.partitions() {
            prop_assert!(rt.kernel.is_running(rt.agent(p).unwrap().pid));
        }
        prop_assert!(rt.exploit_log.is_empty());
        prop_assert_eq!(rt.stats().restarts, 0);
        prop_assert_eq!(rt.kernel.metrics().filter_kills, 0, "no benign call killed");
    }

    /// Adaptive + supervision under crash storms: with the same crash
    /// schedule injected into a static supervised run and an adaptive
    /// supervised run, every per-round output, the hooked-call log, and
    /// the restart count are identical — controller estimator resets on
    /// restart never leak into semantics.
    #[test]
    fn adaptive_crash_recovery_matches_static_supervision(
        picks in proptest::collection::vec(any::<u16>(), 1..5),
        side in 4u32..12,
        crashes in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        let run = |policy: Policy| {
            let reg = standard_registry();
            let filters: Vec<_> = reg
                .iter()
                .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
                .map(|s| s.name.clone())
                .collect();
            let mut rt = Runtime::install(standard_registry(), policy);
            rt.kernel.fs.put(
                "/in.simg",
                fileio::encode_image(&Image::new(side, side, 3), None),
            );
            let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
            // Per-round outcome: the final bytes, or the contained
            // error (a crash may legitimately lose a round's payload —
            // the point is that *both* runs lose exactly the same ones).
            let mut outs: Vec<Result<Vec<u8>, String>> = Vec::new();
            for crash in &crashes {
                if *crash {
                    // Kill the agent after execution, before the
                    // response — the journal-replay window.
                    rt.inject_crash_before_response(loading);
                }
                let out = (|| {
                    let mut cur = rt
                        .call("cv2.imread", &[Value::from("/in.simg")])
                        .map_err(|e| e.to_string())?;
                    for p in &picks {
                        let api = &filters[*p as usize % filters.len()];
                        cur = rt.call(api, &[cur]).map_err(|e| e.to_string())?;
                    }
                    rt.fetch_bytes(cur.as_obj().unwrap())
                        .map_err(|e| e.to_string())
                })();
                outs.push(out);
            }
            (outs, rt)
        };
        let (want, srt) = run(Policy::freepart_supervised());
        let (got, art) = run(Policy {
            adaptive: Some(AdaptiveConfig::default()),
            ..Policy::freepart_supervised()
        });
        prop_assert_eq!(&got, &want, "outputs diverged under crashes");
        prop_assert_eq!(art.call_log(), srt.call_log(), "call journal diverged");
        prop_assert_eq!(art.stats().restarts, srt.stats().restarts);
        if crashes.iter().any(|c| *c) {
            prop_assert!(art.stats().restarts > 0, "crashes really happened");
        }
        prop_assert!(art.kernel.is_running(art.host_pid()));
    }
}
