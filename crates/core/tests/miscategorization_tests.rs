//! §6 "Impact of API Miscategorization": if the hybrid analysis labels
//! an API wrongly, FreePart must stay *functionally correct* — the API
//! just runs in the wrong agent, costing extra IPC/data movement — and
//! the blast radius of exploits follows the (wrong) placement.

use freepart::{Policy, Runtime};
use freepart_analysis::{categorize, SyscallProfile, TestCorpus};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, Value};

/// Builds a runtime whose report deliberately mislabels
/// `cv2.GaussianBlur` as a Storing API.
fn runtime_with_misblur() -> Runtime {
    let reg = standard_registry();
    let corpus = TestCorpus::full(&reg);
    let mut report = categorize(&reg, &corpus);
    let blur = reg.id_of("cv2.GaussianBlur").unwrap();
    report
        .per_api
        .get_mut(&blur)
        .expect("categorized")
        .final_type = ApiType::Storing;
    let profile = SyscallProfile::build(&reg, &corpus);
    Runtime::install_with(standard_registry(), report, profile, Policy::freepart())
}

fn seed(rt: &mut Runtime, path: &str) {
    let img = Image::new(16, 16, 3);
    rt.kernel.fs_put(path, fileio::encode_image(&img, None));
}

#[test]
fn miscategorized_api_still_computes_correctly() {
    // Reference result with the correct categorization.
    let mut good = Runtime::install(standard_registry(), Policy::freepart());
    seed(&mut good, "/in.simg");
    let img = good.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let blur = good.call("cv2.GaussianBlur", &[img]).unwrap();
    let want = good.fetch_bytes(blur.as_obj().unwrap()).unwrap();

    // Same pipeline with blur mislabeled as Storing.
    let mut bad = runtime_with_misblur();
    seed(&mut bad, "/in.simg");
    let img = bad.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let blur = bad.call("cv2.GaussianBlur", &[img]).unwrap();
    let got = bad.fetch_bytes(blur.as_obj().unwrap()).unwrap();
    assert_eq!(got, want, "miscategorization must not change results");
    // ...but it runs in the storing agent.
    let blur_id = bad.registry().id_of("cv2.GaussianBlur").unwrap();
    assert_eq!(
        bad.partition_of(blur_id),
        bad.partition_of(bad.registry().id_of("cv2.imwrite").unwrap())
    );
}

#[test]
fn miscategorization_costs_extra_data_movement() {
    // A processing-heavy chain: with blur mislabeled, the image ping-
    // pongs between the processing and storing agents on every step.
    let run = |mut rt: Runtime| {
        seed(&mut rt, "/in.simg");
        let mut cur = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        for _ in 0..6 {
            cur = rt.call("cv2.GaussianBlur", &[cur]).unwrap();
            cur = rt.call("cv2.erode", &[cur]).unwrap();
        }
        rt.stats().ldc_copies
    };
    let good = run(Runtime::install(standard_registry(), Policy::freepart()));
    let bad = run(runtime_with_misblur());
    assert!(
        bad >= good + 10,
        "mislabel should force extra moves: {bad} vs {good}"
    );
}

#[test]
fn exploit_blast_radius_follows_the_wrong_placement() {
    // A DoS through the mislabeled blur crashes the *storing* agent —
    // the §6 consequence: the exploit gains access to (and takes down)
    // a process it should never have been near.
    use freepart_frameworks::{ExploitAction, ExploitPayload};
    let mut rt = runtime_with_misblur();
    // Pretend blur is vulnerable via a tainted input (reuse the cascade
    // CVE, which no loader consumes).
    let payload = ExploitPayload {
        cve: "CVE-2019-14491".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    let img = Image::new(32, 32, 3);
    rt.kernel
        .fs_put("/evil.simg", fileio::encode_image(&img, Some(&payload)));
    let tainted = rt.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
    rt.kernel.fs_put("/c.xml", vec![1; 8]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    // detectMultiScale is *correctly* in the processing agent; the taint
    // fires there and crashes it. Blur (in storing) is untouched, as is
    // the actual storing API path — but under the mislabel they now share
    // fate with each other.
    let _ = rt.call("cv2.CascadeClassifier.detectMultiScale", &[clf, tainted]);
    let storing_agent = rt
        .agent(rt.partition_of(rt.registry().id_of("cv2.imwrite").unwrap()))
        .unwrap()
        .pid;
    assert!(rt.kernel.is_running(storing_agent));
    // The host survived regardless — partitioning contains even
    // miscategorized surfaces.
    assert!(rt.kernel.is_running(rt.host_pid()));
}
