//! OMRChecker — the paper's motivating example (§3), hand-written.
//!
//! An auto-grader: loads a `template` (answer-mark coordinates) and an
//! answer key at startup, then per submission image runs
//! `imread → cvtColor → GaussianBlur → threshold → warpPerspective →
//! morphologyEx → findContours`, annotates every detected mark with
//! `rectangle`/`putText` (the hot-loop pair of Fig. 4), shows a preview,
//! and finally writes a scores CSV.
//!
//! The attack surface matches Fig. 1: a crafted submission exploits
//! `imread` (`CVE-2017-12597` to corrupt `template`, `CVE-2017-14136`
//! to crash) and a second vulnerability targets `imshow`.

use crate::submit_or_record;
use freepart::CallError;
use freepart_baselines::ApiSurface;
use freepart_frameworks::api::{ApiId, ApiRegistry, ApiType};
use freepart_frameworks::image::Image;
use freepart_frameworks::{fileio, ExploitPayload, ObjectId, Value};

/// The 86 framework APIs of the motivating example (Table 2: 3 loading,
/// 75 processing, 6 visualizing, 2 storing).
pub fn omr_universe(reg: &ApiRegistry) -> Vec<ApiId> {
    let mut out = Vec::new();
    // 3 data-loading APIs: cv2.imread, pd.read_csv, json.load.
    for n in ["cv2.imread", "pd.read_csv", "json.load"] {
        out.push(reg.id_of(n).expect("catalog API"));
    }
    // 75 data-processing APIs: the OpenCV processing surface.
    let mut dp: Vec<ApiId> = reg
        .of_framework(freepart_frameworks::Framework::OpenCv)
        .iter()
        .filter(|s| s.declared_type == ApiType::DataProcessing)
        .map(|s| s.id)
        .collect();
    dp.truncate(75);
    out.extend(dp);
    // 6 visualizing APIs.
    for n in [
        "cv2.imshow",
        "cv2.moveWindow",
        "cv2.namedWindow",
        "cv2.pollKey",
        "cv2.destroyAllWindows",
        "plt.show",
    ] {
        out.push(reg.id_of(n).expect("catalog API"));
    }
    // 2 storing APIs.
    for n in ["cv2.imwrite", "plt.savefig"] {
        out.push(reg.id_of(n).expect("catalog API"));
    }
    out
}

/// Configuration of one grading run.
#[derive(Debug, Clone, Default)]
pub struct OmrConfig {
    /// Number of submission images to grade.
    pub samples: u32,
    /// Marks (rectangle/putText annotations) per submission.
    pub boxes_per_sample: u32,
    /// Optional crafted submission: `(index, payload)`.
    pub evil_sample: Option<(u32, ExploitPayload)>,
    /// Optional crafted preview attack on `imshow`.
    pub evil_imshow: Option<ExploitPayload>,
}

impl OmrConfig {
    /// A small benign grading batch.
    pub fn benign(samples: u32) -> OmrConfig {
        OmrConfig {
            samples,
            boxes_per_sample: 6,
            ..OmrConfig::default()
        }
    }
}

/// Outcome of one grading run.
#[derive(Debug)]
pub struct OmrResult {
    /// The `template` critical object.
    pub template: ObjectId,
    /// Pristine template bytes (for corruption judgment).
    pub template_original: Vec<u8>,
    /// Submissions fully graded.
    pub completed: u32,
    /// Per-sample scores computed from recognized marks.
    pub scores: Vec<f64>,
    /// Call errors encountered (containment events under attack).
    pub errors: Vec<CallError>,
    /// Whether the scores CSV was written.
    pub results_written: bool,
}

fn submission_image(sample: u32) -> Image {
    let mut img = Image::new(48, 48, 3);
    // Answer marks: filled squares whose positions depend on the sample.
    for b in 0..4u32 {
        let x0 = 4 + (b * 11) % 36;
        let y0 = 6 + (sample * 7 + b * 13) % 36;
        for y in y0..(y0 + 4).min(48) {
            for x in x0..(x0 + 4).min(48) {
                for c in 0..3 {
                    img.put(x, y, c, 250);
                }
            }
        }
    }
    img
}

/// Runs the grader under any isolation scheme.
pub fn run(surface: &mut dyn ApiSurface, cfg: &OmrConfig) -> OmrResult {
    // ---- initialization (template + key, Fig. 3's first phase) ----
    let template_bytes: Vec<u8> = (0..16_384u32).map(|i| (i * 3 % 251) as u8).collect();
    let template = surface.host_data("template", &template_bytes);
    surface.host_data("answer_key", b"ABCDABCDABCDABCD");
    surface.finish_setup();

    // Configuration files loaded through hooked APIs. Inputs are staged
    // through the logged `fs_put`, so a recorded run replays cleanly.
    surface
        .kernel_mut()
        .fs_put("/omr/template.json", b"{\"qblocks\": 16}".to_vec());
    surface.kernel_mut().fs_put(
        "/omr/roster.csv",
        fileio::encode_csv(&[vec![1.0], vec![2.0]]),
    );
    let mut errors = Vec::new();
    let mut scores = Vec::new();
    let mut completed = 0;
    let mut call = |s: &mut dyn ApiSurface, name: &str, args: &[Value]| {
        submit_or_record(s, &mut errors, name, args)
    };
    call(surface, "json.load", &[Value::from("/omr/template.json")]);
    let roster = call(surface, "pd.read_csv", &[Value::from("/omr/roster.csv")]);

    // ---- grading loop ----
    for sample in 0..cfg.samples {
        surface.trace_mark(&format!("omr:sample {sample}"));
        let path = format!("/omr/submission-{sample}.simg");
        let img = submission_image(sample);
        let payload = match &cfg.evil_sample {
            Some((at, p)) if *at == sample => Some(p),
            _ => None,
        };
        surface
            .kernel_mut()
            .fs_put(&path, fileio::encode_image(&img, payload));

        // Every call is submitted without retiring it, so under a batch
        // window the processing chain and the hot loop coalesce.
        let Some(loaded) = call(surface, "cv2.imread", &[Value::Str(path)]) else {
            continue; // containment event: skip this submission
        };
        let Some(gray) = call(surface, "cv2.cvtColor", &[loaded]) else {
            continue;
        };
        let Some(smooth) = call(surface, "cv2.GaussianBlur", &[gray]) else {
            continue;
        };
        let Some(thresh) = call(surface, "cv2.threshold", &[smooth]) else {
            continue;
        };
        let Some(warped) = call(surface, "cv2.warpPerspective", &[thresh]) else {
            continue;
        };
        let Some(morph) = call(surface, "cv2.morphologyEx", std::slice::from_ref(&warped)) else {
            continue;
        };
        // Rebuild the 3-channel annotation canvas (cv2.merge) — the
        // object the hot-loop pair shares.
        let Some(annotated) = call(surface, "cv2.merge", std::slice::from_ref(&morph)) else {
            continue;
        };
        let marks = call(surface, "cv2.findContours", std::slice::from_ref(&morph));
        let found = match marks {
            Some(Value::Rects(r)) => r.len() as f64,
            _ => 0.0,
        };
        // Host grading logic: each question block consults the (critical)
        // template coordinates — the repeated-access pattern that makes
        // isolated-data schemes pay per access (Fig. 2-b's >800 IPCs).
        let mut acc = 0u64;
        for _block in 0..8 {
            let t = surface.fetch_bytes(template).unwrap_or_default();
            acc += t.first().copied().unwrap_or(0) as u64;
        }
        let score = found * (acc as f64 / 8.0 + 1.0) / 16.0;
        scores.push(score);

        // Hot loop: annotate each mark (Fig. 4's rectangle/putText pair —
        // frequently executed, sharing the warped image).
        for b in 0..cfg.boxes_per_sample {
            let x = (b * 7 % 40) as i64;
            call(
                surface,
                "cv2.rectangle",
                &[
                    annotated.clone(),
                    Value::I64(x),
                    Value::I64(x),
                    Value::I64(6),
                    Value::I64(6),
                ],
            );
            call(
                surface,
                "cv2.putText",
                &[
                    annotated.clone(),
                    Value::from("A"),
                    Value::I64(x),
                    Value::I64(40),
                ],
            );
        }

        // Preview.
        let preview = if let Some(p) = &cfg.evil_imshow {
            // The crafted frame rides through to the visualizer.
            let path = format!("/omr/evil-preview-{sample}.simg");
            surface
                .kernel_mut()
                .fs_put(&path, fileio::encode_image(&img, Some(p)));
            call(surface, "cv2.imread", &[Value::Str(path)])
        } else {
            Some(annotated.clone())
        };
        if let Some(pv) = preview {
            call(surface, "cv2.imshow", &[Value::from("omr"), pv]);
        }
        call(surface, "cv2.pollKey", &[]);
        completed += 1;
    }

    // ---- results ----
    // Retire everything still in flight, then check the roster: it may
    // have died with a crashed agent (the paper's §6 state-discrepancy);
    // the application reloads it like any robust program would.
    surface.drain();
    let mut results_written = false;
    let roster = match roster {
        Some(r)
            if surface
                .objects()
                .meta(r.as_obj().expect("roster is an object"))
                .is_some_and(|m| surface.kernel().is_running(m.home)) =>
        {
            Some(r)
        }
        _ => call(surface, "pd.read_csv", &[Value::from("/omr/roster.csv")]),
    };
    if let Some(r) = roster {
        if call(
            surface,
            "pd.DataFrame.to_csv",
            &[Value::from("/omr/scores.csv"), r],
        )
        .is_some()
        {
            results_written = surface.kernel().fs.exists("/omr/scores.csv");
        }
    }
    surface.drain();
    OmrResult {
        template,
        template_original: template_bytes,
        completed,
        scores,
        errors,
        results_written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::{Policy, Runtime};
    use freepart_attacks::{judge, AttackGoal, Verdict};
    use freepart_baselines::MonolithicRuntime;
    use freepart_frameworks::registry::standard_registry;

    #[test]
    fn universe_matches_table2_counts() {
        let reg = standard_registry();
        let uni = omr_universe(&reg);
        assert_eq!(uni.len(), 86);
        let count = |t: ApiType| {
            uni.iter()
                .filter(|id| reg.spec(**id).declared_type == t)
                .count()
        };
        assert_eq!(count(ApiType::DataLoading), 3);
        assert_eq!(count(ApiType::DataProcessing), 75);
        assert_eq!(count(ApiType::Visualizing), 6);
        assert_eq!(count(ApiType::Storing), 2);
    }

    #[test]
    fn benign_run_grades_everything() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        let r = run(&mut rt, &OmrConfig::benign(5));
        assert_eq!(r.completed, 5);
        assert_eq!(r.scores.len(), 5);
        assert!(r.errors.is_empty());
        assert!(r.results_written);
        assert!(r.scores.iter().all(|s| *s > 0.0), "marks recognized");
    }

    #[test]
    fn freepart_and_original_produce_identical_scores() {
        let mut orig = MonolithicRuntime::original(standard_registry());
        let a = run(&mut orig, &OmrConfig::benign(4));
        let mut fp = Runtime::install(standard_registry(), Policy::freepart());
        let b = run(&mut fp, &OmrConfig::benign(4));
        assert_eq!(a.scores, b.scores, "isolation must not change grades");
        assert!(b.errors.is_empty());
    }

    #[test]
    fn corruption_attack_succeeds_unprotected_fails_under_freepart() {
        let reg = standard_registry();
        let _ = reg;
        // Unprotected original: the grade-tampering attack of Fig. 1.
        let mut orig = MonolithicRuntime::original(standard_registry());
        // Address of template once created: run setup first via a probe
        // run to learn the address deterministically.
        let probe = run(
            &mut MonolithicRuntime::original(standard_registry()),
            &OmrConfig::benign(0),
        );
        let addr = {
            let mut p = MonolithicRuntime::original(standard_registry());
            let r = run(&mut p, &OmrConfig::benign(0));
            p.objects.meta(r.template).unwrap().buffer.unwrap().0
        };
        let payload = freepart_attacks::payloads::corrupt("CVE-2017-12597", addr.0, vec![0xFF; 32]);
        let cfg = OmrConfig {
            samples: 3,
            boxes_per_sample: 2,
            evil_sample: Some((1, payload.clone())),
            evil_imshow: None,
        };
        let r = run(&mut orig, &cfg);
        let log = orig.exploit_log().to_vec();
        let (kernel, objects, host) = orig.attack_view();
        let verdict = judge(
            &AttackGoal::CorruptObject {
                id: r.template,
                original: r.template_original.clone(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(verdict, Verdict::Succeeded, "original is corruptible");
        // Scores after corruption differ from clean ones — the grade
        // tampering worked.
        assert_ne!(r.scores[1], probe.scores.first().copied().unwrap_or(-1.0));

        // FreePart: same attack, template survives.
        let mut fp = Runtime::install(standard_registry(), Policy::freepart());
        let addr_fp = {
            let mut p = Runtime::install(standard_registry(), Policy::freepart());
            let r = run(&mut p, &OmrConfig::benign(0));
            p.objects.meta(r.template).unwrap().buffer.unwrap().0
        };
        let cfg = OmrConfig {
            samples: 3,
            boxes_per_sample: 2,
            evil_sample: Some((
                1,
                freepart_attacks::payloads::corrupt("CVE-2017-12597", addr_fp.0, vec![0xFF; 32]),
            )),
            evil_imshow: None,
        };
        let r = run(&mut fp, &cfg);
        let log = fp.exploit_log.clone();
        let (kernel, objects, host) = fp.attack_view();
        let verdict = judge(
            &AttackGoal::CorruptObject {
                id: r.template,
                original: r.template_original.clone(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(verdict, Verdict::Prevented, "FreePart protects template");
        // The corrupting write faulted and killed the loading agent, so
        // the malicious submission itself is lost; the two honest ones
        // are graded.
        assert_eq!(r.completed, 2, "honest submissions still graded");
    }

    /// The FreePart presets every attack verdict is checked under: the
    /// same driver, submitted synchronously or batched.
    fn presets() -> [(&'static str, Policy); 4] {
        [
            ("freepart", Policy::freepart()),
            ("freepart_batched", Policy::freepart_batched()),
            ("freepart_adaptive", Policy::freepart_adaptive()),
            ("freepart_full", Policy::freepart_full()),
        ]
    }

    fn dos_config() -> OmrConfig {
        OmrConfig {
            samples: 4,
            boxes_per_sample: 2,
            evil_sample: Some((1, freepart_attacks::payloads::dos("CVE-2017-14136"))),
            evil_imshow: None,
        }
    }

    #[test]
    fn dos_attack_kills_original_but_not_freepart_host() {
        let cfg = dos_config();
        let mut orig = MonolithicRuntime::original(standard_registry());
        let r = run(&mut orig, &cfg);
        assert!(r.completed < 4, "original dies mid-batch");
        assert!(!orig.kernel.is_running(orig.host_pid()));

        for (name, policy) in presets() {
            let mut fp = Runtime::install(standard_registry(), policy);
            let r = run(&mut fp, &cfg);
            assert!(fp.kernel.is_running(fp.host_pid()), "{name}");
            // With restart, only the malicious submission is lost.
            assert_eq!(
                r.completed, 3,
                "{name}: only the malicious submission is lost"
            );
            assert!(r.results_written, "{name}");
            assert_eq!(fp.in_flight(), 0, "{name}: mission ends fully drained");
        }
    }

    #[test]
    fn batching_keeps_the_scores_and_cuts_frames() {
        let mut sync_rt = Runtime::install(standard_registry(), Policy::freepart());
        let sync = run(&mut sync_rt, &OmrConfig::benign(6));
        let sync_ipc = sync_rt.kernel.metrics().ipc_messages;

        let mut rt = Runtime::install(standard_registry(), Policy::freepart_batched());
        let batched = run(&mut rt, &OmrConfig::benign(6));
        let m = rt.kernel.metrics();

        assert_eq!(batched.completed, 6);
        assert_eq!(batched.scores, sync.scores, "byte-identical grading");
        assert!(batched.errors.is_empty());
        assert!(batched.results_written);
        assert_eq!(rt.in_flight(), 0, "mission ends fully drained");
        assert!(
            m.ipc_messages < sync_ipc,
            "batching must cut frames: {} vs {}",
            m.ipc_messages,
            sync_ipc
        );
        assert!(m.calls_batched > 0, "calls actually rode in batches");
    }

    // ---- the composed preset: shm + batching + supervision ----

    #[test]
    fn full_policy_keeps_the_scores_and_composes_every_mechanism() {
        let mut sync_rt = Runtime::install(standard_registry(), Policy::freepart());
        let sync = run(&mut sync_rt, &OmrConfig::benign(6));

        let mut rt = Runtime::install(standard_registry(), Policy::freepart_full());
        let full = run(&mut rt, &OmrConfig::benign(6));
        assert_eq!(full.scores, sync.scores, "byte-identical grading");
        assert!(full.errors.is_empty());
        assert!(full.results_written);
        assert_eq!(rt.in_flight(), 0, "mission ends fully drained");
        // All three mechanisms really engaged at once.
        assert!(
            rt.kernel.metrics().calls_batched > 0,
            "batching engaged under the composed preset"
        );
        assert!(
            rt.stats().shm_grants > 0,
            "shm promotion engaged under the composed preset"
        );
        let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
        assert!(
            rt.spare_count(loading) > 0,
            "warm spares pooled under the composed preset"
        );
    }

    #[test]
    fn full_policy_dos_restart_adopts_a_warm_spare() {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart_full());
        let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
        let spares_before = rt.spare_count(loading);
        let r = run(&mut rt, &dos_config());
        assert!(rt.kernel.is_running(rt.host_pid()));
        assert_eq!(r.completed, 3, "only the malicious submission is lost");
        assert!(r.results_written);
        assert!(rt.stats().restarts > 0, "the DoS really killed an agent");
        assert!(
            rt.spare_count(loading) < spares_before,
            "the restart adopted a pooled warm spare"
        );
    }
}
