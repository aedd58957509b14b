//! `grade-stream` and `record-replay`: an OMR-shaped closed loop.
//!
//! Each sample is a seeded ~7 KB submission taken through
//! load → process → annotate → store with synchronous hooked calls, plus
//! host fetches of a 16 KiB template and a rectangle/putText hot loop.
//! Every sample cycles the framework state (Loading → Processing →
//! Storing → Loading). The same inputs also run under the unprotected
//! Original scheme, and FreePart must reproduce its scores, contours
//! and stored files byte for byte.
//!
//! `record-replay` runs the same inputs with the kernel flight recorder
//! on, then replays and audits the log it wrote.

use crate::episode::{common_layers, shadow_op, Episode, LayerInputs};
use crate::spans::Spans;
use crate::target::{Fp, Orig, ShadowIpc, Target};
use crate::util::{Clock, Digest, Rng};
use freepart::{CallError, Policy, Runtime};
use freepart_baselines::{build, SchemeKind};
use freepart_frameworks::fileio::encode_image;
use freepart_frameworks::image::Image;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{ObjectId, Value};
use freepart_simos::replay::{audit, replay};

/// Samples per episode.
pub const SAMPLES: usize = 240;
/// Host fetches of the template per sample (one per question block).
const FETCHES: usize = 8;

pub struct Sub {
    pub path: String,
    pub out: String,
    pub file: Vec<u8>,
    pub boxes: u32,
}

pub struct Inputs {
    pub template: Vec<u8>,
    pub subs: Vec<Sub>,
    pub digest: u64,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let template = rng.bytes(16 * 1024);
    let mut d = Digest::new();
    d.bytes(&template);
    let subs = (0..SAMPLES)
        .map(|i| {
            let (w, h) = (rng.range(44, 52), rng.range(44, 52));
            let mut img = Image::new(w, h, 3);
            for b in img.data.iter_mut() {
                *b = (rng.next_u64() % 48) as u8;
            }
            for _ in 0..rng.range(3, 6) {
                let (x0, y0) = (rng.range(2, w - 7), rng.range(2, h - 7));
                for y in y0..y0 + 4 {
                    for x in x0..x0 + 4 {
                        for c in 0..3 {
                            img.put(x, y, c, 250);
                        }
                    }
                }
            }
            let file = encode_image(&img, None);
            let boxes = rng.range(4, 8);
            d.bytes(&file);
            d.u64(u64::from(boxes));
            Sub {
                path: format!("/grade/sub-{i}.simg"),
                out: format!("/grade/out-{i}.simg"),
                file,
                boxes,
            }
        })
        .collect();
    Inputs {
        template,
        subs,
        digest: d.0,
    }
}

/// What the graded run produced, compared across schemes.
#[derive(Default, PartialEq)]
struct Outputs {
    scores: Vec<u64>,
    contours: Vec<Value>,
    stored: u64,
}

fn stage(t: &mut dyn Target, inp: &Inputs) -> ObjectId {
    let template = t.host_data("template", &inp.template);
    t.host_data("answer_key", b"ABCDABCDABCDABCD");
    for s in &inp.subs {
        t.put_file(&s.path, s.file.clone());
    }
    template
}

/// Grades one submission: load → process → annotate → store.
fn sample(t: &mut dyn Target, template: ObjectId, s: &Sub) -> Result<(f64, Value), CallError> {
    let loaded = t.call("cv2.imread", &[Value::from(s.path.as_str())])?;
    let gray = t.call("cv2.cvtColor", &[loaded])?;
    let smooth = t.call("cv2.GaussianBlur", &[gray])?;
    let thresh = t.call("cv2.threshold", &[smooth])?;
    let warped = t.call("cv2.warpPerspective", &[thresh])?;
    let morph = t.call("cv2.morphologyEx", &[warped])?;
    let canvas = t.call("cv2.merge", std::slice::from_ref(&morph))?;
    let marks = t.call("cv2.findContours", &[morph])?;
    let found = match &marks {
        Value::Rects(r) => r.len() as f64,
        _ => 0.0,
    };
    let mut acc = 0u64;
    for _ in 0..FETCHES {
        acc += t.fetch(template)?.first().copied().map_or(0, u64::from);
    }
    let score = found * (acc as f64 / FETCHES as f64 + 1.0) / 16.0;
    for b in 0..s.boxes {
        let x = i64::from(b * 7 % 40);
        let rect = [
            canvas.clone(),
            Value::I64(x),
            Value::I64(x),
            Value::I64(6),
            Value::I64(6),
        ];
        t.call("cv2.rectangle", &rect)?;
        let text = [
            canvas.clone(),
            Value::from("A"),
            Value::I64(x),
            Value::I64(40),
        ];
        t.call("cv2.putText", &text)?;
    }
    t.call("cv2.imwrite", &[Value::from(s.out.as_str()), canvas])?;
    Ok((score, marks))
}

/// The measured loop over every sample. Latencies and failures count
/// only when `measured`; output-check problems always do. A failed
/// sample counts as missing any latency limit. With a shadow IPC
/// kernel, each op is followed by its IPC and commit shadows.
fn grade(
    t: &mut dyn Target,
    template: ObjectId,
    inp: &Inputs,
    op_name: &'static str,
    ep: &mut Episode,
    measured: bool,
    mut ipc: Option<&mut ShadowIpc>,
) -> (Outputs, u64) {
    let mut out = Outputs::default();
    let mut before = t.metrics();
    let mut calib_ns = 0;
    let clock = Clock::start();
    for (i, s) in inp.subs.iter().enumerate() {
        t.spans().req = i as u32;
        let id = t.spans().begin(op_name);
        let t0 = clock.ns();
        let r = sample(t, template, s);
        let mut lat = clock.ns() - t0;
        t.spans().end(id);
        match r {
            Ok((score, marks)) => {
                out.scores.push(score.to_bits());
                out.contours.push(marks);
            }
            Err(e) => {
                ep.failed += u64::from(measured);
                ep.problems.push(format!("{op_name} sample {i}: {e}"));
                lat = u64::MAX;
            }
        }
        if measured {
            ep.lat_ns.push(lat);
            calib_ns += ep.calibrate();
        }
        if let Some(ipc) = ipc.as_deref_mut() {
            let after = t.metrics();
            shadow_op(t.spans(), ipc, &before, &after, &s.file);
            before = after;
        }
    }
    let wall = clock.ns() - calib_ns;
    let mut d = Digest::new();
    for s in &inp.subs {
        d.bytes(&t.read_file(&s.out).unwrap_or_default());
    }
    out.stored = d.0;
    (out, wall)
}

/// The Original scheme on the same inputs: the reference outputs, its
/// wall time and its modelled time.
fn original(inp: &Inputs, sp: &mut Spans, ep: &mut Episode) -> (Outputs, u64, u64) {
    let mut s = build(SchemeKind::Original, standard_registry(), &[]);
    let mut t = Orig { s: s.as_mut(), sp };
    let template = stage(&mut t, inp);
    let v0 = t.virtual_ns();
    let (out, wall) = grade(&mut t, template, inp, "exec.op", ep, false, None);
    (out, wall, t.virtual_ns() - v0)
}

/// A FreePart run of the inputs under `policy`.
struct FpRun {
    rt: Runtime,
    out: Outputs,
    wall: u64,
    virt: u64,
    m: freepart_simos::Metrics,
}

fn freepart(
    inp: &Inputs,
    policy: Policy,
    sp: &mut Spans,
    ipc: &mut ShadowIpc,
    ep: &mut Episode,
    measured: bool,
) -> FpRun {
    let clock = Clock::start();
    let mut rt = Runtime::install(standard_registry(), policy);
    if sp.on() {
        rt.enable_tracing();
    }
    let mut t = Fp::new(&mut rt, sp);
    let template = stage(&mut t, inp);
    if measured {
        ep.setup_ns = clock.ns();
    }
    let v0 = t.virtual_ns();
    let m0 = t.metrics();
    let shadow = t.sp.on().then_some(ipc);
    let (out, wall) = grade(&mut t, template, inp, "op", ep, measured, shadow);
    let virt = t.virtual_ns() - v0;
    let m = t.metrics().since(&m0);
    FpRun {
        rt,
        out,
        wall,
        virt,
        m,
    }
}

fn staged_bytes(inp: &Inputs) -> u64 {
    inp.template.len() as u64 + inp.subs.iter().map(|s| s.file.len() as u64).sum::<u64>()
}

fn compare(ep: &mut Episode, fp: &Outputs, orig: &Outputs) {
    ep.check(fp.scores == orig.scores, || {
        "scores differ from Original".into()
    });
    ep.check(fp.contours == orig.contours, || {
        "contours differ from Original".into()
    });
    ep.check(fp.stored == orig.stored, || {
        "stored files differ from Original".into()
    });
}

/// Shared deterministic signature of a FreePart run.
fn signature(ep: &mut Episode, run: &FpRun) {
    let st = run.rt.stats();
    ep.virt.extend([
        ("virtual_ns", run.virt),
        ("calls", st.rpc_calls),
        ("transitions", st.transitions),
        ("protected_pages", run.m.protected_pages),
        ("ipc_messages", run.m.ipc_messages),
        ("ipc_bytes", run.m.ipc_bytes),
        ("copied_bytes", run.m.copied_bytes),
        ("live_objects", run.rt.objects.len() as u64),
    ]);
}

fn layers(ep: &mut Episode, run: &FpRun, sp: &Spans, inp: &Inputs) {
    let li = LayerInputs {
        sp,
        m: run.m,
        live_objects: run.rt.objects.len() as u64,
        staged_bytes: staged_bytes(inp),
        calls: run.rt.stats().rpc_calls,
        iso: ep.iso,
        vt: run.rt.tracer().bucket_totals(),
    };
    ep.layers = common_layers(&li);
}

/// One `grade-stream` episode.
pub fn grade_stream(inp: &Inputs, traced: bool, ipc: &mut ShadowIpc) -> Episode {
    let mut ep = Episode {
        input_digest: inp.digest,
        ..Episode::default()
    };
    let mut sp = Spans::new(traced);
    let run = freepart(inp, Policy::freepart(), &mut sp, ipc, &mut ep, true);
    ep.wall_ns = run.wall;
    let (orig, orig_wall, orig_virt) = original(inp, &mut sp, &mut ep);
    ep.iso = (run.wall, orig_wall);
    compare(&mut ep, &run.out, &orig);
    signature(&mut ep, &run);
    ep.virt.push(("orig_virtual_ns", orig_virt));
    if traced {
        layers(&mut ep, &run, &sp, inp);
        ep.spans = Some(sp);
    }
    ep
}

/// One `record-replay` episode: the recorded run (the measured ops),
/// then replay and audit of the log it took.
pub fn record_replay(inp: &Inputs, traced: bool, ipc: &mut ShadowIpc) -> Episode {
    let mut ep = Episode {
        input_digest: inp.digest,
        ..Episode::default()
    };
    let mut sp = Spans::new(traced);
    let mut run = freepart(
        inp,
        Policy::freepart_recorded(),
        &mut sp,
        ipc,
        &mut ep,
        true,
    );
    ep.wall_ns = run.wall;
    let live = run.rt.kernel.state_digest();
    let Some(log) = run.rt.kernel.take_commit_log() else {
        ep.problems.push("recorder produced no commit log".into());
        return ep;
    };

    let id = sp.begin("replay.replay");
    let clock = Clock::start();
    let (rebuilt, report) = replay(&log);
    let replay_ns = clock.ns();
    sp.end_as(id, "replay.replay", report.steps);
    let id = sp.begin("replay.audit");
    let clock = Clock::start();
    let violations = audit(&log);
    let audit_ns = clock.ns();
    sp.end(id);

    ep.check(report.steps == log.len(), || {
        format!("replay covered {} of {} records", report.steps, log.len())
    });
    ep.check(report.is_clean(), || {
        format!("replay diverged {} times", report.divergences.len())
    });
    ep.check(rebuilt.state_digest() == live, || {
        "replayed kernel digest differs from the live one".into()
    });
    ep.check(violations.is_empty(), || {
        format!("audit found {} violations", violations.len())
    });
    ep.extra.push((
        "replay_steps_per_s",
        report.steps as f64 / (replay_ns as f64 / 1e9),
    ));

    let (orig, orig_wall, _) = original(inp, &mut sp, &mut ep);
    ep.iso = (run.wall, orig_wall);
    compare(&mut ep, &run.out, &orig);
    signature(&mut ep, &run);
    ep.virt.push(("commit_records", log.len()));
    if traced {
        // The same inputs without the recorder, for the recording cost.
        let mut plain_sp = Spans::new(false);
        let mut scratch = Episode::default();
        let plain = freepart(
            inp,
            Policy::freepart(),
            &mut plain_sp,
            ipc,
            &mut scratch,
            false,
        );
        layers(&mut ep, &run, &sp, inp);
        ep.layers.extend([
            ("replay.steps", report.steps as f64),
            (
                "replay.step_ns",
                replay_ns as f64 / report.steps.max(1) as f64,
            ),
            ("replay.audit_ms", audit_ns as f64 / 1e6),
            (
                "commit.record_overhead_x",
                run.wall as f64 / plain.wall.max(1) as f64,
            ),
        ]);
        ep.spans = Some(sp);
    }
    ep
}
