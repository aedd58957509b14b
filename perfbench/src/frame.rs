//! `frame-stream`: a bulk-frame batch job through the asynchronous call
//! interface under `Policy::freepart_full()` (shm transport, batching,
//! supervision).
//!
//! Seeded frames of tens to hundreds of KiB arrive in seeded batches.
//! Each batch is loaded, then processed, then stored, so the framework
//! state changes once per batch rather than once per frame. The
//! Original scheme runs the same inputs, and FreePart must reproduce
//! its contours, processed frames and stored files byte for byte.

use crate::episode::{common_layers, shadow_op, Episode, LayerInputs};
use crate::spans::Spans;
use crate::target::{Fp, Orig, ShadowIpc, Target};
use crate::util::{Clock, Digest, Rng};
use freepart::{CallError, Policy, Runtime};
use freepart_baselines::{build, SchemeKind};
use freepart_frameworks::fileio::encode_image;
use freepart_frameworks::image::Image;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::Value;

/// Frames per episode.
pub const FRAMES: usize = 240;

pub struct Frame {
    pub path: String,
    pub out: String,
    pub file: Vec<u8>,
}

pub struct Inputs {
    pub frames: Vec<Frame>,
    /// Frames per batch, in arrival order; sums to [`FRAMES`].
    pub batches: Vec<usize>,
    pub digest: u64,
}

/// Frame edges, 96 to 240 px, spread evenly over the frames. Every seed
/// uses the same edges in its own order, so the work per episode and
/// the size distribution do not depend on the seed.
fn edges(rng: &mut Rng) -> Vec<u32> {
    let mut e: Vec<u32> = (0..FRAMES as u32)
        .map(|i| 96 + i * 144 / (FRAMES as u32 - 1))
        .collect();
    rng.shuffle(&mut e);
    e
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let mut d = Digest::new();
    let (ws, hs) = (edges(&mut rng), edges(&mut rng));
    let frames = (0..FRAMES)
        .map(|i| {
            let (w, h) = (ws[i], hs[i]);
            let base = rng.next_u64();
            let data = (0..w * h * 3)
                .map(|p| {
                    let (x, y) = (p / 3 % w, p / 3 / w);
                    ((x * 3 + y * 5 + (base % 251) as u32) % 256) as u8 ^ (rng.next_u64() % 8) as u8
                })
                .collect();
            let file = encode_image(&Image::from_bytes(w, h, 3, data), None);
            d.bytes(&file);
            Frame {
                path: format!("/frames/in-{i}.simg"),
                out: format!("/frames/out-{i}.simg"),
                file,
            }
        })
        .collect();
    let mut batches = Vec::new();
    let mut left = FRAMES;
    while left > 0 {
        let b = (rng.range(4, 8) as usize).min(left);
        d.u64(b as u64);
        batches.push(b);
        left -= b;
    }
    Inputs {
        frames,
        batches,
        digest: d.0,
    }
}

#[derive(Default, PartialEq)]
struct Outputs {
    contours: Vec<Value>,
    processed: u64,
    stored: u64,
}

/// Runs every batch: load all, process all, fetch the results, store
/// all. A frame's latency is the wall time of its own calls plus an
/// equal share of its batch's retire barriers.
fn stream(
    t: &mut dyn Target,
    inp: &Inputs,
    op_name: &'static str,
    ep: &mut Episode,
    measured: bool,
    mut ipc: Option<&mut ShadowIpc>,
) -> Result<(Outputs, u64), CallError> {
    let mut out = Outputs::default();
    let mut processed = Digest::new();
    let mut calib_ns = 0;
    let clock = Clock::start();
    let mut first = 0;
    for &n in &inp.batches {
        let batch = &inp.frames[first..first + n];
        let mut own = vec![0u64; n];
        let mut shared = 0u64;
        let mut timed = |t: &mut dyn Target,
                         i: usize,
                         f: &mut dyn FnMut(&mut dyn Target) -> Result<Value, CallError>|
         -> Result<Value, CallError> {
            t.spans().req = (first + i) as u32;
            let id = t.spans().begin(op_name);
            let t0 = clock.ns();
            let r = f(t);
            own[i] += clock.ns() - t0;
            t.spans().end(id);
            r
        };
        let mut barrier = |t: &mut dyn Target| -> Result<(), CallError> {
            let t0 = clock.ns();
            let r = t.retire();
            shared += clock.ns() - t0;
            r
        };
        let before = t.metrics();
        let mut imgs = Vec::with_capacity(n);
        for (i, fr) in batch.iter().enumerate() {
            let path = Value::from(fr.path.as_str());
            imgs.push(timed(t, i, &mut |t| {
                t.submit("cv2.imread", std::slice::from_ref(&path))
            })?);
        }
        barrier(t)?;
        let mut results = Vec::with_capacity(n);
        for (i, img) in imgs.into_iter().enumerate() {
            let mut chain = |t: &mut dyn Target| {
                let gray = t.submit("cv2.cvtColor", std::slice::from_ref(&img))?;
                let smooth = t.submit("cv2.GaussianBlur", &[gray])?;
                let th = t.submit("cv2.threshold", std::slice::from_ref(&smooth))?;
                let rects = t.submit("cv2.findContours", std::slice::from_ref(&th))?;
                Ok(Value::List(vec![smooth, th, rects]))
            };
            let Value::List(v) = timed(t, i, &mut chain)? else {
                unreachable!("the chain returns its three results")
            };
            results.push(v);
        }
        barrier(t)?;
        for (i, v) in results.iter().enumerate() {
            let th = v[1].clone();
            let mut fetch = |t: &mut dyn Target| {
                let id = th
                    .as_obj()
                    .ok_or(CallError::UnknownApi("threshold object".into()))?;
                let bytes = t.fetch(id)?;
                processed.bytes(&bytes);
                Ok(Value::Unit)
            };
            timed(t, i, &mut fetch)?;
            out.contours.push(v[2].clone());
        }
        for (i, (fr, v)) in batch.iter().zip(&results).enumerate() {
            let args = [Value::from(fr.out.as_str()), v[0].clone()];
            timed(t, i, &mut |t| t.submit("cv2.imwrite", &args))?;
        }
        barrier(t)?;
        if measured {
            ep.lat_ns.extend(own.iter().map(|o| o + shared / n as u64));
            for _ in 0..n {
                calib_ns += ep.calibrate();
            }
        }
        if let Some(ipc) = ipc.as_deref_mut() {
            let after = t.metrics();
            for fr in batch {
                shadow_op(t.spans(), ipc, &before, &after, &fr.file);
            }
        }
        first += n;
    }
    let wall = clock.ns() - calib_ns;
    let mut stored = Digest::new();
    for fr in &inp.frames {
        stored.bytes(&t.read_file(&fr.out).unwrap_or_default());
    }
    out.processed = processed.0;
    out.stored = stored.0;
    Ok((out, wall))
}

fn staged_bytes(inp: &Inputs) -> u64 {
    inp.frames.iter().map(|f| f.file.len() as u64).sum()
}

/// One `frame-stream` episode.
pub fn frame_stream(inp: &Inputs, traced: bool, ipc: &mut ShadowIpc) -> Episode {
    let mut ep = Episode {
        input_digest: inp.digest,
        ..Episode::default()
    };
    let mut sp = Spans::new(traced);

    let clock = Clock::start();
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_full());
    if traced {
        rt.enable_tracing();
    }
    let mut t = Fp::new(&mut rt, &mut sp);
    for f in &inp.frames {
        t.put_file(&f.path, f.file.clone());
    }
    ep.setup_ns = clock.ns();
    let v0 = t.virtual_ns();
    let m0 = t.metrics();
    let shadow = traced.then_some(ipc);
    let fp = stream(&mut t, inp, "op", &mut ep, true, shadow);
    let virt = t.virtual_ns() - v0;
    let m = t.metrics().since(&m0);
    drop(t);
    let (fp, wall) = match fp {
        Ok(r) => r,
        Err(e) => {
            ep.problems
                .push(format!("FreePart frame stream failed: {e}"));
            ep.failed += 1;
            return ep;
        }
    };
    ep.wall_ns = wall;

    let mut s = build(SchemeKind::Original, standard_registry(), &[]);
    let mut o = Orig {
        s: s.as_mut(),
        sp: &mut sp,
    };
    for f in &inp.frames {
        o.put_file(&f.path, f.file.clone());
    }
    let ov0 = o.virtual_ns();
    let mut scratch = Episode::default();
    let orig = stream(&mut o, inp, "exec.op", &mut scratch, false, None);
    let orig_virt = o.virtual_ns() - ov0;
    match orig {
        Ok((orig, orig_wall)) => {
            ep.iso = (wall, orig_wall);
            ep.check(fp.contours == orig.contours, || {
                "contours differ from Original".into()
            });
            ep.check(fp.processed == orig.processed, || {
                "processed frames differ from Original".into()
            });
            ep.check(fp.stored == orig.stored, || {
                "stored frames differ from Original".into()
            });
            if traced {
                let li = LayerInputs {
                    sp: &sp,
                    m,
                    live_objects: rt.objects.len() as u64,
                    staged_bytes: staged_bytes(inp),
                    calls: rt.stats().rpc_calls,
                    iso: ep.iso,
                    vt: rt.tracer().bucket_totals(),
                };
                ep.layers = common_layers(&li);
            }
        }
        Err(e) => ep
            .problems
            .push(format!("Original frame stream failed: {e}")),
    }
    let st = rt.stats();
    ep.virt.extend([
        ("virtual_ns", virt),
        ("orig_virtual_ns", orig_virt),
        ("calls", st.rpc_calls),
        ("transitions", st.transitions),
        ("protected_pages", m.protected_pages),
        ("ipc_messages", m.ipc_messages),
        ("ipc_bytes", m.ipc_bytes),
        ("copied_bytes", m.copied_bytes),
        ("shm_mapped_bytes", m.shm_mapped_bytes),
        ("calls_batched", m.calls_batched),
        ("live_objects", rt.objects.len() as u64),
    ]);
    if traced {
        ep.spans = Some(sp);
    }
    ep
}
