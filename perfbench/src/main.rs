//! The repository benchmark: four seeded, fixed-work workloads driven
//! through the public API of `freepart`, `freepart-simos`,
//! `freepart-frameworks` and `freepart-baselines`.
//!
//! ```text
//! freepart-perfbench --workload <grade-stream|frame-stream|tenant-serve|record-replay>
//!     --seed <n> --seconds <s> --trace <0|1> [--rustc <version>] [--spans-out <file>]
//! ```
//!
//! A run repeats one fixed-work *episode* (fresh install, the same
//! seeded inputs) until `--seconds` have passed, and reports medians
//! over episodes. Episodes of the same seed are also the determinism
//! self-check: every modelled number must repeat exactly. With
//! `--trace 1`, every other episode records spans and the run reports
//! per-layer metrics derived from them instead of end-to-end ones.
//!
//! Human-readable lines come first; the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod episode;
mod frame;
mod grade;
mod serve;
mod spans;
mod target;
mod util;

use episode::Episode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use target::ShadowIpc;
use util::{median_f, percentile, supported_pct, Clock};

/// A run never runs fewer episodes than this. The first is a warm-up:
/// it takes part in the output and determinism checks but not in the
/// wall-clock metrics.
const MIN_EPISODES: usize = 5;
/// Wall time of [`util::reference_chunk`] at the nominal machine speed
/// (a 2-core x86-64 box). End-to-end wall times are scaled to this speed.
const REFERENCE_NOMINAL_NS: f64 = 30_000.0;
/// Mixed into the seed to derive the held-out seed of the self-check.
const HELD_OUT: u64 = 0x5EED_0FF5_E7C0_FFEE;

/// End-to-end metrics in the JSON line. The runner adds `peak_rss_mb`.
/// The rest are printed only: `op_p99_us` because the open-loop tail of
/// `tenant-serve` moves by a quarter between runs on a shared host.
const END_TO_END: [&str; 3] = ["setup_s", "op_p50_us", "isolation_overhead_x"];

/// Per-layer metrics in the JSON line: the ones every workload
/// produces. Workload-specific layers are printed, not put in the JSON.
const PER_LAYER: [&str; 23] = [
    "callplane.plain_call_p50_us",
    "callplane.calls",
    "callplane.call_drift_x",
    "state.transition_call_p50_us",
    "state.transition_call_p99_us",
    "state.transitions",
    "state.pages_per_transition",
    "objstore.fetch_p50_us",
    "objstore.live_objects",
    "rpc.encode_ns",
    "rpc.decode_ns",
    "rpc.frame_bytes",
    "ipc.messages",
    "ipc.bytes",
    "ipc.roundtrip_ns_per_kib",
    "commit.fold_ns_per_kib",
    "commit.bytes_handled",
    "transport.transfer_bytes",
    "transport.copy_ops",
    "exec.call_p50_us",
    "exec.wall_share",
    "isolation.wall_overhead_x",
    "trace.overhead_pct",
];

fn unit_of(name: &str) -> &'static str {
    const BYTES: [&str; 5] = [
        "rpc.frame_bytes",
        "ipc.bytes",
        "commit.bytes_handled",
        "transport.transfer_bytes",
        "transport.shm_mapped_bytes",
    ];
    if BYTES.contains(&name) {
        return "B";
    }
    let suffix = name.rsplit(['_', '.']).next().unwrap_or("");
    match suffix {
        "us" => "us",
        "ns" => "ns",
        "ms" => "ms",
        "s" if name.ends_with("per_s") => "1/s",
        "s" => "s",
        "x" => "x",
        "pct" => "%",
        "kib" => "ns/KiB",
        "transition" => "pages",
        "share" | "ratio" => "ratio",
        _ => "count",
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Grade,
    Frame,
    Serve,
    Record,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "grade-stream" => Workload::Grade,
            "frame-stream" => Workload::Frame,
            "tenant-serve" => Workload::Serve,
            "record-replay" => Workload::Record,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Grade => "grade-stream",
            Workload::Frame => "frame-stream",
            Workload::Serve => "tenant-serve",
            Workload::Record => "record-replay",
        }
    }

    /// Ops per episode: samples, frames or requests.
    fn ops(self) -> usize {
        match self {
            Workload::Grade | Workload::Record => grade::SAMPLES,
            Workload::Frame => frame::FRAMES,
            Workload::Serve => serve::PHASE_REQUESTS.iter().sum(),
        }
    }
}

enum Inputs {
    Grade(grade::Inputs),
    Frame(frame::Inputs),
    Serve(serve::Inputs),
}

impl Inputs {
    fn make(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::Grade | Workload::Record => Inputs::Grade(grade::inputs(seed)),
            Workload::Frame => Inputs::Frame(frame::inputs(seed)),
            Workload::Serve => Inputs::Serve(serve::inputs(seed)),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Inputs::Grade(i) => i.digest,
            Inputs::Frame(i) => i.digest,
            Inputs::Serve(i) => i.digest,
        }
    }

    fn episode(&self, w: Workload, traced: bool, ipc: &mut ShadowIpc) -> Episode {
        match (self, w) {
            (Inputs::Grade(i), Workload::Record) => grade::record_replay(i, traced, ipc),
            (Inputs::Grade(i), _) => grade::grade_stream(i, traced, ipc),
            (Inputs::Frame(i), _) => frame::frame_stream(i, traced, ipc),
            (Inputs::Serve(i), _) => serve::tenant_serve(i, traced, ipc),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?
            .to_owned();
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("trace")? == "1",
        rustc: kv.get("rustc").cloned().unwrap_or_else(|| "unknown".into()),
        spans_out: kv.get("spans-out").cloned(),
    })
}

/// One metric line: name, value, unit and how it was aggregated.
fn line(name: &str, value: f64, how: &str) {
    println!("metric {name} = {value} {} ({how})", unit_of(name));
}

fn json_metrics(metrics: &[(&str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push('}');
    out
}

/// Median over episodes of one per-episode value.
fn median_of(eps: &[&Episode], f: impl Fn(&Episode) -> Option<f64>) -> f64 {
    let v: Vec<f64> = eps.iter().filter_map(|e| f(e)).collect();
    median_f(&v)
}

fn find(list: &[(&'static str, f64)], name: &str) -> Option<f64> {
    list.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let run = Clock::start();
    let inputs = Inputs::make(w, args.seed);
    let held_out = Inputs::make(w, args.seed ^ HELD_OUT).digest();
    let mut ipc = ShadowIpc::new();
    let mut eps: Vec<Episode> = Vec::new();
    while eps.len() < MIN_EPISODES || (run.ns() as f64) < args.seconds * 1e9 {
        // Traced runs alternate traced and untraced episodes, so the
        // tracer's own cost is measured against the same run.
        let traced = args.trace && eps.len().is_multiple_of(2);
        eps.push(inputs.episode(w, traced, &mut ipc));
    }

    // ---- correctness and the determinism self-check ----
    let mut problems: Vec<String> = Vec::new();
    for (i, e) in eps.iter().enumerate() {
        problems.extend(e.problems.iter().map(|p| format!("episode {i}: {p}")));
    }
    let repeat = eps
        .iter()
        .all(|e| e.virt == eps[0].virt && e.input_digest == inputs.digest());
    if !repeat {
        problems
            .push("modelled metrics or input digests differ between episodes of one seed".into());
    }
    if held_out == inputs.digest() {
        problems.push("the held-out seed generated the same inputs".into());
    }

    let ops_per_episode = w.ops();
    let attempted = (eps.len() * ops_per_episode) as u64;
    let failed: u64 = eps.iter().map(|e| e.failed).sum();
    // Machine speed drifts on a shared host. The reference chunks share
    // no code with the system under test, so scaling an episode's wall
    // times by the chunks run among its ops cancels the drift and keeps
    // every change to the system.
    for (i, e) in eps.iter_mut().enumerate() {
        let mut c = e.calib.clone();
        if c.is_empty() {
            problems.push(format!("episode {i}: no reference chunk ran"));
        }
        e.scale = REFERENCE_NOMINAL_NS / percentile(&mut c, 50.0).max(1) as f64;
    }
    let measured = || eps.iter().skip(1);
    let timed: Vec<&Episode> = measured().filter(|e| e.spans.is_none()).collect();
    let traced: Vec<&Episode> = measured().filter(|e| e.spans.is_some()).collect();
    let first = &eps[0];

    println!(
        "# perfbench workload={} seed={} trace={} nproc={} rustc=\"{}\" episodes={} ops_per_episode={} ops={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.rustc,
        eps.len(),
        ops_per_episode,
        attempted,
    );
    println!(
        "# self-check: input_digest={:016x} held_out_digest={held_out:016x} modelled values repeat across {} episodes: {}",
        inputs.digest(),
        eps.len(),
        if repeat { "yes" } else { "NO" }
    );
    println!(
        "# machine speed: reference chunk nominal {:.1} us, {} chunks run among the ops; each episode's wall times are scaled by nominal over its median chunk time (median scale {:.4}), raw values in brackets",
        REFERENCE_NOMINAL_NS / 1e3,
        eps.iter().map(|e| e.calib.len()).sum::<usize>(),
        median_of(&timed, |e| Some(e.scale)),
    );
    for (name, v) in &first.virt {
        println!("# modelled {name} = {v}");
    }

    let mut json: Vec<(&str, f64)> = Vec::new();
    let n_eps = format!("median of {} episodes", timed.len());
    if !args.trace {
        // Each value is computed twice: scaled to the nominal machine
        // speed (reported) and raw (printed alongside).
        let both = |f: &dyn Fn(&Episode, f64) -> f64| {
            let scaled = median_of(&timed, |e| Some(f(e, e.scale)));
            (scaled, median_of(&timed, |e| Some(f(e, 1.0))))
        };
        // Latency percentiles are taken per episode (each episode does
        // the same work), then the median over episodes: a burst of
        // interference in one episode cannot move them.
        let n = first.lat_ns.len();
        let tail = supported_pct(n, 99.0);
        let pct = |p: f64| {
            both(&|e, s| {
                let mut lat = e.lat_ns.clone();
                percentile(&mut lat, p) as f64 * s / 1e3
            })
        };
        let setup = both(&|e, s| e.setup_ns as f64 * s / 1e9);
        let ops = both(&|e, s| ops_per_episode as f64 / (e.wall_ns as f64 * s / 1e9));
        let p50 = pct(50.0);
        let p99 = pct(tail);
        let iso = median_of(&timed, |e| Some(e.iso.0 as f64 / e.iso.1.max(1) as f64));
        let report = |name: &str, (scaled, raw): (f64, f64), how: &str| {
            line(name, scaled, &format!("{how}; raw [{raw}]"));
            scaled
        };
        json.push(("setup_s", report("setup_s", setup, &n_eps)));
        report("ops_per_s", ops, &n_eps);
        let how = format!("p50 of {n} op samples per episode, {n_eps}");
        json.push(("op_p50_us", report("op_p50_us", p50, &how)));
        let how = format!("p{tail} of {n} op samples per episode, {n_eps}");
        report("op_p99_us", p99, &how);
        line(
            "isolation_overhead_x",
            iso,
            &format!("FreePart wall over Original wall on the same work, {n_eps}"),
        );
        json.push(("isolation_overhead_x", iso));
        line(
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            &format!("{failed} of {attempted} ops"),
        );
        line(
            "virtual_ms",
            first.virt("virtual_ns") as f64 / 1e6,
            "modelled, exact",
        );
        match w {
            Workload::Grade | Workload::Frame => {
                let fp = first.virt("virtual_ns") as f64;
                let orig = first.virt("orig_virtual_ns") as f64;
                line(
                    "virtual_overhead_pct",
                    (fp / orig.max(1.0) - 1.0) * 100.0,
                    "modelled FreePart over Original, exact",
                );
            }
            Workload::Serve => {
                line(
                    "virtual_op_p99_us",
                    first.virt("virtual_op_p99_ns") as f64 / 1e3,
                    "modelled per-request latency under DRR, exact",
                );
                for (name, _) in &first.extra {
                    let v = median_of(&timed, |e| find(&e.extra, name));
                    line(name, v, &n_eps);
                }
            }
            Workload::Record => {
                let v = median_of(&timed, |e| find(&e.extra, "replay_steps_per_s"));
                line("replay_steps_per_s", v, &n_eps);
            }
        }
        debug_assert!(json.iter().map(|(n, _)| *n).eq(END_TO_END));
    } else {
        let n_traced = format!("median of {} traced episodes", traced.len());
        let names: Vec<&'static str> = traced[0].layers.iter().map(|(n, _)| *n).collect();
        let mut layers: Vec<(&str, f64)> = names
            .iter()
            .map(|n| (*n, median_of(&traced, |e| find(&e.layers, n))))
            .collect();
        let wall = |eps: &[&Episode]| median_of(eps, |e| Some(e.wall_ns as f64));
        layers.push((
            "trace.overhead_pct",
            (wall(&traced) / wall(&timed).max(1.0) - 1.0) * 100.0,
        ));
        for (name, v) in &layers {
            line(name, *v, &n_traced);
        }
        if let Some(sp) = &traced[traced.len() - 1].spans {
            let mut self_ns: Vec<(&str, u64)> = sp.self_by_name().into_iter().collect();
            self_ns.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
            let summary: Vec<String> = self_ns
                .iter()
                .map(|(n, ns)| format!("{n}={:.3}ms", *ns as f64 / 1e6))
                .collect();
            println!(
                "# self time by span (last traced episode): {}",
                summary.join(" ")
            );
            if let Some(path) = &args.spans_out {
                match std::fs::write(path, sp.to_jsonl()) {
                    Ok(()) => println!("# spans written to {path} ({} spans)", sp.list.len()),
                    Err(e) => problems.push(format!("writing spans to {path}: {e}")),
                }
            }
        }
        for name in PER_LAYER {
            match find(&layers, name) {
                Some(v) => json.push((name, v)),
                None => problems.push(format!("per-layer metric {name} missing")),
            }
        }
    }

    for p in &problems {
        println!("# PROBLEM {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&json)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
