//! One episode: a fixed amount of work on freshly installed systems,
//! and the per-layer metrics a traced episode derives from its spans.

use crate::spans::Spans;
use crate::util::{percentile, supported_pct};
use freepart_simos::Metrics;

/// What one episode measured. Every `virt` entry is modelled (virtual
/// time or a count) and must repeat exactly for the same seed; the rest
/// is wall clock.
#[derive(Default)]
pub struct Episode {
    /// Install, analysis, admission and staging, before the first op.
    pub setup_ns: u64,
    /// Wall time of the measured op phase.
    pub wall_ns: u64,
    /// Wall latency of each op.
    pub lat_ns: Vec<u64>,
    /// Wall time of each reference chunk run during the episode
    /// ([`crate::util::reference_chunk`]).
    pub calib: Vec<u64>,
    /// Nominal over measured reference-chunk time (see
    /// `REFERENCE_NOMINAL_NS`); wall times are multiplied by it.
    pub scale: f64,
    /// Wall time of FreePart and of the unprotected Original scheme
    /// doing the same work on the same inputs.
    pub iso: (u64, u64),
    /// Ops that failed with a call error.
    pub failed: u64,
    /// Output-check failures. Any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// The deterministic signature: modelled times and counts.
    pub virt: Vec<(&'static str, u64)>,
    /// Workload-specific wall-clock results (name, value).
    pub extra: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced episodes only).
    pub layers: Vec<(&'static str, f64)>,
    /// The traced episode's spans, kept for writing out.
    pub spans: Option<Spans>,
}

impl Episode {
    pub fn virt(&self, name: &str) -> u64 {
        self.virt
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Runs one reference chunk and returns its wall time.
    pub fn calibrate(&mut self) -> u64 {
        let ns = crate::util::reference_chunk();
        self.calib.push(ns);
        ns
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Everything besides spans that the shared per-layer metrics need.
pub struct LayerInputs<'a> {
    pub sp: &'a Spans,
    /// Kernel counters over the measured phase.
    pub m: Metrics,
    /// Live framework objects at the end of the phase.
    pub live_objects: u64,
    /// Input bytes staged into the system for the phase.
    pub staged_bytes: u64,
    /// Hooked calls completed in the phase.
    pub calls: u64,
    /// See [`Episode::iso`].
    pub iso: (u64, u64),
    /// Modelled time by bucket, from the runtime's own tracer.
    pub vt: freepart::BucketTotals,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// p50 of a span population, in µs.
pub fn p50_us(sp: &Spans, names: &[&str]) -> f64 {
    let mut d: Vec<u64> = names.iter().flat_map(|n| sp.durations(n)).collect();
    us(percentile(&mut d, 50.0))
}

/// The supported tail (at most p99) of a span population, in µs.
pub fn tail_us(sp: &Spans, name: &str) -> f64 {
    let mut d = sp.durations(name);
    let p = supported_pct(d.len(), 99.0);
    us(percentile(&mut d, p))
}

/// Summed duration per summed tag, scaled to ns per KiB.
fn ns_per_kib(sp: &Spans, name: &str) -> f64 {
    let (ns, bytes) = sp
        .named(name)
        .fold((0u64, 0u64), |(n, b), s| (n + s.dur(), b + s.tag));
    ns as f64 * 1024.0 / bytes.max(1) as f64
}

/// Mean duration of the first and last tenth of the call spans, in
/// order: how much a call slows down as the run accumulates state.
fn drift(sp: &Spans) -> f64 {
    let calls: Vec<u64> = sp
        .list
        .iter()
        .filter(|s| s.name == "call.plain" || s.name == "call.transition")
        .map(|s| s.dur())
        .collect();
    let tenth = (calls.len() / 10).max(1);
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    mean(&calls[calls.len().saturating_sub(tenth)..])
        / mean(&calls[..tenth.min(calls.len())]).max(1.0)
}

/// The per-layer metrics every workload reports.
pub fn common_layers(li: &LayerInputs) -> Vec<(&'static str, f64)> {
    let sp = li.sp;
    let transitions: Vec<_> = sp.named("call.transition").collect();
    let pages: u64 = transitions.iter().map(|s| s.tag).sum();
    let median_tag = |name: &str| {
        let mut t: Vec<u64> = sp.named(name).map(|s| s.tag).collect();
        percentile(&mut t, 50.0) as f64
    };
    let p50_ns = |name: &str| {
        let mut d = sp.durations(name);
        percentile(&mut d, 50.0) as f64
    };
    let m = li.m;
    vec![
        ("callplane.plain_call_p50_us", p50_us(sp, &["call.plain"])),
        ("callplane.calls", li.calls as f64),
        ("callplane.call_drift_x", drift(sp)),
        (
            "state.transition_call_p50_us",
            p50_us(sp, &["call.transition"]),
        ),
        (
            "state.transition_call_p99_us",
            tail_us(sp, "call.transition"),
        ),
        ("state.transitions", transitions.len() as f64),
        (
            "state.pages_per_transition",
            pages as f64 / transitions.len().max(1) as f64,
        ),
        ("objstore.fetch_p50_us", p50_us(sp, &["objstore.fetch"])),
        ("objstore.live_objects", li.live_objects as f64),
        ("rpc.encode_ns", p50_ns("rpc.encode")),
        ("rpc.decode_ns", p50_ns("rpc.decode")),
        ("rpc.frame_bytes", median_tag("rpc.encode")),
        ("ipc.messages", m.ipc_messages as f64),
        ("ipc.bytes", m.ipc_bytes as f64),
        ("ipc.roundtrip_ns_per_kib", ns_per_kib(sp, "ipc.roundtrip")),
        ("commit.fold_ns_per_kib", ns_per_kib(sp, "commit.fold")),
        (
            "commit.bytes_handled",
            (m.ipc_bytes + m.copied_bytes + li.staged_bytes) as f64,
        ),
        ("transport.transfer_bytes", m.total_transfer_bytes() as f64),
        ("transport.copy_ops", m.copy_ops as f64),
        ("transport.shm_mapped_bytes", m.shm_mapped_bytes as f64),
        (
            "transport.batched_share",
            m.calls_batched as f64 / li.calls.max(1) as f64,
        ),
        ("exec.call_p50_us", p50_us(sp, &["exec.call"])),
        ("exec.wall_share", li.iso.1 as f64 / li.iso.0.max(1) as f64),
        (
            "isolation.wall_overhead_x",
            li.iso.0 as f64 / li.iso.1.max(1) as f64,
        ),
        ("vt.marshal_ns", li.vt.marshal_ns as f64),
        ("vt.copy_ns", li.vt.copy_ns as f64),
        ("vt.mprotect_ns", li.vt.mprotect_ns as f64),
        ("vt.compute_ns", li.vt.compute_ns as f64),
    ]
}

/// Shadow-times the IPC and commit layers for one op: an IPC round trip
/// at the op's mean frame size, and the commit fold over its input.
pub fn shadow_op(
    sp: &mut Spans,
    ipc: &mut crate::target::ShadowIpc,
    before: &Metrics,
    after: &Metrics,
    input: &[u8],
) {
    if !sp.on() {
        return;
    }
    let msgs = after.ipc_messages - before.ipc_messages;
    let bytes = after.ipc_bytes - before.ipc_bytes;
    if let Some(frame) = bytes.checked_div(msgs) {
        ipc.roundtrip(sp, frame as usize);
    }
    crate::target::shadow_fold(sp, input);
}
