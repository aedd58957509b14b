//! `tenant-serve`: pooled serving under `Policy::freepart_pooled()`.
//!
//! A fixed tenant population is admitted during setup. Requests then
//! arrive open-loop on a seeded Poisson schedule, in phases at a few
//! fixed arrival rates, and each request runs a 4-call chain
//! (load → color-convert → blur → detect) through
//! `tenant_submit` / `pump_one` / `tenant_wait`, then reads its blurred
//! frame back through the tenant's own view. Latency is timed from when
//! the request was due, not from when it was sent.
//!
//! Each episode serves the schedule twice, on two fresh runtimes:
//!
//! * **wall-paced** (measured): a request is sent once it is due in wall
//!   time, and queued calls are served whenever none is due. This is
//!   the open loop a user sees; which calls share a run queue depends on
//!   wall timing, so its modelled numbers are not reported.
//! * **virtual-paced** (modelled): the same schedule against the virtual
//!   clock, charging idle gaps to it. Every modelled number comes from
//!   this pass and repeats exactly.
//!
//! Each tenant's outputs, in both passes, must equal the same chain run
//! solo on the same input under the Original scheme.

use crate::episode::{common_layers, p50_us, Episode, LayerInputs};
use crate::spans::Spans;
use crate::target::{call_kind, shadow_fold, shadow_rpc, ShadowIpc};
use crate::util::{percentile, tail, Clock, Digest, Rng};
use freepart::{CallError, FrameworkState, Policy, Runtime, TenantHandle, TenantId};
use freepart_baselines::{build, ApiSurface, SchemeKind};
use freepart_frameworks::fileio::encode_image;
use freepart_frameworks::image::Image;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{ObjectId, Value};
use std::collections::HashMap;

/// Tenants admitted in setup.
pub const TENANTS: u32 = 48;
/// Distinct input frames per tenant.
const INPUTS: u32 = 2;
/// Arrival rates (requests per wall second), one phase each, in order.
pub const RATES: [u32; 4] = [1000, 2000, 4000, 8000];
/// Requests per rate phase. The base phase has enough requests for a
/// p99 within one episode.
pub const PHASE_REQUESTS: [usize; 4] = [1000, 400, 400, 400];
/// Latency limit per request: a phase meets the SLO when its p99 is
/// within it. A failed request counts as missing it.
const LIMIT_NS: u64 = 5_000_000;

const CHAIN: [&str; 4] = [
    "cv2.imread",
    "cv2.cvtColor",
    "cv2.GaussianBlur",
    "cv2.findContours",
];

struct Req {
    due_ns: u64,
    tenant: u32,
    input: u32,
    phase: usize,
}

pub struct Inputs {
    /// Input files by `(tenant, input)`.
    files: Vec<Vec<u8>>,
    reqs: Vec<Req>,
    pub digest: u64,
}

fn path(tenant: u32, input: u32) -> String {
    format!("/tenant{tenant}/in-{input}.simg")
}

fn slot(tenant: u32, input: u32) -> usize {
    (tenant * INPUTS + input) as usize
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 3);
    let mut d = Digest::new();
    let files = (0..TENANTS * INPUTS)
        .map(|_| {
            let (w, h) = (rng.range(6, 12), rng.range(6, 12));
            let data = rng.bytes((w * h * 3) as usize);
            let file = encode_image(&Image::from_bytes(w, h, 3, data), None);
            d.bytes(&file);
            file
        })
        .collect();
    // Poisson arrivals and tenant choice, stratified so that only their
    // order depends on the seed: each phase uses the same evenly spaced
    // quantiles of the exponential gap distribution, and every run of
    // TENANTS requests visits each tenant once.
    let mut reqs = Vec::new();
    let mut t = 0f64;
    let mut order: Vec<u32> = Vec::new();
    for (phase, (rate, count)) in RATES.iter().zip(PHASE_REQUESTS).enumerate() {
        let mut gaps: Vec<f64> = (0..count)
            .map(|k| -(1.0 - (k as f64 + 0.5) / count as f64).ln() / f64::from(*rate) * 1e9)
            .collect();
        rng.shuffle(&mut gaps);
        for gap in gaps {
            t += gap;
            if order.is_empty() {
                order = (0..TENANTS).collect();
                rng.shuffle(&mut order);
            }
            let r = Req {
                due_ns: t as u64,
                tenant: order.pop().expect("refilled above"),
                input: rng.range(0, INPUTS - 1),
                phase,
            };
            d.u64(r.due_ns);
            d.u64(u64::from(r.tenant * INPUTS + r.input));
            reqs.push(r);
        }
    }
    Inputs {
        files,
        reqs,
        digest: d.0,
    }
}

/// One request's output: the detector's result and the blurred frame.
#[derive(Clone, PartialEq)]
struct Output {
    rects: Value,
    blurred: Vec<u8>,
}

/// The solo reference: the Original scheme with every tenant input
/// staged. Each input's chain, run alone, gives the output every pooled
/// request on that input must reproduce. During the wall-paced pass it
/// keeps running chains in the generator's idle time, so the Original's
/// cost is sampled at the same moments as the pooled calls it is
/// compared with.
struct Solo {
    s: Box<dyn ApiSurface>,
    next: usize,
    chain_ns: Vec<u64>,
    /// The reference output of every input, in slot order.
    refs: Vec<Output>,
}

/// Idle time below which the generator only spins (a solo chain and a
/// reference chunk take tens of µs; this keeps sends on time).
const PROBE_GAP_NS: u64 = 300_000;

impl Solo {
    /// Stages every input and takes its reference output.
    fn new(inp: &Inputs, sp: &mut Spans) -> Result<Solo, CallError> {
        let mut s = build(SchemeKind::Original, standard_registry(), &[]);
        for t in 0..TENANTS {
            for i in 0..INPUTS {
                s.kernel_mut()
                    .fs_put(&path(t, i), inp.files[slot(t, i)].clone());
            }
        }
        let mut solo = Solo {
            s,
            next: 0,
            chain_ns: Vec::new(),
            refs: Vec::new(),
        };
        solo.refs = (0..inp.files.len())
            .map(|k| solo.chain(k, sp))
            .collect::<Result<_, _>>()?;
        Ok(solo)
    }

    /// Runs input `k` (a `slot`) through the chain alone.
    fn chain(&mut self, k: usize, sp: &mut Spans) -> Result<Output, CallError> {
        let clock = Clock::start();
        let p = path(k as u32 / INPUTS, k as u32 % INPUTS);
        let mut v = Value::from(p.as_str());
        let mut blurred = None;
        for api in CHAIN {
            let id = sp.begin("exec.call");
            v = self.s.call(api, &[v])?;
            sp.end(id);
            if api == "cv2.GaussianBlur" {
                blurred = v.as_obj();
            }
        }
        self.chain_ns.push(clock.ns());
        let obj = blurred.ok_or(CallError::UnknownApi("blur result".into()))?;
        Ok(Output {
            rects: v,
            blurred: self.s.fetch_bytes(obj)?,
        })
    }

    /// Waits until `due` on `clock`: runs one solo chain and one
    /// reference chunk if more than [`PROBE_GAP_NS`] remain, then spins.
    fn idle_until(
        &mut self,
        inp: &Inputs,
        clock: &Clock,
        due: u64,
        sp: &mut Spans,
        ep: &mut Episode,
    ) {
        if clock.ns() + PROBE_GAP_NS < due {
            let k = self.next % inp.files.len();
            self.next += 1;
            // Outputs were checked when the reference was taken.
            let _ = self.chain(k, sp);
            ep.calibrate();
        }
        while clock.ns() < due {
            std::hint::spin_loop();
        }
    }
}

/// A request in flight: its index, current chain step, modelled start
/// and the blurred object once the blur has run.
struct Live {
    req: usize,
    step: usize,
    v_start: u64,
    blurred: Option<ObjectId>,
}

/// What drives the arrival schedule.
#[derive(Clone, Copy, PartialEq)]
enum Pace {
    Wall,
    Virtual,
}

/// A pooled runtime with the tenant population admitted and staged.
struct Server {
    rt: Runtime,
    tenants: Vec<TenantId>,
}

impl Server {
    fn new(inp: &Inputs, traced: bool) -> Server {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart_pooled());
        if traced {
            rt.enable_tracing();
        }
        let tenants = (0..TENANTS).map(|_| rt.spawn_tenant()).collect();
        for t in 0..TENANTS {
            for i in 0..INPUTS {
                rt.kernel.fs_put(&path(t, i), inp.files[slot(t, i)].clone());
            }
        }
        Server { rt, tenants }
    }
}

/// What one pass over the schedule measured.
#[derive(Default)]
struct Pass {
    /// Per request: wall latency from its due time (u64::MAX if it
    /// failed), and modelled latency from its first send.
    lat: Vec<u64>,
    v_lat: Vec<u64>,
    /// Per rate phase: how late each send was.
    late: Vec<Vec<u64>>,
    /// Per request: wall time of its pump calls.
    service: Vec<u64>,
    /// Per call: wall time from submit to the pump that served it.
    qwait: Vec<u64>,
    handles: Vec<TenantHandle>,
    wall_ns: u64,
}

/// Serves every request of the schedule. Outputs are checked against
/// the solo references; failures and mismatches land in `ep`.
fn serve(
    s: &mut Server,
    inp: &Inputs,
    solo: &mut Solo,
    pace: Pace,
    sp: &mut Spans,
    ipc: &mut ShadowIpc,
    ep: &mut Episode,
) -> Pass {
    let n = inp.reqs.len();
    let mut pass = Pass {
        lat: vec![u64::MAX; n],
        v_lat: vec![0; n],
        late: vec![Vec::new(); RATES.len()],
        service: vec![0; n],
        ..Pass::default()
    };
    let rt = &mut s.rt;
    let mut states: Vec<FrameworkState> =
        s.tenants.iter().map(|t| rt.state_of(t.thread())).collect();
    let mut live: HashMap<u64, Live> = HashMap::new();
    let mut sent_at: HashMap<u64, u64> = HashMap::new();
    let (mut next, mut done, mut queued, mut seq) = (0usize, 0usize, 0usize, 0u64);
    let m0 = rt.kernel.metrics();
    let v0 = rt.kernel.now_ns();
    let clock = Clock::start();

    let mut submit = |rt: &mut Runtime,
                      sp: &mut Spans,
                      pass: &mut Pass,
                      sent_at: &mut HashMap<u64, u64>,
                      tenant: TenantId,
                      api: &'static str,
                      arg: Value|
     -> Result<TenantHandle, CallError> {
        let id = sp.begin("pool.submit");
        let h = rt.tenant_submit(tenant, api, std::slice::from_ref(&arg));
        sp.end(id);
        if let Ok(h) = h {
            pass.handles.push(h);
            sent_at.insert(h.id(), clock.ns());
            if sp.on() {
                seq += 1;
                shadow_rpc(rt, sp, seq, api, &[arg], &Ok(Value::Unit));
            }
        }
        h
    };
    let fail = |ep: &mut Episode, done: &mut usize, req: usize, e: CallError| {
        ep.problems.push(format!("request {req}: {e}"));
        ep.failed += u64::from(pace == Pace::Wall);
        *done += 1;
    };

    while done < n {
        let now = match pace {
            Pace::Wall => clock.ns(),
            Pace::Virtual => rt.kernel.now_ns() - v0,
        };
        if next < n && (queued == 0 || inp.reqs[next].due_ns <= now) {
            let r = &inp.reqs[next];
            if r.due_ns > now {
                // Idle until the next arrival.
                match pace {
                    Pace::Wall => solo.idle_until(inp, &clock, r.due_ns, sp, ep),
                    Pace::Virtual => rt.kernel.charge_time(r.due_ns - now),
                }
            }
            if pace == Pace::Wall {
                pass.late[r.phase].push(clock.ns().saturating_sub(r.due_ns));
            }
            sp.req = next as u32;
            let p = Value::from(path(r.tenant, r.input).as_str());
            let tenant = s.tenants[r.tenant as usize];
            let v_start = rt.kernel.now_ns();
            match submit(rt, sp, &mut pass, &mut sent_at, tenant, CHAIN[0], p) {
                Ok(h) => {
                    let l = Live {
                        req: next,
                        step: 0,
                        v_start,
                        blurred: None,
                    };
                    live.insert(h.id(), l);
                    queued += 1;
                }
                Err(e) => fail(ep, &mut done, next, e),
            }
            next += 1;
            continue;
        }

        let pages = rt.kernel.metrics().protected_pages;
        let id = sp.begin("call");
        let pump_start = clock.ns();
        let pumped = rt.pump_one();
        let pump_ns = clock.ns() - pump_start;
        let Some((h, mut l)) = pumped.and_then(|h| live.remove(&h.id()).map(|l| (h, l))) else {
            sp.end(id);
            ep.problems.push(format!(
                "scheduler idle or unknown ticket with {queued} queued"
            ));
            break;
        };
        queued -= 1;
        pass.service[l.req] += pump_ns;
        let r = &inp.reqs[l.req];
        let tenant = s.tenants[r.tenant as usize];
        let state = rt.state_of(tenant.thread());
        let changed = state != states[r.tenant as usize];
        states[r.tenant as usize] = state;
        let locked = rt.kernel.metrics().protected_pages - pages;
        sp.end_as(id, call_kind(changed), locked);
        if let Some(sent) = sent_at.remove(&h.id()) {
            pass.qwait.push(pump_start.saturating_sub(sent));
        }
        let wid = sp.begin("pool.wait");
        let res = rt.tenant_wait(h);
        sp.end(wid);
        sp.req = l.req as u32;
        let v = match res {
            Ok(v) => v,
            Err(e) => {
                fail(ep, &mut done, l.req, e);
                continue;
            }
        };
        if CHAIN[l.step] == "cv2.GaussianBlur" {
            l.blurred = v.as_obj();
        }
        l.step += 1;
        if l.step < CHAIN.len() {
            match submit(rt, sp, &mut pass, &mut sent_at, tenant, CHAIN[l.step], v) {
                Ok(h) => {
                    live.insert(h.id(), l);
                    queued += 1;
                }
                Err(e) => fail(ep, &mut done, l.req, e),
            }
            continue;
        }
        let fid = sp.begin("objstore.fetch");
        let blurred = match l.blurred {
            Some(obj) => rt.tenant_fetch(tenant, obj),
            None => Err(CallError::UnknownApi("blur result".into())),
        };
        sp.end(fid);
        let end = clock.ns();
        pass.v_lat[l.req] = rt.kernel.now_ns() - l.v_start;
        let bytes = match blurred {
            Ok(b) => b,
            Err(e) => {
                fail(ep, &mut done, l.req, e);
                continue;
            }
        };
        if sp.on() {
            let m = rt.kernel.metrics().since(&m0);
            ipc.roundtrip(sp, (m.ipc_bytes / m.ipc_messages.max(1)) as usize);
            shadow_fold(sp, &bytes);
        }
        let want = &solo.refs[slot(r.tenant, r.input)];
        if want.rects != v || want.blurred != bytes {
            ep.problems.push(format!(
                "request {}: tenant {} output differs from its solo reference",
                l.req, r.tenant
            ));
        }
        pass.lat[l.req] = end.saturating_sub(r.due_ns);
        done += 1;
    }
    pass.wall_ns = clock.ns();
    pass
}

/// One `tenant-serve` episode.
pub fn tenant_serve(inp: &Inputs, traced: bool, ipc: &mut ShadowIpc) -> Episode {
    let mut ep = Episode {
        input_digest: inp.digest,
        ..Episode::default()
    };
    let mut sp = Spans::new(traced);
    let setup = Clock::start();
    let mut wall = Server::new(inp, traced);
    ep.setup_ns = setup.ns();
    let mut solo = match Solo::new(inp, &mut sp) {
        Ok(s) => s,
        Err(e) => {
            ep.problems.push(format!("solo reference failed: {e}"));
            return ep;
        }
    };

    let m0 = wall.rt.kernel.metrics();
    let mut w = serve(&mut wall, inp, &mut solo, Pace::Wall, &mut sp, ipc, &mut ep);
    let m = wall.rt.kernel.metrics().since(&m0);
    ep.wall_ns = w.wall_ns;
    ep.iso = (
        percentile(&mut w.service, 50.0),
        percentile(&mut solo.chain_ns, 50.0),
    );
    let mut phase_lat: Vec<Vec<u64>> = vec![Vec::new(); RATES.len()];
    for (r, l) in inp.reqs.iter().zip(&w.lat) {
        phase_lat[r.phase].push(*l);
    }
    ep.lat_ns = phase_lat[0].clone();

    // The highest arrival rate whose p99 meets the limit while the
    // backlog stays flat (the last quarter of sends is not late).
    let mut slo = 0.0;
    for (p, rate) in RATES.iter().enumerate() {
        let p99 = tail(&mut phase_lat[p]);
        let late = &w.late[p];
        let mut last_q = late[late.len() * 3 / 4..].to_vec();
        let flat = percentile(&mut last_q, 50.0) <= LIMIT_NS / 4;
        ep.extra.push((RATE_P99[p], p99 as f64 / 1e3));
        if p99 <= LIMIT_NS && flat {
            slo = f64::from(*rate);
        }
    }
    ep.extra.push(("slo_rate_per_s", slo));

    let mut virt = Server::new(inp, false);
    let v0 = virt.rt.kernel.now_ns();
    let vm0 = virt.rt.kernel.metrics();
    let mut quiet = Spans::new(false);
    let mut v = serve(
        &mut virt,
        inp,
        &mut solo,
        Pace::Virtual,
        &mut quiet,
        ipc,
        &mut ep,
    );
    let vm = virt.rt.kernel.metrics().since(&vm0);
    let max_foreign = v
        .handles
        .iter()
        .filter_map(|h| virt.rt.ticket_fairness(*h))
        .map(|(f, _)| f)
        .max()
        .unwrap_or(0);
    let st = virt.rt.stats();
    ep.virt.extend([
        ("virtual_ns", virt.rt.kernel.now_ns() - v0),
        ("virtual_op_p99_ns", tail(&mut v.v_lat)),
        ("calls", st.rpc_calls),
        ("transitions", st.transitions),
        ("protected_pages", vm.protected_pages),
        ("ipc_messages", vm.ipc_messages),
        ("ipc_bytes", vm.ipc_bytes),
        ("max_foreign_served", max_foreign),
        ("live_objects", virt.rt.objects.len() as u64),
    ]);

    if traced {
        let rt = &wall.rt;
        let st = rt.stats();
        let li = LayerInputs {
            sp: &sp,
            m,
            live_objects: rt.objects.len() as u64,
            staged_bytes: inp.files.iter().map(|f| f.len() as u64).sum(),
            calls: st.rpc_calls,
            iso: ep.iso,
            vt: rt.tracer().bucket_totals(),
        };
        ep.layers = common_layers(&li);
        let (agents, tenant_procs) = rt.pooled_process_count();
        let mut late: Vec<u64> = w.late.concat();
        ep.layers.extend([
            ("pool.submit_p50_us", p50_us(&sp, &["pool.submit"])),
            (
                "pool.pump_p50_us",
                p50_us(&sp, &["call.plain", "call.transition"]),
            ),
            ("pool.wait_p50_us", p50_us(&sp, &["pool.wait"])),
            ("pool.queue_wait_p99_us", tail(&mut w.qwait) as f64 / 1e3),
            ("sched.max_foreign_served", max_foreign as f64),
            ("pool.tenant_denials", st.tenant_denials as f64),
            ("pool.procs", (1 + agents + tenant_procs) as f64),
            ("gen.late_p99_us", tail(&mut late) as f64 / 1e3),
        ]);
        ep.spans = Some(sp);
    }
    ep
}

/// Per-rate p99 names, in [`RATES`] order.
const RATE_P99: [&str; 4] = [
    "rate1000_op_p99_us",
    "rate2000_op_p99_us",
    "rate4000_op_p99_us",
    "rate8000_op_p99_us",
];
