//! The benchmark's two ways into the system under test, and the shadow
//! timers of the traced run.
//!
//! [`Fp`] drives a FreePart [`Runtime`]; [`Orig`] drives the unprotected
//! Original scheme through `freepart-baselines`. Both implement
//! [`Target`], so one workload function runs the same inputs through
//! either. With spans on, every call is wrapped in a span classified by
//! whether it changed the framework state, and each FreePart call also
//! shadow-times the RPC frames it would put on the wire.

use crate::spans::Spans;
use freepart::rpc::{Request, Response};
use freepart::{CallError, CallHandle, Runtime};
use freepart_baselines::ApiSurface;
use freepart_frameworks::{ObjectId, Value};
use freepart_simos::{ChannelId, Kernel, Metrics, Pid};

pub trait Target {
    /// A synchronous hooked call.
    fn call(&mut self, name: &'static str, args: &[Value]) -> Result<Value, CallError>;

    /// An asynchronous hooked call whose result is peeked, not retired
    /// (see [`Target::retire`]). Synchronous targets just call.
    fn submit(&mut self, name: &'static str, args: &[Value]) -> Result<Value, CallError> {
        self.call(name, args)
    }

    /// Retires every call [`Target::submit`] left in flight.
    fn retire(&mut self) -> Result<(), CallError> {
        Ok(())
    }

    /// Annotated host data (the paper's critical objects).
    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId;

    /// Host-side read of an object's payload.
    fn fetch(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError>;

    /// Harness staging of an input file (a logged kernel transition).
    fn put_file(&mut self, path: &str, bytes: Vec<u8>);

    fn read_file(&self, path: &str) -> Option<Vec<u8>>;

    /// Modelled completion time so far.
    fn virtual_ns(&self) -> u64;

    /// Kernel counters so far.
    fn metrics(&self) -> Metrics;

    fn spans(&mut self) -> &mut Spans;
}

/// A FreePart runtime plus the traced run's span recorder.
pub struct Fp<'a> {
    pub rt: &'a mut Runtime,
    pub sp: &'a mut Spans,
    pending: Vec<CallHandle>,
    seq: u64,
}

impl<'a> Fp<'a> {
    pub fn new(rt: &'a mut Runtime, sp: &'a mut Spans) -> Fp<'a> {
        Fp {
            rt,
            sp,
            pending: Vec::new(),
            seq: 0,
        }
    }

    fn traced(
        &mut self,
        name: &'static str,
        args: &[Value],
        f: impl FnOnce(&mut Runtime) -> Result<Value, CallError>,
    ) -> Result<Value, CallError> {
        if !self.sp.on() {
            return f(self.rt);
        }
        let state = self.rt.current_state();
        let pages = self.rt.kernel.metrics().protected_pages;
        let id = self.sp.begin("call");
        let r = f(self.rt);
        let changed = self.rt.current_state() != state;
        let locked = self.rt.kernel.metrics().protected_pages - pages;
        self.sp.end_as(id, call_kind(changed), locked);
        self.seq += 1;
        shadow_rpc(self.rt, self.sp, self.seq, name, args, &r);
        r
    }
}

/// The span name of a hooked call: a transition call changed the
/// framework state, a plain call did not.
pub fn call_kind(changed: bool) -> &'static str {
    if changed {
        "call.transition"
    } else {
        "call.plain"
    }
}

/// Shadow-times encoding and decoding the request and response frames
/// of one call, built from the call's own arguments and result.
pub fn shadow_rpc(
    rt: &Runtime,
    sp: &mut Spans,
    seq: u64,
    name: &str,
    args: &[Value],
    result: &Result<Value, CallError>,
) {
    let Some(api) = rt.registry().id_of(name) else {
        return;
    };
    let req = Request {
        seq,
        api,
        args: args.to_vec(),
    };
    let resp = Response {
        seq,
        result: result.clone().unwrap_or(Value::Unit),
    };
    let bytes = req.wire_size() + resp.wire_size();
    let (rq, rs) = sp.shadow("rpc.encode", bytes, || (req.encode(), resp.encode()));
    sp.shadow("rpc.decode", bytes, || {
        (
            Request::decode(&rq).is_some(),
            Response::decode(&rs).is_some(),
        )
    });
}

impl Target for Fp<'_> {
    fn call(&mut self, name: &'static str, args: &[Value]) -> Result<Value, CallError> {
        self.traced(name, args, |rt| rt.call(name, args))
    }

    fn submit(&mut self, name: &'static str, args: &[Value]) -> Result<Value, CallError> {
        let mut handle = None;
        let r = self.traced(name, args, |rt| {
            let h = rt.call_async(name, args)?;
            handle = Some(h);
            rt.promise(h)
        });
        self.pending.extend(handle);
        r
    }

    fn retire(&mut self) -> Result<(), CallError> {
        let id = self.sp.begin("callplane.wait");
        let mut out = Ok(());
        for h in std::mem::take(&mut self.pending) {
            if let Err(e) = self.rt.wait(h) {
                out = Err(e);
            }
        }
        self.sp.end(id);
        out
    }

    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        self.rt.host_data(label, bytes)
    }

    fn fetch(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        let s = self.sp.begin("objstore.fetch");
        let r = self.rt.fetch_bytes(id);
        self.sp.end(s);
        r
    }

    fn put_file(&mut self, path: &str, bytes: Vec<u8>) {
        self.rt.kernel.fs_put(path, bytes);
    }

    fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.rt.kernel.fs.get(path).cloned()
    }

    fn virtual_ns(&self) -> u64 {
        self.rt.kernel.makespan_ns()
    }

    fn metrics(&self) -> Metrics {
        self.rt.kernel.metrics()
    }

    fn spans(&mut self) -> &mut Spans {
        self.sp
    }
}

/// The unprotected Original scheme. Its calls are `exec.call` spans:
/// framework execution with no isolation around it.
pub struct Orig<'a> {
    pub s: &'a mut dyn ApiSurface,
    pub sp: &'a mut Spans,
}

impl Target for Orig<'_> {
    fn call(&mut self, name: &'static str, args: &[Value]) -> Result<Value, CallError> {
        let id = self.sp.begin("exec.call");
        let r = self.s.call(name, args);
        self.sp.end(id);
        r
    }

    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        self.s.host_data(label, bytes)
    }

    fn fetch(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        self.s.fetch_bytes(id)
    }

    fn put_file(&mut self, path: &str, bytes: Vec<u8>) {
        self.s.kernel_mut().fs_put(path, bytes);
    }

    fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.s.kernel().fs.get(path).cloned()
    }

    fn virtual_ns(&self) -> u64 {
        self.s.kernel().makespan_ns()
    }

    fn metrics(&self) -> Metrics {
        self.s.kernel().metrics()
    }

    fn spans(&mut self) -> &mut Spans {
        self.sp
    }
}

/// A two-process scratch kernel for shadow-timing IPC round trips at
/// the frame sizes a run produced.
pub struct ShadowIpc {
    k: Kernel,
    a: Pid,
    b: Pid,
    chan: ChannelId,
}

impl ShadowIpc {
    pub fn new() -> ShadowIpc {
        let mut k = Kernel::new();
        let a = k.spawn("shadow-a");
        let b = k.spawn("shadow-b");
        let chan = k
            .create_channel(a, b, 8 << 20)
            .expect("fresh endpoints are alive");
        ShadowIpc { k, a, b, chan }
    }

    /// One `ipc_send` + `ipc_recv` of `bytes` bytes inside a shadow span.
    pub fn roundtrip(&mut self, sp: &mut Spans, bytes: usize) {
        let payload = vec![0xA5u8; bytes.max(1)];
        let (k, a, b, chan) = (&mut self.k, self.a, self.b, self.chan);
        sp.shadow("ipc.roundtrip", payload.len() as u64, || {
            k.ipc_send(a, chan, &payload).expect("ring has room");
            k.ipc_recv(b, chan).expect("endpoint is alive")
        });
    }
}

/// Shadow-times the commit fingerprint fold over one payload.
pub fn shadow_fold(sp: &mut Spans, bytes: &[u8]) {
    sp.shadow("commit.fold", bytes.len() as u64, || {
        freepart_simos::commit::fold_bytes(0, bytes)
    });
}
