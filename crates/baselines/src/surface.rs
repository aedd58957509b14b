//! A uniform driving surface over every isolation scheme.
//!
//! The evaluation runs the *same* application pipeline under FreePart,
//! the five baselines of Table 1, and the unprotected original;
//! [`ApiSurface`] is the interface those pipelines are written against.

use freepart::{CallError, Runtime};
use freepart_frameworks::{ActionReport, ObjectId, Value};
use freepart_simos::{Kernel, Pid};

/// Anything an application pipeline needs from its runtime.
pub trait ApiSurface {
    /// Human-readable scheme name ("FreePart", "Library (entire)", ...).
    fn scheme_name(&self) -> &'static str;

    /// Invokes a framework API by qualified name.
    ///
    /// # Errors
    ///
    /// Scheme-specific containment failures surface as [`CallError`].
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError>;

    /// Submits a framework API call whose retirement may be deferred to
    /// [`ApiSurface::drain`], returning its (eagerly computed) result.
    /// Schemes that retire every call immediately need nothing more.
    /// Default: [`ApiSurface::call`].
    ///
    /// # Errors
    ///
    /// As [`ApiSurface::call`].
    fn submit(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        self.call(name, args)
    }

    /// Retires every call [`ApiSurface::submit`] left outstanding.
    /// Default: no-op.
    fn drain(&mut self) {}

    /// Allocates host-application critical data (participates in
    /// whatever data protection the scheme offers).
    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId;

    /// Creates a host-homed object of an arbitrary kind (pipeline
    /// plumbing: pre-existing models, figures, tables).
    fn create_object(
        &mut self,
        kind: freepart_frameworks::ObjectKind,
        label: &str,
        bytes: &[u8],
    ) -> ObjectId;

    /// Host-side dereference of an object's payload.
    ///
    /// # Errors
    ///
    /// [`CallError::StateLost`] when the payload died with a process.
    fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError>;

    /// Mutable kernel access (seeding files, devices, inspecting state).
    fn kernel_mut(&mut self) -> &mut Kernel;

    /// Shared kernel access.
    fn kernel(&self) -> &Kernel;

    /// The object store.
    fn objects(&self) -> &freepart_frameworks::ObjectStore;

    /// The host/application process.
    fn host_pid(&self) -> Pid;

    /// Exploit actions observed so far.
    fn exploit_log(&self) -> &[ActionReport];

    /// Simultaneous access to the pieces attack judgment needs:
    /// mutable kernel (memory reads), object store, and host pid.
    fn attack_view(&mut self) -> (&mut Kernel, &freepart_frameworks::ObjectStore, Pid);

    /// Address of an executable code page in the process that runs
    /// `cv2.imread` — the target of code-rewriting exploits.
    fn code_target(&mut self) -> u64;

    /// Number of processes the scheme uses.
    fn process_count(&self) -> usize;

    /// Called by the application after its initialization section —
    /// schemes that lock things down post-setup (memory-based
    /// protection) hook this. Default: no-op.
    fn finish_setup(&mut self) {}

    /// Drops a named instant mark into the scheme's trace timeline, when
    /// it keeps one (pipeline phase boundaries: per-sample, per-frame).
    /// Default: no-op — baselines without tracing ignore marks.
    fn trace_mark(&mut self, _label: &str) {}
}

impl ApiSurface for Runtime {
    fn scheme_name(&self) -> &'static str {
        "FreePart"
    }

    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        Runtime::call(self, name, args)
    }

    /// `call_async` + `promise`: the result is read without retiring
    /// the call, so consecutive same-partition submissions can coalesce
    /// into one frame under a batch window.
    fn submit(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        let handle = self.call_async(name, args)?;
        self.promise(handle)
    }

    fn drain(&mut self) {
        self.drain_inflight();
    }

    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        Runtime::host_data(self, label, bytes)
    }

    fn create_object(
        &mut self,
        kind: freepart_frameworks::ObjectKind,
        label: &str,
        bytes: &[u8],
    ) -> ObjectId {
        Runtime::host_object(self, kind, label, bytes)
    }

    fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        Runtime::fetch_bytes(self, id)
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn objects(&self) -> &freepart_frameworks::ObjectStore {
        &self.objects
    }

    fn host_pid(&self) -> Pid {
        self.host_pid()
    }

    fn exploit_log(&self) -> &[ActionReport] {
        &self.exploit_log
    }

    fn attack_view(&mut self) -> (&mut Kernel, &freepart_frameworks::ObjectStore, Pid) {
        let host = Runtime::host_pid(self);
        (&mut self.kernel, &self.objects, host)
    }

    fn code_target(&mut self) -> u64 {
        let imread = self
            .registry()
            .id_of("cv2.imread")
            .expect("catalog has imread");
        let partition = self.partition_of(imread);
        self.agent(partition)
            .expect("loading agent exists")
            .code_page
            .0
    }

    fn process_count(&self) -> usize {
        self.kernel.process_count()
    }

    fn trace_mark(&mut self, label: &str) {
        Runtime::trace_mark(self, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonolithicRuntime;
    use freepart::Policy;
    use freepart_frameworks::registry::standard_registry;
    use freepart_frameworks::{fileio, image::Image};

    /// A four-call same-partition chain, issued through `issue`.
    fn chain(
        surface: &mut dyn ApiSurface,
        issue: fn(&mut dyn ApiSurface, &str, &[Value]) -> Result<Value, CallError>,
    ) -> Value {
        surface
            .kernel_mut()
            .fs_put("/in.simg", fileio::encode_image(&Image::new(8, 8, 3), None));
        let mut cur = issue(surface, "cv2.imread", &[Value::from("/in.simg")]).unwrap();
        for name in ["cv2.cvtColor", "cv2.GaussianBlur", "cv2.threshold"] {
            cur = issue(surface, name, &[cur]).unwrap();
        }
        cur
    }

    /// Under a batch window, `submit` must leave calls in flight so
    /// they can coalesce; a synchronous `submit` would switch batching
    /// off without changing any result.
    #[test]
    fn runtime_submit_defers_retirement_until_drain() {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart_batched());
        chain(&mut rt, |s, name, args| s.submit(name, args));
        assert!(rt.in_flight() > 0, "submit retired its calls");
        ApiSurface::drain(&mut rt);
        assert_eq!(rt.in_flight(), 0, "drain left calls in flight");
        assert!(rt.kernel.metrics().calls_batched > 0, "nothing coalesced");
    }

    /// A scheme without deferred retirement submits exactly as it calls.
    #[test]
    fn monolithic_submit_equals_call() {
        let mut called = MonolithicRuntime::original(standard_registry());
        let a = chain(&mut called, |s, name, args| s.call(name, args));
        let mut submitted = MonolithicRuntime::original(standard_registry());
        let b = chain(&mut submitted, |s, name, args| s.submit(name, args));
        submitted.drain();
        assert_eq!(a, b);
        assert_eq!(
            called.fetch_bytes(a.as_obj().unwrap()).unwrap(),
            submitted.fetch_bytes(b.as_obj().unwrap()).unwrap()
        );
        assert_eq!(called.kernel.now_ns(), submitted.kernel.now_ns());
        assert_eq!(
            called.kernel.state_digest(),
            submitted.kernel.state_digest()
        );
    }
}
