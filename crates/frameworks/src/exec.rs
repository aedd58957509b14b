//! Execution of framework APIs inside a process context.
//!
//! [`execute`] is the single entry point: given a registry, an API id,
//! arguments, and an [`ApiCtx`] (which fixes *which process* the body
//! runs as), it performs the API's real work — syscalls through the
//! kernel, pixel/tensor math on buffers read from simulated memory —
//! and returns a [`Value`].
//!
//! Two security-relevant behaviours live here:
//!
//! * **Exploit triggering.** Crafted files carry [`ExploitPayload`]s;
//!   when a *vulnerable* API decodes one (or receives a tainted object),
//!   the payload runs in the current process context before/instead of
//!   the API completing — exactly the paper's threat model.
//! * **Locality discipline.** An API may only touch objects homed in its
//!   own process. Isolation runtimes must move data first; a violation is
//!   a [`FrameworkError::RemoteObject`] (a harness bug, never silent
//!   cross-process access).

use crate::api::{
    ApiId, ApiKind, ApiRegistry, ApiSpec, BinaryOp, FilterOp, TensorUnaryOp, WindowOp,
};
use crate::ctx::ApiCtx;
use crate::exploit::{run_payload, ExploitPayload};
use crate::fileio;
use crate::image::{self, Image, Rect};
use crate::ir::{FlowOp, Storage};
use crate::object::{ObjectId, ObjectKind, ObjectMeta};
use crate::tensor::{self, PoolKind, Tensor};
use crate::value::Value;
use freepart_simos::{DeviceKind, Errno, SimError, Syscall, SyscallRet};
use std::fmt;

/// Default camera frame geometry (64×64 BGR).
pub const CAMERA_W: u32 = 64;
/// Camera frame height.
pub const CAMERA_H: u32 = 64;
/// Camera frame channels.
pub const CAMERA_CH: u32 = 3;
/// Camera frame length in bytes.
pub const CAMERA_FRAME_LEN: usize = (CAMERA_W * CAMERA_H * CAMERA_CH) as usize;

/// Errors from framework-API execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameworkError {
    /// Kernel-level failure — including process crashes caused by
    /// exploits or permission faults.
    Sim(SimError),
    /// Wrong argument count/types for the API.
    BadArgs(String),
    /// A file failed to parse.
    Parse(String),
    /// The API touched an object homed in another process (an isolation
    /// runtime forgot to move it).
    RemoteObject(ObjectId),
    /// The object id is not live.
    NoSuchObject(ObjectId),
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::Sim(e) => write!(f, "kernel: {e}"),
            FrameworkError::BadArgs(m) => write!(f, "bad arguments: {m}"),
            FrameworkError::Parse(m) => write!(f, "parse failure: {m}"),
            FrameworkError::RemoteObject(id) => write!(f, "object {id} is remote"),
            FrameworkError::NoSuchObject(id) => write!(f, "object {id} is not live"),
        }
    }
}

impl std::error::Error for FrameworkError {}

impl From<SimError> for FrameworkError {
    fn from(e: SimError) -> Self {
        FrameworkError::Sim(e)
    }
}

impl FrameworkError {
    /// True when the underlying cause is a process crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, FrameworkError::Sim(e) if e.is_fault())
            || matches!(self, FrameworkError::Sim(SimError::ProcessDead(_)))
    }
}

type ExecResult = Result<Value, FrameworkError>;

// ----------------------------------------------------------------------
// Argument helpers
// ----------------------------------------------------------------------

fn want_str(args: &[Value], i: usize) -> Result<String, FrameworkError> {
    args.get(i)
        .and_then(|v| v.as_str())
        .map(str::to_owned)
        .ok_or_else(|| FrameworkError::BadArgs(format!("arg {i} must be a string")))
}

fn want_i64(args: &[Value], i: usize) -> Result<i64, FrameworkError> {
    args.get(i)
        .and_then(|v| v.as_i64())
        .ok_or_else(|| FrameworkError::BadArgs(format!("arg {i} must be an integer")))
}

fn want_f64(args: &[Value], i: usize) -> Result<f64, FrameworkError> {
    args.get(i)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| FrameworkError::BadArgs(format!("arg {i} must be numeric")))
}

fn want_obj(ctx: &ApiCtx<'_>, args: &[Value], i: usize) -> Result<ObjectMeta, FrameworkError> {
    let id = args
        .get(i)
        .and_then(Value::as_obj)
        .ok_or_else(|| FrameworkError::BadArgs(format!("arg {i} must be an object")))?;
    let meta = ctx
        .objects
        .meta(id)
        .ok_or(FrameworkError::NoSuchObject(id))?
        .clone();
    if meta.home != ctx.pid {
        return Err(FrameworkError::RemoteObject(id));
    }
    Ok(meta)
}

fn load_mat(ctx: &mut ApiCtx<'_>, meta: &ObjectMeta) -> Result<Image, FrameworkError> {
    let (w, h, ch) = match meta.kind {
        ObjectKind::Mat { w, h, ch } => (w, h, ch),
        _ => {
            return Err(FrameworkError::BadArgs(format!(
                "object {} is not a Mat",
                meta.id
            )))
        }
    };
    let bytes = ctx.objects.read_bytes(ctx.kernel, meta.id)?;
    Ok(Image::from_bytes(w, h, ch, bytes))
}

fn load_tensor(ctx: &mut ApiCtx<'_>, meta: &ObjectMeta) -> Result<Tensor, FrameworkError> {
    let shape = match &meta.kind {
        ObjectKind::Tensor { shape } => shape.clone(),
        ObjectKind::Model { .. } => {
            let len = meta.len() / 4;
            vec![len.max(1) as u32]
        }
        _ => {
            return Err(FrameworkError::BadArgs(format!(
                "object {} is not a tensor/model",
                meta.id
            )))
        }
    };
    let bytes = ctx.objects.read_bytes(ctx.kernel, meta.id)?;
    Ok(Tensor::from_bytes(&shape, &bytes))
}

fn new_mat(
    ctx: &mut ApiCtx<'_>,
    img: &Image,
    label: &str,
    taint: Option<ExploitPayload>,
) -> Result<Value, FrameworkError> {
    let id = ctx.objects.create_with_data(
        ctx.kernel,
        ctx.pid,
        ObjectKind::Mat {
            w: img.w,
            h: img.h,
            ch: img.ch,
        },
        label,
        &img.data,
    )?;
    ctx.objects.set_taint(id, taint);
    Ok(Value::Obj(id))
}

fn new_tensor(
    ctx: &mut ApiCtx<'_>,
    t: &Tensor,
    label: &str,
    taint: Option<ExploitPayload>,
) -> Result<Value, FrameworkError> {
    let id = ctx.objects.create_with_data(
        ctx.kernel,
        ctx.pid,
        ObjectKind::Tensor {
            shape: t.shape.clone(),
        },
        label,
        &t.to_bytes(),
    )?;
    ctx.objects.set_taint(id, taint);
    Ok(Value::Obj(id))
}

/// Coerces a flat tensor into the squarest rank-2 shape its length
/// permits (for conv/pool/matmul kernels on arbitrary inputs).
fn as_2d(t: &Tensor) -> Tensor {
    if t.shape.len() == 2 {
        return t.clone();
    }
    let n = t.len();
    let mut h = (n as f64).sqrt() as usize;
    while h > 1 && !n.is_multiple_of(h) {
        h -= 1;
    }
    let h = h.max(1);
    Tensor::from_data(&[h as u32, (n / h) as u32], t.data.clone())
}

/// Fires a tainted/crafted payload when the executing API is vulnerable
/// to its CVE. Returns `Err` if the payload crashed the process.
fn maybe_exploit(
    ctx: &mut ApiCtx<'_>,
    spec: &ApiSpec,
    payload: Option<&ExploitPayload>,
) -> Result<(), FrameworkError> {
    if let Some(p) = payload {
        if spec.vulnerable_to(&p.cve) {
            run_payload(ctx, p);
            if !ctx.kernel.is_running(ctx.pid) {
                return Err(FrameworkError::Sim(SimError::ProcessDead(ctx.pid)));
            }
        }
    }
    Ok(())
}

fn read_whole_file(ctx: &mut ApiCtx<'_>, path: &str) -> Result<Vec<u8>, FrameworkError> {
    let fd = match ctx.syscall(Syscall::Openat {
        path: path.to_owned(),
        create: false,
    })? {
        SyscallRet::NewFd(fd) => fd,
        _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
    };
    let size = ctx.syscall(Syscall::Fstat { fd })?.num();
    let bytes = ctx.syscall(Syscall::Read { fd, len: size })?.bytes();
    ctx.syscall(Syscall::Close { fd })?;
    ctx.record_flow(FlowOp::write(Storage::Mem, Storage::File));
    Ok(bytes)
}

fn write_whole_file(
    ctx: &mut ApiCtx<'_>,
    path: &str,
    bytes: Vec<u8>,
) -> Result<(), FrameworkError> {
    let fd = match ctx.syscall(Syscall::Openat {
        path: path.to_owned(),
        create: true,
    })? {
        SyscallRet::NewFd(fd) => fd,
        _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
    };
    ctx.syscall(Syscall::Write { fd, bytes })?;
    ctx.syscall(Syscall::Close { fd })?;
    ctx.record_flow(FlowOp::write(Storage::File, Storage::Mem));
    Ok(())
}

/// Finds (or opens, on first use) the process's GUI socket and returns
/// its fd — the paper's "connect only during the first execution".
fn gui_socket(ctx: &mut ApiCtx<'_>) -> Result<freepart_simos::Fd, FrameworkError> {
    let process = ctx.kernel.process(ctx.pid)?;
    let existing = process.open_fds().find(|fd| {
        matches!(
            process.fd_target(*fd),
            Some(freepart_simos::process::FdTarget::Socket { dest }) if dest.starts_with("gui")
        )
    });
    if let Some(fd) = existing {
        return Ok(fd);
    }
    let fd = match ctx.syscall(Syscall::Socket)? {
        SyscallRet::NewFd(fd) => fd,
        _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
    };
    ctx.syscall(Syscall::Connect {
        fd,
        dest: "gui:display".to_owned(),
    })?;
    Ok(fd)
}

// ----------------------------------------------------------------------
// The dispatcher
// ----------------------------------------------------------------------

/// Executes API `api` with `args` inside `ctx`.
///
/// # Errors
///
/// See [`FrameworkError`]; crashes caused by exploits or the sandbox
/// surface as [`FrameworkError::Sim`].
pub fn execute(reg: &ApiRegistry, api: ApiId, args: &[Value], ctx: &mut ApiCtx<'_>) -> ExecResult {
    let spec = reg.spec(api).clone();
    match spec.kind {
        // ------------------------------------------------------ images
        ApiKind::ImRead => {
            let path = want_str(args, 0)?;
            let bytes = read_whole_file(ctx, &path)?;
            let (img, payload) = fileio::decode_image(&bytes)
                .map_err(|e| FrameworkError::Parse(format!("{path}: {e}")))?;
            maybe_exploit(ctx, &spec, payload.as_ref())?;
            charge(ctx, &spec, img.samples());
            // A patched loader keeps the malformed content as taint.
            let taint = payload.filter(|p| !spec.vulnerable_to(&p.cve));
            new_mat(ctx, &img, &path, taint)
        }
        ApiKind::ImWrite => {
            let path = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            let img = load_mat(ctx, &meta)?;
            charge(ctx, &spec, img.samples());
            write_whole_file(ctx, &path, fileio::encode_image(&img, None))?;
            Ok(Value::Unit)
        }
        ApiKind::ImShow => {
            let title = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let img = load_mat(ctx, &meta)?;
            let fd = gui_socket(ctx)?;
            ctx.syscall(Syscall::Send {
                fd,
                bytes: img.data.clone(),
            })?;
            ctx.syscall(Syscall::Select { fds: vec![fd] })?;
            let win = match ctx.kernel.display.find_window(&title) {
                Some(w) => w,
                None => ctx.kernel.win_create(&title),
            };
            ctx.kernel.win_present(win, img.data.len());
            ctx.record_flow(FlowOp::write(Storage::Gui, Storage::Mem));
            charge(ctx, &spec, img.samples() / 4);
            Ok(Value::Unit)
        }
        ApiKind::VideoCaptureNew => {
            let fd = match ctx.syscall(Syscall::Openat {
                path: "/dev/video0".to_owned(),
                create: false,
            })? {
                SyscallRet::NewFd(fd) => fd,
                _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
            };
            ctx.syscall(Syscall::Ioctl { fd, request: 0 })?;
            ctx.syscall(Syscall::Mmap {
                len: CAMERA_FRAME_LEN as u64,
                perms: freepart_simos::Perms::RW,
            })?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Dev));
            let id = ctx.objects.create_handle(
                ctx.pid,
                ObjectKind::Capture { frames_read: 0 },
                "capture",
            );
            Ok(Value::Obj(id))
        }
        ApiKind::VideoCaptureRead => {
            let meta = want_obj(ctx, args, 0)?;
            let cam_fd = ctx
                .kernel
                .process(ctx.pid)?
                .fds_of_device(DeviceKind::Camera)
                .first()
                .copied();
            let cam_fd = match cam_fd {
                Some(fd) => fd,
                None => {
                    // Re-open after restart: the capture object survives,
                    // its descriptor does not.
                    match ctx.syscall(Syscall::Openat {
                        path: "/dev/video0".to_owned(),
                        create: false,
                    })? {
                        SyscallRet::NewFd(fd) => fd,
                        _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
                    }
                }
            };
            ctx.syscall(Syscall::Ioctl {
                fd: cam_fd,
                request: 1,
            })?;
            ctx.syscall(Syscall::Select { fds: vec![cam_fd] })?;
            let frame = ctx.syscall(Syscall::Read { fd: cam_fd, len: 0 })?.bytes();
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Dev));
            if let Some(ObjectKind::Capture { frames_read }) = ctx.objects.kind_mut(meta.id) {
                *frames_read += 1;
            }
            let img = Image::from_bytes(CAMERA_W, CAMERA_H, CAMERA_CH, frame);
            charge(ctx, &spec, img.samples());
            new_mat(ctx, &img, "frame", None)
        }
        ApiKind::VideoWriterWrite => {
            let path = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            let img = load_mat(ctx, &meta)?;
            charge(ctx, &spec, img.samples());
            // Append a frame record.
            let fd = match ctx.syscall(Syscall::Openat {
                path: path.clone(),
                create: true,
            })? {
                SyscallRet::NewFd(fd) => fd,
                _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
            };
            let size = ctx.syscall(Syscall::Fstat { fd })?.num();
            ctx.syscall(Syscall::Lseek { fd, pos: size })?;
            ctx.syscall(Syscall::Write {
                fd,
                bytes: fileio::encode_image(&img, None),
            })?;
            ctx.syscall(Syscall::Close { fd })?;
            ctx.record_flow(FlowOp::write(Storage::File, Storage::Mem));
            Ok(Value::Unit)
        }
        ApiKind::ClassifierLoad => {
            let path = want_str(args, 0)?;
            let bytes = read_whole_file(ctx, &path)?;
            let payload = fileio::scan_payload(&bytes);
            maybe_exploit(ctx, &spec, payload.as_ref())?;
            charge(ctx, &spec, bytes.len() as u64);
            let stages = bytes.first().copied().unwrap_or(10) as u32 % 32 + 1;
            let id = ctx.objects.create_with_data(
                ctx.kernel,
                ctx.pid,
                ObjectKind::Classifier { stages },
                &path,
                &bytes,
            )?;
            ctx.objects
                .set_taint(id, payload.filter(|p| !spec.vulnerable_to(&p.cve)));
            Ok(Value::Obj(id))
        }
        ApiKind::DetectMultiScale => {
            let clf = want_obj(ctx, args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            maybe_exploit(ctx, &spec, clf.taint.as_ref())?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let img = load_mat(ctx, &meta)?;
            let hits = image::detect_multiscale(&img, 16, 400.0);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, img.samples());
            Ok(Value::Rects(hits))
        }
        ApiKind::Filter(op) => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let img = load_mat(ctx, &meta)?;
            let out = apply_filter(&img, op);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, img.samples());
            new_mat(ctx, &out, &spec.name, meta.taint.clone())
        }
        ApiKind::Binary(op) => {
            let a = want_obj(ctx, args, 0)?;
            let b = want_obj(ctx, args, 1)?;
            maybe_exploit(ctx, &spec, a.taint.as_ref())?;
            let ia = load_mat(ctx, &a)?;
            let ib = load_mat(ctx, &b)?;
            if (ia.w, ia.h, ia.ch) != (ib.w, ib.h, ib.ch) {
                return Err(FrameworkError::BadArgs("geometry mismatch".into()));
            }
            let out = match op {
                BinaryOp::AbsDiff => image::abs_diff(&ia, &ib),
                BinaryOp::AddWeighted => image::add_weighted(&ia, 0.5, &ib),
            };
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, ia.samples());
            new_mat(ctx, &out, &spec.name, a.taint.clone().or(b.taint.clone()))
        }
        ApiKind::Resize => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let img = load_mat(ctx, &meta)?;
            let w = want_i64(args, 1).unwrap_or((img.w / 2).max(1) as i64) as u32;
            let h = want_i64(args, 2).unwrap_or((img.h / 2).max(1) as i64) as u32;
            if w == 0 || h == 0 {
                return Err(FrameworkError::BadArgs("zero resize target".into()));
            }
            let out = image::resize(&img, w, h);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, img.samples() + out.samples());
            new_mat(ctx, &out, &spec.name, meta.taint.clone())
        }
        ApiKind::Crop => {
            let meta = want_obj(ctx, args, 0)?;
            let img = load_mat(ctx, &meta)?;
            let r = Rect {
                x: want_i64(args, 1).unwrap_or(0) as u32,
                y: want_i64(args, 2).unwrap_or(0) as u32,
                w: want_i64(args, 3).unwrap_or((img.w / 2) as i64) as u32,
                h: want_i64(args, 4).unwrap_or((img.h / 2) as i64) as u32,
            };
            let out = image::crop(&img, r);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, out.samples());
            new_mat(ctx, &out, &spec.name, meta.taint.clone())
        }
        ApiKind::DrawRect => {
            let meta = want_obj(ctx, args, 0)?;
            let mut img = load_mat(ctx, &meta)?;
            let r = Rect {
                x: want_i64(args, 1).unwrap_or(0) as u32,
                y: want_i64(args, 2).unwrap_or(0) as u32,
                w: want_i64(args, 3).unwrap_or(8) as u32,
                h: want_i64(args, 4).unwrap_or(8) as u32,
            };
            image::draw_rectangle(&mut img, r, 255);
            ctx.objects.write_bytes(ctx.kernel, meta.id, &img.data)?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, (r.w as u64 + r.h as u64) * 2);
            Ok(Value::Unit)
        }
        ApiKind::PutText => {
            let meta = want_obj(ctx, args, 0)?;
            let text = want_str(args, 1)?;
            let mut img = load_mat(ctx, &meta)?;
            image::put_text(
                &mut img,
                &text,
                want_i64(args, 2).unwrap_or(0) as u32,
                want_i64(args, 3).unwrap_or(0) as u32,
                255,
            );
            ctx.objects.write_bytes(ctx.kernel, meta.id, &img.data)?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, text.len() as u64 * 35);
            Ok(Value::Unit)
        }
        ApiKind::FindContours => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let img = load_mat(ctx, &meta)?;
            let boxes = image::find_contours(&img);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, img.samples());
            Ok(Value::Rects(boxes))
        }
        ApiKind::Reduce => {
            let meta = want_obj(ctx, args, 0)?;
            let img = load_mat(ctx, &meta)?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, img.samples());
            Ok(Value::F64(img.mean()))
        }
        ApiKind::Window(op) => run_window_op(ctx, &spec, op, args),

        // ------------------------------------------------------ tensors
        ApiKind::TensorLoad => {
            let path = want_str(args, 0)?;
            let bytes = read_whole_file(ctx, &path)?;
            let (t, payload) = match fileio::decode_tensor(&bytes) {
                Ok(ok) => ok,
                Err(_) => {
                    // Proto/pickle-style blobs: treat bytes as raw f32s.
                    let payload = fileio::scan_payload(&bytes);
                    let n = (bytes.len() / 4).max(1);
                    let data: Vec<f32> = bytes
                        .chunks_exact(4)
                        .take(n)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect();
                    let n = data.len().max(1) as u32;
                    (
                        Tensor::from_data(&[n], {
                            let mut d = data;
                            if d.is_empty() {
                                d.push(0.0);
                            }
                            d
                        }),
                        payload,
                    )
                }
            };
            maybe_exploit(ctx, &spec, payload.as_ref())?;
            charge(ctx, &spec, t.len() as u64);
            let taint = payload.filter(|p| !spec.vulnerable_to(&p.cve));
            new_tensor(ctx, &t, &path, taint)
        }
        ApiKind::TensorSave => {
            let path = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            let t = load_tensor(ctx, &meta)?;
            charge(ctx, &spec, t.len() as u64);
            write_whole_file(ctx, &path, fileio::encode_tensor(&t, None))?;
            Ok(Value::Unit)
        }
        ApiKind::TensorUnary(op) => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let t = load_tensor(ctx, &meta)?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, t.len() as u64);
            match op {
                TensorUnaryOp::Relu => {
                    new_tensor(ctx, &tensor::relu(&t), &spec.name, meta.taint.clone())
                }
                TensorUnaryOp::Sigmoid => {
                    new_tensor(ctx, &tensor::sigmoid(&t), &spec.name, meta.taint.clone())
                }
                TensorUnaryOp::Softmax => {
                    new_tensor(ctx, &tensor::softmax(&t), &spec.name, meta.taint.clone())
                }
                TensorUnaryOp::Argmax => Ok(Value::I64(t.argmax() as i64)),
                TensorUnaryOp::Sum => Ok(Value::F64(t.sum() as f64)),
                TensorUnaryOp::Reshape => {
                    let flat = Tensor::from_data(&[t.len() as u32], t.data.clone());
                    new_tensor(ctx, &flat, &spec.name, meta.taint.clone())
                }
            }
        }
        ApiKind::TensorConv => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let t = as_2d(&load_tensor(ctx, &meta)?);
            let kernel = Tensor::from_data(&[3, 3], vec![1.0 / 9.0; 9]);
            let out = if t.shape[0] >= 3 && t.shape[1] >= 3 {
                tensor::conv2d(&t, &kernel)
            } else {
                t.clone()
            };
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, t.len() as u64 * 9);
            new_tensor(ctx, &out, &spec.name, meta.taint.clone())
        }
        ApiKind::TensorPoolMax | ApiKind::TensorPoolAvg => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let t = as_2d(&load_tensor(ctx, &meta)?);
            let kind = if spec.kind == ApiKind::TensorPoolMax {
                PoolKind::Max
            } else {
                PoolKind::Avg
            };
            let out = tensor::pool2d(&t, 2, kind);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, t.len() as u64);
            new_tensor(ctx, &out, &spec.name, meta.taint.clone())
        }
        ApiKind::TensorMatmul => {
            let meta = want_obj(ctx, args, 0)?;
            maybe_exploit(ctx, &spec, meta.taint.as_ref())?;
            let t = as_2d(&load_tensor(ctx, &meta)?);
            let k = t.shape[1];
            let weights = Tensor::generate(&[k, k.min(16)], |i| ((i % 7) as f32 - 3.0) * 0.1);
            let out = tensor::matmul(&t, &weights);
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, t.len() as u64 * k.min(16) as u64);
            new_tensor(ctx, &out, &spec.name, meta.taint.clone())
        }
        ApiKind::Forward => {
            let model = want_obj(ctx, args, 0)?;
            let input = want_obj(ctx, args, 1)?;
            maybe_exploit(ctx, &spec, model.taint.as_ref())?;
            maybe_exploit(ctx, &spec, input.taint.as_ref())?;
            let weights = load_tensor(ctx, &model)?;
            let x = as_2d(&load_tensor(ctx, &input)?);
            let kernel = Tensor::from_data(
                &[3, 3],
                weights.data.iter().cycle().take(9).copied().collect(),
            );
            let feat = if x.shape[0] >= 3 && x.shape[1] >= 3 {
                tensor::pool2d(
                    &tensor::relu(&tensor::conv2d(&x, &kernel)),
                    2,
                    PoolKind::Max,
                )
            } else {
                x.clone()
            };
            // Ten logits via strided dot products against the weights.
            let mut logits = vec![0.0f32; 10];
            for (i, logit) in logits.iter_mut().enumerate() {
                *logit = feat
                    .data
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| v * weights.data[(i + j) % weights.data.len().max(1)])
                    .sum();
            }
            let out = tensor::softmax(&Tensor::from_data(&[10], logits));
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, x.len() as u64 * 16);
            new_tensor(ctx, &out, &spec.name, input.taint.clone())
        }
        ApiKind::TrainStep => {
            let model = want_obj(ctx, args, 0)?;
            let input = want_obj(ctx, args, 1)?;
            let target = want_f64(args, 2).unwrap_or(1.0);
            let w = load_tensor(ctx, &model)?;
            let x = load_tensor(ctx, &input)?;
            if w.shape != x.shape {
                return Err(FrameworkError::BadArgs("weights/input mismatch".into()));
            }
            let updated = tensor::sgd_step(&w, &x, target as f32, 0.01);
            // Stateful: the model object mutates in place.
            ctx.objects
                .write_bytes(ctx.kernel, model.id, &updated.to_bytes())?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, w.len() as u64 * 4);
            Ok(Value::F64({
                let pred: f32 = updated.data.iter().zip(&x.data).map(|(w, x)| w * x).sum();
                (pred - target as f32).abs() as f64
            }))
        }
        ApiKind::TensorNew => {
            let n = want_i64(args, 0)?.max(1) as u32;
            let t = Tensor::generate(&[n], |i| (i as f32 * 0.5).sin());
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, n as u64);
            new_tensor(ctx, &t, &spec.name, None)
        }
        ApiKind::DownloadViaFile => {
            let url = want_str(args, 0)?;
            // 1. Download (network device → memory).
            let sock = match ctx.syscall(Syscall::Socket)? {
                SyscallRet::NewFd(fd) => fd,
                _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
            };
            ctx.syscall(Syscall::Connect {
                fd: sock,
                dest: url.clone(),
            })?;
            let downloaded = ctx
                .syscall(Syscall::Recvfrom {
                    fd: sock,
                    len: 4096,
                })?
                .bytes();
            ctx.syscall(Syscall::Close { fd: sock })?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Dev));
            // 2. Spill to a temp file, 3. read it back — the
            //    memory-copy-via-file idiom the analyzer must reduce.
            let tmp = format!("/tmp/download-{}", url.len());
            write_whole_file(ctx, &tmp, downloaded)?;
            let bytes = read_whole_file(ctx, &tmp)?;
            charge(ctx, &spec, bytes.len() as u64);
            let id = ctx.objects.create_with_data(
                ctx.kernel,
                ctx.pid,
                ObjectKind::Blob,
                &url,
                &bytes,
            )?;
            Ok(Value::Obj(id))
        }
        ApiKind::DatasetLoad => {
            let dir = want_str(args, 0)?;
            let listing = ctx
                .syscall(Syscall::Getdents { path: dir.clone() })?
                .bytes();
            let paths: Vec<String> = String::from_utf8_lossy(&listing)
                .lines()
                .map(str::to_owned)
                .collect();
            if paths.is_empty() {
                return Err(FrameworkError::Parse(format!("{dir}: empty dataset")));
            }
            let mut batch = Vec::new();
            let mut first_payload = None;
            for p in &paths {
                let bytes = read_whole_file(ctx, p)?;
                if let Ok((img, payload)) = fileio::decode_image(&bytes) {
                    if first_payload.is_none() {
                        first_payload = payload;
                    }
                    batch.extend(img.data.iter().map(|&b| b as f32 / 255.0));
                }
            }
            maybe_exploit(ctx, &spec, first_payload.as_ref())?;
            if batch.is_empty() {
                batch.push(0.0);
            }
            let t = Tensor::from_data(&[batch.len() as u32], batch);
            charge(ctx, &spec, t.len() as u64);
            let taint = first_payload.filter(|p| !spec.vulnerable_to(&p.cve));
            new_tensor(ctx, &t, &dir, taint)
        }
        ApiKind::ReadCsv => {
            let path = want_str(args, 0)?;
            let bytes = read_whole_file(ctx, &path)?;
            let payload = fileio::scan_payload(&bytes);
            maybe_exploit(ctx, &spec, payload.as_ref())?;
            let rows = fileio::decode_csv(&bytes);
            let cols = rows.first().map_or(0, Vec::len) as u32;
            charge(ctx, &spec, bytes.len() as u64);
            let id = ctx.objects.create_with_data(
                ctx.kernel,
                ctx.pid,
                ObjectKind::Table {
                    rows: rows.len() as u32,
                    cols,
                },
                &path,
                &bytes,
            )?;
            Ok(Value::Obj(id))
        }
        ApiKind::WriteCsv => {
            let path = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            let bytes = ctx.objects.read_bytes(ctx.kernel, meta.id)?;
            charge(ctx, &spec, bytes.len() as u64);
            write_whole_file(ctx, &path, bytes)?;
            Ok(Value::Unit)
        }
        ApiKind::JsonLoad => {
            let path = want_str(args, 0)?;
            let bytes = read_whole_file(ctx, &path)?;
            let payload = fileio::scan_payload(&bytes);
            maybe_exploit(ctx, &spec, payload.as_ref())?;
            charge(ctx, &spec, bytes.len() as u64);
            let id = ctx.objects.create_with_data(
                ctx.kernel,
                ctx.pid,
                ObjectKind::Blob,
                &path,
                &bytes,
            )?;
            Ok(Value::Obj(id))
        }
        ApiKind::JsonDump => {
            let path = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            let bytes = ctx.objects.read_bytes(ctx.kernel, meta.id)?;
            charge(ctx, &spec, bytes.len() as u64);
            write_whole_file(ctx, &path, bytes)?;
            Ok(Value::Unit)
        }
        ApiKind::PlotAdd => {
            let series: Vec<f64> = match args.first() {
                Some(Value::List(vs)) => vs.iter().filter_map(Value::as_f64).collect(),
                Some(Value::Obj(_)) => {
                    let meta = want_obj(ctx, args, 0)?;
                    let t = load_tensor(ctx, &meta)?;
                    t.data.iter().map(|&v| v as f64).collect()
                }
                _ => {
                    return Err(FrameworkError::BadArgs(
                        "plot wants a list or tensor".into(),
                    ))
                }
            };
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            charge(ctx, &spec, series.len() as u64);
            let bytes = fileio::encode_csv(&[series]);
            let id = ctx.objects.create_with_data(
                ctx.kernel,
                ctx.pid,
                ObjectKind::Blob,
                "figure",
                &bytes,
            )?;
            Ok(Value::Obj(id))
        }
        ApiKind::PlotShow => {
            let meta = want_obj(ctx, args, 0)?;
            let bytes = ctx.objects.read_bytes(ctx.kernel, meta.id)?;
            let fd = gui_socket(ctx)?;
            ctx.syscall(Syscall::Send { fd, bytes })?;
            let win = match ctx.kernel.display.find_window("figure") {
                Some(w) => w,
                None => ctx.kernel.win_create("figure"),
            };
            ctx.kernel.win_present(win, meta.len() as usize);
            ctx.record_flow(FlowOp::write(Storage::Gui, Storage::Mem));
            charge(ctx, &spec, meta.len());
            Ok(Value::Unit)
        }
        ApiKind::PlotSavefig => {
            let path = want_str(args, 0)?;
            let meta = want_obj(ctx, args, 1)?;
            let bytes = ctx.objects.read_bytes(ctx.kernel, meta.id)?;
            charge(ctx, &spec, bytes.len() as u64);
            write_whole_file(ctx, &path, bytes)?;
            Ok(Value::Unit)
        }
        ApiKind::SummaryWrite => {
            let path = want_str(args, 0)?;
            let entry = want_str(args, 1)?;
            let fd = match ctx.syscall(Syscall::Openat {
                path: path.clone(),
                create: true,
            })? {
                SyscallRet::NewFd(fd) => fd,
                _ => return Err(FrameworkError::Sim(Errno::Ebadf.into())),
            };
            let size = ctx.syscall(Syscall::Fstat { fd })?.num();
            ctx.syscall(Syscall::Lseek { fd, pos: size })?;
            ctx.syscall(Syscall::Write {
                fd,
                bytes: format!("{entry}\n").into_bytes(),
            })?;
            ctx.syscall(Syscall::Close { fd })?;
            ctx.record_flow(FlowOp::write(Storage::File, Storage::Mem));
            charge(ctx, &spec, entry.len() as u64);
            Ok(Value::Unit)
        }
        ApiKind::AllocUtil => {
            let len = want_i64(args, 0).unwrap_or(256).max(1) as usize;
            ctx.syscall(Syscall::Brk { grow: len as u64 })?;
            ctx.record_flow(FlowOp::write(Storage::Mem, Storage::Mem));
            let id = ctx.objects.create_with_data(
                ctx.kernel,
                ctx.pid,
                ObjectKind::Blob,
                &spec.name,
                &vec![0u8; len],
            )?;
            Ok(Value::Obj(id))
        }
        ApiKind::GuiStateRead => {
            ctx.syscall(Syscall::Poll { fds: vec![] })?;
            ctx.record_flow(FlowOp::Read(Storage::Gui));
            let titles = ctx.kernel.display.window_titles().join("\n");
            charge(ctx, &spec, titles.len() as u64 + 1);
            Ok(Value::Str(titles))
        }
    }
}

fn apply_filter(img: &Image, op: FilterOp) -> Image {
    match op {
        FilterOp::Gaussian => image::gaussian_blur(img),
        FilterOp::Box => image::box_blur(img),
        FilterOp::Median => image::median_blur(img),
        FilterOp::Laplacian => image::laplacian(img),
        FilterOp::Sharpen => image::sharpen(img),
        FilterOp::Erode => image::erode(img),
        FilterOp::Dilate => image::dilate(img),
        FilterOp::MorphOpen => image::morphology_ex(img, image::MorphOp::Open),
        FilterOp::MorphClose => image::morphology_ex(img, image::MorphOp::Close),
        FilterOp::MorphGradient => image::morphology_ex(img, image::MorphOp::Gradient),
        FilterOp::Canny => image::canny(img, 40, 120),
        FilterOp::Sobel => image::sobel(img),
        FilterOp::EqualizeHist => image::equalize_hist(img),
        FilterOp::Threshold => image::threshold(img, 128),
        FilterOp::ToGray => image::cvt_color_to_gray(img),
        FilterOp::ToBgr => image::gray_to_bgr(img),
        FilterOp::FlipH => image::flip_horizontal(img),
        FilterOp::PyrDown => image::pyr_down(img),
        FilterOp::Warp => {
            // A mild shear keeps content comparable while exercising the
            // full inverse-mapping path.
            let shear: image::Homography = [1.0, 0.05, 0.0, 0.02, 1.0, 0.0, 0.0, 0.0, 1.0];
            image::warp_perspective(img, &shear)
        }
        FilterOp::Identity => img.clone(),
    }
}

fn run_window_op(ctx: &mut ApiCtx<'_>, spec: &ApiSpec, op: WindowOp, args: &[Value]) -> ExecResult {
    match op {
        WindowOp::Named => {
            let title = want_str(args, 0)?;
            let fd = gui_socket(ctx)?;
            ctx.syscall(Syscall::Send {
                fd,
                bytes: title.clone().into_bytes(),
            })?;
            let win = ctx.kernel.win_create(&title);
            ctx.record_flow(FlowOp::write(Storage::Gui, Storage::Mem));
            charge(ctx, spec, 16);
            let id = ctx
                .objects
                .create_handle(ctx.pid, ObjectKind::Window { id: win }, &title);
            Ok(Value::Obj(id))
        }
        WindowOp::Move | WindowOp::SetTitle => {
            let fd = gui_socket(ctx)?;
            ctx.syscall(Syscall::Send {
                fd,
                bytes: vec![0; 16],
            })?;
            ctx.record_flow(FlowOp::write(Storage::Gui, Storage::Mem));
            charge(ctx, spec, 16);
            Ok(Value::Unit)
        }
        WindowOp::DestroyAll => {
            let fd = gui_socket(ctx)?;
            ctx.syscall(Syscall::Send {
                fd,
                bytes: vec![0; 4],
            })?;
            ctx.kernel.win_destroy_all();
            ctx.record_flow(FlowOp::write(Storage::Gui, Storage::Mem));
            charge(ctx, spec, 4);
            Ok(Value::Unit)
        }
        WindowOp::PollKey | WindowOp::WaitKey => {
            ctx.syscall(Syscall::Poll { fds: vec![] })?;
            let key = ctx.kernel.win_poll_key();
            ctx.record_flow(FlowOp::Read(Storage::Gui));
            charge(ctx, spec, 1);
            Ok(Value::I64(key.map_or(-1, |k| k as i64)))
        }
        WindowOp::MouseWheel => {
            ctx.syscall(Syscall::Poll { fds: vec![] })?;
            ctx.record_flow(FlowOp::Read(Storage::Gui));
            charge(ctx, spec, 1);
            Ok(Value::I64(0))
        }
    }
}

fn charge(ctx: &mut ApiCtx<'_>, spec: &ApiSpec, units: u64) {
    ctx.charge_compute(spec.work_factor * units.max(1));
}
