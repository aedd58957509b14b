//! Dynamic-analysis test driver.
//!
//! The paper obtains dynamic evidence by running each framework API on
//! inputs from the frameworks' own example/test suites (§4.2.2). This
//! module is that corpus: for any [`ApiSpec`] it can synthesize canonical
//! inputs (files, camera frames, objects) and execute the API under a
//! traced [`ApiCtx`], yielding the observed flows and syscalls.

use freepart_frameworks::api::{ApiKind, ApiSpec};
use freepart_frameworks::exec::{execute, FrameworkError, CAMERA_FRAME_LEN};
use freepart_frameworks::image::Image;
use freepart_frameworks::tensor::Tensor;
use freepart_frameworks::{fileio, ApiCtx, ApiRegistry, ObjectKind, ObjectStore, Trace, Value};
use freepart_simos::{Kernel, Pid};

/// Why an API could not be driven.
#[derive(Debug)]
pub enum DriveError {
    /// The execution failed.
    Exec(FrameworkError),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for DriveError {}

fn seed_mat(kernel: &mut Kernel, objects: &mut ObjectStore, pid: Pid, side: u32) -> Value {
    let mut img = Image::new(side, side, 3);
    for y in 0..side {
        for x in 0..side {
            for c in 0..3 {
                img.put(x, y, c, ((x * 13 + y * 29 + c * 3) % 256) as u8);
            }
        }
    }
    let id = objects
        .create_with_data(
            kernel,
            pid,
            ObjectKind::Mat {
                w: side,
                h: side,
                ch: 3,
            },
            "drive:mat",
            &img.data,
        )
        .expect("seed mat");
    Value::Obj(id)
}

fn seed_tensor(kernel: &mut Kernel, objects: &mut ObjectStore, pid: Pid, n: u32) -> Value {
    let t = Tensor::generate(&[n], |i| (i as f32 * 0.3).sin());
    let id = objects
        .create_with_data(
            kernel,
            pid,
            ObjectKind::Tensor { shape: vec![n] },
            "drive:tensor",
            &t.to_bytes(),
        )
        .expect("seed tensor");
    Value::Obj(id)
}

fn seed_blob(kernel: &mut Kernel, objects: &mut ObjectStore, pid: Pid) -> Value {
    let id = objects
        .create_with_data(kernel, pid, ObjectKind::Blob, "drive:blob", &[7u8; 128])
        .expect("seed blob");
    Value::Obj(id)
}

fn seed_table(kernel: &mut Kernel, objects: &mut ObjectStore, pid: Pid) -> Value {
    let bytes = fileio::encode_csv(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    let id = objects
        .create_with_data(
            kernel,
            pid,
            ObjectKind::Table { rows: 2, cols: 2 },
            "drive:table",
            &bytes,
        )
        .expect("seed table");
    Value::Obj(id)
}

/// Synthesizes canonical arguments for one API, seeding any files,
/// camera, or objects it needs. `salt` keeps file names unique when the
/// same API is driven repeatedly.
pub fn canonical_args(
    spec: &ApiSpec,
    kernel: &mut Kernel,
    objects: &mut ObjectStore,
    pid: Pid,
    salt: u64,
) -> Vec<Value> {
    use ApiKind as K;
    let img_path = format!("/drive/{}-{salt}.simg", spec.id);
    let tsr_path = format!("/drive/{}-{salt}.stsr", spec.id);
    let out_path = format!("/drive/out-{}-{salt}", spec.id);
    match spec.kind {
        K::ImRead => {
            let img = Image::new(16, 16, 3);
            kernel.fs_put(&img_path, fileio::encode_image(&img, None));
            vec![Value::Str(img_path)]
        }
        K::ClassifierLoad => {
            kernel.fs_put(&img_path, vec![3u8; 96]);
            vec![Value::Str(img_path)]
        }
        K::TensorLoad => {
            let t = Tensor::generate(&[32], |i| i as f32);
            kernel.fs_put(&tsr_path, fileio::encode_tensor(&t, None));
            vec![Value::Str(tsr_path)]
        }
        K::ReadCsv => {
            kernel.fs_put(&out_path, fileio::encode_csv(&[vec![1.0], vec![2.0]]));
            vec![Value::Str(out_path)]
        }
        K::JsonLoad => {
            kernel.fs_put(&out_path, b"{\"k\": 1}".to_vec());
            vec![Value::Str(out_path)]
        }
        K::VideoCaptureNew => {
            if kernel.camera.is_none() {
                kernel.attach_camera(11, CAMERA_FRAME_LEN);
            }
            vec![Value::I64(0)]
        }
        K::VideoCaptureRead => {
            if kernel.camera.is_none() {
                kernel.attach_camera(11, CAMERA_FRAME_LEN);
            }
            let id =
                objects.create_handle(pid, ObjectKind::Capture { frames_read: 0 }, "drive:cap");
            vec![Value::Obj(id)]
        }
        K::ImWrite | K::VideoWriterWrite => {
            let mat = seed_mat(kernel, objects, pid, 8);
            vec![Value::Str(out_path), mat]
        }
        K::ImShow => {
            let mat = seed_mat(kernel, objects, pid, 8);
            vec![Value::Str(format!("drive-win-{salt}")), mat]
        }
        K::DetectMultiScale => {
            kernel.fs_put(&img_path, vec![2u8; 32]);
            let clf = objects
                .create_with_data(
                    kernel,
                    pid,
                    ObjectKind::Classifier { stages: 4 },
                    "drive:clf",
                    &[2u8; 32],
                )
                .expect("seed classifier");
            let mat = seed_mat(kernel, objects, pid, 32);
            vec![Value::Obj(clf), mat]
        }
        K::Filter(_) | K::FindContours | K::Reduce => {
            vec![seed_mat(kernel, objects, pid, 16)]
        }
        K::Binary(_) => vec![
            seed_mat(kernel, objects, pid, 16),
            seed_mat(kernel, objects, pid, 16),
        ],
        K::Resize => vec![
            seed_mat(kernel, objects, pid, 16),
            Value::I64(8),
            Value::I64(8),
        ],
        K::Crop => vec![
            seed_mat(kernel, objects, pid, 16),
            Value::I64(2),
            Value::I64(2),
            Value::I64(8),
            Value::I64(8),
        ],
        K::DrawRect => vec![
            seed_mat(kernel, objects, pid, 16),
            Value::I64(1),
            Value::I64(1),
            Value::I64(5),
            Value::I64(5),
        ],
        K::PutText => vec![
            seed_mat(kernel, objects, pid, 16),
            Value::from("t"),
            Value::I64(0),
            Value::I64(0),
        ],
        K::Window(freepart_frameworks::api::WindowOp::Named) => {
            vec![Value::Str(format!("drive-{salt}"))]
        }
        K::Window(_) | K::GuiStateRead => vec![],
        K::TensorSave => {
            let t = seed_tensor(kernel, objects, pid, 16);
            vec![Value::Str(out_path), t]
        }
        K::TensorUnary(_)
        | K::TensorConv
        | K::TensorPoolMax
        | K::TensorPoolAvg
        | K::TensorMatmul => vec![seed_tensor(kernel, objects, pid, 36)],
        K::Forward => vec![
            seed_tensor(kernel, objects, pid, 36),
            seed_tensor(kernel, objects, pid, 36),
        ],
        K::TrainStep => vec![
            seed_tensor(kernel, objects, pid, 16),
            seed_tensor(kernel, objects, pid, 16),
            Value::F64(1.0),
        ],
        K::TensorNew => vec![Value::I64(16)],
        K::DownloadViaFile => vec![Value::Str(format!("http://corpus/{salt}"))],
        K::DatasetLoad => {
            let dir = format!("/drive/ds-{}-{salt}/", spec.id);
            for i in 0..2 {
                let img = Image::new(4, 4, 3);
                kernel.fs_put(&format!("{dir}{i}.simg"), fileio::encode_image(&img, None));
            }
            vec![Value::Str(dir)]
        }
        K::WriteCsv => {
            let t = seed_table(kernel, objects, pid);
            vec![Value::Str(out_path), t]
        }
        K::JsonDump | K::PlotSavefig => {
            let b = seed_blob(kernel, objects, pid);
            vec![Value::Str(out_path), b]
        }
        K::PlotAdd => vec![Value::List(vec![Value::F64(1.0), Value::F64(2.0)])],
        K::PlotShow => vec![seed_blob(kernel, objects, pid)],
        K::SummaryWrite => vec![Value::Str(out_path), Value::from("step=1 loss=0.5")],
        K::AllocUtil => vec![Value::I64(64)],
    }
}

/// Drives one API on canonical inputs and returns its dynamic trace and
/// result value.
///
/// # Errors
///
/// [`DriveError::Exec`] when the API itself failed.
pub fn drive(
    reg: &ApiRegistry,
    spec: &ApiSpec,
    kernel: &mut Kernel,
    objects: &mut ObjectStore,
    pid: Pid,
    salt: u64,
) -> Result<(Trace, Value), DriveError> {
    let args = canonical_args(spec, kernel, objects, pid, salt);
    let mut ctx = ApiCtx::traced(kernel, objects, pid);
    let result = execute(reg, spec.id, &args, &mut ctx).map_err(DriveError::Exec)?;
    let trace = ctx.take_trace().expect("trace enabled");
    Ok((trace, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::registry::standard_registry;

    #[test]
    fn every_api_in_the_catalog_is_drivable() {
        let reg = standard_registry();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("corpus");
        let mut objects = ObjectStore::new();
        for (i, spec) in reg.iter().enumerate() {
            let r = drive(&reg, spec, &mut kernel, &mut objects, pid, i as u64);
            assert!(r.is_ok(), "{} not drivable: {}", spec.name, r.unwrap_err());
        }
    }

    #[test]
    fn traces_contain_flows_and_syscalls() {
        let reg = standard_registry();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("corpus");
        let mut objects = ObjectStore::new();
        let spec = reg.by_name("cv2.imread").unwrap();
        let (trace, _) = drive(&reg, spec, &mut kernel, &mut objects, pid, 0).unwrap();
        assert!(!trace.flows.is_empty());
        assert!(trace.syscalls.contains(&freepart_simos::SyscallNo::Openat));
    }
}
