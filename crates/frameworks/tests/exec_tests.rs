//! End-to-end tests of framework-API execution: real pipelines, syscall
//! traffic, exploit triggering, and locality discipline.

use freepart_frameworks::exec::{execute, FrameworkError, CAMERA_FRAME_LEN};
use freepart_frameworks::fileio;
use freepart_frameworks::image::Image;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::tensor::Tensor;
use freepart_frameworks::{
    ApiCtx, ApiRegistry, ExploitAction, ExploitPayload, ObjectKind, ObjectStore, Value,
};
use freepart_simos::{Kernel, Pid};

struct Rig {
    reg: ApiRegistry,
    kernel: Kernel,
    objects: ObjectStore,
    pid: Pid,
}

impl Rig {
    fn new() -> Rig {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("host");
        Rig {
            reg: standard_registry(),
            kernel,
            objects: ObjectStore::new(),
            pid,
        }
    }

    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, FrameworkError> {
        let id = self
            .reg
            .id_of(name)
            .unwrap_or_else(|| panic!("no API {name}"));
        let mut ctx = ApiCtx::new(&mut self.kernel, &mut self.objects, self.pid);
        execute(&self.reg, id, args, &mut ctx)
    }

    fn seed_image(&mut self, path: &str, w: u32, h: u32) {
        let mut img = Image::new(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    img.put(x, y, c, ((x * 17 + y * 31 + c * 7) % 256) as u8);
                }
            }
        }
        self.kernel.fs_put(path, fileio::encode_image(&img, None));
    }
}

#[test]
fn imread_filter_imwrite_pipeline() {
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 16, 16);
    let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let gray = rig
        .call("cv2.cvtColor", std::slice::from_ref(&img))
        .unwrap();
    let blurred = rig.call("cv2.GaussianBlur", &[gray]).unwrap();
    rig.call("cv2.imwrite", &[Value::from("/out.simg"), blurred])
        .unwrap();
    let out = rig.kernel.fs.get("/out.simg").expect("output written");
    let (decoded, _) = fileio::decode_image(out).unwrap();
    assert_eq!((decoded.w, decoded.h, decoded.ch), (16, 16, 1));
}

#[test]
fn imread_missing_file_is_errno_not_crash() {
    let mut rig = Rig::new();
    let err = rig
        .call("cv2.imread", &[Value::from("/absent.simg")])
        .unwrap_err();
    assert!(!err.is_crash());
    assert!(rig.kernel.is_running(rig.pid));
}

#[test]
fn imread_garbage_is_parse_error() {
    let mut rig = Rig::new();
    rig.kernel.fs_put("/junk", b"not an image".to_vec());
    let err = rig.call("cv2.imread", &[Value::from("/junk")]).unwrap_err();
    assert!(matches!(err, FrameworkError::Parse(_)));
}

#[test]
fn camera_capture_pipeline() {
    let mut rig = Rig::new();
    rig.kernel.attach_camera(7, CAMERA_FRAME_LEN);
    let cap = rig.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    let f1 = rig
        .call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    let f2 = rig
        .call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    assert!(matches!(f1, Value::Obj(_)));
    // Stateful capture advanced.
    let meta = rig.objects.meta(cap.as_obj().unwrap()).unwrap();
    assert_eq!(meta.kind, ObjectKind::Capture { frames_read: 2 });
    // Frames are distinct camera outputs.
    let b1 = rig
        .objects
        .read_bytes(&mut rig.kernel, f1.as_obj().unwrap())
        .unwrap();
    let b2 = rig
        .objects
        .read_bytes(&mut rig.kernel, f2.as_obj().unwrap())
        .unwrap();
    assert_ne!(b1, b2);
}

#[test]
fn imshow_presents_to_display_and_connects_once() {
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 8, 8);
    let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    rig.call("cv2.imshow", &[Value::from("win"), img.clone()])
        .unwrap();
    rig.call("cv2.imshow", &[Value::from("win"), img]).unwrap();
    assert!(rig.kernel.display.is_connected());
    assert_eq!(rig.kernel.display.window_count(), 1);
    let win = rig.kernel.display.find_window("win").unwrap();
    assert_eq!(rig.kernel.display.window(win).unwrap().presents, 2);
    // Only one gui socket was opened across the two calls.
    let gui_socks = rig.kernel.process(rig.pid).unwrap().open_fds().count();
    assert_eq!(gui_socks, 1);
}

#[test]
fn detect_multiscale_and_contours_return_rects() {
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 32, 32);
    rig.kernel.fs_put("/cascade.xml", vec![5; 64]);
    let clf = rig
        .call("cv2.CascadeClassifier.load", &[Value::from("/cascade.xml")])
        .unwrap();
    let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let hits = rig
        .call(
            "cv2.CascadeClassifier.detectMultiScale",
            &[clf, img.clone()],
        )
        .unwrap();
    assert!(matches!(hits, Value::Rects(_)));
    let thresh = rig.call("cv2.threshold", &[img]).unwrap();
    let contours = rig.call("cv2.findContours", &[thresh]).unwrap();
    assert!(matches!(contours, Value::Rects(_)));
}

#[test]
fn drawing_apis_mutate_in_place() {
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 16, 16);
    let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let before = rig
        .objects
        .read_bytes(&mut rig.kernel, img.as_obj().unwrap())
        .unwrap();
    rig.call(
        "cv2.rectangle",
        &[
            img.clone(),
            Value::I64(2),
            Value::I64(2),
            Value::I64(6),
            Value::I64(6),
        ],
    )
    .unwrap();
    rig.call(
        "cv2.putText",
        &[
            img.clone(),
            Value::from("ok"),
            Value::I64(1),
            Value::I64(10),
        ],
    )
    .unwrap();
    let after = rig
        .objects
        .read_bytes(&mut rig.kernel, img.as_obj().unwrap())
        .unwrap();
    assert_ne!(before, after);
}

#[test]
fn tensor_pipeline_forward_and_train() {
    let mut rig = Rig::new();
    let weights = Tensor::generate(&[64], |i| (i as f32 * 0.1).cos());
    rig.kernel
        .fs_put("/model.stsr", fileio::encode_tensor(&weights, None));
    let model = rig
        .call("torch.load", &[Value::from("/model.stsr")])
        .unwrap();
    let input = rig.call("torch.tensor", &[Value::I64(64)]).unwrap();
    let probs = rig
        .call("torch.nn.Module.forward", &[model.clone(), input.clone()])
        .unwrap();
    let meta = rig.objects.meta(probs.as_obj().unwrap()).unwrap();
    assert_eq!(meta.kind, ObjectKind::Tensor { shape: vec![10] });
    // argmax over the 10 probabilities.
    let cls = rig.call("torch.argmax", &[probs]).unwrap();
    assert!(matches!(cls, Value::I64(c) if (0..10).contains(&c)));
    // Training mutates the model object in place.
    let w_before = rig
        .objects
        .read_bytes(&mut rig.kernel, model.as_obj().unwrap())
        .unwrap();
    rig.call(
        "torch.optim.SGD.step",
        &[model.clone(), input, Value::F64(1.0)],
    )
    .unwrap();
    let w_after = rig
        .objects
        .read_bytes(&mut rig.kernel, model.as_obj().unwrap())
        .unwrap();
    assert_ne!(w_before, w_after);
}

#[test]
fn download_via_file_leaves_temp_file() {
    let mut rig = Rig::new();
    let blob = rig
        .call("tf.keras.utils.get_file", &[Value::from("http://weights")])
        .unwrap();
    assert!(matches!(blob, Value::Obj(_)));
    // The temp file exists — the copy-via-file idiom really happened.
    assert!(!rig.kernel.fs.list("/tmp/").is_empty());
}

#[test]
fn dataset_load_reads_directory() {
    let mut rig = Rig::new();
    rig.seed_image("/data/0.simg", 4, 4);
    rig.seed_image("/data/1.simg", 4, 4);
    let batch = rig
        .call(
            "tf.keras.preprocessing.image_dataset_from_directory",
            &[Value::from("/data/")],
        )
        .unwrap();
    let meta = rig.objects.meta(batch.as_obj().unwrap()).unwrap();
    // 2 images × 4×4×3 floats.
    assert_eq!(meta.kind, ObjectKind::Tensor { shape: vec![96] });
}

#[test]
fn csv_roundtrip_via_pandas() {
    let mut rig = Rig::new();
    rig.kernel.fs_put(
        "/t.csv",
        fileio::encode_csv(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
    );
    let table = rig.call("pd.read_csv", &[Value::from("/t.csv")]).unwrap();
    let meta = rig.objects.meta(table.as_obj().unwrap()).unwrap();
    assert_eq!(meta.kind, ObjectKind::Table { rows: 2, cols: 2 });
    rig.call("pd.DataFrame.to_csv", &[Value::from("/out.csv"), table])
        .unwrap();
    assert_eq!(
        fileio::decode_csv(rig.kernel.fs.get("/out.csv").unwrap()),
        vec![vec![1.0, 2.0], vec![3.0, 4.0]]
    );
}

#[test]
fn plot_pipeline_show_and_save() {
    let mut rig = Rig::new();
    let fig = rig
        .call(
            "plt.plot",
            &[Value::List(vec![Value::F64(1.0), Value::F64(2.0)])],
        )
        .unwrap();
    rig.call("plt.show", std::slice::from_ref(&fig)).unwrap();
    assert!(rig.kernel.display.is_connected());
    rig.call("plt.savefig", &[Value::from("/fig.png"), fig])
        .unwrap();
    assert!(rig.kernel.fs.exists("/fig.png"));
}

#[test]
fn remote_object_access_is_rejected() {
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 8, 8);
    let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    // Move the payload to another process; calling from `pid` must fail
    // loudly rather than silently reading across address spaces.
    let other = rig.kernel.spawn("other");
    rig.objects
        .migrate_direct(&mut rig.kernel, img.as_obj().unwrap(), other)
        .unwrap();
    let err = rig.call("cv2.GaussianBlur", &[img]).unwrap_err();
    assert!(matches!(err, FrameworkError::RemoteObject(_)));
}

#[test]
fn vulnerable_imread_fires_payload_patched_loader_taints() {
    let mut rig = Rig::new();
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    let img = Image::new(8, 8, 3);
    rig.kernel
        .fs_put("/evil.simg", fileio::encode_image(&img, Some(&payload)));
    // cv2.imread IS vulnerable to this CVE → DoS succeeds, process dies.
    let err = rig
        .call("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap_err();
    assert!(err.is_crash());
    assert!(!rig.kernel.is_running(rig.pid));

    // A *patched* loader (PIL.Image.open is not vulnerable to this CVE)
    // survives but carries the malformed content as taint.
    let mut rig = Rig::new();
    rig.kernel
        .fs_put("/evil.simg", fileio::encode_image(&img, Some(&payload)));
    let loaded = rig
        .call("PIL.Image.open", &[Value::from("/evil.simg")])
        .unwrap();
    assert!(rig.kernel.is_running(rig.pid));
    let meta = rig.objects.meta(loaded.as_obj().unwrap()).unwrap();
    assert_eq!(meta.taint.as_ref().unwrap().cve, "CVE-2017-14136");
}

#[test]
fn taint_propagates_and_fires_in_vulnerable_processing_api() {
    let mut rig = Rig::new();
    let payload = ExploitPayload {
        cve: "CVE-2019-14491".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    let img = Image::new(32, 32, 3);
    rig.kernel
        .fs_put("/evil.simg", fileio::encode_image(&img, Some(&payload)));
    // imread is NOT vulnerable to 14491 in our catalog? It is not listed,
    // so loading succeeds with taint.
    let loaded = rig
        .call("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap();
    // Filter propagates taint.
    let gray = rig.call("cv2.cvtColor", &[loaded]).unwrap();
    assert!(rig
        .objects
        .meta(gray.as_obj().unwrap())
        .unwrap()
        .taint
        .is_some());
    // detectMultiScale IS vulnerable to CVE-2019-14491 → crash.
    rig.kernel.fs_put("/c.xml", vec![1; 16]);
    let clf = rig
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let err = rig
        .call("cv2.CascadeClassifier.detectMultiScale", &[clf, gray])
        .unwrap_err();
    assert!(err.is_crash());
}

#[test]
fn exploit_corruption_without_crash_lets_api_complete() {
    let mut rig = Rig::new();
    // A writable "critical variable" in the same process.
    let victim = rig
        .kernel
        .alloc(rig.pid, 8, freepart_simos::Perms::RW)
        .unwrap();
    rig.kernel.mem_write(rig.pid, victim, b"GOODDATA").unwrap();
    let payload = ExploitPayload {
        cve: "CVE-2017-12597".into(),
        actions: vec![ExploitAction::WriteMem {
            addr: victim.0,
            bytes: b"BADBYTES".to_vec(),
        }],
    };
    let img = Image::new(8, 8, 3);
    rig.kernel
        .fs_put("/evil.simg", fileio::encode_image(&img, Some(&payload)));
    let loaded = rig
        .call("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap();
    // The API completed (returned an object) *and* the corruption landed:
    // no isolation in a monolithic process.
    assert!(matches!(loaded, Value::Obj(_)));
    assert_eq!(
        rig.kernel.mem_read(rig.pid, victim, 8).unwrap(),
        b"BADBYTES"
    );
}

#[test]
fn gui_state_read_returns_window_titles() {
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 8, 8);
    let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    rig.call("cv2.imshow", &[Value::from("recent-secret.png"), img])
        .unwrap();
    let titles = rig.call("Gtk.RecentManager.get_items", &[]).unwrap();
    assert_eq!(titles, Value::Str("recent-secret.png".into()));
}

#[test]
fn window_ops_and_key_polling() {
    let mut rig = Rig::new();
    rig.call("cv2.namedWindow", &[Value::from("w")]).unwrap();
    assert_eq!(rig.kernel.display.window_count(), 1);
    assert_eq!(rig.call("cv2.pollKey", &[]).unwrap(), Value::I64(-1));
    rig.kernel.push_key(b'q');
    assert_eq!(
        rig.call("cv2.pollKey", &[]).unwrap(),
        Value::I64(b'q' as i64)
    );
    rig.call("cv2.destroyAllWindows", &[]).unwrap();
    assert_eq!(rig.kernel.display.window_count(), 0);
}

#[test]
fn bad_args_are_reported_not_panicked() {
    let mut rig = Rig::new();
    assert!(matches!(
        rig.call("cv2.imread", &[Value::I64(3)]),
        Err(FrameworkError::BadArgs(_))
    ));
    assert!(matches!(
        rig.call("cv2.GaussianBlur", &[Value::from("not-an-object")]),
        Err(FrameworkError::BadArgs(_))
    ));
}

#[test]
fn every_processing_api_runs_on_a_small_mat_or_tensor() {
    // Smoke-test the whole catalog: every DataProcessing API must execute
    // without panicking given a canonical argument tuple.
    use freepart_frameworks::api::ApiType;
    let mut rig = Rig::new();
    rig.seed_image("/in.simg", 16, 16);
    let names: Vec<String> = rig
        .reg
        .iter()
        .filter(|s| s.declared_type == ApiType::DataProcessing)
        .map(|s| s.name.clone())
        .collect();
    for name in names {
        let img = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        let img2 = rig.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        let tensor = rig.call("torch.tensor", &[Value::I64(36)]).unwrap();
        let tensor2 = rig.call("torch.tensor", &[Value::I64(36)]).unwrap();
        let spec = rig.reg.by_name(&name).unwrap();
        use freepart_frameworks::ApiKind as K;
        let args: Vec<Value> = match spec.kind {
            K::Filter(_) | K::FindContours | K::Reduce | K::Crop | K::Resize => vec![img],
            K::Binary(_) => vec![img, img2],
            K::DrawRect => vec![
                img,
                Value::I64(1),
                Value::I64(1),
                Value::I64(4),
                Value::I64(4),
            ],
            K::PutText => vec![img, Value::from("x"), Value::I64(0), Value::I64(0)],
            K::DetectMultiScale => {
                rig.kernel.fs_put("/c.xml", vec![1; 8]);
                let clf = rig
                    .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
                    .unwrap();
                vec![clf, img]
            }
            K::TensorUnary(_)
            | K::TensorConv
            | K::TensorPoolMax
            | K::TensorPoolAvg
            | K::TensorMatmul => vec![tensor],
            K::Forward => vec![tensor, tensor2],
            K::TrainStep => vec![tensor, tensor2, Value::F64(0.5)],
            K::TensorNew => vec![Value::I64(8)],
            K::AllocUtil => vec![Value::I64(64)],
            K::PlotAdd => vec![Value::List(vec![Value::F64(1.0)])],
            _ => continue,
        };
        let r = rig.call(&name, &args);
        assert!(r.is_ok(), "{name} failed: {:?}", r.err());
    }
}
