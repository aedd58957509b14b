//! # freepart-frameworks — synthetic data-processing frameworks
//!
//! Stand-ins for OpenCV, Caffe, PyTorch, TensorFlow (plus the secondary
//! frameworks the paper's applications touch: Keras, Pillow, NumPy,
//! pandas, json, Matplotlib, GTK). Each framework exposes APIs that:
//!
//! * do **real work** — pixel algorithms ([`image`]), tensor kernels
//!   ([`tensor`]), file parsing ([`fileio`]) — on buffers living in
//!   simulated process memory;
//! * issue **real (simulated) syscalls** through an [`ApiCtx`], so
//!   syscall filters and page permissions mediate them;
//! * carry a **machine-readable body IR** ([`ir`]) for the static
//!   analyzer and emit **dynamic traces** for the runtime analyzer;
//! * can be **vulnerable**: crafted files smuggle [`exploit`] payloads
//!   that run in whatever process the API executes in.
//!
//! ## Quick tour
//!
//! ```
//! use freepart_frameworks::{exec, registry, ApiCtx, ObjectStore, Value};
//! use freepart_frameworks::fileio;
//! use freepart_frameworks::image::Image;
//! use freepart_simos::Kernel;
//!
//! let reg = registry::standard_registry();
//! let mut kernel = Kernel::new();
//! let pid = kernel.spawn("host");
//! let mut objects = ObjectStore::new();
//!
//! // Seed an image file and run `cv2.imread` + `cv2.GaussianBlur`.
//! kernel.fs_put("/in.simg", fileio::encode_image(&Image::new(8, 8, 3), None));
//! let imread = reg.id_of("cv2.imread").unwrap();
//! let blur = reg.id_of("cv2.GaussianBlur").unwrap();
//!
//! let mut ctx = ApiCtx::new(&mut kernel, &mut objects, pid);
//! let img = exec::execute(&reg, imread, &[Value::from("/in.simg")], &mut ctx).unwrap();
//! let _smoothed = exec::execute(&reg, blur, &[img], &mut ctx).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod ctx;
pub mod exec;
pub mod exploit;
pub mod fileio;
pub mod image;
pub mod ir;
pub mod object;
pub mod registry;
pub mod tensor;
pub mod value;

pub use api::{ApiId, ApiKind, ApiRegistry, ApiSpec, ApiType, Framework};
pub use ctx::{ApiCtx, Trace};
pub use exec::{execute, FrameworkError};
pub use exploit::{ActionOutcome, ActionReport, ExploitAction, ExploitPayload};
pub use ir::{FlowOp, IrStmt, Storage};
pub use object::{ObjectId, ObjectKind, ObjectMeta, ObjectStore};
pub use value::Value;
