//! # freepart-baselines — the comparison isolation schemes
//!
//! Re-implementations (on the same `simos` substrate) of the five
//! baseline techniques FreePart is compared against in Table 1 /
//! Table 9 / Table 10, plus the unprotected original program and a
//! uniform [`ApiSurface`] trait so one application pipeline can be
//! driven under every scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod monolithic;
pub mod schemes;
pub mod surface;

pub use monolithic::MonolithicRuntime;
pub use schemes::{build, policy, SchemeKind};
pub use surface::ApiSurface;
