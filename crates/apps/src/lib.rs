//! # freepart-apps — the evaluation applications
//!
//! * [`spec`] + [`driver`]: the 23 Table 6 applications as data-driven
//!   pipelines with exact per-type unique/total API call budgets,
//!   runnable under any isolation scheme via `ApiSurface`.
//! * [`omr`]: the OMRChecker motivating example (§3), hand-written,
//!   with its attack hooks.
//! * [`drone`], [`mcomix`], [`stegonet`]: the case studies of §5.4 and
//!   §A.7.
//! * [`pipeline`]: the pipelined (asynchronous, per-process virtual
//!   time) drone driver.
//! * [`mixes`]: the adversarial workload mixes behind the adaptive
//!   policy-controller benchmark.
//! * [`study`]: the 56-application survey corpus behind Study 1,
//!   Fig. 6, and Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod drone;
pub mod mcomix;
pub mod mixes;
pub mod omr;
pub mod pipeline;
pub mod spec;
pub mod stegonet;
pub mod storm;
pub mod study;
pub mod tenants;

pub use driver::{run_app, RunOptions, RunReport};
pub use spec::{by_id, resolve, AppSpec, ResolvedApp, TABLE6};
pub use study::{study_corpus, StudySketch};

use freepart::CallError;
use freepart_baselines::ApiSurface;
use freepart_frameworks::Value;

/// Submits one hooked call through [`ApiSurface::submit`], recording a
/// failure (a containment event under attack) in `errors` instead of
/// aborting the driver.
pub(crate) fn submit_or_record(
    surface: &mut dyn ApiSurface,
    errors: &mut Vec<CallError>,
    name: &str,
    args: &[Value],
) -> Option<Value> {
    match surface.submit(name, args) {
        Ok(v) => Some(v),
        Err(e) => {
            errors.push(e);
            None
        }
    }
}
