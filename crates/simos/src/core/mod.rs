//! The pure kernel core: a state machine with no I/O, no ambient
//! clock, and no external entropy.
//!
//! This module is the verification target of simos. It has four
//! parts:
//!
//! * [`state::KernelState`] — every piece of kernel state (processes,
//!   address spaces, shm segments, filters, channels, devices, virtual
//!   clocks, metrics) as plain data, with machine-checked
//!   [`invariants`](state::KernelState::check_invariants).
//! * [`digest`] — the canonical state
//!   [`digest`](state::KernelState::digest): an additive set hash the
//!   state keeps up to date through dirty marks, and its from-scratch
//!   oracle [`digest_reference`](state::KernelState::digest_reference).
//! * [`step::step`] — the single total transition function. Every
//!   kernel behavior is an arm of one `match` over
//!   [`CommitOp`](crate::commit::CommitOp); there is no other way to
//!   mutate a `KernelState`.
//! * [`effects::Effect`] — the vocabulary of observable consequences
//!   (commit records, time charges, metrics deltas, faults, filter
//!   kills) that `step` describes instead of performing.
//!
//! The shell ([`Kernel`](crate::Kernel)) wraps a `KernelState`,
//! translates its public entry points into ops, folds them through
//! `step`, and interprets the effects — appending records to the
//! commit log when recording. Replay is the same fold without a shell.
//!
//! A CI guard keeps this module honest: any reference to the standard
//! library's time, filesystem, or network facilities — or to any
//! entropy source — inside `core/` fails the build.

pub mod digest;
pub mod effects;
pub mod state;
pub mod step;

mod dispatch;

pub use effects::{Counter, Effect, Effects};
pub use state::{KernelState, TimelineMode};
pub use step::{outcome_of_step, step, step_ref, StepResult, StepValue};
