//! # cheetah-serve — concurrent private-inference serving
//!
//! `cheetah-protocol` implements the protocol round once, as a
//! [`ClientSession`] / [`ServerSession`] pair over a shared
//! [`PreparedModel`] (its one-party `PrivateInferenceSession` composes one
//! pair in-process). This crate only *schedules* those halves: many
//! concurrent client sessions against **one** prepared model. The moved
//! types are re-exported here under their former paths.
//!
//! The architecture follows three invariants (see `docs/SERVE.md`):
//!
//! * **Shared immutable preparation** — an `Arc<PreparedModel>` (packed
//!   weight plaintexts, BSGS / reduce / level plans, the rotation-step
//!   union, the nonlinear bundle output shapes) is built once and shared
//!   lock-free: nothing in it is mutated after construction.
//! * **Per-client session halves** — a [`SessionDriver`] steps one
//!   client's two halves through the wire-validated protocol boundary —
//!   every ciphertext crosses as validated bytes, never as a live object.
//! * **Batched sweeps over pooled scratch** — [`ServerPool`] coalesces
//!   same-layer work from different clients into one parallel sweep over
//!   `crossbeam::scope` workers, each holding a leased
//!   [`cheetah_bfv::ScratchLease`] from a server-level
//!   [`cheetah_bfv::ScratchPool`] so warm buffers survive across
//!   sessions.
//!
//! Faults stay *contained*: a corrupted message kills its own session
//! with a typed error and a fault-bearing report, and must never perturb
//! a neighboring session's transcript (pinned by the concurrency
//! determinism suite).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod pool;
pub mod session;

/// The shared prepared model, defined in `cheetah-protocol`.
pub mod model {
    pub use cheetah_protocol::PreparedModel;
}

pub use model::PreparedModel;
pub use pool::{ServerPool, SessionOutcome};
pub use session::{ClientSession, ClientSetup, LayerDownload, ServerSession, SessionDriver};
