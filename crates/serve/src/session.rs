//! The driver that steps one client's two session halves through the
//! wire boundary.
//!
//! The halves themselves — [`ClientSession`] and [`ServerSession`] — live
//! in `cheetah_protocol::session` with the rest of the protocol round and
//! are re-exported here. A [`SessionDriver`] adds only what scheduling
//! needs: a client id, a terminal state, and an optional tamper hook that
//! corrupts upload bytes in flight, which is how the fault-containment
//! suite injects per-client faults.

use std::sync::Arc;

use cheetah_bfv::{Error, Result, Scratch};
use cheetah_nn::Tensor;
pub use cheetah_protocol::session::{ClientSession, ClientSetup, LayerDownload, ServerSession};
use cheetah_protocol::PreparedModel;

/// Upload tamper hook: `(layer, &mut upload_bytes)`, applied between the
/// client and the server — the fault-containment suite's injection point.
pub type TamperFn = Box<dyn FnMut(usize, &mut Vec<u8>) + Send>;

/// One session's two halves plus its terminal state, stepped round by
/// round by a [`crate::ServerPool`] worker.
pub struct SessionDriver {
    id: u64,
    client: ClientSession,
    server: ServerSession,
    tamper: Option<TamperFn>,
    result: Option<Result<Tensor>>,
}

impl SessionDriver {
    /// Builds both session halves for one client against a shared model.
    ///
    /// # Errors
    ///
    /// Propagates client key generation and server registration errors.
    pub fn new(model: &Arc<PreparedModel>, id: u64, seed: u64, input: &Tensor) -> Result<Self> {
        let (client, setup) = ClientSession::new(Arc::clone(model), seed, input)?;
        let server = ServerSession::new(Arc::clone(model), setup, seed)?;
        let result = client.local_prediction().cloned().map(Ok);
        Ok(Self {
            id,
            client,
            server,
            tamper: None,
            result,
        })
    }

    /// Attaches an upload tamper hook (fault injection).
    #[must_use]
    pub fn with_tamper(mut self, tamper: TamperFn) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// Client id this driver serves.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Linear-layer index of the next round.
    pub fn layer(&self) -> usize {
        self.server.layer()
    }

    /// Whether the session reached a terminal state (prediction or typed
    /// error).
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Runs one full round (upload → server → download → GC). A typed
    /// error anywhere terminates *this* session only.
    pub fn step(&mut self, scratch: &mut Scratch) {
        if self.result.is_some() {
            return;
        }
        match self.step_inner(scratch) {
            Ok(None) => {}
            Ok(Some(prediction)) => self.result = Some(Ok(prediction)),
            Err(e) => self.result = Some(Err(e)),
        }
    }

    fn step_inner(&mut self, scratch: &mut Scratch) -> Result<Option<Tensor>> {
        let layer = self.server.layer();
        let mut upload = self.client.next_upload()?;
        if let Some(tamper) = self.tamper.as_mut() {
            tamper(layer, &mut upload);
        }
        let download = self.server.process_upload(&upload, scratch)?;
        self.client.absorb_download(&download)
    }

    /// Marks a still-running session as failed (used by the pool when a
    /// sweep made no progress, e.g. after a worker-thread panic).
    pub(crate) fn fail_stalled(&mut self) {
        if self.result.is_none() {
            self.result = Some(Err(Error::Unsupported(
                "session stalled: sweep made no progress",
            )));
        }
    }

    /// Consumes the driver into its outcome.
    pub fn into_outcome(self) -> crate::pool::SessionOutcome {
        let result = self.result.unwrap_or(Err(Error::Unsupported(
            "session never reached a terminal state",
        )));
        let (transcript, reports) = self.server.into_parts();
        crate::pool::SessionOutcome {
            client_id: self.id,
            result,
            transcript,
            reports,
        }
    }
}
