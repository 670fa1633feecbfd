//! One client's whole private inference, stepped by the benchmark
//! through the public halves of `cheetah_serve`, with a span around every
//! call and the prediction checked against cleartext inference.

use std::sync::Arc;
use std::time::Instant;

use cheetah_bfv::{OpCounts, Scratch};
use cheetah_nn::Tensor;
use cheetah_protocol::Direction;
use cheetah_serve::{ClientSession, PreparedModel, ServerSession};

use crate::trace::Tracer;

/// End-to-end timings and bytes of one correct session.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `ClientSession::new` start to the checked prediction.
    pub latency_s: f64,
    /// First upload to the checked prediction.
    pub online_s: f64,
    /// `ClientSession::new` plus `ServerSession::new`.
    pub client_setup_s: f64,
    /// `Transcript::total_bytes` at the end of the session.
    pub comm_bytes: usize,
    /// Transcript bytes before the first round: the setup message.
    pub setup_bytes: usize,
}

/// Exact per-round facts of one session: kernel counts of the server's
/// evaluator around `process_upload`, bytes each way, and the level the
/// layer ran at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    pub ops: OpCounts,
    pub up_bytes: usize,
    pub down_bytes: usize,
    pub level: usize,
}

/// Everything a session needs from its caller.
pub struct Client<'a> {
    pub model: &'a Arc<PreparedModel>,
    pub input: &'a Tensor,
    pub expected: &'a Tensor,
    pub key_seed: u64,
    pub id: u64,
}

/// Runs one session: client setup, server registration, then one round
/// per linear layer (`next_upload` → `process_upload` →
/// `absorb_download`). Per-round facts are appended to `rounds` when
/// given. A typed error or a prediction that differs from the cleartext
/// reference is returned as `Err`.
pub fn run(
    c: &Client<'_>,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    mut rounds: Option<&mut Vec<Round>>,
) -> Result<Sample, String> {
    let (model, id) = (c.model, c.id);
    let eval = model.layers().evaluator();
    let t0 = Instant::now();
    let root = tracer.open("serve.session", None, id, None);
    let (mut client, setup) = tracer
        .time("serve.client_new", None, id, root, || {
            ClientSession::new(Arc::clone(model), c.key_seed, c.input)
        })
        .map_err(|e| format!("client setup: {e}"))?;
    let mut server = tracer
        .time("serve.server_new", None, id, root, || {
            ServerSession::new(Arc::clone(model), setup, c.key_seed)
        })
        .map_err(|e| format!("server registration: {e}"))?;
    let t_setup = Instant::now();
    let setup_bytes = server.transcript().total_bytes();

    let mut prediction = None;
    for k in 0..model.linear_count() {
        let up = tracer
            .time("serve.upload", Some(k), id, root, || client.next_upload())
            .map_err(|e| format!("upload L{k}: {e}"))?;
        let before = rounds
            .is_some()
            .then(|| (server.transcript().messages().len(), eval.op_counts()));
        let dl = tracer
            .time("serve.process", Some(k), id, root, || {
                server.process_upload(&up, scratch)
            })
            .map_err(|e| format!("process L{k}: {e}"))?;
        if let (Some(rounds), Some((seen, ops))) = (rounds.as_deref_mut(), before) {
            let bytes = |dir| {
                server.transcript().messages()[seen..]
                    .iter()
                    .filter(|m| m.direction == dir)
                    .map(|m| m.bytes)
                    .sum()
            };
            rounds.push(Round {
                ops: eval.op_counts().since(&ops),
                up_bytes: bytes(Direction::ClientToCloud),
                down_bytes: bytes(Direction::CloudToClient),
                level: server.reports().get(k).map_or(usize::MAX, |r| r.level),
            });
        }
        prediction = tracer
            .time("serve.absorb", Some(k), id, root, || {
                client.absorb_download(&dl)
            })
            .map_err(|e| format!("absorb L{k}: {e}"))?;
    }
    let correct = prediction.as_ref() == Some(c.expected);
    let t_end = Instant::now();
    tracer.close(root);
    if !correct {
        return Err(format!(
            "session {id}: prediction differs from cleartext inference"
        ));
    }
    Ok(Sample {
        latency_s: (t_end - t0).as_secs_f64(),
        online_s: (t_end - t_setup).as_secs_f64(),
        client_setup_s: (t_setup - t0).as_secs_f64(),
        comm_bytes: server.transcript().total_bytes(),
        setup_bytes,
    })
}
