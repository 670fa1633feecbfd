//! The Gazelle-style private-inference session (§II-A of the Cheetah
//! paper): HE for linear layers on the cloud, a (simulated) garbled
//! circuit for nonlinearities on the client, additive masking to keep
//! activations hidden from the client and the model hidden from the cloud.
//!
//! Per linear layer `L` with previous-round mask `r_prev`:
//!
//! 1. client packs + encrypts its masked activation `a + r_prev`, sends it;
//! 2. cloud homomorphically subtracts `r_prev` (it knows the mask), applies
//!    `L` under HE, adds a fresh output mask `r`, sends `Enc(y + r)`;
//! 3. client decrypts `y + r`;
//! 4. the garbled circuit (simulated functionally) removes `r`, applies
//!    the nonlinear bundle (ReLU / pooling / flatten), and re-masks with
//!    the cloud's fresh input mask for the next round.
//!
//! The final linear output is returned unmasked to the client (it owns the
//! prediction). Decryption after every layer resets HE noise — the reason
//! the Gazelle structure avoids bootstrapping entirely (§II-A).
//!
//! The garbled circuit itself is a *functional* simulation: it computes
//! exactly what Yao evaluation would and its cost is accounted with a
//! half-gates size model, but no cryptographic garbling happens. Cheetah's
//! claims are all about the server-side HE compute, which here is real.
//!
//! ## One round implementation, two halves
//!
//! The round is implemented once, split at the wire boundary.
//! [`ClientSession`] holds the secret key, encrypts activation uploads and
//! decrypts masked downloads behind the measured-noise gate;
//! [`ServerSession`] holds the client's Galois keys and the mask stream,
//! removes the previous mask, plans the level, applies the prepared layer,
//! re-masks, and records the transcript. Everything that crosses between
//! them is validated wire bytes or the functional garbled-circuit handoff
//! ([`LayerDownload`]). Both halves share one immutable
//! `Arc<PreparedModel>`.
//!
//! [`PrivateInferenceSession`] is the one-party composition of the two
//! halves in one process; `cheetah-serve` schedules many pairs of halves
//! concurrently. Both therefore produce the same transcript for a seed.
//!
//! ## Wire formats
//!
//! Uploads are *fresh* symmetric encryptions, so they ship in the seeded
//! wire format ([`cheetah_bfv::wire`] version 2): an 8-byte PRNG seed
//! regenerates `c1` and only `c0` travels, halving upload bytes to
//! `live·n·8 + 8`. Downloads have evaluated, non-seeded `c1` components
//! and stay in the full `2·live·n·8` version-1 format.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use cheetah_bfv::{
    wire, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, GaloisKeys, KeyGenerator,
    Result, Scratch,
};
use cheetah_core::Schedule;
use cheetah_nn::{Network, Tensor, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::masking::{add_mod_t, gated_decrypt_slots, sub_mod_t};
use crate::prepared::PreparedModel;
use crate::transcript::{garbled_circuit_bytes, Direction, Transcript};

/// Per-linear-layer record of a session: the rotation plan, the level
/// the layer ran at, and the three noise views that must nest —
/// `measured ≤ tracked ≤ predicted` — for the whole-protocol conformance
/// pin.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Linear-layer index.
    pub layer: usize,
    /// Rotation-plan label (`fc bsgs b=.. g=..`, `fc diag`,
    /// `conv reduce ..`).
    pub plan: String,
    /// Level the layer ran (and shipped) at.
    pub level: usize,
    /// The planning model's output bound
    /// (`noise_after` of the switched input), log2.
    pub predicted_bound_log2: f64,
    /// Worst engine-tracked noise bound across the layer's output
    /// ciphertexts (before masking), log2.
    pub tracked_bound_log2: f64,
    /// Worst *measured* invariant noise across the layer's output
    /// ciphertexts (before masking), log2. `None` unless
    /// [`PrivateInferenceSession::enable_noise_measurement`] was called —
    /// measuring costs one true decryption per output ciphertext, which
    /// does not belong on the production inference path.
    pub measured_noise_log2: Option<f64>,
    /// Why the session aborted at this point, when it did: the rendered
    /// typed error of a rejected wire message or an exhausted noise
    /// budget. `None` on the healthy path — a run that returns `Err` also
    /// leaves the fault here, so the caller can see *which* message or
    /// layer killed the session.
    pub fault: Option<String>,
}

/// Appends a fault-bearing report: `label` names the message or step
/// that failed, `error` is rendered into [`LayerReport::fault`].
fn note_fault(reports: &mut Vec<LayerReport>, label: &str, error: &Error) {
    reports.push(LayerReport {
        layer: reports.len(),
        plan: label.to_string(),
        level: 0,
        predicted_bound_log2: f64::NAN,
        tracked_bound_log2: f64::NAN,
        measured_noise_log2: None,
        fault: Some(error.to_string()),
    });
}

/// Decodes and validates one incoming ciphertext message at the protocol
/// boundary; a rejected message leaves a fault-bearing report behind.
fn decode_at_boundary(
    params: &BfvParams,
    reports: &mut Vec<LayerReport>,
    label: &str,
    bytes: &[u8],
) -> Result<Ciphertext> {
    wire::decode_ciphertext(bytes, params).inspect_err(|e| note_fault(reports, label, e))
}

/// Cross-checks an encoded message against the transcript accounting
/// relation — a wire message is exactly the accounted payload
/// (`2·live·n·8` for a full ciphertext, `live·n·8 + 8` for a seeded one)
/// plus the fixed header — before the message ships.
fn check_wire_accounting(what: &'static str, encoded: usize, accounted: usize) -> Result<()> {
    if encoded != accounted + wire::HEADER_BYTES {
        return Err(Error::Malformed {
            what,
            reason: format!(
                "encoder produced {encoded} bytes where accounting expects {accounted} + {} header",
                wire::HEADER_BYTES
            ),
        });
    }
    Ok(())
}

/// A fresh uniform mask of the given shape over the centered ring mod `t`.
fn draw_mask(rng: &mut StdRng, shape: &[usize], half_t: i64) -> Tensor {
    let len: usize = shape.iter().product();
    let data = (0..len)
        .map(|_| rng.random_range(-half_t..=half_t))
        .collect();
    Tensor::from_data(shape, data)
}

/// What a client registers with the server: its Galois keys (handed over
/// in-process; wire-encoding a multi-limb key set costs hundreds of
/// megabytes for nothing in a simulation) and the accounted setup bytes
/// — keys at wire size plus the seeded public key.
pub struct ClientSetup {
    /// Plan-exact Galois keys generated by the client.
    pub keys: GaloisKeys,
    /// Accounted setup upload: `keys.byte_size + seeded-pk payload`.
    pub setup_bytes: usize,
}

/// The server→client payload of one round: the masked-output wire bundle
/// plus the functional garbled-circuit handoff (the output mask the GC
/// removes and the next round's input mask it re-applies). In a real
/// deployment the masks never leave the garbled circuit; here the GC is
/// simulated functionally, so the masks travel alongside the ciphertext
/// bytes.
pub struct LayerDownload {
    /// Back-to-back full-format wire messages (one per output ciphertext).
    pub payload: Vec<u8>,
    /// The output mask `r` the GC subtracts after decryption.
    pub mask: Tensor,
    /// The next round's input mask, `None` after the final linear layer.
    pub next_mask: Option<Tensor>,
}

/// The client half: secret key, encryptors, and activation state.
pub struct ClientSession {
    model: Arc<PreparedModel>,
    encryptor: Encryptor,
    decryptor: Decryptor,
    /// Current (masked) activation — the next upload's plaintext.
    act: Tensor,
    layer: usize,
}

impl ClientSession {
    /// Creates a client for a shared model: generates its keys, runs the
    /// leading nonlinear layers on the input, and returns the session
    /// half plus the [`ClientSetup`] to register with a server.
    ///
    /// # Errors
    ///
    /// Propagates key-generation, wire, and leading-layer errors.
    pub fn new(
        model: Arc<PreparedModel>,
        seed: u64,
        input: &Tensor,
    ) -> Result<(Self, ClientSetup)> {
        let (mut client, setup) = Self::keygen(model, seed)?;
        client.start(input)?;
        Ok((client, setup))
    }

    /// Generates the client's keys and streams, with no input yet (see
    /// [`ClientSession::start`]).
    fn keygen(model: Arc<PreparedModel>, seed: u64) -> Result<(Self, ClientSetup)> {
        let params = model.params().clone();
        let mut keygen = KeyGenerator::from_seed(params.clone(), seed);
        // The public key ships seeded — (seed, pk0) instead of (pk0, pk1)
        // — like every other fresh encryption of this key holder.
        let (pk, pk_seed) = keygen.public_key_seeded()?;
        let pk_encoded = wire::encode_public_key_seeded(&pk, pk_seed)?;
        let keys = keygen.galois_keys_for_steps(model.required_steps())?;
        let setup_bytes = keys.byte_size(&params) + (pk_encoded.len() - wire::HEADER_BYTES);
        let client = Self {
            // Uploads are fresh *symmetric* encryptions (c1 = a is pure
            // PRNG output), which is what makes them seed-compressible.
            encryptor: Encryptor::from_secret_key(keygen.secret_key().clone(), seed ^ 0x5eed),
            decryptor: Decryptor::new(keygen.secret_key().clone()),
            model,
            // Set by `start`, before the first upload.
            act: Tensor::from_data(&[0], Vec::new()),
            layer: 0,
        };
        Ok((client, ClientSetup { keys, setup_bytes }))
    }

    /// Starts an inference on `input`: runs the leading nonlinear layers
    /// (client-side, in the clear — the client owns the input) and rewinds
    /// to the first linear layer. Keys and streams carry on.
    fn start(&mut self, input: &Tensor) -> Result<()> {
        self.act = self.model.layers().apply_leading(input)?;
        self.layer = 0;
        Ok(())
    }

    /// Linear-layer index of the next upload.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The prediction of a network without linear layers: its leading
    /// nonlinear layers are the whole inference, so no round runs. `None`
    /// when the network has linear layers.
    pub fn local_prediction(&self) -> Option<&Tensor> {
        (self.model.linear_count() == 0).then_some(&self.act)
    }

    /// Packs and encrypts the current activation for the next linear
    /// layer, returning the seeded wire message. The encryption is fresh
    /// and symmetric, so it ships as `(seed, c0)`, half the full format.
    ///
    /// # Errors
    ///
    /// Propagates packing/encryption/encoding errors; [`Error::Malformed`]
    /// when the message disagrees with the transcript accounting.
    pub fn next_upload(&mut self) -> Result<Vec<u8>> {
        let packed = self.model.layers().pack(self.layer, &self.act)?;
        let (ct, seed) = self.encryptor.encrypt_seeded(&packed)?;
        let encoded = wire::encode_ciphertext_seeded(&ct, seed)?;
        check_wire_accounting(
            "ciphertext",
            encoded.len(),
            wire::SEED_BYTES + ct.byte_size() / 2,
        )?;
        Ok(encoded)
    }

    /// Consumes one masked download: splits and validates the wire
    /// bundle, decrypts behind the measured-noise gate, runs the
    /// simulated GC (unmask → nonlinear bundle → re-mask). Returns the
    /// prediction after the final linear layer, `None` otherwise.
    ///
    /// # Errors
    ///
    /// Wire validation errors, [`Error::NoiseBudgetExhausted`] from the
    /// decrypt gate, [`Error::Malformed`] on a mis-framed bundle.
    pub fn absorb_download(&mut self, dl: &LayerDownload) -> Result<Option<Tensor>> {
        let layers = self.model.layers();
        let k = self.layer;
        let t_mod = *layers.params().plain_modulus();

        let parts = wire::split_ciphertext_messages(&dl.payload, layers.params())?;
        let expected = layers.output_ciphertexts(k);
        if parts.len() != expected {
            return Err(Error::Malformed {
                what: "ciphertext bundle",
                reason: format!(
                    "download framed {} messages where {expected} were expected",
                    parts.len()
                ),
            });
        }
        let mut slot_vecs = Vec::with_capacity(parts.len());
        for part in parts {
            let ct = wire::decode_ciphertext(part, layers.params())?;
            slot_vecs.push(gated_decrypt_slots(&self.decryptor, layers.encoder(), &ct)?);
        }
        let masked_out = layers.unpack(k, &slot_vecs);

        // Simulated GC: unmask, nonlinear bundle, re-mask for the next
        // round (or hand the prediction to the client after the last
        // linear layer).
        let gc_in = sub_mod_t(&masked_out, &dl.mask, t_mod.value());
        let gc_out = layers.apply_bundle(k, &gc_in)?;
        match &dl.next_mask {
            Some(next_mask) => {
                self.act = add_mod_t(&gc_out, next_mask, t_mod.value());
                self.layer += 1;
                Ok(None)
            }
            None => Ok(Some(gc_out)),
        }
    }
}

/// The server half: the client's keys, the mask stream, the transcript.
pub struct ServerSession {
    model: Arc<PreparedModel>,
    keys: GaloisKeys,
    mask_rng: StdRng,
    /// The previous round's input mask `r_prev`, removed from the next
    /// upload.
    cloud_mask: Option<Tensor>,
    layer: usize,
    /// Accounted setup bytes, recorded first in every transcript.
    setup_bytes: usize,
    transcript: Transcript,
    reports: Vec<LayerReport>,
}

impl ServerSession {
    /// Registers a client: checks its Galois key set is exactly the one
    /// the prepared plans need, seeds the mask stream from the session
    /// seed, and records the setup upload in the transcript.
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] when the key set misses a plan step,
    /// [`Error::Malformed`] when it carries a key no plan step uses.
    pub fn new(model: Arc<PreparedModel>, setup: ClientSetup, seed: u64) -> Result<Self> {
        model.layers().check_key_coverage(&setup.keys)?;
        let mut server = Self {
            model,
            keys: setup.keys,
            mask_rng: StdRng::seed_from_u64(seed ^ 0xa5a5),
            cloud_mask: None,
            layer: 0,
            setup_bytes: setup.setup_bytes,
            transcript: Transcript::new(),
            reports: Vec::new(),
        };
        server.restart();
        Ok(server)
    }

    /// Rewinds to the first linear layer with a transcript holding only
    /// the setup message. The keys and the mask stream carry on.
    fn restart(&mut self) {
        self.cloud_mask = None;
        self.layer = 0;
        self.reports.clear();
        self.transcript = Transcript::new();
        self.transcript.record(
            Direction::ClientToCloud,
            "setup: pk + galois keys",
            self.setup_bytes,
        );
    }

    /// Linear-layer index the next upload is expected for.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The transcript recorded so far.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Per-layer plan/noise/fault reports recorded so far.
    pub fn reports(&self) -> &[LayerReport] {
        &self.reports
    }

    /// Consumes the session into its transcript and reports.
    pub fn into_parts(self) -> (Transcript, Vec<LayerReport>) {
        (self.transcript, self.reports)
    }

    /// Processes one upload: validates the wire message, removes the
    /// previous round's mask, plans the level, applies the prepared
    /// layer, re-masks, and serializes the download. The evaluator's
    /// temporaries come from the caller's `scratch`.
    ///
    /// # Errors
    ///
    /// Wire validation errors for a corrupt upload (which also leave a
    /// fault-bearing report behind), [`Error::NoiseBudgetExhausted`] when
    /// the layer's tracked budget is spent.
    pub fn process_upload(&mut self, bytes: &[u8], scratch: &mut Scratch) -> Result<LayerDownload> {
        let outputs = self.evaluate(bytes, scratch)?;
        self.mask_outputs(outputs, scratch)
    }

    /// The HE half of a round, up to the pre-mask layer outputs: records
    /// and decodes the upload, removes the previous mask, mod-switches to
    /// the planned level, applies the layer, and reports. Aborts, with
    /// the fault on the layer's report, when the tracked noise estimate
    /// has spent the whole budget — before anything ships.
    pub(crate) fn evaluate(
        &mut self,
        bytes: &[u8],
        scratch: &mut Scratch,
    ) -> Result<Vec<Ciphertext>> {
        let layers = self.model.layers();
        let params = layers.params();
        let k = self.layer;
        if k >= layers.linear_count() {
            return Err(Error::Unsupported("upload after the final linear layer"));
        }

        // Record the upload at its accounted size (payload net of the
        // fixed header), then validate it before any arithmetic — the
        // seeded decoder re-expands c1 from the seed and attaches the
        // fresh-encryption noise estimate (exactly right: uploads *are*
        // fresh).
        let label = format!("enc activations L{k}");
        let up_bytes = bytes.len().saturating_sub(wire::HEADER_BYTES);
        self.transcript.record_with_payload(
            Direction::ClientToCloud,
            label.clone(),
            up_bytes,
            bytes.to_vec(),
        );
        let mut ct = decode_at_boundary(params, &mut self.reports, &label, bytes)?;

        // Remove the previous round's mask homomorphically — in place,
        // drawing the Δ·mask temporary from the scratch.
        if let Some(r) = &self.cloud_mask {
            let neg: Vec<i64> = r.data().iter().map(|&v| -v).collect();
            let neg_packed = layers.pack(k, &Tensor::from_data(r.shape(), neg))?;
            layers
                .evaluator()
                .add_plain_assign(&mut ct, &neg_packed, scratch)?;
        }

        // Drop the limbs this layer's noise no longer needs — the whole
        // layer (rotations, multiplications, and the masked download)
        // then runs over the live limbs only.
        let target = layers.plan_level(k, ct.noise());
        if target > ct.level() {
            layers.evaluator().mod_switch_to_assign(&mut ct, target)?;
        }

        // The HE linear layer, with this client's keys.
        let predicted = layers.noise_after(k, ct.noise(), ct.level());
        let outputs = layers.apply(k, &ct, &self.keys)?;

        let mut tracked = f64::NEG_INFINITY;
        let mut tracked_budget = f64::INFINITY;
        for out_ct in &outputs {
            tracked = tracked.max(out_ct.noise().bound_log2);
            tracked_budget = tracked_budget.min(
                out_ct
                    .noise()
                    .budget_bits_statistical_at(params, out_ct.level()),
            );
        }
        let fault = (tracked_budget <= 0.0).then(|| {
            format!("tracked noise budget exhausted: {tracked_budget:.1} bits left after layer {k}")
        });
        let exhausted = fault.is_some();
        self.reports.push(LayerReport {
            layer: k,
            plan: layers.plan_label(k),
            level: ct.level(),
            predicted_bound_log2: predicted.bound_log2,
            tracked_bound_log2: tracked,
            measured_noise_log2: None,
            fault,
        });
        if exhausted {
            return Err(Error::NoiseBudgetExhausted);
        }
        Ok(outputs)
    }

    /// The masking half of a round: adds a fresh output mask `r` (zeros
    /// on the final layer — the prediction belongs to the client), draws
    /// the next round's input mask, and serializes and records the
    /// download and the garbled-circuit round.
    pub(crate) fn mask_outputs(
        &mut self,
        mut outputs: Vec<Ciphertext>,
        scratch: &mut Scratch,
    ) -> Result<LayerDownload> {
        let layers = self.model.layers();
        let t_mod = *layers.params().plain_modulus();
        let half_t = (t_mod.value() / 2) as i64;
        let k = self.layer;
        let is_last_linear = k + 1 == layers.linear_count();

        let out_shape = layers.output_shape(k);
        let mask = if is_last_linear {
            Tensor::zeros(&out_shape)
        } else {
            draw_mask(&mut self.mask_rng, &out_shape, half_t)
        };
        for (out_ct, m_pt) in outputs.iter_mut().zip(&layers.pack_output_mask(k, &mask)?) {
            layers.evaluator().add_plain_assign(out_ct, m_pt, scratch)?;
        }

        // Downloads carry evaluated c1 components, so they stay in the
        // full v1 format. One transcript record per layer (the byte pin
        // other suites rely on), its payload the back-to-back wire
        // messages.
        let dl_bytes: usize = outputs.iter().map(Ciphertext::byte_size).sum();
        let out_level = outputs.first().map_or(0, Ciphertext::level);
        let mut payload = Vec::new();
        for mct in &outputs {
            let encoded = wire::encode_ciphertext(mct);
            check_wire_accounting("ciphertext", encoded.len(), mct.byte_size())?;
            payload.extend_from_slice(&encoded);
        }
        self.transcript.record_with_payload(
            Direction::CloudToClient,
            format!("enc masked outputs L{k} lvl{out_level}"),
            dl_bytes,
            payload.clone(),
        );
        self.transcript.record(
            Direction::CloudToClient,
            format!("garbled circuit L{k}"),
            garbled_circuit_bytes(mask.len(), t_mod.bits()),
        );

        // The next round's input mask, drawn right after this round's
        // output mask: the stream order is part of the transcript.
        let next_mask = (!is_last_linear)
            .then(|| draw_mask(&mut self.mask_rng, layers.bundle_shape(k), half_t));
        self.cloud_mask.clone_from(&next_mask);
        self.layer += 1;

        Ok(LayerDownload {
            payload,
            mask,
            next_mask,
        })
    }
}

/// End-to-end private inference for a small sequential network in one
/// process: a [`ClientSession`] and a [`ServerSession`] stepped through
/// the wire boundary, plus the instrumentation only a party holding both
/// halves can offer (true noise measurement, direct decryption).
///
/// The halves live as long as the session: repeated [`run`]s keep
/// drawing from the same keys, encryption stream, and mask stream, so no
/// upload randomness is ever reused under one key.
///
/// [`run`]: PrivateInferenceSession::run
///
/// # Examples
///
/// See `examples/private_inference.rs` at the repository root.
pub struct PrivateInferenceSession {
    client: ClientSession,
    server: ServerSession,
    /// Session-owned scratch pool backing the server half's in-place
    /// evaluator calls — steady-state rounds never touch the allocator
    /// for mask removal or re-masking.
    scratch: Scratch,
    /// Whether runs measure true invariant noise for the reports
    /// (conformance instrumentation; off by default).
    measure_noise: bool,
}

impl PrivateInferenceSession {
    /// Prepares a session: prepares every linear layer under the given
    /// schedule, then generates the client's keys.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors; fails when a layer does not fit the packing
    /// constraints of `HomConv2d` / `HomFc`.
    pub fn new(
        net: &Network,
        weights: &Weights,
        params: BfvParams,
        schedule: Schedule,
        seed: u64,
    ) -> Result<Self> {
        Self::with_prepared(
            PreparedModel::prepare(net, weights, params, schedule)?,
            seed,
        )
    }

    /// Attaches a fresh client (keys, encryptors, mask streams, scratch)
    /// to an already-prepared shared model — prepare once, call this per
    /// client.
    ///
    /// # Errors
    ///
    /// Propagates BFV key-generation and wire errors.
    pub fn with_prepared(prepared: Arc<PreparedModel>, seed: u64) -> Result<Self> {
        let scratch = prepared.layers().evaluator().new_scratch();
        let (client, setup) = ClientSession::keygen(Arc::clone(&prepared), seed)?;
        let server = ServerSession::new(prepared, setup, seed)?;
        Ok(Self {
            client,
            server,
            scratch,
            measure_noise: false,
        })
    }

    /// The shared prepared model this session runs against.
    pub fn prepared(&self) -> &Arc<PreparedModel> {
        &self.server.model
    }

    /// Per-layer plan and noise records of the most recent
    /// [`PrivateInferenceSession::run`] (empty before the first run). The
    /// conformance suite asserts `measured ≤ tracked ≤ predicted` for
    /// every layer.
    pub fn layer_reports(&self) -> &[LayerReport] {
        self.server.reports()
    }

    /// Makes subsequent runs measure each layer's true invariant noise
    /// into [`LayerReport::measured_noise_log2`]. This is conformance
    /// instrumentation — the session plays both protocol parties, so it
    /// *can* decrypt pre-mask outputs — and it costs one real decryption
    /// per output ciphertext per layer, so it stays off by default.
    pub fn enable_noise_measurement(&mut self) {
        self.measure_noise = true;
    }

    /// The session's parameter set.
    pub fn params(&self) -> &BfvParams {
        self.prepared().params()
    }

    /// The session's Galois key set — exactly the `O(√d)` plan-required
    /// steps, nothing more (the fault harness probes unplanned steps
    /// against it).
    pub fn galois_keys(&self) -> &GaloisKeys {
        &self.server.keys
    }

    /// The session's evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        self.prepared().layers().evaluator()
    }

    /// Client-side decryption to signed slots, gated on the *measured*
    /// invariant noise budget — the check that makes semantically corrupt
    /// but structurally valid ciphertexts a typed
    /// [`Error::NoiseBudgetExhausted`] rather than silent garbage.
    ///
    /// # Errors
    ///
    /// [`Error::NoiseBudgetExhausted`] when the measured budget is gone;
    /// propagates BFV errors for mismatched parameters.
    pub fn decrypt_slots(&self, ct: &Ciphertext) -> Result<Vec<i64>> {
        gated_decrypt_slots(
            &self.client.decryptor,
            self.prepared().layers().encoder(),
            ct,
        )
    }

    /// Decodes and validates one incoming ciphertext message at the
    /// protocol boundary. A rejected message additionally leaves a
    /// fault-bearing [`LayerReport`] behind, so an aborted session says
    /// which message killed it.
    ///
    /// # Errors
    ///
    /// The wire layer's [`Error::Malformed`] / [`Error::ChainMismatch`] /
    /// [`Error::InvalidLevel`].
    pub fn decode_boundary(&mut self, label: &str, bytes: &[u8]) -> Result<Ciphertext> {
        decode_at_boundary(
            self.server.model.params(),
            &mut self.server.reports,
            label,
            bytes,
        )
    }

    /// Runs a full private inference: one `next_upload` →
    /// `process_upload` → `absorb_download` round per linear layer.
    /// Returns the prediction tensor and the communication transcript.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors, including [`Error::NoiseBudgetExhausted`] if
    /// a layer overflows its noise budget. A rejected upload or download
    /// also leaves a fault-bearing [`LayerReport`].
    pub fn run(&mut self, input: &Tensor) -> Result<(Tensor, Transcript)> {
        self.server.restart();
        self.client.start(input)?;
        let prediction = match self.client.local_prediction() {
            Some(prediction) => prediction.clone(),
            None => loop {
                let upload = self.client.next_upload()?;
                let outputs = self.server.evaluate(&upload, &mut self.scratch)?;
                if self.measure_noise {
                    self.measure_noise_of(&outputs)?;
                }
                let download = self.server.mask_outputs(outputs, &mut self.scratch)?;
                let label = format!("enc masked outputs L{}", self.client.layer());
                let absorbed = self
                    .client
                    .absorb_download(&download)
                    .inspect_err(|e| note_fault(&mut self.server.reports, &label, e))?;
                if let Some(prediction) = absorbed {
                    break prediction;
                }
            },
        };
        Ok((prediction, std::mem::take(&mut self.server.transcript)))
    }

    /// Records the worst true invariant noise of a layer's pre-mask
    /// outputs in that layer's report.
    fn measure_noise_of(&mut self, outputs: &[Ciphertext]) -> Result<()> {
        let mut measured = None;
        for ct in outputs {
            let m = (self.client.decryptor.invariant_noise(ct)?.max(1) as f64).log2();
            measured = Some(measured.map_or(m, |prev: f64| prev.max(m)));
        }
        if let Some(report) = self.server.reports.last_mut() {
            report.measured_noise_log2 = measured;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cheetah_nn::inference::{infer, random_input};
    use cheetah_nn::models::tiny_cnn;

    fn session_params() -> BfvParams {
        BfvParams::builder()
            .degree(4096)
            .plain_bits(18)
            .cipher_bits(60)
            .a_dcmp(1 << 6)
            .build()
            .unwrap()
    }

    /// Same degree/A as [`session_params`], but the 60-bit ciphertext
    /// modulus is a genuine 2-limb RNS chain of distinct 30-bit primes.
    /// `t` drops to 16 bits: 30-bit limbs cannot satisfy the Gazelle
    /// congruence, so the live `(Q mod t)` multiplication rounding term
    /// needs the extra headroom (tiny-CNN activations fit easily).
    fn session_params_2_limb() -> BfvParams {
        BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .moduli_bits(&[30, 30])
            .a_dcmp(1 << 6)
            .build()
            .unwrap()
    }

    #[test]
    fn tiny_cnn_private_inference_matches_plaintext() {
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 11);
        let input = random_input(&net.input_shape, 3, 12);
        let expect = infer(&net, &weights, &input).output;

        let mut session = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params(),
            Schedule::PartialAligned,
            77,
        )
        .unwrap();
        let (output, transcript) = session.run(&input).unwrap();
        assert_eq!(output.data(), expect.data(), "private != plaintext");
        assert!(transcript.total_bytes() > 0);
        assert_eq!(transcript.rounds(), 4); // setup + 3 linear layers
    }

    #[test]
    fn two_limb_chain_private_inference_matches_plaintext() {
        // The RNS migration acceptance path: encrypt → conv → decrypt end
        // to end through the session on a genuine 2-limb chain, with
        // transcript bytes reflecting the limb count.
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 51);
        let input = random_input(&net.input_shape, 3, 52);
        let expect = infer(&net, &weights, &input).output;

        let params = session_params_2_limb();
        assert_eq!(params.limbs(), 2);
        let mut session =
            PrivateInferenceSession::new(&net, &weights, params, Schedule::PartialAligned, 77)
                .unwrap();
        let (output, transcript) = session.run(&input).unwrap();
        assert_eq!(output.data(), expect.data(), "2-limb private != plaintext");

        // Every upload ships seeded — seed + one c0 component of `limbs`
        // live limbs (`limbs·n·8 + 8` bytes): the 2-limb payload is twice
        // the single-limb payload net of the fixed seed.
        let mut single = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params(),
            Schedule::PartialAligned,
            77,
        )
        .unwrap();
        let (_, transcript_1) = single.run(&input).unwrap();
        let act_bytes = |t: &Transcript| -> Vec<usize> {
            t.messages()
                .iter()
                .filter(|m| m.label.contains("enc activations"))
                .map(|m| m.bytes)
                .collect()
        };
        let up2 = act_bytes(&transcript);
        let up1 = act_bytes(&transcript_1);
        assert_eq!(up2.len(), up1.len());
        for (b2, b1) in up2.iter().zip(&up1) {
            assert_eq!(
                *b2 - wire::SEED_BYTES,
                2 * (*b1 - wire::SEED_BYTES),
                "2-limb seeded upload payload must be twice 1-limb"
            );
            assert_eq!(*b2, wire::SEED_BYTES + 2 * 4096 * 8);
        }
    }

    /// A 3-limb chain with the session's low decomposition base: deep
    /// enough that the planner can drop a limb before every layer.
    fn session_params_3_limb() -> BfvParams {
        BfvParams::builder()
            .degree(4096)
            .plain_bits(17)
            .moduli_bits(&[36, 36, 36])
            .a_dcmp(1 << 6)
            .build()
            .unwrap()
    }

    #[test]
    fn leveled_session_drops_limbs_and_matches_plaintext() {
        // The first feature where multi-limb chains are *faster*
        // mid-circuit rather than just roomier: a tiny CNN's noise never
        // needs the full 108-bit ceiling, so the cloud modulus-switches
        // each layer's input down and runs the layer — and ships the
        // masked outputs — over fewer live limbs.
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 71);
        let input = random_input(&net.input_shape, 3, 72);
        let expect = infer(&net, &weights, &input).output;

        let params = session_params_3_limb();
        assert_eq!(params.limbs(), 3);
        let mut session =
            PrivateInferenceSession::new(&net, &weights, params, Schedule::PartialAligned, 77)
                .unwrap();
        let (output, transcript) = session.run(&input).unwrap();
        assert_eq!(output.data(), expect.data(), "leveled private != plaintext");

        // Uploads stay full-level (the client always encrypts fresh) and
        // seeded: one 3-limb c0 plus the 8-byte seed…
        for m in transcript
            .messages()
            .iter()
            .filter(|m| m.label.contains("enc activations"))
        {
            assert_eq!(m.bytes, wire::SEED_BYTES + 3 * 4096 * 8, "{}", m.label);
        }
        // …while every masked download left level 0: the layers ran — and
        // shipped — at a reduced level, each ciphertext a whole number of
        // live-limb pairs strictly below the full-level size.
        let downloads: Vec<_> = transcript
            .messages()
            .iter()
            .filter(|m| m.label.contains("enc masked outputs"))
            .collect();
        assert!(!downloads.is_empty());
        for m in &downloads {
            assert!(
                m.label.contains("lvl1") || m.label.contains("lvl2"),
                "layer stayed at full level: {}",
                m.label
            );
            // A whole number of live-limb ciphertexts (2 components ·
            // ≤2 live limbs · n · 8 bytes each).
            assert_eq!(m.bytes % (2 * 4096 * 8), 0);
        }
    }

    #[test]
    fn both_schedules_agree_end_to_end() {
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 21);
        let input = random_input(&net.input_shape, 3, 22);
        let mut pa = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params(),
            Schedule::PartialAligned,
            1,
        )
        .unwrap();
        let mut ia = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params(),
            Schedule::InputAligned,
            2,
        )
        .unwrap();
        let (out_pa, _) = pa.run(&input).unwrap();
        let (out_ia, _) = ia.run(&input).unwrap();
        assert_eq!(out_pa.data(), out_ia.data());
    }

    #[test]
    fn sessions_sharing_one_prepared_model_match_private_preparations() {
        // The serve-layer contract: N clients attached to one shared
        // Arc<PreparedModel> produce exactly the outputs and transcripts
        // they would with private preparations (preparation is
        // client-independent by construction).
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 61);
        let input = random_input(&net.input_shape, 3, 62);

        let shared =
            PreparedModel::prepare(&net, &weights, session_params(), Schedule::PartialAligned)
                .unwrap();
        for seed in [5u64, 6, 7] {
            let mut shared_session =
                PrivateInferenceSession::with_prepared(Arc::clone(&shared), seed).unwrap();
            let mut private_session = PrivateInferenceSession::new(
                &net,
                &weights,
                session_params(),
                Schedule::PartialAligned,
                seed,
            )
            .unwrap();
            let (out_s, tr_s) = shared_session.run(&input).unwrap();
            let (out_p, tr_p) = private_session.run(&input).unwrap();
            assert_eq!(out_s.data(), out_p.data());
            let bytes = |t: &Transcript| t.messages().iter().map(|m| m.bytes).collect::<Vec<_>>();
            assert_eq!(bytes(&tr_s), bytes(&tr_p));
        }
    }

    #[test]
    fn transcript_grows_with_network_depth() {
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 31);
        let input = random_input(&net.input_shape, 3, 32);
        let mut session = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params(),
            Schedule::PartialAligned,
            3,
        )
        .unwrap();
        let (_, transcript) = session.run(&input).unwrap();
        // setup + (up, down, gc) per linear layer.
        assert!(transcript.messages().len() > 3 * 3);
        assert!(transcript.upload_bytes() > 0);
        assert!(transcript.download_bytes() > 0);
    }

    #[test]
    fn masking_keeps_intermediate_values_uniformish() {
        // The activation the client sees between layers is masked: with a
        // fresh uniform mask the masked values should not equal the true
        // activations (probability of collision across a whole tensor is
        // negligible).
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 41);
        let input = random_input(&net.input_shape, 3, 42);
        let trace = infer(&net, &weights, &input);
        // Run the protocol and capture the client's masked view indirectly:
        // the protocol is correct (previous test), and the mask rng is
        // seeded differently from the weights, so a sanity spot-check on
        // the final output sufficing here: outputs match but transcript
        // shows masked rounds happened.
        let mut session = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params(),
            Schedule::PartialAligned,
            99,
        )
        .unwrap();
        let (out, transcript) = session.run(&input).unwrap();
        assert_eq!(out.data(), trace.output.data());
        let gc_msgs = transcript
            .messages()
            .iter()
            .filter(|m| m.label.contains("garbled"))
            .count();
        assert_eq!(gc_msgs, 3);
    }

    #[test]
    fn repeated_runs_draw_fresh_randomness() {
        // The halves outlive a run: a second run on the same session
        // continues the encryption and mask streams under the same keys,
        // so the same input never reuses upload randomness.
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 81);
        let input = random_input(&net.input_shape, 3, 82);
        let expect = infer(&net, &weights, &input).output;
        let mut session = PrivateInferenceSession::new(
            &net,
            &weights,
            session_params_3_limb(),
            Schedule::PartialAligned,
            5,
        )
        .unwrap();
        let uploads = |t: &Transcript| -> Vec<Vec<u8>> {
            t.messages()
                .iter()
                .filter(|m| m.label.contains("enc activations"))
                .map(|m| m.payload.clone())
                .collect()
        };
        let (out_1, transcript_1) = session.run(&input).unwrap();
        let (out_2, transcript_2) = session.run(&input).unwrap();
        assert_eq!(out_1.data(), expect.data(), "first run != plaintext");
        assert_eq!(out_2.data(), expect.data(), "second run != plaintext");
        let (up_1, up_2) = (uploads(&transcript_1), uploads(&transcript_2));
        assert_eq!(up_1.len(), 3);
        assert_eq!(up_2.len(), 3);
        for (k, (a, b)) in up_1.iter().zip(&up_2).enumerate() {
            assert_ne!(a, b, "L{k}: second run replayed the first run's upload");
        }
        assert_eq!(session.layer_reports().len(), 3, "reports reset per run");
    }

    #[test]
    fn server_accepts_only_the_exact_planned_key_set() {
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 91);
        let model =
            PreparedModel::prepare(&net, &weights, session_params(), Schedule::PartialAligned)
                .unwrap();
        let steps = model.required_steps().to_vec();
        let setup = |keys: GaloisKeys| ClientSetup {
            keys,
            setup_bytes: 0,
        };
        let mut keygen = KeyGenerator::from_seed(model.params().clone(), 3);

        let exact = keygen.galois_keys_for_steps(&steps).unwrap();
        assert!(ServerSession::new(Arc::clone(&model), setup(exact.clone()), 3).is_ok());

        // One extra element: a step no plan rotates by.
        let unplanned = (2..64i64)
            .find(|&s| !exact.contains(keygen.element_for_step(s).unwrap()))
            .unwrap();
        let mut extra = exact;
        keygen.extend_galois_keys(&mut extra, &[unplanned]).unwrap();
        let err = ServerSession::new(Arc::clone(&model), setup(extra), 3)
            .err()
            .expect("a key set with an unplanned element must be rejected");
        assert!(
            matches!(
                err,
                Error::Malformed {
                    what: "galois key set",
                    ..
                }
            ),
            "unexpected error: {err}"
        );

        // One missing element.
        let missing = keygen.galois_keys_for_steps(&steps[1..]).unwrap();
        let err = ServerSession::new(Arc::clone(&model), setup(missing), 3)
            .err()
            .expect("a key set missing a plan step must be rejected");
        assert!(
            matches!(err, Error::MissingGaloisKey { step: Some(s), .. } if s == steps[0]),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn upload_after_the_final_layer_is_a_typed_error() {
        let net = tiny_cnn();
        let weights = Weights::random(&net, 2, 95);
        let input = random_input(&net.input_shape, 3, 96);
        let model =
            PreparedModel::prepare(&net, &weights, session_params(), Schedule::PartialAligned)
                .unwrap();
        let (mut client, setup) = ClientSession::new(Arc::clone(&model), 9, &input).unwrap();
        let mut server = ServerSession::new(Arc::clone(&model), setup, 9).unwrap();
        let mut scratch = model.layers().evaluator().new_scratch();
        let mut last_upload = Vec::new();
        let mut prediction = None;
        while prediction.is_none() {
            last_upload = client.next_upload().unwrap();
            let download = server.process_upload(&last_upload, &mut scratch).unwrap();
            prediction = client.absorb_download(&download).unwrap();
        }
        assert_eq!(server.layer(), model.linear_count());
        assert!(matches!(
            server.process_upload(&last_upload, &mut scratch),
            Err(Error::Unsupported(_))
        ));
    }
}
