//! Shared, immutable prepared state of a private-inference model.
//!
//! Preparing a network for homomorphic evaluation is expensive: every
//! linear layer's weights are packed into prepared plaintexts, BSGS /
//! reduce plans are chosen, and the union of rotation steps the plans
//! need is computed. None of that depends on a client — so it is built
//! **once** into a [`PreparedLayers`]. Everything here is read-only after
//! construction: the struct owns no `RefCell`/`Mutex` and every method
//! takes `&self`, so sharing is lock-free by construction.
//!
//! [`PreparedModel`] is the shared handle: an `Arc<PreparedModel>` is what
//! the protocol's session halves ([`crate::session::ClientSession`],
//! [`crate::session::ServerSession`]), the one-party
//! [`crate::session::PrivateInferenceSession`] and `cheetah-serve`'s
//! worker pool hold. What stays *per client* lives in the halves:
//! secret/Galois keys, encryptors, mask RNG streams, and transcripts.

use std::sync::Arc;

use cheetah_bfv::keys::element_for_step;
use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Error, Evaluator, GaloisKeys, NoiseEstimate, Plaintext,
    Result,
};
use cheetah_core::linear::{HomConv2d, HomFc};
use cheetah_core::ptune::ChainPlan;
use cheetah_core::Schedule;
use cheetah_nn::tensor::{max_pool, relu, sum_pool};
use cheetah_nn::{Layer, LinearLayer, Network, Tensor, Weights};

/// Worst-case budget (bits) the leveled-evaluation planner keeps in hand
/// when choosing how many limbs to drop before a layer.
const LEVEL_PLAN_MARGIN_BITS: f64 = 2.0;

/// A prepared homomorphic linear layer plus its packing rules.
pub(crate) enum HomLayer {
    Conv(HomConv2d),
    Fc(HomFc),
}

impl HomLayer {
    /// Rotation steps this prepared layer needs Galois keys for. Both
    /// layer kinds report their *instance* plan steps — live conv taps
    /// plus the chosen channel reduces, and the exact FC BSGS / sparse /
    /// diagonal plan — so a session generates keys only for rotations the
    /// prepared weights actually perform. A 90%-sparse layer's keygen
    /// shrinks with its plan; an all-zero layer needs no keys at all.
    fn rotation_steps(&self) -> Vec<i64> {
        match self {
            HomLayer::Conv(c) => c.rotation_steps(),
            HomLayer::Fc(f) => f.rotation_steps(),
        }
    }

    /// Human-readable rotation-plan label for transcripts and reports.
    fn plan_label(&self) -> String {
        match self {
            HomLayer::Conv(c) => {
                if c.structure().fully_live() {
                    format!("conv reduce {:?}", c.reduce_plan())
                } else {
                    format!(
                        "conv sparse live={}/{} reduce {:?}",
                        c.structure().live_taps(),
                        c.spec().co * c.spec().ci * c.spec().fw * c.spec().fw,
                        c.reduce_plan()
                    )
                }
            }
            HomLayer::Fc(f) => match (f.plan(), f.sparse_plan()) {
                (Some(p), _) => format!("fc bsgs b={} g={}", p.b, p.g),
                (None, Some(p)) => format!("fc sparse b={} g={} rot={}", p.b, p.g, p.rotations()),
                (None, None) => "fc diag".to_string(),
            },
        }
    }

    /// Table-III prediction of the layer's output noise at a level
    /// (conservative; upper-bounds the engine-tracked estimate).
    fn noise_after(
        &self,
        input: &NoiseEstimate,
        params: &BfvParams,
        level: usize,
    ) -> NoiseEstimate {
        match self {
            HomLayer::Conv(c) => c.noise_after(input, params, level),
            HomLayer::Fc(f) => f.noise_after(input, params, level),
        }
    }

    /// The deepest level this layer can run at for an input with the
    /// given noise estimate: walks the modulus-switch transitions down
    /// the chain and keeps the deepest level whose *predicted output*
    /// still clears the planning margin under the **statistical** (IBDG)
    /// budget — the §IV-B provisioning rule HE-PTune uses (failure
    /// probability below 1e-10). The worst-case bound would pin BSGS FC
    /// layers at full level: their baby steps are rotate-then-multiply, so
    /// the Table-III bound pays the key-switch additive inside the
    /// multiplication even though the measured noise sits far below it.
    /// Returns 0 (full chain) when no switch is safe — dropping limbs is
    /// purely an optimization, never a correctness requirement.
    fn plan_level(&self, input: &NoiseEstimate, params: &BfvParams) -> usize {
        let mut best = 0;
        let mut est = *input;
        for level in 0..params.levels() {
            if level > 0 {
                est = est.mod_switch(params, level - 1);
            }
            let out = self.noise_after(&est, params, level);
            if out.budget_bits_statistical_at(params, level) >= LEVEL_PLAN_MARGIN_BITS {
                best = level;
            }
        }
        best
    }

    fn pack(&self, t: &Tensor, encoder: &BatchEncoder) -> Result<Plaintext> {
        match self {
            HomLayer::Conv(c) => HomConv2d::encode_input(c.spec(), t, encoder),
            HomLayer::Fc(f) => HomFc::encode_input(f.spec(), t, encoder),
        }
    }

    fn apply(
        &self,
        ct: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>> {
        match self {
            HomLayer::Conv(c) => c.apply(ct, eval, keys),
            HomLayer::Fc(f) => Ok(vec![f.apply(ct, eval, keys)?]),
        }
    }

    /// Output tensor shape.
    fn output_shape(&self) -> Vec<usize> {
        match self {
            HomLayer::Conv(c) => vec![c.spec().co, c.spec().w, c.spec().w],
            HomLayer::Fc(f) => vec![f.spec().no],
        }
    }

    /// Extracts the output tensor from per-ciphertext decoded slots.
    fn unpack(&self, slot_vecs: &[Vec<i64>]) -> Tensor {
        match self {
            HomLayer::Conv(c) => {
                let w = c.spec().w;
                let mut data = Vec::with_capacity(c.spec().co * w * w);
                for slots in slot_vecs {
                    data.extend_from_slice(&slots[..w * w]);
                }
                Tensor::from_data(&[c.spec().co, w, w], data)
            }
            HomLayer::Fc(f) => {
                Tensor::from_data(&[f.spec().no], slot_vecs[0][..f.spec().no].to_vec())
            }
        }
    }

    /// Packs a mask tensor to match the *output* slot layout, one plaintext
    /// per output ciphertext.
    fn pack_output_mask(&self, mask: &Tensor, encoder: &BatchEncoder) -> Result<Vec<Plaintext>> {
        match self {
            HomLayer::Conv(c) => {
                let w2 = c.spec().w * c.spec().w;
                (0..c.spec().co)
                    .map(|o| encoder.encode_signed(&mask.data()[o * w2..(o + 1) * w2]))
                    .collect()
            }
            HomLayer::Fc(_) => Ok(vec![encoder.encode_signed(mask.data())?]),
        }
    }
}

/// Applies one nonlinear bundle (the simulated garbled-circuit body) to a
/// tensor. Linear layers never appear inside a bundle by construction;
/// the boundary still refuses rather than panicking.
fn apply_nonlinear(layers: &[Layer], input: &Tensor) -> Result<Tensor> {
    let mut t = input.clone();
    for layer in layers {
        t = match layer {
            Layer::Relu => relu(&t),
            Layer::MaxPool { k, stride } => max_pool(&t, *k, *stride),
            Layer::SumPool { k, stride } => sum_pool(&t, *k, *stride),
            Layer::Flatten => t.clone().into_flat(),
            Layer::ResidualAdd { .. } => {
                return Err(Error::Unsupported(
                    "residual networks need multi-branch sessions",
                ))
            }
            Layer::Linear(_) => {
                return Err(Error::Unsupported("linear layer inside a nonlinear bundle"))
            }
        };
    }
    Ok(t)
}

/// Everything about a model that is client-independent, prepared once:
/// packed weight plaintexts, BSGS/reduce/level plans, the nonlinear
/// bundle structure, and the union of rotation steps clients must bring
/// Galois keys for. Immutable after construction — share it as an
/// `Arc<PreparedModel>` across any number of concurrent sessions.
pub struct PreparedLayers {
    params: BfvParams,
    encoder: BatchEncoder,
    evaluator: Evaluator,
    layers: Vec<HomLayer>,
    /// Nonlinear layers *before* the first linear layer (run client-side
    /// in the clear — the client owns the input).
    leading: Vec<Layer>,
    /// Nonlinear bundle *after* each linear layer, up to the next linear
    /// layer (or the end of the network).
    bundles: Vec<Vec<Layer>>,
    /// `bundle_shapes[k]`: output shape of bundle `k` — the shape of the
    /// next round's client-side mask.
    bundle_shapes: Vec<Vec<usize>>,
    /// Sorted, deduplicated union of every layer plan's rotation steps.
    steps: Vec<i64>,
    /// Solver-planned level per linear layer (HE-PTune v2's
    /// [`ChainPlan`]); the runtime level planner never goes *deeper* than
    /// this ceiling, so the engine's measured noise can only tighten the
    /// plan, never loosen it past what the chain solver provisioned.
    planned_levels: Option<Vec<usize>>,
}

impl PreparedLayers {
    /// Prepares every linear layer of `net` under the given schedule,
    /// splits the network into leading / per-layer nonlinear bundles, and
    /// dry-runs each bundle on zeros to record its output shape.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors; fails when a layer does not fit the packing
    /// constraints of [`HomConv2d`] / [`HomFc`]. Residual networks are
    /// rejected here (at prepare time) rather than at the first session.
    pub fn new(
        net: &Network,
        weights: &Weights,
        params: BfvParams,
        schedule: Schedule,
    ) -> Result<Self> {
        Self::new_with_levels(net, weights, params, schedule, None)
    }

    /// [`PreparedLayers::new`] with optional per-linear-layer planned
    /// levels: each layer's plan (BSGS width, reduce shape, sparse
    /// pruning) is then priced with the cost model *at its planned level*
    /// instead of level 0 — fewer live limbs make rotations relatively
    /// cheaper and can tip the plan choice.
    fn new_with_levels(
        net: &Network,
        weights: &Weights,
        params: BfvParams,
        schedule: Schedule,
        levels: Option<&[usize]>,
    ) -> Result<Self> {
        let encoder = BatchEncoder::new(params.clone());
        let evaluator = Evaluator::new(params.clone());

        // Prepare every linear layer, then collect exactly the rotation
        // steps the prepared layers' plans need (a BSGS FC layer needs
        // O(√d) keys, not d − 1; sparse layers only their live steps).
        let mut layers = Vec::new();
        let mut leading = Vec::new();
        let mut bundles: Vec<Vec<Layer>> = Vec::new();
        let mut linear_idx = 0usize;
        for layer in &net.layers {
            if let Layer::Linear(lin) = layer {
                let level = levels.map_or(0, |ls| ls[linear_idx]);
                match lin {
                    LinearLayer::Conv(c) => {
                        layers.push(HomLayer::Conv(HomConv2d::new_at_level(
                            c,
                            weights.layer(linear_idx),
                            &encoder,
                            &evaluator,
                            schedule,
                            level,
                        )?));
                    }
                    LinearLayer::Fc(f) => {
                        layers.push(HomLayer::Fc(HomFc::new_at_level(
                            f,
                            weights.layer(linear_idx),
                            &encoder,
                            &evaluator,
                            schedule,
                            level,
                        )?));
                    }
                }
                bundles.push(Vec::new());
                linear_idx += 1;
            } else if let Some(bundle) = bundles.last_mut() {
                bundle.push(layer.clone());
            } else {
                leading.push(layer.clone());
            }
        }
        let mut steps: Vec<i64> = layers.iter().flat_map(HomLayer::rotation_steps).collect();
        steps.sort_unstable();
        steps.dedup();
        let bundle_shapes = layers
            .iter()
            .zip(&bundles)
            .map(|(layer, bundle)| {
                let zeros = Tensor::zeros(&layer.output_shape());
                Ok(apply_nonlinear(bundle, &zeros)?.shape().to_vec())
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(Self {
            params,
            encoder,
            evaluator,
            layers,
            leading,
            bundles,
            bundle_shapes,
            steps,
            planned_levels: None,
        })
    }

    /// Prepares a network from a solver-produced [`ChainPlan`]: the plan's
    /// exact parameter chain (special prime included when the solver chose
    /// a hybrid chain) and schedule drive preparation, and its per-layer
    /// levels become ceilings for the runtime level planner — the
    /// HE-PTune v2 path from `solve_chain_plan` straight into a serving
    /// session.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when the plan's layer count does not match
    /// the network's linear layers; otherwise as [`PreparedLayers::new`].
    pub fn from_chain_plan(net: &Network, weights: &Weights, plan: &ChainPlan) -> Result<Self> {
        let linear_count = net
            .layers
            .iter()
            .filter(|l| matches!(l, Layer::Linear(_)))
            .count();
        if plan.layers.len() != linear_count {
            return Err(Error::Unsupported(
                "chain plan layer count does not match the network",
            ));
        }
        let levels = plan.levels();
        let mut prepared = Self::new_with_levels(
            net,
            weights,
            plan.params.clone(),
            plan.schedule,
            Some(&levels),
        )?;
        prepared.planned_levels = Some(levels);
        Ok(prepared)
    }

    /// The solver-planned per-layer levels, when this model was prepared
    /// via [`PreparedLayers::from_chain_plan`].
    pub fn planned_levels(&self) -> Option<&[usize]> {
        self.planned_levels.as_deref()
    }

    /// The parameter set every client must match: every wire message
    /// carries its chain fingerprint and is validated against it.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The shared batch encoder.
    pub fn encoder(&self) -> &BatchEncoder {
        &self.encoder
    }

    /// The shared evaluator (stateless over `&self`; safe to use from any
    /// number of threads).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Number of prepared (linear) layers.
    pub fn linear_count(&self) -> usize {
        self.layers.len()
    }

    /// The exact rotation steps clients must bring Galois keys for —
    /// sorted and deduplicated across every layer plan.
    pub fn required_steps(&self) -> &[i64] {
        &self.steps
    }

    /// Checks that a client's Galois key set is exactly the one the
    /// prepared plans rotate by: every planned step is covered and no
    /// other element is carried (an extra key only costs server memory).
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] naming the first uncovered step;
    /// [`Error::Malformed`] naming an element no plan step needs.
    pub fn check_key_coverage(&self, keys: &GaloisKeys) -> Result<()> {
        let n = self.params.degree();
        let mut planned = Vec::with_capacity(self.steps.len());
        for &step in &self.steps {
            keys.get_for_step(n, step)?;
            planned.push(element_for_step(n, step)?);
        }
        match keys.elements().find(|g| !planned.contains(g)) {
            Some(extra) => Err(Error::Malformed {
                what: "galois key set",
                reason: format!("carries a key for element {extra}, which no plan step uses"),
            }),
            None => Ok(()),
        }
    }

    /// Runs the leading nonlinear layers (before the first linear layer)
    /// on a clear input — client-side work.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for residual networks.
    pub fn apply_leading(&self, input: &Tensor) -> Result<Tensor> {
        apply_nonlinear(&self.leading, input)
    }

    /// Runs linear layer `k`'s nonlinear bundle (the simulated garbled
    /// circuit body: ReLU / pooling / flatten until the next linear
    /// layer).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for residual networks.
    pub fn apply_bundle(&self, k: usize, input: &Tensor) -> Result<Tensor> {
        apply_nonlinear(&self.bundles[k], input)
    }

    /// Shape of linear layer `k`'s *bundle* output (what the next round's
    /// masks must cover), recorded at prepare time.
    pub fn bundle_shape(&self, k: usize) -> &[usize] {
        &self.bundle_shapes[k]
    }

    /// Human-readable rotation-plan label of linear layer `k`.
    pub fn plan_label(&self, k: usize) -> String {
        self.layers[k].plan_label()
    }

    /// Number of ciphertexts linear layer `k` ships per masked download
    /// (conv layers send one per output channel, FC layers one) — what a
    /// client validates a download bundle's framing against.
    pub fn output_ciphertexts(&self, k: usize) -> usize {
        match &self.layers[k] {
            HomLayer::Conv(c) => c.spec().co,
            HomLayer::Fc(_) => 1,
        }
    }

    /// Output tensor shape of linear layer `k` (before its bundle).
    pub fn output_shape(&self, k: usize) -> Vec<usize> {
        self.layers[k].output_shape()
    }

    /// Packs a clear tensor into linear layer `k`'s input slot layout.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors for out-of-range values.
    pub fn pack(&self, k: usize, t: &Tensor) -> Result<Plaintext> {
        self.layers[k].pack(t, &self.encoder)
    }

    /// Table-III noise prediction of linear layer `k` at a level.
    pub fn noise_after(&self, k: usize, input: &NoiseEstimate, level: usize) -> NoiseEstimate {
        self.layers[k].noise_after(input, &self.params, level)
    }

    /// The deepest safe level for linear layer `k` given an input noise
    /// estimate (see the planner notes on the layer type). When the model
    /// was prepared from a [`ChainPlan`], the solver's planned level caps
    /// the answer: the runtime estimate may pull the layer shallower than
    /// planned but never deeper.
    pub fn plan_level(&self, k: usize, input: &NoiseEstimate) -> usize {
        let safe = self.layers[k].plan_level(input, &self.params);
        match &self.planned_levels {
            Some(levels) => safe.min(levels[k]),
            None => safe,
        }
    }

    /// Applies linear layer `k` homomorphically with a client's keys.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors ([`Error::MissingGaloisKey`] when `keys` does
    /// not cover the plan, noise/parameter errors otherwise).
    pub fn apply(&self, k: usize, ct: &Ciphertext, keys: &GaloisKeys) -> Result<Vec<Ciphertext>> {
        self.layers[k].apply(ct, &self.evaluator, keys)
    }

    /// Extracts linear layer `k`'s output tensor from per-ciphertext
    /// decoded slots.
    pub fn unpack(&self, k: usize, slot_vecs: &[Vec<i64>]) -> Tensor {
        self.layers[k].unpack(slot_vecs)
    }

    /// Packs a mask tensor to linear layer `k`'s output slot layout, one
    /// plaintext per output ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn pack_output_mask(&self, k: usize, mask: &Tensor) -> Result<Vec<Plaintext>> {
        self.layers[k].pack_output_mask(mask, &self.encoder)
    }
}

/// The shared, immutable prepared model every session half and server
/// pool holds behind an `Arc`: a [`PreparedLayers`] with the constructors
/// that hand it out shared.
///
/// Immutability contract: everything is written once in
/// [`PreparedModel::prepare`] and only ever read afterwards — all methods
/// take `&self` and there is no interior mutability. That is what makes
/// concurrent session sweeps lock-free on the model side.
pub struct PreparedModel {
    layers: PreparedLayers,
}

impl PreparedModel {
    /// Prepares a network once for any number of sessions (see
    /// [`PreparedLayers::new`]).
    ///
    /// # Errors
    ///
    /// As [`PreparedLayers::new`].
    pub fn prepare(
        net: &Network,
        weights: &Weights,
        params: BfvParams,
        schedule: Schedule,
    ) -> Result<Arc<Self>> {
        let layers = PreparedLayers::new(net, weights, params, schedule)?;
        Ok(Arc::new(Self { layers }))
    }

    /// Prepares a network from a solver-produced [`ChainPlan`] (HE-PTune
    /// v2): see [`PreparedLayers::from_chain_plan`].
    ///
    /// # Errors
    ///
    /// As [`PreparedLayers::from_chain_plan`].
    pub fn prepare_with_plan(
        net: &Network,
        weights: &Weights,
        plan: &ChainPlan,
    ) -> Result<Arc<Self>> {
        let layers = PreparedLayers::from_chain_plan(net, weights, plan)?;
        Ok(Arc::new(Self { layers }))
    }

    /// The prepared layers (plans, packed plaintexts, evaluator).
    pub fn layers(&self) -> &PreparedLayers {
        &self.layers
    }

    /// The parameter set every client of this model must match.
    pub fn params(&self) -> &BfvParams {
        self.layers.params()
    }

    /// Output shape of linear layer `k`'s nonlinear bundle.
    pub fn bundle_shape(&self, k: usize) -> &[usize] {
        self.layers.bundle_shape(k)
    }

    /// Number of prepared linear layers.
    pub fn linear_count(&self) -> usize {
        self.layers.linear_count()
    }

    /// The rotation steps a client must bring Galois keys for.
    pub fn required_steps(&self) -> &[i64] {
        self.layers.required_steps()
    }
}
