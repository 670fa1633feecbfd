//! Workloads and their server set-up: the model, the client inputs and
//! the cleartext reference predictions, all made before any clock
//! starts.

use std::sync::Arc;
use std::time::Instant;

use cheetah_bfv::BfvParams;
use cheetah_core::ptune::{solve_chain_plan, NoiseRegime};
use cheetah_core::{QuantSpec, Schedule};
use cheetah_nn::inference::client_inputs;
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::{infer, Network, Tensor, Weights};
use cheetah_serve::PreparedModel;

use crate::trace::Tracer;

/// Server set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;
/// Distinct client inputs per run (sessions cycle through them, each with
/// fresh keys).
pub const INPUT_POOL: usize = 64;
/// Degree of every chain the benchmark serves.
pub const DEGREE: usize = 4096;
/// Session-id base for spans of the probes (never a client id).
pub const PROBE_SESSION: u64 = 1 << 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client at a time, dense weights, digit-decomposed
    /// 3×36-bit chain.
    SoloDigit,
    /// As `SoloDigit` on the special-prime hybrid 2×36-bit chain.
    SoloHybrid,
    /// Fleets of 16 clients through one `ServerPool`, 90%-pruned weights,
    /// chain and levels from the HE-PTune chain solver.
    FleetSparse,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "solo_digit" => Some(Self::SoloDigit),
            "solo_hybrid" => Some(Self::SoloHybrid),
            "fleet_sparse" => Some(Self::FleetSparse),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SoloDigit => "solo_digit",
            Self::SoloHybrid => "solo_hybrid",
            Self::FleetSparse => "fleet_sparse",
        }
    }
}

/// SplitMix64 step: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed tags, one per derived stream.
pub mod tag {
    /// Client inputs.
    pub const INPUTS: u64 = 2;
    /// Client key (and server mask) seeds.
    pub const KEYS: u64 = 3;
    /// Probe keys and inputs.
    pub const PROBE: u64 = 4;
}

/// The served model is part of a workload, like the server it stands
/// for: its weights come from fixed seeds and the run's seed draws the
/// clients (inputs and keys). Weights drawn per run would change the
/// work itself from seed to seed: a zero weight can kill a whole conv1
/// tap (conv1 has one input channel), dropping a rotation and a Galois
/// key, and the pruning mask decides which rotations the sparse plans
/// keep (between 6 and 10 Galois keys over mask seeds).
const WEIGHT_SEED: u64 = 424;
/// Pruning mask of `fleet_sparse`: sparse plans keep 1/4/3 rotations per
/// layer and clients upload 8 Galois keys.
const PRUNE_SEED: u64 = 30;

/// The 3-limb digit chain `bench_throughput` serves: three 36-bit limbs,
/// decomposition base 2^6.
fn digit_params() -> Result<BfvParams, String> {
    BfvParams::builder()
        .degree(DEGREE)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .map_err(|e| format!("digit chain: {e}"))
}

/// Everything a run serves, prepared before the clock.
pub struct Bench {
    pub workload: Workload,
    pub net: Network,
    pub weights: Weights,
    pub model: Arc<PreparedModel>,
    /// Seconds of the first server set-up.
    pub first_setup_s: f64,
    pub inputs: Vec<Tensor>,
    /// Cleartext predictions, index-aligned with `inputs`.
    pub expected: Vec<Tensor>,
    pub seed: u64,
}

impl Bench {
    /// Sets the workload's server up once (timed) and makes its inputs
    /// and reference predictions.
    pub fn new(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let net = tiny_cnn();
        let mut weights = Weights::random(&net, 2, WEIGHT_SEED);
        if workload == Workload::FleetSparse {
            weights.prune_to_sparsity(0.9, PRUNE_SEED);
        }
        let (model, first_setup_s) = set_up(workload, &net, &weights, tracer, 0)?;
        let inputs = client_inputs(&net.input_shape, 3, mix(seed, tag::INPUTS) >> 8, INPUT_POOL);
        let expected = inputs
            .iter()
            .map(|x| infer(&net, &weights, x).output)
            .collect();
        Ok(Self {
            workload,
            net,
            weights,
            model,
            first_setup_s,
            inputs,
            expected,
            seed,
        })
    }

    /// Times one more server set-up and drops its model. The measured
    /// loops call this [`SETUP_REPS`]` - 1` times spread over the run:
    /// back-to-back set-ups all land in whatever state the host is in for
    /// that fraction of a second, and those states alone put whole runs
    /// 40% apart.
    pub fn time_setup(&self, tracer: &mut Tracer, rep: u64) -> Result<f64, String> {
        set_up(self.workload, &self.net, &self.weights, tracer, rep).map(|(_, s)| s)
    }

    /// Key (and mask) seed of client `i`.
    pub fn key_seed(&self, i: u64) -> u64 {
        mix(mix(self.seed, tag::KEYS), i)
    }
}

/// One server set-up — `solve_chain_plan` where the workload uses it,
/// then `PreparedModel::prepare*` — with `core.solve` / `protocol.prepare`
/// spans, returning the model and the seconds it took.
fn set_up(
    workload: Workload,
    net: &Network,
    weights: &Weights,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<(Arc<PreparedModel>, f64), String> {
    let id = PROBE_SESSION + rep;
    let start = Instant::now();
    let model = match workload {
        Workload::SoloDigit | Workload::SoloHybrid => {
            let params = if workload == Workload::SoloDigit {
                digit_params()?
            } else {
                BfvParams::preset_hybrid_2x36(DEGREE).map_err(|e| format!("hybrid chain: {e}"))?
            };
            tracer.time("protocol.prepare", None, id, None, || {
                PreparedModel::prepare(net, weights, params, Schedule::PartialAligned)
            })
        }
        Workload::FleetSparse => {
            let plan = tracer
                .time("core.solve", None, id, None, || {
                    solve_chain_plan(
                        &net.linear_layers(),
                        &QuantSpec::default(),
                        Schedule::PartialAligned,
                        NoiseRegime::WorstCase,
                        &[DEGREE],
                    )
                })
                .map_err(|e| format!("chain solver: {e}"))?;
            tracer.time("protocol.prepare", None, id, None, || {
                PreparedModel::prepare_with_plan(net, weights, &plan)
            })
        }
    }
    .map_err(|e| format!("model preparation: {e}"))?;
    Ok((model, start.elapsed().as_secs_f64()))
}
