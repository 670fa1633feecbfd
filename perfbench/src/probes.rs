//! Per-layer probes of the traced run: the benchmark's own calls into
//! public functions that a session makes internally (key generation, the
//! prepared layer's `apply`), the cost model's prediction for each layer,
//! and the cleartext reference.

use cheetah_bfv::{wire, Encryptor, KeyGenerator};
use cheetah_nn::infer;
use cheetah_nn::inference::random_input;
use cheetah_profile::{chain_kernel_config, layer_breakdown_on_chain, KernelTimer};

use crate::setup::{mix, tag, Bench, PROBE_SESSION};
use crate::trace::Tracer;

/// Repetitions of each probe.
pub const REPS: u64 = 5;
/// Repetitions of the cleartext inference probe (it takes microseconds).
pub const INFER_REPS: u64 = 200;
/// Repetitions per kernel inside `KernelTimer`.
pub const KERNEL_REPS: u32 = 100;

/// Times `KeyGenerator::public_key_seeded` and `galois_keys_for_steps`
/// for the model's rotation steps (`bfv.keygen_pk`, `bfv.keygen_galois`).
pub fn keygen(bench: &Bench, tracer: &mut Tracer) -> Result<(), String> {
    let params = bench.model.params();
    for r in 0..REPS {
        let id = PROBE_SESSION + 100 + r;
        let mut kg = KeyGenerator::from_seed(params.clone(), mix(bench.seed ^ r, tag::PROBE));
        tracer
            .time("bfv.keygen_pk", None, id, None, || kg.public_key_seeded())
            .map_err(|e| format!("public key: {e}"))?;
        tracer
            .time("bfv.keygen_galois", None, id, None, || {
                kg.galois_keys_for_steps(bench.model.required_steps())
            })
            .map_err(|e| format!("galois keys: {e}"))?;
    }
    Ok(())
}

/// Times `PreparedLayers::apply` per layer on a ciphertext brought to
/// the level `plan_level` picks, as `process_upload` does: a seeded
/// upload decoded from the wire, one plaintext added in place of the
/// unmask (layers after the first), then the mod-switch. Fails if the
/// picked level differs from the level the sessions ran at.
pub fn apply(bench: &Bench, tracer: &mut Tracer, levels: &[usize]) -> Result<(), String> {
    let layers = bench.model.layers();
    let params = layers.params();
    let eval = layers.evaluator();
    let seed = mix(bench.seed, tag::PROBE);
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let keys = kg
        .galois_keys_for_steps(layers.required_steps())
        .map_err(|e| format!("galois keys: {e}"))?;
    let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), seed ^ 1);
    let mut scratch = eval.new_scratch();
    for (k, &level_run) in levels.iter().enumerate() {
        let shape = match k {
            0 => layers
                .apply_leading(&bench.inputs[0])
                .map_err(err("leading", k))?
                .shape()
                .to_vec(),
            _ => bench.model.bundle_shape(k - 1).to_vec(),
        };
        let pt = layers
            .pack(k, &random_input(&shape, 3, seed >> 8))
            .map_err(err("pack", k))?;
        for r in 0..REPS {
            let (ct, s) = enc.encrypt_seeded(&pt).map_err(err("encrypt", k))?;
            let bytes = wire::encode_ciphertext_seeded(&ct, s).map_err(err("encode", k))?;
            let mut ct = wire::decode_ciphertext(&bytes, params).map_err(err("decode", k))?;
            if k > 0 {
                eval.add_plain_assign(&mut ct, &pt, &mut scratch)
                    .map_err(err("unmask", k))?;
            }
            let level = layers.plan_level(k, ct.noise());
            if level != level_run {
                return Err(format!(
                    "apply probe L{k}: planned level {level}, sessions ran at {level_run}"
                ));
            }
            if level > ct.level() {
                eval.mod_switch_to_assign(&mut ct, level)
                    .map_err(err("mod-switch", k))?;
            }
            tracer
                .time(
                    "protocol.apply",
                    Some(k),
                    PROBE_SESSION + 200 + r,
                    None,
                    || layers.apply(k, &ct, &keys),
                )
                .map_err(err("apply", k))?;
        }
    }
    Ok(())
}

fn err(what: &'static str, k: usize) -> impl Fn(cheetah_bfv::Error) -> String {
    move |e| format!("apply probe L{k} {what}: {e}")
}

/// HE-PTune's prediction (ms) of each layer's kernel time at the level it
/// ran at: `KernelTimer` measurements at the chain's limb width, billed
/// by `layer_breakdown_on_chain`.
pub fn predicted_ms(bench: &Bench, levels: &[usize]) -> Vec<f64> {
    let params = bench.model.params();
    let times = KernelTimer::new(KERNEL_REPS).measure(chain_kernel_config(params));
    bench
        .net
        .linear_layers()
        .iter()
        .zip(levels)
        .map(|(layer, &level)| {
            layer_breakdown_on_chain(layer, params, level, &times).total_s() * 1e3
        })
        .collect()
}

/// Times cleartext inference of the tiny CNN (`nn.infer`).
pub fn cleartext(bench: &Bench, tracer: &mut Tracer) {
    for r in 0..INFER_REPS {
        let input = &bench.inputs[(r % bench.inputs.len() as u64) as usize];
        let out = tracer.time("nn.infer", None, PROBE_SESSION + 300 + r, None, || {
            infer(&bench.net, &bench.weights, std::hint::black_box(input))
        });
        std::hint::black_box(out);
    }
}
