//! Key material: secret key, public key, and Galois (rotation) keys.
//!
//! Galois keys embed the ciphertext decomposition base `A_dcmp`
//! (Table II) and are indexed per **(limb, digit)** for the RNS-native
//! key switch: pair `(i, d)` is an RLWE sample of `A^d · q̂_i · s(x^g)`
//! (with `q̂_i = Q/q_i`), so the evaluator can pair it with the limb-local
//! digit `[A^{-d}-ish slice of q̂_i^{-1}·c1]_{q_i}` without ever
//! CRT-composing a coefficient. A key holds
//! `l_ct = Σ_i ceil(log_A q_i)` pairs (flat, limb-major); applying a
//! rotation costs `2·l_ct` polynomial multiplications and
//! `(l_ct + 1)·l_limbs` NTT plane transforms — the counts the corrected
//! Cheetah performance model charges per `HE_Rotate` (§IV-A). For a
//! single limb `q̂_0 = 1` and everything degenerates bit-for-bit to the
//! historical composed `A^d·s(x^g)` key shape.
//!
//! **Determinism contract.** Key sets are generated in parallel, and every
//! Galois key is built from its own derived stream: the generator forks
//! one stream per *new* distinct element from its main stream
//! ([`BfvRng::fork`], a full-width 256-bit seed, never a guessable 64-bit
//! one, since the stream draws secret noise), serially and in request
//! order, and the key is a pure function of `(params, secret, key stream,
//! element)`. The output is therefore
//! bit-identical for any worker count, a run of [`KeyGenerator::galois_key`]
//! calls equals one batch over the same elements, and extending a set
//! equals generating the union in one call.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

use crate::arith::ShoupPrecomp;
use crate::error::{Error, Result};
use crate::params::BfvParams;
use crate::poly::Representation;
use crate::rns::{ModulusChain, RnsPoly};
use crate::sampling::BfvRng;

/// The RLWE secret key: a ternary polynomial lifted into every limb plane,
/// stored in evaluation form.
#[derive(Debug, Clone)]
pub struct SecretKey {
    s: RnsPoly,
    params: BfvParams,
}

impl SecretKey {
    /// The secret polynomial in evaluation form.
    pub fn poly(&self) -> &RnsPoly {
        &self.s
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }
}

/// The public encryption key `(pk0, pk1) = (−(a·s + e), a)`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pk0: RnsPoly,
    pk1: RnsPoly,
    params: BfvParams,
}

impl PublicKey {
    /// First component `−(a·s + e)`, evaluation form.
    pub fn pk0(&self) -> &RnsPoly {
        &self.pk0
    }

    /// Second component `a`, evaluation form.
    pub fn pk1(&self) -> &RnsPoly {
        &self.pk1
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Assembles a public key from validated parts (wire decoding).
    pub(crate) fn from_parts(pk0: RnsPoly, pk1: RnsPoly, params: BfvParams) -> Self {
        Self { pk0, pk1, params }
    }

    /// Serialized size in bytes (for protocol accounting): two full-width
    /// components of `l_limbs · n` 8-byte words.
    pub fn byte_size(&self) -> usize {
        2 * self.params.limbs() * self.params.degree() * 8
    }
}

/// One key-switching key: `l_ct = Σ_i ceil(log_A q_i)` pairs
/// `(−(a·s + e) + A^d·q̂_i·s(x^g), a)` in evaluation form — indexed per
/// (limb `i`, digit `d`), stored flat in limb-major order to match the
/// digit order [`RnsPoly::rns_decompose_into`] emits — plus the cached
/// slot permutation realizing `x ↦ x^g` on NTT-form data (the permutation
/// depends only on `n`, so one table serves every limb plane).
#[derive(Debug, Clone)]
pub struct GaloisKey {
    /// The Galois element `g` (odd).
    pub element: u64,
    /// Key-switch pairs, one per (limb, digit), flat in limb-major order.
    pairs: Vec<(RnsPoly, RnsPoly)>,
    /// NTT-domain permutation for `x ↦ x^g`.
    perm: Vec<u32>,
}

impl GaloisKey {
    /// Key-switch pairs: `l_ct` of them, one per (limb, digit) in
    /// limb-major order (limb 0's digits first). For a single limb this is
    /// the historical per-digit shape.
    pub fn pairs(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.pairs
    }

    /// The NTT-domain slot permutation.
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Assembles a key from validated parts (wire decoding). The caller
    /// guarantees the pair list is `l_ct` long with chain-shaped
    /// polynomials and `perm` is the element's permutation table.
    pub(crate) fn from_parts(element: u64, pairs: Vec<(RnsPoly, RnsPoly)>, perm: Vec<u32>) -> Self {
        Self {
            element,
            pairs,
            perm,
        }
    }
}

/// A set of Galois keys indexed by Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<u64, GaloisKey>,
}

impl GaloisKeys {
    /// Looks up the key for a Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingGaloisKey`] if absent.
    pub fn get(&self, element: u64) -> Result<&GaloisKey> {
        self.keys.get(&element).ok_or(Error::MissingGaloisKey {
            element,
            step: None,
        })
    }

    /// Looks up the key realizing a row rotation by `steps` at degree `n`.
    ///
    /// The error carries the *step* alongside the Galois element, so a
    /// session asking for a rotation its plan-exact keygen never produced
    /// gets a diagnosable [`Error::MissingGaloisKey`] instead of a bare
    /// element number (or, historically, a panic deeper in the stack).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRotation`] for an identity step,
    /// [`Error::MissingGaloisKey`] (with `step` set) if absent.
    pub fn get_for_step(&self, n: usize, steps: i64) -> Result<&GaloisKey> {
        let element = element_for_step(n, steps)?;
        self.keys.get(&element).ok_or(Error::MissingGaloisKey {
            element,
            step: Some(steps),
        })
    }

    /// Whether a key for this element exists.
    pub fn contains(&self, element: u64) -> bool {
        self.keys.contains_key(&element)
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over the stored elements.
    pub fn elements(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.keys().copied()
    }

    /// Serialized size in bytes (for protocol accounting). Digit keys
    /// hold `l_ct` pairs of `l_limbs·n`-word polynomials; hybrid keys hold
    /// one pair per limb, each over the extended `(l_limbs + 1)`-plane
    /// key-switch chain.
    pub fn byte_size(&self, params: &BfvParams) -> usize {
        let (pairs, planes) = if params.has_special() {
            (params.limbs(), params.limbs() + 1)
        } else {
            (params.l_ct(), params.limbs())
        };
        self.keys.len() * pairs * 2 * planes * params.degree() * 8
    }

    pub(crate) fn insert(&mut self, key: GaloisKey) {
        self.keys.insert(key.element, key);
    }
}

/// Generates all key material for a session.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::params::BfvParams;
/// use cheetah_bfv::keys::KeyGenerator;
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let params = BfvParams::builder().degree(4096).build()?;
/// let mut keygen = KeyGenerator::from_seed(params, 42);
/// let _sk = keygen.secret_key().clone();
/// let _pk = keygen.public_key()?;
/// let gks = keygen.galois_keys_for_steps(&[1, -1, 8])?;
/// assert_eq!(gks.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KeyGenerator {
    params: BfvParams,
    rng: BfvRng,
    sk: SecretKey,
}

impl KeyGenerator {
    /// Creates a generator with a reproducible seed.
    pub fn from_seed(params: BfvParams, seed: u64) -> Self {
        let mut rng = BfvRng::from_seed(seed, params.sigma());
        let sk = Self::sample_secret(&params, &mut rng);
        Self { params, rng, sk }
    }

    /// Creates a generator seeded from OS entropy.
    pub fn from_entropy(params: BfvParams) -> Self {
        let mut rng = BfvRng::from_entropy(params.sigma());
        let sk = Self::sample_secret(&params, &mut rng);
        Self { params, rng, sk }
    }

    fn sample_secret(params: &BfvParams, rng: &mut BfvRng) -> SecretKey {
        let mut s = rng.ternary_rns(params.chain());
        s.to_eval(params.chain());
        SecretKey {
            s,
            params: params.clone(),
        }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Generates a fresh public key.
    ///
    /// # Errors
    ///
    /// Propagates polynomial arithmetic errors (cannot occur for matched
    /// parameters).
    pub fn public_key(&mut self) -> Result<PublicKey> {
        let chain = self.params.chain().clone();
        let a = self.rng.uniform_rns(&chain, Representation::Eval);
        let mut e = self.rng.noise_rns(&chain);
        e.to_eval(&chain);
        // pk0 = -(a*s + e)
        let mut pk0 = a.clone();
        pk0.mul_assign_pointwise(self.sk.poly(), &chain)?;
        pk0.add_assign(&e, &chain)?;
        pk0.negate(&chain);
        Ok(PublicKey {
            pk0,
            pk1: a,
            params: self.params.clone(),
        })
    }

    /// Generates a public key whose uniform component `pk1 = a` is expanded
    /// from a fresh 64-bit seed (via [`crate::sampling::expand_uniform`]),
    /// so the key can ship over the wire as (seed, pk0) at half the bytes —
    /// see [`crate::wire::encode_public_key_seeded`]. Returns the key
    /// together with the seed that regenerates its `pk1`.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic errors from the pk0 assembly.
    pub fn public_key_seeded(&mut self) -> Result<(PublicKey, u64)> {
        let chain = self.params.chain().clone();
        let seed = self.rng.next_seed();
        let a = crate::sampling::expand_uniform(seed, &chain);
        let mut e = self.rng.noise_rns(&chain);
        e.to_eval(&chain);
        // pk0 = -(a*s + e)
        let mut pk0 = a.clone();
        pk0.mul_assign_pointwise(self.sk.poly(), &chain)?;
        pk0.add_assign(&e, &chain)?;
        pk0.negate(&chain);
        Ok((
            PublicKey {
                pk0,
                pk1: a,
                params: self.params.clone(),
            },
            seed,
        ))
    }

    /// Generates the Galois key for element `g` with the parameter set's
    /// ciphertext decomposition base: one RLWE pair per (limb, digit) of
    /// the RNS-native decomposition, pair `(i, d)` encrypting
    /// `A^d·q̂_i·s(x^g)` (hybrid parameters: one pair per limb over the
    /// extended chain `[q_0 … q_{l-1}, P]`, encrypting `P·q̂_i·s(x^g)`).
    /// Forks the key's stream exactly as a one-element batch would, so a
    /// sequence of calls matches one
    /// [`KeyGenerator::galois_keys_for_steps`] over the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGaloisElement`] unless `g` is odd and lies
    /// in `1..2n` (the automorphism group `x ↦ x^g` of the 2n-th
    /// cyclotomic); propagates arithmetic errors otherwise.
    pub fn galois_key(&mut self, g: u64) -> Result<GaloisKey> {
        check_galois_element(self.params.degree(), g)?;
        let mut rng = self.rng.fork();
        KeyRecipe::new(self).build(g, &mut rng)
    }

    /// The one Galois key generator every entry point routes through.
    ///
    /// Validates every element first, then walks them in order, skipping
    /// those already in `keys` or earlier in the list, and forks one key
    /// stream per new element from the main stream. The keys are then
    /// built from their own streams by up to `threads` workers (see
    /// [`KeyRecipe::build_all`]); each key depends only on the
    /// parameters, its stream and its element, so the set is
    /// bit-identical for every thread count. Nothing is inserted unless
    /// every key builds; the error returned is the first in element
    /// order.
    fn generate_into(
        &mut self,
        keys: &mut GaloisKeys,
        elements: &[u64],
        threads: usize,
    ) -> Result<()> {
        let n = self.params.degree();
        for &g in elements {
            check_galois_element(n, g)?;
        }
        let mut jobs: Vec<(u64, BfvRng)> = Vec::new();
        for &g in elements {
            if !keys.contains(g) && jobs.iter().all(|(e, _)| *e != g) {
                jobs.push((g, self.rng.fork()));
            }
        }
        if jobs.is_empty() {
            return Ok(());
        }
        for key in KeyRecipe::new(self).build_all(jobs, threads)? {
            keys.insert(key);
        }
        Ok(())
    }

    /// The secret key's ternary coefficients re-lifted onto `chain`
    /// (evaluation form): limb plane 0 of the data chain is decoded back
    /// to `{−1, 0, 1}` and CRT-lifted, extending `s` to the special prime
    /// without touching the RNG stream. Hybrid parameters sharing a data
    /// chain and seed with a digit twin therefore hold the *same* secret
    /// and produce identical encryptions; only key material diverges.
    fn secret_on(&self, chain: &ModulusChain) -> RnsPoly {
        let data = self.params.chain();
        let mut s = self.sk.poly().clone();
        s.to_coeff(data);
        let q0 = data.modulus(0).value();
        let signed: Vec<i64> = s
            .limb(0)
            .iter()
            .map(|&c| {
                if c == 0 {
                    0
                } else if c == 1 {
                    1
                } else {
                    debug_assert_eq!(c, q0 - 1, "secret must be ternary");
                    -1
                }
            })
            .collect();
        let mut out = RnsPoly::from_signed(&signed, chain);
        out.to_eval(chain);
        out
    }

    /// Galois element realizing a row rotation by `steps`
    /// (positive = left). `steps == 0` is invalid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRotation`] for out-of-range steps.
    pub fn element_for_step(&self, steps: i64) -> Result<u64> {
        element_for_step(self.params.degree(), steps)
    }

    /// Galois element for the row swap (`x ↦ x^{2n−1}`).
    pub fn element_for_row_swap(&self) -> u64 {
        2 * self.params.degree() as u64 - 1
    }

    /// Generates keys for a set of row-rotation steps (one key per
    /// distinct Galois element).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRotation`] for any invalid step.
    pub fn galois_keys_for_steps(&mut self, steps: &[i64]) -> Result<GaloisKeys> {
        let mut keys = GaloisKeys::default();
        self.extend_galois_keys(&mut keys, steps)?;
        Ok(keys)
    }

    /// Generates keys for all power-of-two rotations (both directions) plus
    /// the row swap — enough to compose any rotation in ≤ log2(n/2) hops.
    ///
    /// # Errors
    ///
    /// Propagates key-generation errors.
    pub fn galois_keys_power_of_two(&mut self) -> Result<GaloisKeys> {
        let row = self.params.row_size() as i64;
        let mut elements = Vec::new();
        let mut p = 1i64;
        while p < row {
            elements.push(self.element_for_step(p)?);
            elements.push(self.element_for_step(-p)?);
            p <<= 1;
        }
        elements.push(self.element_for_row_swap());
        let mut keys = GaloisKeys::default();
        self.generate_into(&mut keys, &elements, worker_threads())?;
        Ok(keys)
    }

    /// Extends an existing key set with additional rotation steps. Keys
    /// already present are kept and draw nothing, so extending a set
    /// yields the same keys as generating the union in one call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRotation`] for any invalid step (the set is
    /// then left unchanged).
    pub fn extend_galois_keys(&mut self, keys: &mut GaloisKeys, steps: &[i64]) -> Result<()> {
        let elements = steps
            .iter()
            .map(|&s| self.element_for_step(s))
            .collect::<Result<Vec<_>>>()?;
        self.generate_into(keys, &elements, worker_threads())
    }
}

/// Worker count for key-set generation: every available core.
fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// What every Galois key of one key set shares, built once per batch and
/// read by every worker: the key-switch chain, the secret over it, and
/// each pair's per-plane scale as a Shoup constant.
struct KeyRecipe<'a> {
    chain: &'a ModulusChain,
    secret: Cow<'a, RnsPoly>,
    /// `scales[pair][plane]`: the signal factor pair `pair` encrypts.
    scales: Vec<Vec<ShoupPrecomp>>,
}

impl<'a> KeyRecipe<'a> {
    /// Digit parameters key over the data chain with the secret as is;
    /// pair `(i, d)` (limb-major) scales by `A^d·q̂_i`. For one limb
    /// `q̂_0 = 1`, which replays the historical `A^d` progression.
    ///
    /// Hybrid (special-prime) parameters key over the *extended* chain
    /// `[q_0 … q_{l-1}, P]` with one pair per limb, pair `i` scaling by
    /// `P·q̂_i` — which is `[P·q̂_i]_{q_k}` on every data plane and exactly
    /// `0` on the special plane (`P` divides the signal). The full-chain
    /// `q̂_i` keeps the level-prefix property: a level-`ℓ` switch consumes
    /// pairs `i < live` on planes `[0..live) ∪ {special}`, so one level-0
    /// key set serves every level. The secret is lifted onto the extended
    /// chain once here ([`KeyGenerator::secret_on`]) and shared by every
    /// key.
    fn new(kg: &'a KeyGenerator) -> Self {
        let params = &kg.params;
        let data = params.chain();
        let limbs = data.limbs();
        let shoup = |scale: &[u64], chain: &ModulusChain| -> Vec<ShoupPrecomp> {
            scale
                .iter()
                .zip(chain.moduli())
                .map(|(&sc, q)| ShoupPrecomp::new(sc, q))
                .collect()
        };
        if params.has_special() {
            let ks = params.ks_chain_at(0);
            let p_special = ks.modulus(limbs).value();
            let scales = (0..limbs)
                .map(|i| {
                    let mut scale: Vec<u64> = (0..limbs)
                        .map(|k| {
                            let q = ks.modulus(k);
                            q.mul_mod(q.reduce(p_special), data.crt().qhat_mod(i, k))
                        })
                        .collect();
                    scale.push(0);
                    shoup(&scale, ks)
                })
                .collect();
            return Self {
                chain: ks,
                secret: Cow::Owned(kg.secret_on(ks)),
                scales,
            };
        }
        let a_base = params.a_dcmp();
        let mut scales = Vec::with_capacity(params.l_ct());
        for i in 0..limbs {
            let mut scale: Vec<u64> = (0..limbs).map(|k| data.crt().qhat_mod(i, k)).collect();
            for _ in 0..data.limb_decomposition_levels(a_base, i) {
                scales.push(shoup(&scale, data));
                for (sc, q) in scale.iter_mut().zip(data.moduli()) {
                    *sc = q.mul_mod(*sc, q.reduce(a_base));
                }
            }
        }
        Self {
            chain: data,
            secret: Cow::Borrowed(kg.sk.poly()),
            scales,
        }
    }

    /// Builds the keys for `(element, key stream)` jobs, in job order, in
    /// two phases that each hand out small tasks through
    /// [`pull_in_parallel`]: first every key draws its pairs from its own
    /// stream (a key per task), then every pair is transformed and
    /// assembled (a pair per task). Keys draw exactly as
    /// [`KeyRecipe::build`] does, so which worker runs a task does not
    /// affect any bit; the error returned is the first in job order.
    fn build_all(&self, jobs: Vec<(u64, BfvRng)>, threads: usize) -> Result<Vec<GaloisKey>> {
        let drawn = pull_in_parallel(jobs, threads, |(g, mut rng)| self.draw(g, &mut rng))
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let mut tasks = Vec::with_capacity(drawn.len() * self.scales.len());
        let mut shells = Vec::with_capacity(drawn.len());
        for (k, key) in drawn.into_iter().enumerate() {
            for ((a, e), scale) in key.draws.into_iter().zip(&self.scales) {
                tasks.push((k, scale, a, e));
            }
            shells.push((key.element, key.perm, key.s_g));
        }
        let mut pairs = pull_in_parallel(tasks, threads, |(k, scale, a, e)| {
            self.assemble(&shells[k].2, scale, a, e)
        })
        .into_iter();
        Ok(shells
            .into_iter()
            .map(|(element, perm, _)| GaloisKey {
                element,
                pairs: pairs.by_ref().take(self.scales.len()).collect(),
                perm,
            })
            .collect())
    }

    /// One key, serially, from its own stream `rng`.
    fn build(&self, g: u64, rng: &mut BfvRng) -> Result<GaloisKey> {
        let key = self.draw(g, rng)?;
        let pairs = key
            .draws
            .into_iter()
            .zip(&self.scales)
            .map(|((a, e), scale)| self.assemble(&key.s_g, scale, a, e))
            .collect();
        Ok(GaloisKey {
            element: g,
            pairs,
            perm: key.perm,
        })
    }

    /// Everything a key draws from its stream `rng`: per pair, a uniform
    /// `a` then a noise `e` (in that order). Also makes `s(x^g)` in
    /// evaluation form via the NTT-domain permutation (one permutation
    /// table drives every limb plane).
    fn draw(&self, g: u64, rng: &mut BfvRng) -> Result<DrawnKey> {
        let chain = self.chain;
        let perm = chain.table(0).try_galois_permutation(g)?;
        let mut s_g = RnsPoly::zero(chain, Representation::Eval);
        s_g.permute_from(&self.secret, &perm);
        let draws = self
            .scales
            .iter()
            .map(|_| {
                let a = rng.uniform_rns(chain, Representation::Eval);
                (a, rng.noise_rns(chain))
            })
            .collect();
        Ok(DrawnKey {
            element: g,
            perm,
            s_g,
            draws,
        })
    }

    /// One pair `(k0, a)` from its draws: `k0 = scale·s(x^g) − (a·s + e)`
    /// assembled in a single pass per plane into `e`'s buffer after its
    /// NTT. Every step is a canonical residue, so the result is
    /// bit-identical to the unfused `−(a·s + e) + scale·s(x^g)` sequence
    /// over the same draws.
    fn assemble(
        &self,
        s_g: &RnsPoly,
        scale: &[ShoupPrecomp],
        a: RnsPoly,
        mut k0: RnsPoly,
    ) -> (RnsPoly, RnsPoly) {
        let chain = self.chain;
        k0.to_eval(chain);
        for (k, w) in scale.iter().enumerate() {
            let q = chain.modulus(k);
            let planes = a.limb(k).iter().zip(self.secret.limb(k)).zip(s_g.limb(k));
            for (e, ((&a, &s), &sg)) in k0.limb_mut(k).iter_mut().zip(planes) {
                *e = q.sub_mod(w.mul(sg, q), q.add_mod(q.mul_mod(a, s), *e));
            }
        }
        (k0, a)
    }
}

/// A Galois key's draws before its pairs are assembled: the permutation
/// for `x ↦ x^g`, `s(x^g)`, and per pair the uniform `a` and the noise `e`
/// (coefficient form).
struct DrawnKey {
    element: u64,
    perm: Vec<u32>,
    s_g: RnsPoly,
    draws: Vec<(RnsPoly, RnsPoly)>,
}

/// Maps `f` over `tasks` on the calling thread and `threads − 1` helpers
/// and returns the results in task order. Each worker pulls the next task
/// whenever it is free, so a worker on a slower or busier core takes fewer
/// tasks instead of holding the others up at the join, as a fixed split
/// would.
fn pull_in_parallel<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, tasks.len().max(1));
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The lock only guards `next`, which leaves the iterator valid
            // even if another worker panicked while holding it.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, task)) = next else {
                return done;
            };
            done.push((i, f(task)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Computes the Galois element `3^k mod 2n` realizing a left row-rotation
/// by `steps` (negative steps rotate right).
///
/// Steps wrap around the row: any `steps` with the same
/// `steps mod (n/2)` maps to the same element, so `row + 1` rotates like
/// `1` — the shared semantics of [`crate::Evaluator::rotate_rows`] and
/// [`crate::Evaluator::rotate_rows_composed`]. Computed by
/// square-and-multiply (`O(log k)` word multiplications, not the `O(k)`
/// scan that used to cost up to `n/2 − 1` iterations per lookup).
///
/// # Errors
///
/// Returns [`Error::InvalidRotation`] if `steps ≡ 0 (mod n/2)` — the
/// identity rotation has no Galois element (callers special-case it).
/// Errors unless `g` is a valid Galois element for degree `n`: odd and in
/// `1..2n`. Shared by key generation and wire decoding, so a malformed
/// element is rejected before any permutation table is built.
pub fn check_galois_element(n: usize, g: u64) -> Result<()> {
    if g % 2 == 1 && g >= 1 && g < 2 * n as u64 {
        Ok(())
    } else {
        Err(Error::InvalidGaloisElement(g))
    }
}

pub fn element_for_step(n: usize, steps: i64) -> Result<u64> {
    let row = (n / 2) as i64;
    let k = steps.rem_euclid(row) as u64;
    if k == 0 {
        return Err(Error::InvalidRotation(steps));
    }
    let m = 2 * n as u64;
    // 3^k mod m by square-and-multiply; operands < 2n ≤ 2^63 so the
    // widening product fits u128.
    let mut g = 1u64;
    let mut base = 3u64 % m;
    let mut e = k;
    while e > 0 {
        if e & 1 == 1 {
            g = ((g as u128 * base as u128) % m as u128) as u64;
        }
        base = ((base as u128 * base as u128) % m as u128) as u64;
        e >>= 1;
    }
    Ok(g)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Asserts two key sets hold the same elements with bit-identical
    /// pairs and permutations (without printing whole polynomials).
    fn assert_same_keys(a: &GaloisKeys, b: &GaloisKeys) {
        assert_eq!(a.len(), b.len());
        for g in a.elements() {
            let (ka, kb) = (a.get(g).unwrap(), b.get(g).unwrap());
            assert!(ka.pairs() == kb.pairs(), "pairs differ for element {g}");
            assert_eq!(ka.permutation(), kb.permutation(), "element {g}");
        }
    }

    fn params() -> BfvParams {
        BfvParams::builder()
            .degree(1024)
            .plain_bits(16)
            .cipher_bits(27)
            .build()
            .unwrap()
    }

    #[test]
    fn secret_key_is_ternary_in_coeff_form() {
        let p = params();
        let kg = KeyGenerator::from_seed(p.clone(), 1);
        let mut s = kg.secret_key().poly().clone();
        s.to_coeff(p.chain());
        for (i, q) in p.chain().moduli().iter().enumerate() {
            for &c in s.limb(i) {
                assert!(c == 0 || c == 1 || c == q.value() - 1);
            }
        }
    }

    #[test]
    fn public_key_is_rlwe_sample() {
        // pk0 + pk1*s should be small (= -e): verify by computing it.
        let p = params();
        let mut kg = KeyGenerator::from_seed(p.clone(), 2);
        let pk = kg.public_key().unwrap();
        let chain = p.chain();
        let mut check = pk.pk1().clone();
        check
            .mul_assign_pointwise(kg.secret_key().poly(), chain)
            .unwrap();
        check.add_assign(pk.pk0(), chain).unwrap();
        check.to_coeff(chain);
        let norm = check.inf_norm_centered(chain).unwrap();
        // |e| <= CBD bound = round(2*sigma^2) = 20 or so.
        assert!(norm <= 64, "pk residual too large: {norm}");
        assert!(norm > 0, "error should be nonzero");
    }

    #[test]
    fn multi_limb_public_key_is_rlwe_sample() {
        let p = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(p.clone(), 8);
        let pk = kg.public_key().unwrap();
        let chain = p.chain();
        let mut check = pk.pk1().clone();
        check
            .mul_assign_pointwise(kg.secret_key().poly(), chain)
            .unwrap();
        check.add_assign(pk.pk0(), chain).unwrap();
        check.to_coeff(chain);
        let norm = check.inf_norm_centered(chain).unwrap();
        assert!(norm <= 64, "pk residual too large across limbs: {norm}");
        assert!(norm > 0);
    }

    #[test]
    fn element_for_step_values() {
        // n = 8 -> m = 16, row = 4.
        assert_eq!(element_for_step(8, 1).unwrap(), 3);
        assert_eq!(element_for_step(8, 2).unwrap(), 9);
        assert_eq!(element_for_step(8, 3).unwrap(), 27 % 16);
        // negative wraps: -1 == row-1 = 3 steps
        assert_eq!(
            element_for_step(8, -1).unwrap(),
            element_for_step(8, 3).unwrap()
        );
        // multiples of the row are the identity: no element.
        assert!(element_for_step(8, 0).is_err());
        assert!(element_for_step(8, 4).is_err());
        assert!(element_for_step(8, -4).is_err());
        assert!(element_for_step(8, 8).is_err());
        // everything else wraps around the row.
        assert_eq!(
            element_for_step(8, 5).unwrap(),
            element_for_step(8, 1).unwrap()
        );
        assert_eq!(
            element_for_step(8, -5).unwrap(),
            element_for_step(8, 3).unwrap()
        );
    }

    #[test]
    fn element_for_step_matches_iterative_form_across_full_range() {
        // Pin the square-and-multiply against the historical O(k) scan for
        // every step the row supports, at the largest supported degree.
        for n in [1024usize, 8192] {
            let row = n / 2;
            let m = 2 * n as u64;
            let mut g_iter = 1u64;
            for k in 1..row {
                g_iter = g_iter * 3 % m;
                assert_eq!(
                    element_for_step(n, k as i64).unwrap(),
                    g_iter,
                    "n={n} k={k}"
                );
            }
            // And through the wrap-around on a few offsets.
            for k in [1i64, 7, (row - 1) as i64] {
                assert_eq!(
                    element_for_step(n, k + row as i64).unwrap(),
                    element_for_step(n, k).unwrap(),
                    "n={n} wrapped k={k}"
                );
            }
        }
    }

    #[test]
    fn galois_key_count_matches_l_ct() {
        let p = params();
        let mut kg = KeyGenerator::from_seed(p.clone(), 3);
        let gk = kg.galois_key(3).unwrap();
        assert_eq!(gk.pairs().len(), p.l_ct());
        assert_eq!(gk.permutation().len(), p.degree());
    }

    #[test]
    fn galois_keys_for_steps_dedupes() {
        let p = params();
        let row = p.row_size() as i64;
        let mut kg = KeyGenerator::from_seed(p, 4);
        // steps 1 and 1-row alias to the same element.
        let keys = kg.galois_keys_for_steps(&[1, 1 - row]).unwrap();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn power_of_two_keyset_covers_log_steps() {
        let p = params();
        let mut kg = KeyGenerator::from_seed(p.clone(), 5);
        let keys = kg.galois_keys_power_of_two().unwrap();
        // log2(512) forward + backward + swap, minus aliases.
        assert!(keys.len() >= 10);
        assert!(keys.contains(kg.element_for_row_swap()));
        assert!(keys.byte_size(&p) > 0);
    }

    #[test]
    fn key_byte_size_scales_with_limbs_and_digits() {
        let p1 = BfvParams::preset_single_60(4096).unwrap();
        let p2 = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg1 = KeyGenerator::from_seed(p1.clone(), 6);
        let mut kg2 = KeyGenerator::from_seed(p2.clone(), 6);
        let k1 = kg1.galois_keys_for_steps(&[1]).unwrap();
        let k2 = kg2.galois_keys_for_steps(&[1]).unwrap();
        // Per-limb decomposition: one 60-bit limb carries ceil(60/20) = 3
        // digits; two 30-bit limbs carry 2·ceil(30/20) = 4 digits, each
        // over twice the planes.
        assert_eq!(k1.byte_size(&p1), 3 * 2 * 4096 * 8);
        assert_eq!(k2.byte_size(&p2), 4 * 2 * 2 * 4096 * 8);
    }

    #[test]
    fn multi_limb_pairs_are_rlwe_samples_of_scaled_secret() {
        // Every pair (i, d) must satisfy k0 + k1·s = A^d·q̂_i·s(x^g) + e
        // with small e — the invariant the RNS-native key switch consumes.
        let p = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(p.clone(), 10);
        let g = kg.element_for_step(1).unwrap();
        let key = kg.galois_key(g).unwrap();
        let chain = p.chain();
        assert_eq!(key.pairs().len(), p.l_ct());

        let mut s_g = RnsPoly::zero(chain, Representation::Eval);
        s_g.permute_from(kg.secret_key().poly(), key.permutation());

        let mut idx = 0;
        for i in 0..chain.limbs() {
            let levels_i = chain.limb_decomposition_levels(p.a_dcmp(), i);
            for d in 0..levels_i {
                let (k0, k1) = &key.pairs()[idx];
                // residual = k0 + k1·s − A^d·q̂_i·s(x^g) must be small.
                let mut residual = k1.clone();
                residual
                    .mul_assign_pointwise(kg.secret_key().poly(), chain)
                    .unwrap();
                residual.add_assign(k0, chain).unwrap();
                let mut scaled = s_g.clone();
                for (k, q) in chain.moduli().iter().enumerate() {
                    let mut sc = chain.crt().qhat_mod(i, k);
                    for _ in 0..d {
                        sc = q.mul_mod(sc, q.reduce(p.a_dcmp()));
                    }
                    crate::poly::mul_scalar_slice(scaled.limb_mut(k), sc, q);
                }
                residual.sub_assign(&scaled, chain).unwrap();
                residual.to_coeff(chain);
                let norm = residual.inf_norm_centered(chain).unwrap();
                assert!(norm <= 64, "pair ({i},{d}) residual too large: {norm}");
                idx += 1;
            }
        }
        assert_eq!(idx, key.pairs().len());
    }

    #[test]
    fn hybrid_pairs_are_rlwe_samples_of_p_scaled_secret() {
        // Every hybrid pair i must satisfy k0 + k1·s = P·q̂_i·s(x^g) + e
        // over the extended chain [q_0, q_1, P], with the signal exactly
        // zero on the special plane.
        let p = BfvParams::preset_hybrid_2x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(p.clone(), 10);
        let g = kg.element_for_step(1).unwrap();
        let key = kg.galois_key(g).unwrap();
        let data = p.chain();
        let ks = p.ks_chain_at(0);
        let limbs = data.limbs();
        let p_val = p.special().unwrap().value();
        assert_eq!(key.pairs().len(), limbs);

        let s_ks = kg.secret_on(ks);
        let mut s_g = RnsPoly::zero(ks, Representation::Eval);
        s_g.permute_from(&s_ks, key.permutation());

        for (i, (k0, k1)) in key.pairs().iter().enumerate() {
            assert_eq!(k0.limbs(), limbs + 1);
            let mut residual = k1.clone();
            residual.mul_assign_pointwise(&s_ks, ks).unwrap();
            residual.add_assign(k0, ks).unwrap();
            let mut scaled = s_g.clone();
            for k in 0..=limbs {
                let q = ks.modulus(k);
                let sc = if k < limbs {
                    q.mul_mod(q.reduce(p_val), data.crt().qhat_mod(i, k))
                } else {
                    0
                };
                crate::poly::mul_scalar_slice(scaled.limb_mut(k), sc, q);
            }
            residual.sub_assign(&scaled, ks).unwrap();
            residual.to_coeff(ks);
            let norm = residual.inf_norm_centered(ks).unwrap();
            assert!(norm <= 64, "hybrid pair {i} residual too large: {norm}");
            assert!(norm > 0);
        }
        assert_eq!(GaloisKeys::default().byte_size(&p), 0,);
        let mut set = GaloisKeys::default();
        set.insert(key);
        assert_eq!(set.byte_size(&p), limbs * 2 * (limbs + 1) * 4096 * 8);
    }

    #[test]
    fn key_sets_are_bit_identical_across_thread_counts() {
        for p in [
            params(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            let elements: Vec<u64> = [1i64, 2, -1, 5]
                .iter()
                .map(|&s| element_for_step(p.degree(), s).unwrap())
                .collect();
            let generate = |threads| {
                let mut kg = KeyGenerator::from_seed(p.clone(), 21);
                let mut keys = GaloisKeys::default();
                kg.generate_into(&mut keys, &elements, threads).unwrap();
                (keys, kg.rng.next_seed())
            };
            let (serial, serial_next) = generate(1);
            assert_eq!(serial.len(), elements.len());
            for threads in [2, 3, 16] {
                let (parallel, next) = generate(threads);
                assert_same_keys(&parallel, &serial);
                assert_eq!(next, serial_next, "main stream advanced differently");
            }
        }
    }

    #[test]
    fn pull_in_parallel_returns_every_result_in_task_order() {
        for threads in [1, 2, 3, 16] {
            for count in [0usize, 1, 5, 40] {
                // With two or more workers, tasks 0 and 1 meet at a
                // barrier, so they run on different workers and the
                // results are merged from more than one worker.
                let meet = (threads > 1 && count > 1).then(|| std::sync::Barrier::new(2));
                let out = pull_in_parallel((0..count).collect(), threads, |i| {
                    if let Some(meet) = meet.as_ref().filter(|_| i < 2) {
                        meet.wait();
                    }
                    i * 7
                });
                let want: Vec<usize> = (0..count).map(|i| i * 7).collect();
                assert_eq!(out, want, "threads={threads} count={count}");
            }
        }
    }

    #[test]
    fn batch_equals_sequential_galois_key_calls() {
        for p in [params(), BfvParams::preset_hybrid_2x36(4096).unwrap()] {
            let steps = [1i64, 3, -2];
            let batch = KeyGenerator::from_seed(p.clone(), 22)
                .galois_keys_for_steps(&steps)
                .unwrap();
            let mut kg = KeyGenerator::from_seed(p, 22);
            let mut sequential = GaloisKeys::default();
            for &s in &steps {
                let g = kg.element_for_step(s).unwrap();
                sequential.insert(kg.galois_key(g).unwrap());
            }
            assert_same_keys(&batch, &sequential);
        }
    }

    #[test]
    fn extending_a_set_matches_one_call() {
        let p = BfvParams::preset_rns_2x30(4096).unwrap();
        let row = p.row_size() as i64;
        let mut kg = KeyGenerator::from_seed(p.clone(), 23);
        let mut keys = kg.galois_keys_for_steps(&[1, 2]).unwrap();
        // Present (2) and aliased (1 - row ≡ 1) steps draw nothing.
        kg.extend_galois_keys(&mut keys, &[2, 4, 1 - row, 8])
            .unwrap();
        let whole = KeyGenerator::from_seed(p, 23)
            .galois_keys_for_steps(&[1, 2, 4, 8])
            .unwrap();
        assert_same_keys(&keys, &whole);
        // An invalid step anywhere leaves the set untouched.
        assert!(matches!(
            kg.extend_galois_keys(&mut keys, &[16, 0]),
            Err(Error::InvalidRotation(0))
        ));
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn fused_assembly_matches_unfused_arithmetic() {
        // Replay each key's derived stream through the historical
        // clone/mul/add/negate/scale/add sequence: the fused pass must
        // land on the same bits.
        for p in [
            BfvParams::preset_rns_2x30(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            let kg = KeyGenerator::from_seed(p.clone(), 24);
            let recipe = KeyRecipe::new(&kg);
            let chain = recipe.chain;
            let g = kg.element_for_step(3).unwrap();
            let seed = 0x5eed_0001;
            let key = recipe
                .build(g, &mut BfvRng::from_seed(seed, p.sigma()))
                .unwrap();
            assert_eq!(key.pairs().len(), recipe.scales.len());

            let mut s_g = RnsPoly::zero(chain, Representation::Eval);
            s_g.permute_from(&recipe.secret, key.permutation());
            let mut rng = BfvRng::from_seed(seed, p.sigma());
            for ((k0, k1), scale) in key.pairs().iter().zip(&recipe.scales) {
                let a = rng.uniform_rns(chain, Representation::Eval);
                let mut e = rng.noise_rns(chain);
                e.to_eval(chain);
                let mut want = a.clone();
                want.mul_assign_pointwise(&recipe.secret, chain).unwrap();
                want.add_assign(&e, chain).unwrap();
                want.negate(chain);
                let mut scaled = s_g.clone();
                for (k, w) in scale.iter().enumerate() {
                    crate::poly::mul_scalar_slice(scaled.limb_mut(k), w.operand, chain.modulus(k));
                }
                want.add_assign(&scaled, chain).unwrap();
                assert!(*k1 == a);
                assert!(*k0 == want);
            }
        }
    }

    #[test]
    fn key_streams_are_full_width_forks_not_64_bit_seeds() {
        // A key's noise is secret, so its stream must not be a
        // `seed_from_u64` stream that a 2^64 search over the public `a`
        // could recover: pair 0's `a` comes from a 256-bit fork.
        for p in [
            BfvParams::preset_rns_3x36(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            let mut kg = KeyGenerator::from_seed(p.clone(), 25);
            let g = kg.element_for_step(1).unwrap();
            let key = kg.galois_key(g).unwrap();
            let chain = KeyRecipe::new(&kg).chain;
            let a = &key.pairs()[0].1;

            let mut twin = KeyGenerator::from_seed(p.clone(), 25);
            let forked = twin.rng.fork().uniform_rns(chain, Representation::Eval);
            assert!(*a == forked);
            let mut twin = KeyGenerator::from_seed(p.clone(), 25);
            for _ in 0..4 {
                let word = twin.rng.next_seed();
                let narrow =
                    BfvRng::from_seed(word, p.sigma()).uniform_rns(chain, Representation::Eval);
                assert!(*a != narrow, "key stream is a 64-bit seed stream");
            }
        }
    }

    #[test]
    fn hybrid_secret_matches_digit_twin_secret() {
        // Same data chain, t, and seed: the hybrid params' secret (and
        // hence every encryption) is identical to the digit twin's — only
        // key material diverges.
        let c = crate::params::search_congruent_chain(4096, 16, &[36, 36], 36).unwrap();
        let digit = BfvParams::builder()
            .degree(4096)
            .plain_modulus(c.t)
            .moduli(c.data.clone())
            .build()
            .unwrap();
        let hybrid = BfvParams::builder()
            .degree(4096)
            .plain_modulus(c.t)
            .moduli(c.data)
            .special_modulus(c.special)
            .build()
            .unwrap();
        let kg_d = KeyGenerator::from_seed(digit, 77);
        let kg_h = KeyGenerator::from_seed(hybrid, 77);
        assert_eq!(
            kg_d.secret_key().poly().data(),
            kg_h.secret_key().poly().data()
        );
    }

    #[test]
    fn missing_key_error() {
        let keys = GaloisKeys::default();
        assert!(matches!(
            keys.get(3),
            Err(Error::MissingGaloisKey {
                element: 3,
                step: None
            })
        ));
        assert!(keys.is_empty());
    }

    #[test]
    fn missing_key_for_step_names_the_step() {
        let keys = GaloisKeys::default();
        let g = element_for_step(1024, 5).unwrap();
        match keys.get_for_step(1024, 5) {
            Err(Error::MissingGaloisKey { element, step }) => {
                assert_eq!(element, g);
                assert_eq!(step, Some(5));
            }
            other => panic!("expected MissingGaloisKey, got {other:?}"),
        }
        // Identity steps have no element at all.
        assert!(matches!(
            keys.get_for_step(1024, 0),
            Err(Error::InvalidRotation(0))
        ));
    }

    #[test]
    fn invalid_galois_elements_are_rejected() {
        let p = params();
        let mut kg = KeyGenerator::from_seed(p, 9);
        assert!(matches!(
            kg.galois_key(4),
            Err(Error::InvalidGaloisElement(4))
        ));
        assert!(matches!(
            kg.galois_key(2 * 1024 + 1),
            Err(Error::InvalidGaloisElement(_))
        ));
        assert!(kg.galois_key(3).is_ok());
    }
}
