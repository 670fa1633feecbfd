//! Randomness for RLWE: ternary secrets, centered-binomial noise, and
//! uniform polynomials.
//!
//! The encryption noise is drawn from a centered binomial distribution
//! CBD(k) with `k = round(2σ²)`, giving variance `k/2 ≈ σ²` — the
//! independent bounded discrete Gaussian (IBDG) the paper's statistical
//! noise model assumes (§IV-B). CBD is bounded by construction
//! (`|e| ≤ k`), which is what makes the `B = 6σ` worst-case bound of
//! Table III sound.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::arith::Modulus;
use crate::poly::{Poly, Representation};
use crate::rns::{ModulusChain, RnsPoly};

/// Source of randomness for key generation and encryption.
///
/// Wraps a seedable PRNG so experiments are reproducible; production users
/// would seed from the OS.
#[derive(Debug)]
pub struct BfvRng {
    rng: StdRng,
    cbd_k: u32,
}

impl BfvRng {
    /// Creates a generator from a seed, with noise parameter derived from
    /// `sigma` (CBD(k), `k = round(2σ²)`).
    pub fn from_seed(seed: u64, sigma: f64) -> Self {
        let cbd_k = (2.0 * sigma * sigma).round().max(1.0) as u32;
        Self {
            rng: StdRng::seed_from_u64(seed),
            cbd_k,
        }
    }

    /// Creates a generator seeded from the OS entropy pool.
    pub fn from_entropy(sigma: f64) -> Self {
        let cbd_k = (2.0 * sigma * sigma).round().max(1.0) as u32;
        Self {
            rng: StdRng::from_os_rng(),
            cbd_k,
        }
    }

    /// The CBD parameter `k` in use.
    pub fn cbd_k(&self) -> u32 {
        self.cbd_k
    }

    /// Worst-case bound on a single noise sample (`|e| ≤ k`).
    pub fn noise_bound(&self) -> u64 {
        self.cbd_k as u64
    }

    /// Samples a uniform polynomial over `[0, q)` in the given
    /// representation (uniform residues are uniform in either domain).
    pub fn uniform_poly(&mut self, n: usize, q: &Modulus, repr: Representation) -> Poly {
        let data = (0..n)
            .map(|_| self.rng.random_range(0..q.value()))
            .collect();
        Poly::from_data(data, repr)
    }

    /// Samples a ternary polynomial with coefficients in `{-1, 0, 1}`
    /// (uniform), in coefficient form — the RLWE secret distribution.
    pub fn ternary_poly(&mut self, n: usize, q: &Modulus) -> Poly {
        let data = (0..n)
            .map(|_| match self.rng.random_range(0..3u8) {
                0 => 0,
                1 => 1,
                _ => q.value() - 1, // -1 mod q
            })
            .collect();
        Poly::from_data(data, Representation::Coeff)
    }

    /// Samples one CBD(k) noise value in `[-k, k]`.
    pub fn noise_sample(&mut self) -> i64 {
        let k = self.cbd_k;
        let mut acc: i64 = 0;
        let mut remaining = k;
        while remaining > 0 {
            let chunk = remaining.min(32);
            let mask = if chunk == 32 {
                u32::MAX
            } else {
                (1u32 << chunk) - 1
            };
            let a = (self.rng.next_u32() & mask).count_ones() as i64;
            let b = (self.rng.next_u32() & mask).count_ones() as i64;
            acc += a - b;
            remaining -= chunk;
        }
        acc
    }

    /// Samples a noise polynomial (coefficient form).
    pub fn noise_poly(&mut self, n: usize, q: &Modulus) -> Poly {
        let data = (0..n).map(|_| q.from_signed(self.noise_sample())).collect();
        Poly::from_data(data, Representation::Coeff)
    }

    /// Samples a uniform value in `[0, bound)` (used for masking in the
    /// Gazelle protocol layer).
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        self.rng.random_range(0..bound)
    }

    // ------------------------------------------------------------------
    // RNS variants: one sample stream drives every limb plane.
    // ------------------------------------------------------------------

    /// Samples a polynomial uniform over `[0, Q)` in RNS form: each limb
    /// plane is drawn uniformly mod its own prime, which by CRT is exactly
    /// uniform mod the composed `Q`. For a 1-limb chain the draw sequence
    /// is identical to [`BfvRng::uniform_poly`].
    pub fn uniform_rns(&mut self, chain: &ModulusChain, repr: Representation) -> RnsPoly {
        RnsPoly::from_fn(chain, repr, |i, _| {
            self.rng.random_range(0..chain.modulus(i).value())
        })
    }

    /// Draws a fresh 64-bit seed from this generator's stream — the seed a
    /// seeded wire encoding ships in place of a full uniform polynomial
    /// (the receiver re-expands it with [`expand_uniform`]). Only public
    /// uniforms may come from such a seed: anyone can search 2^64 seeds.
    pub fn next_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Splits off an independent generator with the same noise parameter,
    /// seeded with a full-width (256-bit) seed drawn from this one's
    /// stream. Unlike a [`BfvRng::next_seed`] stream, a fork may draw
    /// secret noise: its seed is as hard to guess as this generator's
    /// state.
    pub fn fork(&mut self) -> Self {
        Self {
            rng: StdRng::from_rng(&mut self.rng),
            cbd_k: self.cbd_k,
        }
    }

    /// Samples a ternary polynomial with coefficients in `{-1, 0, 1}`
    /// (uniform), lifted into every limb plane (coefficient form) — the
    /// RLWE secret distribution over the chain. One trit is drawn per
    /// coefficient, exactly as in [`BfvRng::ternary_poly`].
    pub fn ternary_rns(&mut self, chain: &ModulusChain) -> RnsPoly {
        RnsPoly::from_signed_fn(chain, |_| match self.rng.random_range(0..3u8) {
            0 => 0,
            1 => 1,
            _ => -1,
        })
    }

    /// Samples a CBD(k) noise polynomial lifted into every limb plane
    /// (coefficient form). One noise value is drawn per coefficient,
    /// exactly as in [`BfvRng::noise_poly`].
    pub fn noise_rns(&mut self, chain: &ModulusChain) -> RnsPoly {
        RnsPoly::from_signed_fn(chain, |_| self.noise_sample())
    }
}

/// Expands a 64-bit seed into the uniform Eval-domain polynomial the seed
/// stands for on the wire: a dedicated `StdRng` stream drawing limb-major,
/// exactly the draw order of [`BfvRng::uniform_rns`]. Both ends of a
/// seeded encoding call this, so `expand_uniform(seed, chain)` is the
/// *definition* of the `c1` / `pk1` component a (seed, c0) message omits.
pub fn expand_uniform(seed: u64, chain: &ModulusChain) -> RnsPoly {
    let mut rng = StdRng::seed_from_u64(seed);
    RnsPoly::from_fn(chain, Representation::Eval, |i, _| {
        rng.random_range(0..chain.modulus(i).value())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Modulus {
        Modulus::new(crate::arith::generate_ntt_prime(30, 1024).unwrap()).unwrap()
    }

    #[test]
    fn ternary_values_are_ternary() {
        let q = q();
        let mut rng = BfvRng::from_seed(1, 3.2);
        let p = rng.ternary_poly(1024, &q);
        for &c in p.data() {
            assert!(c == 0 || c == 1 || c == q.value() - 1);
        }
    }

    #[test]
    fn cbd_statistics_match_sigma() {
        let mut rng = BfvRng::from_seed(2, 3.2);
        assert_eq!(rng.cbd_k(), 20); // round(2 * 3.2^2) = round(20.48)
        let samples: Vec<i64> = (0..20000).map(|_| rng.noise_sample()).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert!(mean.abs() < 0.15, "mean {mean}");
        // variance should be k/2 = 10 (close to sigma^2 = 10.24)
        assert!((var - 10.0).abs() < 1.0, "var {var}");
        let bound = rng.noise_bound() as i64;
        assert!(samples.iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn uniform_poly_in_range_and_seed_reproducible() {
        let q = q();
        let mut r1 = BfvRng::from_seed(42, 3.2);
        let mut r2 = BfvRng::from_seed(42, 3.2);
        let a = r1.uniform_poly(256, &q, Representation::Eval);
        let b = r2.uniform_poly(256, &q, Representation::Eval);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&v| v < q.value()));
    }

    #[test]
    fn single_limb_rns_sampling_matches_poly_sampling() {
        let q = q();
        let chain = ModulusChain::new(1024, &[q.value()]).unwrap();
        let mut scalar = BfvRng::from_seed(77, 3.2);
        let mut rns = BfvRng::from_seed(77, 3.2);

        let a = scalar.uniform_poly(1024, &q, Representation::Eval);
        let b = rns.uniform_rns(&chain, Representation::Eval);
        assert_eq!(a.data(), b.limb(0));

        let a = scalar.ternary_poly(1024, &q);
        let b = rns.ternary_rns(&chain);
        assert_eq!(a.data(), b.limb(0));

        let a = scalar.noise_poly(1024, &q);
        let b = rns.noise_rns(&chain);
        assert_eq!(a.data(), b.limb(0));
    }

    #[test]
    fn multi_limb_planes_agree_on_signed_lift() {
        let values = crate::arith::generate_ntt_primes(30, 512, 2).unwrap();
        let chain = ModulusChain::new(512, &values).unwrap();
        let mut rng = BfvRng::from_seed(5, 3.2);
        let s = rng.ternary_rns(&chain);
        let (q0, q1) = (chain.modulus(0), chain.modulus(1));
        for j in 0..512 {
            assert_eq!(q0.center(s.limb(0)[j]), q1.center(s.limb(1)[j]));
        }
    }

    #[test]
    fn multi_limb_noise_lift_matches_signed_lift() {
        // The buffer-free lift draws the same stream and lands on the
        // same residues as lifting the collected samples.
        let values = crate::arith::generate_ntt_primes(30, 512, 3).unwrap();
        let chain = ModulusChain::new(512, &values).unwrap();
        let mut direct = BfvRng::from_seed(11, 3.2);
        let mut collected = BfvRng::from_seed(11, 3.2);
        let e = direct.noise_rns(&chain);
        let samples: Vec<i64> = (0..512).map(|_| collected.noise_sample()).collect();
        assert_eq!(e, RnsPoly::from_signed(&samples, &chain));
        assert_eq!(direct.next_seed(), collected.next_seed());
    }

    #[test]
    fn fork_is_seeded_from_256_bits_of_the_stream() {
        let mut main = BfvRng::from_seed(12, 3.2);
        let mut twin = BfvRng::from_seed(12, 3.2);
        let mut fork = main.fork();
        assert_eq!(fork.cbd_k(), main.cbd_k());
        let words: Vec<u64> = (0..4).map(|_| twin.next_seed()).collect();
        // The fork consumed four words of the main stream...
        assert_eq!(main.next_seed(), twin.next_seed());
        // ...and is none of the streams a 64-bit seed among them names.
        let first = fork.next_seed();
        for &w in &words {
            assert_ne!(first, BfvRng::from_seed(w, 3.2).next_seed());
        }
    }

    #[test]
    fn expand_uniform_is_deterministic_and_canonical() {
        let values = crate::arith::generate_ntt_primes(30, 512, 3).unwrap();
        let chain = ModulusChain::new(512, &values).unwrap();
        let a = expand_uniform(0xDEAD_BEEF, &chain);
        let b = expand_uniform(0xDEAD_BEEF, &chain);
        assert_eq!(a, b);
        let c = expand_uniform(0xDEAD_BEF0, &chain);
        assert_ne!(a, c);
        for i in 0..3 {
            let q = chain.modulus(i).value();
            assert!(a.limb(i).iter().all(|&v| v < q));
        }
    }

    #[test]
    fn large_sigma_uses_multiple_chunks() {
        // sigma large enough that k > 32 exercises the chunked path.
        let mut rng = BfvRng::from_seed(3, 6.0);
        assert_eq!(rng.cbd_k(), 72);
        let s: Vec<i64> = (0..5000).map(|_| rng.noise_sample()).collect();
        let var: f64 = s.iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / s.len() as f64;
        assert!((var - 36.0).abs() < 4.0, "var {var}");
    }
}
