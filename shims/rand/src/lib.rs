//! Offline stand-in for the `rand` crate (API subset used by this
//! workspace — see `shims/README.md`).
//!
//! `StdRng` is a xoshiro256** generator seeded through SplitMix64. The
//! sequences differ from upstream `rand`'s ChaCha12-based `StdRng`; the
//! workspace only relies on per-seed determinism and distribution shape.

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Deterministically constructible generators.
pub trait SeedableRng: Sized {
    /// Full-width seed type (the generator's whole state space).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;

    /// Builds the generator from a full-width seed drawn from `rng`.
    fn from_rng(rng: &mut impl RngCore) -> Self {
        let mut seed = Self::Seed::default();
        rng.fill_bytes(seed.as_mut());
        Self::from_seed(seed)
    }

    /// Builds the generator from OS-ish entropy (time + ASLR noise).
    fn from_os_rng() -> Self {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        let stack_probe = &t as *const u64 as u64;
        Self::seed_from_u64(t ^ stack_probe.rotate_left(32))
    }
}

/// High-level sampling methods (blanket-implemented for every `RngCore`).
pub trait Rng: RngCore {
    /// Uniform sample from a half-open or inclusive integer range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Ranges that can produce uniform samples.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                (self.start as $u).wrapping_add(uniform_below(rng, span as u64) as $u) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range in random_range");
                let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                // span == 0 encodes the full domain of the type.
                (lo as $u).wrapping_add(uniform_below(rng, span as u64) as $u) as $t
            }
        }
    )*};
}

impl_sample_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64,
);

/// Uniform value in `[0, span)`; `span == 0` means the full 64-bit domain.
/// Uses 128-bit multiply-shift (Lemire) with one widening retry loop kept
/// out of the hot path — bias-free without division.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        let lo = m as u64;
        if lo >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use super::StdRng;
}

/// xoshiro256** generator (Blackman & Vigna), SplitMix64-seeded.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(bytes);
            *word = u64::from_le_bytes(le);
        }
        // The all-zero state is a fixed point of xoshiro.
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        // SplitMix64 to spread a 64-bit seed over the 256-bit state.
        let mut sm = state;
        let mut next = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Self { s }
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl StdRng {
    /// Convenience constructor matching `SeedableRng::seed_from_u64`.
    pub fn new(seed: u64) -> Self {
        <Self as SeedableRng>::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: u64 = rng.random_range(10..20);
            assert!((10..20).contains(&x));
            let y: i64 = rng.random_range(-4..=4);
            assert!((-4..=4).contains(&y));
            let z: u8 = rng.random_range(0..3u8);
            assert!(z < 3);
        }
    }

    #[test]
    fn full_domain_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(9);
        // Must not panic or hang on the degenerate full-span encoding.
        let _: u64 = rng.random_range(0..=u64::MAX);
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn from_rng_takes_a_full_width_seed() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let mut forked = StdRng::from_rng(&mut a);
        let words = [b.next_u64(), b.next_u64(), b.next_u64(), b.next_u64()];
        // The fork consumed exactly four words and its state is them.
        assert_eq!(a.next_u64(), b.next_u64());
        let mut seed = [0u8; 32];
        for (chunk, w) in seed.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        let mut direct = StdRng::from_seed(seed);
        for _ in 0..16 {
            assert_eq!(forked.next_u64(), direct.next_u64());
        }
        // The zero seed maps to a working generator.
        assert_ne!(StdRng::from_seed([0; 32]).next_u64(), 0);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
