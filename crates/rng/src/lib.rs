//! # `lowband-rng` — vendored seeded randomness
//!
//! A small, self-contained pseudo-random number generator exposing the
//! subset of the `rand` 0.8 API this workspace uses. The workspace
//! re-exports it under the dependency name `rand` (via Cargo's `package =`
//! rename), so call sites read exactly like the real crate:
//!
//! ```
//! // Inside the workspace this reads `use rand::{Rng, SeedableRng};`.
//! use lowband_rng::{Rng, SeedableRng};
//! let mut rng = lowband_rng::rngs::StdRng::seed_from_u64(7);
//! let x: u64 = rng.gen_range(0..100);
//! assert!(x < 100);
//! ```
//!
//! Why vendored: every experiment in the repo is seeded and deterministic,
//! so all we need from an RNG is statistical quality and reproducibility —
//! not crypto. Vendoring removes the workspace's last external build
//! dependency, so `cargo build && cargo test` work with no registry access
//! (see README "Offline builds"). The generator is xoshiro256++ seeded via
//! SplitMix64 — the standard non-cryptographic pairing, with 256 bits of
//! state and no known statistical failures at this scale.
//!
//! Determinism contract: the exact output stream for a given seed is part
//! of this crate's API — changing it invalidates every recorded experiment
//! seed in `EXPERIMENTS.md`. (The stream intentionally does *not* match
//! `rand`'s ChaCha12-based `StdRng`.)

#![forbid(unsafe_code)]

/// Uniform-sampleable primitive types (the `rand` counterpart is
/// `SampleUniform`).
pub trait SampleUniform: Copy {
    /// A value uniform in `[low, high)`. `high > low` is the caller's
    /// obligation; violations panic.
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// A value uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Ranges accepted by [`Rng::gen_range`] (the `rand` counterpart is
/// `SampleRange`).
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_below(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Unbiased uniform draw from `[0, span)` (`span = 0` means the full 2⁶⁴
/// range) via Lemire's multiply-shift rejection method.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range");
                low + uniform_u64(rng, (high - low) as u64) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty inclusive range");
                // span = high − low + 1; wraps to 0 exactly on the full
                // range, which `uniform_u64` treats as "no bound".
                low + uniform_u64(rng, ((high - low) as u64).wrapping_add(1)) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u32, u64, usize);

/// Types drawable from the full uniform distribution via [`Rng::gen`] (the
/// `rand` counterpart is `Standard: Distribution<T>`).
pub trait Standard: Sized {
    /// One uniform sample.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The raw generator interface: a stream of uniform `u64`s.
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from an integer range (`lo..hi` or `lo..=hi`).
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p` (`0 ≤ p ≤ 1`).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        f64::sample(self) < p
    }

    /// A uniform sample of the inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman–Vigna), seeded through SplitMix64.
    ///
    /// The workspace's standard generator; the name matches `rand` so call
    /// sites are source-compatible, but the output stream is this crate's
    /// own (documented, stable) stream.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

    /// Alias: the workspace never needs a distinct small generator.
    pub type SmallRng = StdRng;
}

/// Slice shuffling, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffle operations on slices (the `rand` counterpart trait has the
    /// same name).
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniform Fisher–Yates shuffle of the whole slice.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Shuffle so that the first `amount` elements are a uniform random
        /// sample in uniform random order; returns `(chosen, rest)`.
        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let amount = amount.min(self.len());
            for i in 0..amount {
                let j = rng.gen_range(i..self.len());
                self.swap(i, j);
            }
            self.split_at_mut(amount)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = rng.gen_range(0..1);
            assert_eq!(y, 0);
            let z: u64 = rng.gen_range(5..=5);
            assert_eq!(z, 5);
        }
    }

    #[test]
    fn gen_range_full_inclusive_range_works() {
        let mut rng = StdRng::seed_from_u64(2);
        // span wraps to 0 internally; must not hang or panic.
        let x: u64 = rng.gen_range(0..=u64::MAX);
        let y: u64 = rng.gen_range(1..=u64::MAX);
        let _ = x;
        assert!(y >= 1);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "{hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn partial_shuffle_selects_distinct_prefix() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..50).collect();
        let (chosen, rest) = v.partial_shuffle(&mut rng, 10);
        assert_eq!(chosen.len(), 10);
        assert_eq!(rest.len(), 40);
        let mut all: Vec<u32> = chosen.iter().chain(rest.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
        // Oversized request clamps.
        let (chosen, rest) = v.partial_shuffle(&mut rng, 999);
        assert_eq!(chosen.len(), 50);
        assert!(rest.is_empty());
    }

    #[test]
    fn trait_object_rngs_work() {
        // The `R: Rng + ?Sized` bounds used across the workspace must hold
        // through unsized references.
        fn draw(rng: &mut dyn super::RngCore) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut rng = StdRng::seed_from_u64(7);
        assert!(draw(&mut rng) < 100);
    }
}
