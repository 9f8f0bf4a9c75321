//! Offline, API-compatible subset of the `rand` crate.
//!
//! The build environment has no access to a crate registry, so the
//! workspace vendors the interface the Armus sources rely on: the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, [`rngs::SmallRng`] (here a
//! xoshiro256** generator seeded through SplitMix64), uniform range
//! sampling, and [`seq::SliceRandom::choose`]. Distributions are uniform
//! and the streams are deterministic per seed, which is all the generators
//! and property tests require; no claim of statistical equivalence with
//! the published crate is made.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The raw generator interface: a source of 64 random bits per call.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that describe a range values can be uniformly sampled from.
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as u128).wrapping_add(draw) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                let draw = (rng.next_u64() as u128) % span;
                (start as u128).wrapping_add(draw) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

/// The user-facing generator interface (uniform sampling helpers).
pub trait Rng: RngCore {
    /// Uniform value from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range: {p}");
        // 53 uniform mantissa bits, the standard u64 → f64 construction.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256**
    /// (Blackman–Vigna), seeded through SplitMix64 as its authors
    /// recommend. Matches the published `SmallRng`'s contract — speed and
    /// statistical quality without reproducibility guarantees across
    /// versions — not its exact stream.
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            // SplitMix64 expansion of the 64-bit seed into 256 bits of
            // state; the all-zero state is unreachable this way.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::RngCore;

    /// Random selection over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(rng.next_u64() % self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = rng.gen_range(0..=5);
            assert!(w <= 5);
        }
    }

    #[test]
    fn gen_bool_extremes_and_mean() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn choose_covers_the_slice() {
        let mut rng = SmallRng::seed_from_u64(11);
        let items = [1, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*items.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn empty_choose_is_none() {
        let mut rng = SmallRng::seed_from_u64(1);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
