//! Offline stand-in for the `rand` crate.
//!
//! The workspace builds in an environment with no crates.io access, so this
//! shim provides the (small) subset of the `rand 0.8` API the workspace
//! uses: the [`Rng`] extension trait (`gen`, `gen_bool`, `gen_range`), the
//! [`SeedableRng`] constructor trait, and [`rngs::StdRng`] — here a
//! xoshiro256++ generator seeded through SplitMix64. It is a high-quality
//! statistical PRNG (not cryptographic), which is all the Monte Carlo
//! machinery needs; every consumer seeds it explicitly, so reproducibility
//! is unchanged.

use std::ops::{Range, RangeInclusive};

/// Core entropy source: 64 uniform bits per call.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an `Rng`.
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that `Rng::gen_range` accepts, producing values of type `T`.
///
/// Generic over `T` (rather than using an associated type) so the value
/// type can drive inference of integer-literal ranges, exactly as in real
/// rand: `let m: usize = rng.gen_range(3..7)` infers `Range<usize>`.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, bound)` by rejection sampling (exact).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample from empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// User-facing random-value methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p must be in [0,1]");
        f64::sample(self) < p
    }

    /// Draws a uniform value from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs that can be constructed from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard PRNG: xoshiro256++ seeded via SplitMix64.
    ///
    /// Not the same stream as upstream `rand`'s ChaCha-based `StdRng`, but a
    /// statistically strong generator with the same interface; all seeds in
    /// the workspace are explicit, so determinism is preserved.
    #[derive(Clone, Debug, PartialEq, Eq)]
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
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl StdRng {
        /// The raw xoshiro256++ state `[s0, s1, s2, s3]`.
        ///
        /// With [`StdRng::from_state`] this lets a caller step the state's
        /// linear recurrence itself (jump-ahead, several streams at once) and
        /// hand the position back; it is not part of upstream `rand`'s API.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// The generator at raw state `s`, continuing exactly as the
        /// generator whose [`StdRng::state`] returned `s` would.
        ///
        /// The all-zero state is xoshiro's one fixed point (it emits zeros
        /// forever); seeding never produces it.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ (Blackman & Vigna).
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(3..7);
            assert!((3..7).contains(&v));
            let w = rng.gen_range(1u64..=4);
            assert!((1..=4).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: super::Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(3);
        let dynrng: &mut StdRng = &mut rng;
        let _ = draw(dynrng);
    }

    #[test]
    fn from_state_resumes_the_stream() {
        let mut a = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        assert_eq!(b, a);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn uniform_range_is_roughly_flat() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 7];
        for _ in 0..7000 {
            counts[rng.gen_range(0usize..7)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts = {counts:?}");
        }
    }
}
