//! A fixed-probability coin as an integer threshold on raw RNG words.
//!
//! The hot sampling loops (the weak adversary's slot kernel, `RandomDrop`,
//! the sliced engine's `IidDrop` lanes) flip millions of coins of a handful
//! of fixed probabilities. [`rand::Rng::gen_bool`] re-checks `p`, converts the
//! word to a float and compares on every call; a [`Coin`] does that work
//! once, up front, and then flips with one shift and one integer compare.
//!
//! # Exactness
//!
//! `gen_bool(p)` draws `u = rng.next_u64()` and returns `x · 2⁻⁵³ < p` for
//! `x = u >> 11`. Both sides are exact in `f64`: `x < 2⁵³` fits the 53-bit
//! significand and scaling by a power of two is exact, and `p · 2⁵³` is
//! exact for every `p ∈ [0, 1]` (the smallest subnormal `2⁻¹⁰⁷⁴` scales to
//! the normal `2⁻¹⁰²¹`; nothing reaches the overflow range). For an integer
//! `x`, `x < p · 2⁵³` holds iff `x < ⌈p · 2⁵³⌉`, so
//!
//! ```text
//! gen_bool(p)  ==  (rng.next_u64() >> 11) < ⌈p · 2⁵³⌉
//! ```
//!
//! word for word: a `Coin` consumes the same single `u64` per flip and
//! returns the same answer, so swapping one in changes no draw anywhere.

use rand::RngCore;

/// `2⁵³`: the number of distinct 53-bit fractions `gen_bool` compares.
const SCALE: f64 = (1u64 << 53) as f64;

/// A coin that comes up `true` with probability `p`, flipped exactly like
/// [`rand::Rng::gen_bool`] (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coin {
    /// `⌈p · 2⁵³⌉`, in `0..=2⁵³`.
    threshold: u64,
}

impl Coin {
    /// The coin for probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` (NaN included), like `gen_bool`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "gen_bool p must be in [0,1]");
        Coin {
            threshold: (p * SCALE).ceil() as u64,
        }
    }

    /// Flips the coin: draws one `u64`, exactly as `rng.gen_bool(p)` does.
    #[inline(always)]
    pub fn flip<R: RngCore + ?Sized>(self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }

    /// `⌈p · 2⁵³⌉`: a flip comes up `true` iff the drawn word's top 53
    /// bits are below it.
    pub fn threshold(self) -> u64 {
        self.threshold
    }
}

/// The flip of an already drawn `word` against `threshold`, as a lane mask:
/// all ones if `(word >> 11) < threshold`, zero otherwise. Both sides are
/// below `2⁶³`, so the difference's sign bit is the comparison — no branch
/// and no compare instruction, which lets the weak adversary's lane kernel
/// blend two coins' thresholds by a mask and flip many lanes at once.
#[inline(always)]
pub(crate) fn below(word: u64, threshold: u64) -> u64 {
    ((word >> 11).wrapping_sub(threshold) as i64 >> 63) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An `RngCore` that replays chosen words.
    struct Words(std::vec::IntoIter<u64>);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("stub RNG ran out of words")
        }
    }

    /// Checks `flip == gen_bool` on words whose top 53 bits sit at and next
    /// to the coin's threshold, with the 11 discarded low bits clear and set.
    fn check_at_threshold(p: f64) {
        let coin = Coin::new(p);
        let thr = coin.threshold;
        let mut xs = vec![0, 1, thr, thr + 1, (1u64 << 53) - 1];
        xs.extend(thr.checked_sub(1));
        // `x = u >> 11` only takes 53-bit values.
        xs.retain(|&x| x < 1 << 53);
        for x in xs {
            for low in [0u64, 0x7FF] {
                let u = (x << 11) | low;
                let want = Words(vec![u].into_iter()).gen_bool(p);
                assert_eq!(
                    coin.flip(&mut Words(vec![u].into_iter())),
                    want,
                    "p = {p:e}, x = {x}, low = {low:#x}"
                );
                assert_eq!(below(u, coin.threshold()), 0u64.wrapping_sub(want.into()));
            }
        }
    }

    #[test]
    fn flip_equals_gen_bool_at_the_threshold() {
        let eps = f64::EPSILON / 2.0; // 2⁻⁵³
        for p in [0.0, 1.0, eps, 1.0 - eps, 5e-324, 0.05, 1.0 / 3.0, 0.5] {
            check_at_threshold(p);
        }
        assert_eq!(Coin::new(0.0).threshold, 0);
        assert_eq!(Coin::new(1.0).threshold, 1 << 53);
        assert_eq!(Coin::new(eps).threshold, 1);
        assert_eq!(Coin::new(5e-324).threshold, 1);
        assert_eq!(Coin::new(1.0 - eps).threshold, (1 << 53) - 1);
    }

    #[test]
    fn flip_equals_gen_bool_at_random_p() {
        let mut rng = StdRng::seed_from_u64(0xC014);
        for _ in 0..2000 {
            // Mix ordinary probabilities with tiny ones near the subnormals.
            let p: f64 = rng.gen();
            let p = if rng.gen_bool(0.25) {
                p * 2f64.powi(-(rng.gen_range(0..1070u32) as i32))
            } else {
                p
            };
            check_at_threshold(p);
        }
    }

    #[test]
    fn flip_consumes_the_gen_bool_stream() {
        for p in [0.0, 0.05, 0.5, 0.97, 1.0] {
            let coin = Coin::new(p);
            let mut a = StdRng::seed_from_u64(11);
            let mut b = StdRng::seed_from_u64(11);
            for _ in 0..10_000 {
                assert_eq!(coin.flip(&mut a), b.gen_bool(p));
            }
            assert_eq!(a.next_u64(), b.next_u64(), "same stream position");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_nan() {
        let _ = Coin::new(f64::NAN);
    }
}
