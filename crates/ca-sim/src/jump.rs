//! Exact jump-ahead for the workspace generator, and streams stepped in
//! lanes.
//!
//! [`rand::rngs::StdRng`] is xoshiro256++. Its state transition `T` uses
//! only xor, shift and rotate, so it is a linear map on `GF(2)²⁵⁶`, and its
//! characteristic polynomial `P` has degree 256. By Cayley–Hamilton,
//! `P(T) = 0`, so `Tᵈ = (xᵈ mod P)(T)`: the state `d` steps ahead is
//! `Σᵢ cᵢ · Tⁱ s` over the coefficients `cᵢ` of `xᵈ mod P`, whatever `d` is
//! (the method of Haramoto et al., 2008). Reducing `xᵈ` by square and
//! multiply costs `O(log d)` polynomial products, and applying it costs one
//! 256-step walk from `s`.
//!
//! The weak adversary uses this to split one trial's coin stream into
//! [`LANES`] pieces that it computes side by side (see [`crate::weak`]). A
//! [`LanePlan`] holds the piece starts as polynomials, built once per
//! adversary; [`LanePlan::starts`] turns them into states for one trial from
//! a single walk of the trial's base state, and [`Lanes`] steps all the
//! pieces at once. Both are plain xor, shift and add on `[u64; L]` arrays,
//! so the compiler can keep one state word of many lanes in one vector
//! register.

/// A polynomial over `GF(2)` of degree below 256: bit `i % 64` of word
/// `i / 64` is the coefficient of `xⁱ`.
pub(crate) type Poly = [u64; 4];

/// The lane count of the wide sampling kernel: one AVX-512 register holds
/// one state word of 8 lanes, so 16 lanes are two registers per word.
pub(crate) const LANES: usize = 16;

/// The characteristic polynomial `P` of xoshiro256's state transition,
/// without its leading `x²⁵⁶` term. `tests` derive it from the generator's
/// own output with Berlekamp–Massey.
const CHAR_POLY: Poly = [
    0x9D11_6F2B_B0F0_F001,
    0x0280_002B_CEFD_1A5E,
    0x04B4_EDCF_2625_9F85,
    0x0003_C03C_3F3E_CB19,
];

/// The polynomial `1`.
const ONE: Poly = [1, 0, 0, 0];

/// `a · x mod P`.
fn mul_x(a: Poly) -> Poly {
    let carry = 0u64.wrapping_sub(a[3] >> 63);
    [
        (a[0] << 1) ^ (CHAR_POLY[0] & carry),
        (a[1] << 1 | a[0] >> 63) ^ (CHAR_POLY[1] & carry),
        (a[2] << 1 | a[1] >> 63) ^ (CHAR_POLY[2] & carry),
        (a[3] << 1 | a[2] >> 63) ^ (CHAR_POLY[3] & carry),
    ]
}

/// The coefficient of `xⁱ` in `a`, as an all-ones or all-zero mask.
fn coefficient_mask(a: &Poly, i: usize) -> u64 {
    0u64.wrapping_sub((a[i / 64] >> (i % 64)) & 1)
}

/// `a · b mod P` (Horner over the bits of `b`, highest first).
fn mul_mod(a: Poly, b: Poly) -> Poly {
    let mut acc = [0; 4];
    for i in (0..256).rev() {
        acc = mul_x(acc);
        let m = coefficient_mask(&b, i);
        for (w, &aw) in acc.iter_mut().zip(&a) {
            *w ^= aw & m;
        }
    }
    acc
}

/// `baseᵉ mod P` by square and multiply.
fn pow_mod(base: Poly, e: u64) -> Poly {
    let mut acc = ONE;
    for bit in (0..u64::BITS - e.leading_zeros()).rev() {
        acc = mul_mod(acc, acc);
        if e >> bit & 1 == 1 {
            acc = mul_mod(acc, base);
        }
    }
    acc
}

/// `xᵈ mod P`: the polynomial that jumps a state `d` steps ahead.
pub(crate) fn x_pow(d: u64) -> Poly {
    pow_mod(mul_x(ONE), d)
}

/// Where `L` lanes start in a stream of fixed-size blocks, and where the
/// stream ends: lane `k` takes blocks `⌊k·B/L⌋..⌊(k+1)·B/L⌋` of the `B`
/// blocks, so lanes differ by at most one block and some own none when
/// `B < L`.
#[derive(Clone, Debug)]
pub(crate) struct LanePlan<const L: usize> {
    /// `xᵈ mod P` for each lane's start position `d`, transposed: word `w`
    /// of lane `k`'s polynomial is `starts[w][k]`.
    starts: [[u64; L]; 4],
    /// `xᵈ mod P` for the end position.
    end: Poly,
}

impl<const L: usize> LanePlan<L> {
    /// The plan for `blocks` blocks of `block_words` words each, with the
    /// stream ending `end_words` words after its start.
    pub(crate) fn new(blocks: usize, block_words: u64, end_words: u64) -> Self {
        let block = x_pow(block_words);
        let mut starts = [[0; L]; 4];
        let (mut at, mut start) = (0, ONE);
        for k in 0..L {
            let first = Self::first_block(k, blocks);
            start = mul_mod(start, pow_mod(block, (first - at) as u64));
            at = first;
            for (word, &coefficients) in starts.iter_mut().zip(&start) {
                word[k] = coefficients;
            }
        }
        LanePlan {
            starts,
            end: x_pow(end_words),
        }
    }

    /// The first block of lane `k` (and the end of lane `k - 1`).
    #[inline(always)]
    pub(crate) fn first_block(k: usize, blocks: usize) -> usize {
        k * blocks / L
    }

    /// Every lane's start state and the end state for a stream whose first
    /// word `base` draws: one 256-step walk from `base`, each step xored
    /// into every lane whose polynomial has that coefficient.
    #[inline(always)]
    pub(crate) fn starts(&self, base: [u64; 4]) -> (Lanes<L>, [u64; 4]) {
        let mut lanes = [[0; L]; 4];
        let mut end = [0; 4];
        let mut walk = Lanes::<1> {
            s: base.map(|word| [word]),
        };
        for i in 0..256 {
            let s = walk.s.map(|[word]| word);
            let m = coefficient_mask(&self.end, i);
            let masks = self.starts[i / 64].map(|c| 0u64.wrapping_sub(c >> (i % 64) & 1));
            for j in 0..4 {
                end[j] ^= s[j] & m;
                for k in 0..L {
                    lanes[j][k] ^= s[j] & masks[k];
                }
            }
            walk.next();
        }
        (Lanes { s: lanes }, end)
    }
}

/// `L` xoshiro256++ streams stepped together: state word `j` of lane `k` is
/// `s[j][k]`.
#[derive(Clone, Debug)]
pub(crate) struct Lanes<const L: usize> {
    s: [[u64; L]; 4],
}

impl<const L: usize> Lanes<L> {
    /// The next word of every lane: `StdRng::next_u64` lane by lane.
    #[inline(always)]
    pub(crate) fn next(&mut self) -> [u64; L] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0; L];
        for k in 0..L {
            out[k] = s0[k]
                .wrapping_add(s3[k])
                .rotate_left(23)
                .wrapping_add(s0[k]);
            let t = s1[k] << 17;
            s2[k] ^= s0[k];
            s3[k] ^= s1[k];
            s1[k] ^= s2[k];
            s0[k] ^= s3[k];
            s2[k] ^= t;
            s3[k] = s3[k].rotate_left(45);
        }
        out
    }

    /// Lane `k`'s state.
    #[cfg(test)]
    fn lane(&self, k: usize) -> [u64; 4] {
        self.s.map(|word| word[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The state `d` steps after `s`, where `jump = x_pow(d)`.
    fn jump(jump: &Poly, s: [u64; 4]) -> [u64; 4] {
        let mut walk = StdRng::from_state(s);
        let mut acc = [0; 4];
        for i in 0..256 {
            let m = coefficient_mask(jump, i);
            for (a, w) in acc.iter_mut().zip(walk.state()) {
                *a ^= w & m;
            }
            walk.next_u64();
        }
        acc
    }

    /// The minimal connection polynomial `C(x) = 1 + c₁x + … + c_L·x^L` of
    /// a bit sequence over `GF(2)` (Berlekamp–Massey), as `(C, L)`.
    fn berlekamp_massey(bits: &[u8]) -> (Vec<u8>, usize) {
        let mut c = vec![0u8; bits.len() + 1];
        let mut b = c.clone();
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut shift) = (0, 1);
        for n in 0..bits.len() {
            let discrepancy = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
            if discrepancy == 0 {
                shift += 1;
                continue;
            }
            let previous = c.clone();
            for i in shift..c.len() {
                c[i] ^= b[i - shift];
            }
            if 2 * len <= n {
                len = n + 1 - len;
                b = previous;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        c.truncate(len + 1);
        (c, len)
    }

    #[test]
    fn berlekamp_massey_derives_the_characteristic_polynomial() {
        // Any one state bit over time is a linear recurrence whose minimal
        // polynomial divides P; xoshiro256 has full period, so P is
        // primitive and the minimal polynomial is P itself.
        for seed in [1, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let bit = (rng.state()[0] & 1) as u8;
                    rng.next_u64();
                    bit
                })
                .collect();
            let (c, len) = berlekamp_massey(&bits);
            assert_eq!(len, 256, "seed {seed}");
            // P(x) = x^256 · C(1/x): the coefficient of x^(256 - i) is c_i.
            let mut p = [0u64; 4];
            for (i, &ci) in c.iter().enumerate().skip(1) {
                let degree = 256 - i;
                p[degree / 64] |= u64::from(ci) << (degree % 64);
            }
            assert_eq!(p, CHAR_POLY, "seed {seed}");
        }
    }

    #[test]
    fn jump_equals_stepping() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut ds = vec![0, 1, 63, 64, 65, 255, 256, 257, (1 << 20) + 3];
        ds.extend((0..8).map(|_| rng.gen_range(0..100_000u64)));
        for d in ds {
            let base = rng.state();
            let mut stepped = StdRng::from_state(base);
            for _ in 0..d {
                stepped.next_u64();
            }
            assert_eq!(jump(&x_pow(d), base), stepped.state(), "d = {d}");
        }
    }

    #[test]
    fn published_jumps_are_powers_of_x() {
        // xoshiro256's reference jump() and long_jump() polynomials advance
        // 2^128 and 2^192 steps: x squared 128 and 192 times.
        let mut p = mul_x(ONE);
        for squarings in 1..=192 {
            p = mul_mod(p, p);
            if squarings == 128 {
                assert_eq!(
                    p,
                    [
                        0x180E_C6D3_3CFD_0ABA,
                        0xD5A6_1266_F0C9_392C,
                        0xA958_2618_E03F_C9AA,
                        0x39AB_DC45_29B1_661C
                    ]
                );
            }
        }
        assert_eq!(
            p,
            [
                0x76E1_5D3E_FEFD_CBBF,
                0xC500_4E44_1C52_2FB3,
                0x7771_0069_854E_E241,
                0x3910_9BB0_2ACB_E635
            ]
        );
    }

    /// Checks every lane of a plan against stepping one stream.
    fn check_plan<const L: usize>(blocks: usize, block_words: u64, end_words: u64) {
        let plan = LanePlan::<L>::new(blocks, block_words, end_words);
        let base = StdRng::seed_from_u64(blocks as u64 ^ block_words).state();
        let (mut lanes, end) = plan.starts(base);
        let mut stream = StdRng::from_state(base);
        let mut at = 0;
        for k in 0..L {
            let first = LanePlan::<L>::first_block(k, blocks) as u64 * block_words;
            while at < first {
                stream.next_u64();
                at += 1;
            }
            assert_eq!(lanes.lane(k), stream.state(), "lane {k} of {L}");
        }
        while at < end_words {
            stream.next_u64();
            at += 1;
        }
        assert_eq!(end, stream.state(), "end of {L} lanes");
        // Stepping the lanes together steps each lane's own stream.
        let mut single: Vec<StdRng> = (0..L).map(|k| StdRng::from_state(lanes.lane(k))).collect();
        for _ in 0..5 {
            let words = lanes.next();
            for (k, rng) in single.iter_mut().enumerate() {
                assert_eq!(words[k], rng.next_u64(), "lane {k} of {L}");
            }
        }
    }

    #[test]
    fn lane_starts_and_end_equal_stepping() {
        check_plan::<LANES>(61, 64 * 3, 3870 * 3);
        check_plan::<LANES>(5, 64, 300);
        check_plan::<LANES>(0, 64, 0);
        check_plan::<3>(7, 100, 650);
        check_plan::<1>(4, 64 * 9, 4 * 64 * 9);
    }
}
