//! Deterministic pseudo-random numbers for test-case generation.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — the standard
//! construction for turning a single `u64` seed into a full 256-bit state
//! without correlated lanes. Every stream is fully determined by its seed,
//! so any generated test case can be reproduced from the seed alone; the
//! property harness ([`crate::prop`]) leans on this for failure replay.

/// One SplitMix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix two words into one — used to derive independent per-case seeds from
/// a base seed and a case index.
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// A seedable xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Next 32-bit output (upper half of the 64-bit stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform `i32` over the full range.
    pub fn next_i32(&mut self) -> i32 {
        self.next_u32() as i32
    }

    /// Uniform boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// `true` with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 bits of mantissa gives a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform `u32` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        // Multiply-shift bounded generation (Lemire, sans rejection): the
        // bias is < 2^-32 per draw, far below anything a test can observe.
        lo + ((self.next_u32() as u64 * span) >> 32) as u32
    }

    /// Uniform `i32` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi as i64 - lo as i64) as u64;
        lo.wrapping_add(((self.next_u32() as u64 * span) >> 32) as i32)
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.range_u32(0, (hi - lo) as u32) as usize
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range_usize(0, xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.range_u32(10, 20);
            assert!((10..20).contains(&v));
            let w = r.range_i32(-5, 3);
            assert!((-5..3).contains(&w));
            let u = r.range_usize(1, 2);
            assert_eq!(u, 1);
        }
    }

    #[test]
    fn ranges_hit_all_values() {
        let mut r = Rng::new(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..8 reachable: {seen:?}");
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = Rng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2500..3500).contains(&hits), "p=0.3 gave {hits}/10000");
    }
}
