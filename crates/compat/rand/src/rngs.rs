//! Seedable generators. Only [`StdRng`] is provided; it is xoshiro256++
//! rather than the real crate's ChaCha12, trading value-compatibility for a
//! dependency-free deterministic implementation.

use crate::{RngCore, SeedableRng};

/// Deterministic xoshiro256++ generator seeded via SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl StdRng {
    /// Inherent mirror of [`SeedableRng::seed_from_u64`] so call sites work
    /// even without the trait in scope.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro forbids the all-zero state; SplitMix64 cannot emit four
        // consecutive zeros, but keep the guard explicit.
        debug_assert!(s.iter().any(|&w| w != 0));
        StdRng { s }
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng::seed_from_u64(seed)
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
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
