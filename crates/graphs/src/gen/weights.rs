//! Edge-weight distributions.

use rand::Rng;

/// Distribution of edge weights.
///
/// The paper assumes integer weights polynomial in `n`; all variants
/// produce weights `≥ 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weights {
    /// All edges have weight 1 (the unweighted case).
    Unit,
    /// Uniform in `lo..=hi`.
    Uniform {
        /// Smallest weight (≥ 1).
        lo: u64,
        /// Largest weight.
        hi: u64,
    },
    /// `2^e` for `e` uniform in `0..=max_exp` — a heavy-tailed
    /// distribution that exercises many rungs of the PDE weight ladder.
    PowerOfTwo {
        /// Largest exponent.
        max_exp: u32,
    },
}

impl Weights {
    /// Draws one weight.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` range is empty or starts at 0.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            Weights::Unit => 1,
            Weights::Uniform { lo, hi } => {
                assert!(lo >= 1 && lo <= hi, "invalid uniform weight range");
                rng.random_range(lo..=hi)
            }
            Weights::PowerOfTwo { max_exp } => {
                assert!(max_exp < 63, "exponent too large for u64 weights");
                1u64 << rng.random_range(0..=max_exp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(Weights::Unit.sample(&mut rng), 1);
            let w = Weights::Uniform { lo: 3, hi: 9 }.sample(&mut rng);
            assert!((3..=9).contains(&w));
            let p = Weights::PowerOfTwo { max_exp: 5 }.sample(&mut rng);
            assert!(p.is_power_of_two() && p <= 32);
        }
    }
}
