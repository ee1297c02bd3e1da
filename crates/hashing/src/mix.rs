//! Folding integer cell coordinates into a single 64-bit key.
//!
//! The paper assigns each grid cell a numerical ID (`(i-1)·Δ + j` in 2-D)
//! and hashes that ID. In `d` dimensions with unbounded coordinates we
//! instead fold the coordinate vector into a `u64` with a seeded
//! SplitMix64-style avalanche, and feed the result to the k-wise
//! independent hash. The fold is a fixed (seeded) injective-in-practice
//! encoding, playing the role of the paper's cell ID assignment.

/// The 64-bit finalizer of SplitMix64 (Stafford variant 13).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded mixer that folds an integer vector into a `u64` key.
///
/// Two mixers with the same seed produce identical keys; distinct seeds
/// give (with overwhelming probability) unrelated keyings. The mixer is
/// deterministic so that the *same* cell always maps to the *same* key —
/// the property all of the paper's bookkeeping relies on.
///
/// # Examples
///
/// ```
/// use rds_hashing::CellKeyMixer;
///
/// let mixer = CellKeyMixer::new(7);
/// assert_eq!(mixer.key(&[1, -2, 3]), mixer.key(&[1, -2, 3]));
/// assert_ne!(mixer.key(&[1, -2, 3]), mixer.key(&[1, -2, 4]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CellKeyMixer {
    seed: u64,
}

impl CellKeyMixer {
    /// Creates a mixer with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Folds `coords` into a 64-bit key.
    #[inline]
    pub fn key(&self, coords: &[i64]) -> u64 {
        let mut acc = self.fold_init(coords.len());
        for &c in coords {
            acc = Self::fold_step(acc, c);
        }
        acc
    }

    /// The fold carry before any coordinate is absorbed, for a cell of
    /// `dim` coordinates. Together with [`CellKeyMixer::fold_step`] this
    /// exposes the key computation incrementally:
    /// `key(c) == c.iter().fold(fold_init(c.len()), |a, &x| fold_step(a, x))`.
    ///
    /// Callers enumerating many cells that share coordinate prefixes (the
    /// adjacency DFS) reuse partial carries instead of re-folding every
    /// cell from its first coordinate.
    #[inline]
    pub fn fold_init(&self, dim: usize) -> u64 {
        splitmix64(self.seed ^ (dim as u64))
    }

    /// Absorbs one coordinate into a fold carry (see
    /// [`CellKeyMixer::fold_init`]).
    #[inline]
    pub fn fold_step(acc: u64, coord: i64) -> u64 {
        splitmix64(acc ^ (coord as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_per_seed() {
        let a = CellKeyMixer::new(42);
        let b = CellKeyMixer::new(42);
        assert_eq!(a.key(&[5, 6, 7]), b.key(&[5, 6, 7]));
    }

    #[test]
    fn different_seeds_differ() {
        let a = CellKeyMixer::new(1);
        let b = CellKeyMixer::new(2);
        assert_ne!(a.key(&[0, 0]), b.key(&[0, 0]));
    }

    #[test]
    fn order_sensitive() {
        let m = CellKeyMixer::new(3);
        assert_ne!(m.key(&[1, 2]), m.key(&[2, 1]));
    }

    #[test]
    fn length_sensitive() {
        let m = CellKeyMixer::new(3);
        // [1] and [1, 0] must not collide just because 0 is "neutral".
        assert_ne!(m.key(&[1]), m.key(&[1, 0]));
    }

    #[test]
    fn no_collisions_on_a_small_lattice() {
        let m = CellKeyMixer::new(99);
        let mut seen = HashSet::new();
        for x in -20i64..20 {
            for y in -20i64..20 {
                assert!(seen.insert(m.key(&[x, y])), "collision at ({x},{y})");
            }
        }
    }

    #[test]
    fn incremental_fold_matches_one_shot_key() {
        let m = CellKeyMixer::new(0xFEED);
        for coords in [
            vec![],
            vec![3],
            vec![1, -2, 3],
            vec![i64::MIN, i64::MAX, 0, 7],
        ] {
            let folded = coords.iter().fold(m.fold_init(coords.len()), |a, &c| {
                CellKeyMixer::fold_step(a, c)
            });
            assert_eq!(folded, m.key(&coords));
        }
    }

    #[test]
    fn splitmix_known_value() {
        // Reference value from the SplitMix64 specification: the first
        // output of the generator seeded with 0 is produced by finalizing
        // seed + gamma.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
