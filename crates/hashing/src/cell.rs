//! The cell sampler `h_R`: hashing grid cells at power-of-two sample rates.
//!
//! Section 2.1 of the paper samples cells with `h_R(x) = h(x) mod R` for
//! `R = 2^k` and calls a cell *sampled* when `h_R(cell) = 0`. Because the
//! ranges are nested (Fact 1b),
//! `{x : h_{2R}(x) = 0} ⊆ {x : h_R(x) = 0}`,
//! halving the sample rate only ever *removes* sampled cells — the property
//! that makes rate doubling (Algorithm 1) and `Split` (Algorithm 4) sound.

use crate::{CellKeyMixer, KWiseHash};
use rand::Rng;

/// Returns whether a hash value is sampled at `rate 2^-level`, i.e. whether
/// its low `level` bits are all zero.
///
/// `level = 0` samples everything (rate 1), matching `R = 1` in the paper.
#[inline]
pub fn level_sampled(hash_value: u64, level: u32) -> bool {
    debug_assert!(level < 64, "level out of range");
    hash_value & ((1u64 << level) - 1) == 0
}

/// The largest level at which `hash_value` is sampled, capped at `max_level`
/// (the number of trailing zero bits).
#[inline]
pub fn max_sampled_level(hash_value: u64, max_level: u32) -> u32 {
    (hash_value.trailing_zeros()).min(max_level)
}

/// Slice-in/slice-out batch variant of [`level_sampled`]: appends one bit
/// per hash to `out` (cleared first), all evaluated at the same `level`.
///
/// `out[i] == level_sampled(hashes[i], level)` — one pass over the batch
/// where the per-point path would branch per arrival.
pub fn level_sampled_slice(hashes: &[u64], level: u32, out: &mut Vec<bool>) {
    debug_assert!(level < 64, "level out of range");
    let mask = (1u64 << level) - 1;
    out.clear();
    out.extend(hashes.iter().map(|&h| h & mask == 0));
}

/// Hashes grid cells (integer coordinate vectors) and answers sampling
/// queries at any power-of-two rate.
///
/// Combines the [`CellKeyMixer`] (cell → `u64` ID) with a k-wise
/// independent [`KWiseHash`] (ID → field element); the low bits of the
/// result drive the nested sampling.
///
/// # Examples
///
/// ```
/// use rds_hashing::CellHasher;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let hasher = CellHasher::new(8, &mut rng);
/// let cell = [3i64, -1, 4];
/// // rate 1 samples every cell
/// assert!(hasher.sampled(&cell, 0));
/// // nesting: sampled at level 5 implies sampled at level 3
/// if hasher.sampled(&cell, 5) {
///     assert!(hasher.sampled(&cell, 3));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CellHasher {
    mixer: CellKeyMixer,
    hash: KWiseHash,
}

impl CellHasher {
    /// Samples a cell hasher with independence `k` from `rng` (which also
    /// seeds the key mixer).
    pub fn new<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        let mut seed = [0u8; 8];
        rng.fill_bytes(&mut seed);
        Self {
            mixer: CellKeyMixer::new(u64::from_le_bytes(seed)),
            hash: KWiseHash::new(k, rng),
        }
    }

    /// The 64-bit key of a cell (stable across calls).
    #[inline]
    pub fn cell_key(&self, cell: &[i64]) -> u64 {
        self.mixer.key(cell)
    }

    /// The hash of a cell key.
    #[inline]
    pub fn hash_key(&self, key: u64) -> u64 {
        self.hash.hash(key)
    }

    /// The hash of a cell (key + hash in one step).
    #[inline]
    pub fn hash_cell(&self, cell: &[i64]) -> u64 {
        self.hash_key(self.cell_key(cell))
    }

    /// Whether the cell is sampled at rate `2^-level`
    /// (`h_R(cell) = 0` with `R = 2^level`).
    #[inline]
    pub fn sampled(&self, cell: &[i64], level: u32) -> bool {
        level_sampled(self.hash_cell(cell), level)
    }

    /// Whether a *key* (previously obtained from [`CellHasher::cell_key`])
    /// is sampled at rate `2^-level`.
    #[inline]
    pub fn key_sampled(&self, key: u64, level: u32) -> bool {
        level_sampled(self.hash_key(key), level)
    }

    /// Batch variant of [`CellHasher::hash_key`]: hashes a whole slice of
    /// cell keys in one coefficient-major pass (see
    /// [`KWiseHash::hash_slice`]), appending to `out` (cleared first).
    /// Bit-identical to hashing each key individually.
    pub fn hash_keys_slice(&self, keys: &[u64], out: &mut Vec<u64>) {
        self.hash.hash_slice(keys, out);
    }

    /// The key mixer, exposed so hot paths can fold cell keys
    /// incrementally along the adjacency DFS
    /// (see [`CellKeyMixer::fold_init`]).
    #[inline]
    pub fn mixer(&self) -> &CellKeyMixer {
        &self.mixer
    }

    /// Words of memory used by the function description.
    pub fn words(&self) -> usize {
        1 + self.hash.words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn level_zero_samples_everything() {
        for v in [0u64, 1, 2, u64::MAX] {
            assert!(level_sampled(v, 0));
        }
    }

    #[test]
    fn level_sampled_checks_low_bits() {
        assert!(level_sampled(0b1000, 3));
        assert!(!level_sampled(0b0100, 3));
        assert!(level_sampled(0, 40));
    }

    #[test]
    fn sampling_is_nested_across_levels() {
        // Fact 1(b) of the paper.
        let mut rng = StdRng::seed_from_u64(2);
        let hasher = CellHasher::new(8, &mut rng);
        for x in -50i64..50 {
            for y in -50i64..50 {
                let cell = [x, y];
                for level in 1..8 {
                    if hasher.sampled(&cell, level) {
                        assert!(hasher.sampled(&cell, level - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn max_sampled_level_matches_definition() {
        assert_eq!(max_sampled_level(0b10100, 63), 2);
        assert_eq!(max_sampled_level(0, 10), 10);
        assert_eq!(max_sampled_level(1, 10), 0);
        for v in [3u64, 8, 24, 160] {
            let lvl = max_sampled_level(v, 63);
            assert!(level_sampled(v, lvl));
            assert!(!level_sampled(v, lvl + 1));
        }
    }

    #[test]
    fn sample_rate_is_about_two_to_minus_level() {
        let mut rng = StdRng::seed_from_u64(4);
        let hasher = CellHasher::new(16, &mut rng);
        let level = 4u32;
        let mut count = 0u32;
        let n = 20_000;
        for x in 0..n {
            if hasher.sampled(&[x, -x + 1], level) {
                count += 1;
            }
        }
        let expect = n >> level;
        assert!(
            (i64::from(count) - expect).unsigned_abs() < 4 * (expect as f64).sqrt() as u64 + 10,
            "count={count}, expect={expect}"
        );
    }

    #[test]
    fn key_and_cell_paths_agree() {
        let mut rng = StdRng::seed_from_u64(6);
        let hasher = CellHasher::new(8, &mut rng);
        let cell = [7i64, 8, -9];
        let key = hasher.cell_key(&cell);
        assert_eq!(hasher.hash_cell(&cell), hasher.hash_key(key));
        assert_eq!(hasher.sampled(&cell, 3), hasher.key_sampled(key, 3));
    }

    #[test]
    fn batch_paths_agree_with_scalar_paths() {
        let mut rng = StdRng::seed_from_u64(8);
        let hasher = CellHasher::new(16, &mut rng);
        let keys: Vec<u64> = (0..37i64).map(|i| hasher.cell_key(&[i, -i, 3])).collect();
        let mut hashes = Vec::new();
        hasher.hash_keys_slice(&keys, &mut hashes);
        assert_eq!(
            hashes,
            keys.iter().map(|&k| hasher.hash_key(k)).collect::<Vec<_>>()
        );
        for level in [0u32, 1, 3, 7] {
            let mut bits = Vec::new();
            level_sampled_slice(&hashes, level, &mut bits);
            assert_eq!(
                bits,
                hashes
                    .iter()
                    .map(|&h| level_sampled(h, level))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mixer_accessor_folds_to_cell_key() {
        let mut rng = StdRng::seed_from_u64(10);
        let hasher = CellHasher::new(8, &mut rng);
        let cell = [4i64, -5, 6];
        let folded = cell
            .iter()
            .fold(hasher.mixer().fold_init(cell.len()), |a, &c| {
                crate::CellKeyMixer::fold_step(a, c)
            });
        assert_eq!(folded, hasher.cell_key(&cell));
    }
}
