//! HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) — the
//! industry-standard noiseless F0 sketch that Section 5 of the paper
//! mentions as a plug-in target for the robust sampler.

use rds_hashing::splitmix64;

/// A HyperLogLog counter with `2^b` registers.
///
/// # Examples
///
/// ```
/// use rds_baselines::HyperLogLog;
///
/// let mut h = HyperLogLog::new(10, 7);
/// for x in 0..50_000u64 {
///     h.process(x);
/// }
/// let est = h.estimate();
/// assert!(est > 40_000.0 && est < 60_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct HyperLogLog {
    b: u32,
    registers: Vec<u8>,
    seed: u64,
}

impl HyperLogLog {
    /// Creates a counter with `2^b` registers (`4 <= b <= 16`); the
    /// standard error is about `1.04 / sqrt(2^b)`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside `4..=16`.
    pub fn new(b: u32, seed: u64) -> Self {
        assert!((4..=16).contains(&b), "b must be in 4..=16");
        Self {
            b,
            registers: vec![0; 1 << b],
            seed,
        }
    }

    /// Feeds one item.
    pub fn process(&mut self, item: u64) {
        let h = splitmix64(self.seed ^ item);
        let idx = (h >> (64 - self.b)) as usize;
        let rest = h << self.b;
        // rank: position of the leftmost 1-bit in the remaining bits
        let rho = (rest.leading_zeros() + 1).min(64 - self.b + 1) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    fn alpha(m: f64) -> f64 {
        // standard bias-correction constants
        match m as u64 {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        }
    }

    /// The distinct-count estimate with the standard small-range (linear
    /// counting) correction.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = Self::alpha(m) * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merges another counter with the same parameters (register-wise
    /// max).
    ///
    /// # Panics
    ///
    /// Panics if the parameters differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.b, other.b, "precision mismatch");
        assert_eq!(self.seed, other.seed, "seed mismatch");
        for (a, &b) in self.registers.iter_mut().zip(other.registers.iter()) {
            *a = (*a).max(b);
        }
    }

    /// Words of memory in use (registers are sub-word; we count the
    /// conventional `m/8` packing).
    pub fn words(&self) -> usize {
        self.registers.len() / 8 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_counter_estimates_zero() {
        let h = HyperLogLog::new(8, 1);
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn duplicates_are_free() {
        let mut a = HyperLogLog::new(10, 2);
        let mut b = HyperLogLog::new(10, 2);
        for x in 0..1000u64 {
            a.process(x);
            for _ in 0..5 {
                b.process(x);
            }
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut h = HyperLogLog::new(12, 3);
        for x in 0..100u64 {
            h.process(x);
        }
        let est = h.estimate();
        assert!((est - 100.0).abs() < 15.0, "estimate {est}");
    }

    #[test]
    fn large_range_accuracy() {
        let mut h = HyperLogLog::new(12, 4);
        let truth = 200_000u64;
        for x in 0..truth {
            h.process(x.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let est = h.estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(10, 5);
        let mut b = HyperLogLog::new(10, 5);
        let mut union = HyperLogLog::new(10, 5);
        for x in 0..5000u64 {
            a.process(x);
            union.process(x);
        }
        for x in 2500..7500u64 {
            b.process(x);
            union.process(x);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), union.estimate());
    }

    #[test]
    #[should_panic(expected = "b must be in 4..=16")]
    fn invalid_precision_rejected() {
        let _ = HyperLogLog::new(2, 1);
    }
}
