//! Vitter's reservoir sampling (Algorithm R) — the classical uniform
//! sampler over *points* (not groups).
//!
//! Section 2.3 of the paper plugs reservoir sampling into Algorithm 1 to
//! return a random member of the sampled group; we also use it standalone
//! as the "what uniform-over-points looks like" baseline: on noisy data a
//! point-uniform sample is exactly the group-size-biased distribution the
//! robust sampler avoids.

use rand::Rng;

/// A size-`k` reservoir over items of type `T`.
///
/// After `n >= k` insertions, every subset of size `k` of the stream is
/// equally likely to be the reservoir (Vitter 1985).
///
/// # Examples
///
/// ```
/// use rds_baselines::Reservoir;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut r = Reservoir::new(3);
/// for x in 0..100 {
///     r.insert(x, &mut rng);
/// }
/// assert_eq!(r.items().len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    k: usize,
    items: Vec<T>,
    seen: u64,
}

impl<T> Reservoir<T> {
    /// Creates a reservoir of capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "reservoir capacity must be at least 1");
        Self {
            k,
            items: Vec::with_capacity(k),
            seen: 0,
        }
    }

    /// Offers one item to the reservoir.
    pub fn insert<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.k {
            self.items.push(item);
        } else {
            let j = rng.random_range(0..self.seen);
            if (j as usize) < self.k {
                self.items[j as usize] = item;
            }
        }
    }

    /// The current sample set (fewer than `k` items only while the stream
    /// is shorter than `k`).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of items offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }
}

// `random_range` comes from `RngExt`; import it for the impl above.
use rand::RngExt;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fills_up_to_capacity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut r = Reservoir::new(5);
        for x in 0..3 {
            r.insert(x, &mut rng);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        for x in 3..100 {
            r.insert(x, &mut rng);
        }
        assert_eq!(r.items().len(), 5);
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn single_slot_is_uniform() {
        // classic check: each of n items ends up in a 1-slot reservoir
        // with probability ~1/n
        let n = 20u64;
        let trials = 20_000;
        let mut counts = vec![0u64; n as usize];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..trials {
            let mut r = Reservoir::new(1);
            for x in 0..n {
                r.insert(x, &mut rng);
            }
            counts[r.items()[0] as usize] += 1;
        }
        let expect = trials / n;
        for (i, &c) in counts.iter().enumerate() {
            assert!(c.abs_diff(expect) < expect / 2, "item {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn items_are_distinct_positions() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut r = Reservoir::new(10);
        for x in 0..1000u64 {
            r.insert(x, &mut rng);
        }
        let mut v = r.items().to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 10, "reservoir duplicated a stream position");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _: Reservoir<u64> = Reservoir::new(0);
    }
}
