//! Deterministic key-distribution generators.
//!
//! YCSB-style zipfian (theta = 0.99) and uniform draws, used by the
//! key-value workloads. The zipfian implementation follows Gray et al.'s
//! "Quickly Generating Billion-Record Synthetic Databases" algorithm, as
//! used by YCSB itself.

use crate::rng::WorkloadRng;

/// Key distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with theta = 0.99 (YCSB default).
    Zipfian,
}

/// YCSB-style zipfian generator over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    /// `1 + 0.5^theta`: the `u * zetan` bound below which a draw is key 1.
    key1_bound: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Creates a generator over `n` items with theta = 0.99.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        Zipfian::with_theta(n, 0.99)
    }

    /// Creates a generator with an explicit skew parameter.
    ///
    /// # Panics
    /// Panics if `n` is zero or `theta` is not in (0, 1).
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            key1_bound: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact up to a cap, then continue with the integral
        // approximation — keeps construction O(1)-ish for huge n.
        let exact = n.min(10_000);
        let mut sum = 0.0;
        for i in 1..=exact {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact {
            let a = exact as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the next key.
    pub fn next_key(&self, rng: &mut WorkloadRng) -> u64 {
        let u: f64 = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.key1_bound {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// Internal zeta(2) (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// Draws a key from the chosen distribution.
pub fn draw(dist: KeyDist, zipf: &Zipfian, rng: &mut WorkloadRng) -> u64 {
    match dist {
        KeyDist::Uniform => rng.gen_range(0..zipf.n()),
        KeyDist::Zipfian => zipf.next_key(rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_toward_low_keys() {
        let z = Zipfian::new(10_000);
        let mut rng = WorkloadRng::seed_from_u64(42);
        let mut head = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            if z.next_key(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta=0.99 the top 1% of keys get well over a third of
        // the draws.
        assert!(
            head as f64 / draws as f64 > 0.35,
            "zipfian not skewed: {head}/{draws}"
        );
    }

    #[test]
    fn key_stream_matches_the_per_draw_formula() {
        // The YCSB draw as first written, evaluating `1 + 0.5^theta` on
        // every call: the precomputed bound must give the same keys.
        fn reference(z: &Zipfian, theta: f64, rng: &mut WorkloadRng) -> u64 {
            let u: f64 = rng.gen_f64();
            let uz = u * z.zetan;
            if uz < 1.0 {
                return 0;
            }
            if uz < 1.0 + 0.5f64.powf(theta) {
                return 1;
            }
            let k = (z.n as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64;
            k.min(z.n - 1)
        }
        for (case, (n, theta)) in [
            (1, 0.99),
            (2, 0.5),
            (100, 0.99),
            (10_000, 0.99),
            (50_000, 0.2),
            (1_000_000, 0.9),
        ]
        .into_iter()
        .enumerate()
        {
            let z = Zipfian::with_theta(n, theta);
            let mut a = WorkloadRng::seed_from_u64(case as u64);
            let mut b = WorkloadRng::seed_from_u64(case as u64);
            let (mut ones, mut rest) = (0, 0);
            for _ in 0..20_000 {
                let k = z.next_key(&mut a);
                assert_eq!(k, reference(&z, theta, &mut b), "n {n} theta {theta}");
                ones += u32::from(k == 1);
                rest += u32::from(k > 1);
            }
            // Both branches past key 0 are exercised where they exist.
            assert!(n < 2 || ones > 0, "n {n} theta {theta}: no key 1");
            assert!(n < 3 || rest > 0, "n {n} theta {theta}: no key past 1");
        }
    }

    #[test]
    fn keys_in_range() {
        let z = Zipfian::new(100);
        let mut rng = WorkloadRng::seed_from_u64(1);
        for _ in 0..5_000 {
            assert!(z.next_key(&mut rng) < 100);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let z = Zipfian::new(1000);
        let mut a = WorkloadRng::seed_from_u64(7);
        let mut b = WorkloadRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.next_key(&mut a), z.next_key(&mut b));
        }
    }

    #[test]
    fn uniform_covers_space() {
        let z = Zipfian::new(16);
        let mut rng = WorkloadRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            seen.insert(draw(KeyDist::Uniform, &z, &mut rng));
        }
        assert_eq!(seen.len(), 16, "uniform should hit every bucket");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_keyspace_rejected() {
        Zipfian::new(0);
    }
}
