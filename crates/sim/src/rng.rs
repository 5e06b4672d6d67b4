//! Reproducible, stream-split random number generation.
//!
//! The simulation draws randomness in many logically independent places:
//! the server's update process, each mobile unit's query process and
//! sleep process, and the SIG subset membership function. If all of these
//! shared one generator, adding a client or reordering a loop would
//! perturb every other stream and make runs impossible to compare. We
//! instead derive one independent [`RngStream`] per (component, index)
//! pair from a single [`MasterSeed`] via the SplitMix64 mixing function,
//! so streams are stable under unrelated code changes.

/// Identifies a logical random stream (component kind + index within it).
///
/// The discriminants feed the seed derivation, so *adding* variants is
/// safe but reordering them changes every derived stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// The server's item-update process.
    Updates,
    /// Query arrivals at mobile unit `index`.
    Queries {
        /// Client index within the cell.
        index: u64,
    },
    /// Sleep/wake draws at mobile unit `index`.
    Sleep {
        /// Client index within the cell.
        index: u64,
    },
    /// Initial value assignment / hotspot selection for client `index`.
    Hotspot {
        /// Client index within the cell.
        index: u64,
    },
    /// SIG combined-subset membership derivation.
    Signatures,
    /// Initial database contents.
    Database,
    /// Anything else, keyed by caller-chosen tag.
    Custom {
        /// Caller-chosen tag.
        tag: u64,
    },
    /// Fault-injection draws (loss, corruption, retry, drift) for mobile
    /// unit `index`.
    Faults {
        /// Client index within the cell.
        index: u64,
    },
    /// Mobility draws (cell-crossing decisions and destination picks)
    /// for the mesh-global client `index`. Appended for the mesh layer:
    /// single-cell runs never touch it, so every pre-mesh stream — and
    /// therefore every committed figure artifact — is unchanged.
    Mobility {
        /// Global client index within the mesh (home cell × per-cell
        /// population + home slot).
        index: u64,
    },
    /// Query-plane draws (predicate footprints, query/txn arrivals) for
    /// mobile unit `index`. Appended for the query-result cache layer:
    /// runs without a query plane never touch it, so every existing
    /// stream — and every committed figure artifact — is unchanged.
    QueryPlan {
        /// Client index within the cell.
        index: u64,
    },
    /// Zipf-skewed item picks for mobile unit `index` when the bounded-
    /// cache workload arms query skew. Appended for the capacity layer:
    /// runs without a Zipf exponent never touch it, so every existing
    /// stream — and every committed figure artifact — is unchanged.
    ZipfQuery {
        /// Client index within the cell.
        index: u64,
    },
}

impl StreamId {
    fn mix_words(self) -> (u64, u64) {
        match self {
            StreamId::Updates => (1, 0),
            StreamId::Queries { index } => (2, index),
            StreamId::Sleep { index } => (3, index),
            StreamId::Hotspot { index } => (4, index),
            StreamId::Signatures => (5, 0),
            StreamId::Database => (6, 0),
            StreamId::Custom { tag } => (7, tag),
            StreamId::Faults { index } => (8, index),
            StreamId::Mobility { index } => (9, index),
            StreamId::QueryPlan { index } => (10, index),
            StreamId::ZipfQuery { index } => (11, index),
        }
    }
}

/// The root of all randomness for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterSeed(pub u64);

impl MasterSeed {
    /// A fixed seed used throughout the test-suite for replayability.
    pub const TEST: MasterSeed = MasterSeed(0x5EED_CAFE_F00D_D00D);

    /// Derives the independent stream for `id`.
    pub fn stream(self, id: StreamId) -> RngStream {
        let (kind, index) = id.mix_words();
        let mut state = self.0;
        state = splitmix64(state ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        state = splitmix64(state ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        // Seed the xoshiro state from four further SplitMix64 outputs,
        // the initialization its authors recommend.
        let mut s = state;
        let mut words = [0u64; 4];
        for w in &mut words {
            s = splitmix64(s);
            *w = s;
        }
        RngStream { s: words }
    }
}

/// SplitMix64: a small, well-distributed 64-bit mixing function used only
/// for seed derivation (the draws themselves come from xoshiro256++).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independent, reproducible random stream.
///
/// Backed by an in-tree xoshiro256++ generator (Blackman & Vigna) so
/// the workspace has no external RNG dependency and the hot path pays
/// four shifts and an add per word instead of a ChaCha block.
#[derive(Debug, Clone)]
pub struct RngStream {
    s: [u64; 4],
}

impl RngStream {
    /// Uniform draw in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's unbiased multiply-shift
    /// rejection method).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn uniform_index(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "uniform_index bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw with success probability `p ∈ [0, 1]`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential draw with the given `rate` (mean `1/rate`).
    ///
    /// This is the inter-arrival distribution of the paper's update
    /// process (§4: "Updates occur following an exponential
    /// distribution, at an update rate of μ per item").
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive, got {rate}"
        );
        // Inverse-CDF sampling; 1 - u avoids ln(0).
        let u: f64 = self.uniform();
        -(1.0 - u).ln() / rate
    }

    /// A fresh 64-bit word (used for item values).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
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

    /// Fisher–Yates sample of `count` distinct indices out of `[0, n)`.
    /// Used to pick hotspot items for a client.
    pub fn sample_distinct(&mut self, n: u64, count: usize) -> Vec<u64> {
        assert!(
            (count as u64) <= n,
            "cannot sample {count} distinct values from a universe of {n}"
        );
        // Partial Fisher–Yates over a sparse permutation map keeps this
        // O(count) even when n is 10^6 (Scenario 2/4 database sizes).
        use std::collections::HashMap;
        let mut swaps: HashMap<u64, u64> = HashMap::with_capacity(count * 2);
        let mut out = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let j = i + self.uniform_index(n - i);
            let vi = *swaps.get(&i).unwrap_or(&i);
            let vj = *swaps.get(&j).unwrap_or(&j);
            out.push(vj);
            swaps.insert(j, vi);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let seed = MasterSeed(42);
        let mut a = seed.stream(StreamId::Updates);
        let mut b = seed.stream(StreamId::Updates);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_are_independent() {
        let seed = MasterSeed(42);
        let mut a = seed.stream(StreamId::Updates);
        let mut b = seed.stream(StreamId::Queries { index: 0 });
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "distinct streams should not collide");
    }

    #[test]
    fn client_streams_differ_by_index() {
        let seed = MasterSeed(7);
        let mut a = seed.stream(StreamId::Queries { index: 1 });
        let mut b = seed.stream(StreamId::Queries { index: 2 });
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fault_streams_are_independent_of_existing_streams() {
        let seed = MasterSeed(42);
        // The fault stream for client i must collide with neither the
        // client's other streams nor the Custom tag space.
        for other in [
            StreamId::Queries { index: 3 },
            StreamId::Sleep { index: 3 },
            StreamId::Hotspot { index: 3 },
            StreamId::Custom { tag: 3 },
            StreamId::Custom { tag: 8 },
        ] {
            let mut a = seed.stream(StreamId::Faults { index: 3 });
            let mut b = seed.stream(other);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert_eq!(same, 0, "Faults stream collided with {other:?}");
        }
    }

    #[test]
    fn mobility_streams_are_independent_of_existing_streams() {
        let seed = MasterSeed(42);
        // The mobility stream for global client g must collide with
        // neither the same-index per-client streams nor the tag spaces
        // that could alias its discriminant.
        for other in [
            StreamId::Queries { index: 3 },
            StreamId::Sleep { index: 3 },
            StreamId::Hotspot { index: 3 },
            StreamId::Faults { index: 3 },
            StreamId::Custom { tag: 3 },
            StreamId::Custom { tag: 9 },
        ] {
            let mut a = seed.stream(StreamId::Mobility { index: 3 });
            let mut b = seed.stream(other);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert_eq!(same, 0, "Mobility stream collided with {other:?}");
        }
    }

    #[test]
    fn query_plan_streams_are_independent_of_existing_streams() {
        let seed = MasterSeed(42);
        // The query-plane stream for client i must collide with neither
        // the client's other streams nor the tag spaces that could alias
        // its discriminant.
        for other in [
            StreamId::Queries { index: 3 },
            StreamId::Sleep { index: 3 },
            StreamId::Hotspot { index: 3 },
            StreamId::Faults { index: 3 },
            StreamId::Mobility { index: 3 },
            StreamId::Custom { tag: 3 },
            StreamId::Custom { tag: 10 },
        ] {
            let mut a = seed.stream(StreamId::QueryPlan { index: 3 });
            let mut b = seed.stream(other);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert_eq!(same, 0, "QueryPlan stream collided with {other:?}");
        }
    }

    #[test]
    fn zipf_query_streams_are_independent_of_existing_streams() {
        let seed = MasterSeed(42);
        // The Zipf item-pick stream for client i must collide with
        // neither the client's other streams nor the tag spaces that
        // could alias its discriminant.
        for other in [
            StreamId::Queries { index: 3 },
            StreamId::Sleep { index: 3 },
            StreamId::Hotspot { index: 3 },
            StreamId::Faults { index: 3 },
            StreamId::Mobility { index: 3 },
            StreamId::QueryPlan { index: 3 },
            StreamId::Custom { tag: 3 },
            StreamId::Custom { tag: 11 },
        ] {
            let mut a = seed.stream(StreamId::ZipfQuery { index: 3 });
            let mut b = seed.stream(other);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert_eq!(same, 0, "ZipfQuery stream collided with {other:?}");
        }
    }

    #[test]
    fn zipf_query_streams_differ_by_index() {
        let seed = MasterSeed(7);
        let mut a = seed.stream(StreamId::ZipfQuery { index: 0 });
        let mut b = seed.stream(StreamId::ZipfQuery { index: 1 });
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn query_plan_streams_differ_by_index() {
        let seed = MasterSeed(7);
        let mut a = seed.stream(StreamId::QueryPlan { index: 0 });
        let mut b = seed.stream(StreamId::QueryPlan { index: 1 });
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn mobility_streams_differ_by_index() {
        let seed = MasterSeed(7);
        let mut a = seed.stream(StreamId::Mobility { index: 0 });
        let mut b = seed.stream(StreamId::Mobility { index: 1 });
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fault_streams_differ_by_index() {
        let seed = MasterSeed(7);
        let mut a = seed.stream(StreamId::Faults { index: 0 });
        let mut b = seed.stream(StreamId::Faults { index: 1 });
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = MasterSeed(11).stream(StreamId::Updates);
        let rate = 0.1;
        let n = 200_000;
        let total: f64 = (0..n).map(|_| rng.exponential(rate)).sum();
        let mean = total / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "sample mean {mean} too far from {expected}"
        );
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut rng = MasterSeed(13).stream(StreamId::Sleep { index: 0 });
        let p = 0.3;
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - p).abs() < 0.01, "frequency {freq} too far from {p}");
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = MasterSeed(1).stream(StreamId::Sleep { index: 0 });
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let mut rng = MasterSeed(5).stream(StreamId::Hotspot { index: 0 });
        let sample = rng.sample_distinct(1_000_000, 500);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 500);
        assert!(sample.iter().all(|&x| x < 1_000_000));
    }

    #[test]
    fn sample_distinct_full_universe_is_permutation() {
        let mut rng = MasterSeed(5).stream(StreamId::Hotspot { index: 1 });
        let mut sample = rng.sample_distinct(32, 32);
        sample.sort_unstable();
        assert_eq!(sample, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_index_stays_in_bounds() {
        let mut rng = MasterSeed(3).stream(StreamId::Database);
        for _ in 0..10_000 {
            assert!(rng.uniform_index(17) < 17);
        }
    }
}
