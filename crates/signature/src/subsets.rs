//! The a-priori random subset family `S_1 … S_m`.
//!
//! "There are m randomly chosen sets of items (a priori, before any
//! exchange of signatures takes place), called S_1, S_2, …, S_m. Each
//! set is chosen so that an item i is in set S_j with probability
//! 1/(f+1)." (§3.3)
//!
//! Membership is *derived*, not stored: item `i` belongs to `S_j` iff a
//! seeded hash of `(i, j)` falls below `2^64/(f+1)`. Server and client
//! construct the same family from the shared seed, which is exactly the
//! paper's requirement that "the composition of the subsets of each
//! combined signature is universally known and agreed on before any
//! exchange of information takes place" — and the family itself costs
//! O(1) memory no matter how large the database (the paper's Scenarios
//! 2 and 4 have n = 10^6; the simulator scales them to 10^4).
//!
//! Finding the subsets of one item this way hashes all `m` of them. The
//! hot paths ask the [`crate::SyndromeDecoder`] instead, which does that
//! once per item and keeps the result: a membership mask
//! ([`crate::SyndromeDecoder::members`], `⌈m/64⌉` words) for each item a
//! client cached, an index list ([`crate::SyndromeDecoder::subsets_of`],
//! ~m/(f+1) ids) for each item an update touched.

/// A deterministic family of `m` random subsets with per-item membership
/// probability `1/(f+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsetFamily {
    seed: u64,
    m: u32,
    f: u32,
    threshold: u64,
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SubsetFamily {
    /// Creates the family from a shared `seed`, with `m` subsets and
    /// membership probability `1/(f+1)`.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn new(seed: u64, m: u32, f: u32) -> Self {
        assert!(m > 0, "need at least one subset");
        // P[member] = 1/(f+1); threshold on a uniform 64-bit hash.
        let threshold = (u64::MAX as u128 / (f as u128 + 1)) as u64;
        SubsetFamily {
            seed,
            m,
            f,
            threshold,
        }
    }

    /// Number of subsets `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The diagnosable-difference parameter `f`.
    pub fn f(&self) -> u32 {
        self.f
    }

    /// True iff item `i ∈ S_j` (`j` is zero-based, `j < m`).
    #[inline]
    pub fn contains(&self, j: u32, item: u64) -> bool {
        debug_assert!(j < self.m, "subset index {j} out of range (m={})", self.m);
        let h = mix64(
            self.seed ^ (j as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ item.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        h <= self.threshold
    }

    /// Iterator over the subsets that contain `item` (expected length
    /// `m/(f+1)`).
    pub fn subsets_of(&self, item: u64) -> impl Iterator<Item = u32> + '_ {
        (0..self.m).filter(move |&j| self.contains(j, item))
    }

    /// Materializes subset `j` over a database of `n` items — O(n); used
    /// by tests and small examples, never by the simulator hot path.
    pub fn members(&self, j: u32, n: u64) -> Vec<u64> {
        (0..n).filter(|&i| self.contains(j, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_deterministic() {
        let fam = SubsetFamily::new(42, 100, 10);
        for j in 0..100 {
            for i in 0..200 {
                assert_eq!(fam.contains(j, i), fam.contains(j, i));
            }
        }
    }

    #[test]
    fn server_and_client_agree_from_seed() {
        let server = SubsetFamily::new(7, 64, 5);
        let client = SubsetFamily::new(7, 64, 5);
        assert_eq!(server.members(3, 1000), client.members(3, 1000));
    }

    #[test]
    fn different_seeds_different_families() {
        let a = SubsetFamily::new(1, 64, 5);
        let b = SubsetFamily::new(2, 64, 5);
        assert_ne!(a.members(0, 1000), b.members(0, 1000));
    }

    #[test]
    fn membership_probability_close_to_target() {
        let f = 10u32;
        let fam = SubsetFamily::new(99, 200, f);
        let n = 5_000u64;
        let mut members = 0u64;
        for j in 0..fam.m() {
            members += fam.members(j, n).len() as u64;
        }
        let freq = members as f64 / (fam.m() as u64 * n) as f64;
        let expected = 1.0 / (f as f64 + 1.0);
        assert!(
            (freq - expected).abs() / expected < 0.05,
            "membership frequency {freq} vs expected {expected}"
        );
    }

    #[test]
    fn subsets_of_matches_contains() {
        let fam = SubsetFamily::new(5, 128, 8);
        let item = 77;
        let via_iter: Vec<u32> = fam.subsets_of(item).collect();
        let via_scan: Vec<u32> = (0..128).filter(|&j| fam.contains(j, item)).collect();
        assert_eq!(via_iter, via_scan);
    }

    #[test]
    fn expected_subsets_per_item() {
        // Each item is in ~m/(f+1) subsets.
        let fam = SubsetFamily::new(11, 660, 10);
        let mut total = 0usize;
        let items = 500u64;
        for i in 0..items {
            total += fam.subsets_of(i).count();
        }
        let avg = total as f64 / items as f64;
        let expected = 660.0 / 11.0;
        assert!(
            (avg - expected).abs() / expected < 0.05,
            "avg subsets/item {avg} vs {expected}"
        );
    }

    #[test]
    fn f_zero_means_every_item_in_every_subset() {
        let fam = SubsetFamily::new(3, 4, 0);
        assert_eq!(fam.members(0, 100).len(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one subset")]
    fn zero_subsets_rejected() {
        let _ = SubsetFamily::new(0, 0, 5);
    }
}
