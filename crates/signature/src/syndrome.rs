//! Syndrome construction and decoding — the client side of SIG (§3.3).
//!
//! The client caches, next to its items, the combined signatures of
//! every subset that contains a cached item. When a report arrives it
//! builds the syndrome `α_j = 1` iff subset `j` is cached *and* its
//! broadcast signature differs from the cached one, then counts, for
//! each cached item, the unmatching subsets it belongs to. The paper
//! writes the loop subset-major:
//!
//! ```text
//! for j in 1..=m { if α_j == 1 { for i in cache { if i ∈ S_j { count[i] += 1 } } } }
//! invalidate i  where  count[i] > m·δ_f        (δ_f = K·p)
//! ```
//!
//! The code runs it item-major — for each cached `i`, over the subsets
//! containing `i` — which gives identical counts: the subsets are fixed
//! a priori, so the decoder looks up each item's subsets once
//! ([`SyndromeDecoder::subsets_of`]) and a decode reads `Σ deg(i)` list
//! entries instead of hashing all `m·|cache|` pairs.
//!
//! An item in "too many" unmatching signatures is *suspected* of being
//! out of date and dropped — possibly falsely (a false alarm, which only
//! costs an unnecessary uplink query), while a truly changed item escapes
//! only if every one of its subsets collides, probability ≈ 2^−g each.
//!
//! **Refinement over the paper's literal rule.** The paper thresholds
//! the raw count against `m·δ_f = K·m·p`, which silently assumes every
//! item belongs to exactly `m/(f+1)` subsets. At finite `m` the degree
//! `deg(i) = |{j : i ∈ S_j}|` is Binomial with ~13% relative spread, so
//! low-degree items could *never* exceed the global threshold and would
//! stay stale forever. Since both sides can compute `deg(i)` exactly
//! from the shared family, we normalize: invalidate iff
//! `count(i) > θ·deg(i)` with `θ = K·p·(f+1)` — identical in
//! expectation to the paper's rule, immune to degree variance, and
//! guaranteeing every truly-changed item is caught up to signature
//! collisions (θ < 1). EXPERIMENTS.md quantifies the difference.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::bounds::SigPlan;
use crate::sig::CombinedSignature;
use crate::subsets::SubsetFamily;

/// The outcome of decoding one report against one client cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Items declared invalid (to be dropped from the cache), in the
    /// order of the `cached_items` input.
    pub invalidated: Vec<u64>,
    /// Number of cached subsets whose signatures did not match.
    pub unmatched_subsets: u32,
}

/// Decodes syndromes for a fixed subset family and plan, and is the one
/// place an item becomes the list of subsets containing it.
///
/// The lists are filled lazily, one per item on first use, and shared
/// by every clone: a fleet that clones one decoder into each client's
/// rule computes an item's subsets once for all of them.
#[derive(Clone)]
pub struct SyndromeDecoder {
    family: SubsetFamily,
    plan: SigPlan,
    /// `lists[i]`: the subsets containing item `i`, ascending; one slot
    /// per item of the database.
    lists: Arc<[OnceLock<Box<[u32]>>]>,
}

impl fmt::Debug for SyndromeDecoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self
            .lists
            .iter()
            .filter(|list| list.get().is_some())
            .count();
        f.debug_struct("SyndromeDecoder")
            .field("family", &self.family)
            .field("plan", &self.plan)
            .field("filled_lists", &filled)
            .finish()
    }
}

impl SyndromeDecoder {
    /// Creates a decoder; `family.m()` must equal `plan.m`.
    pub fn new(family: SubsetFamily, plan: SigPlan) -> Self {
        assert_eq!(
            family.m(),
            plan.m,
            "subset family has {} subsets but the plan requires {}",
            family.m(),
            plan.m
        );
        assert_eq!(
            family.f(),
            plan.f,
            "subset family built for f={} but the plan has f={}",
            family.f(),
            plan.f
        );
        let n = usize::try_from(plan.n).expect("database size fits in memory");
        SyndromeDecoder {
            family,
            plan,
            lists: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The shared subset family.
    pub fn family(&self) -> &SubsetFamily {
        &self.family
    }

    /// The plan in force.
    pub fn plan(&self) -> &SigPlan {
        &self.plan
    }

    /// The subsets containing `item`, ascending — `deg(item)` of them,
    /// `m/(f+1)` expected. The first call for an item hashes all `m`
    /// subsets; every later call, on this decoder or any clone, reads
    /// the stored list.
    ///
    /// # Panics
    /// Panics if `item` is not below the plan's database size `n`.
    #[inline]
    pub fn subsets_of(&self, item: u64) -> &[u32] {
        let Some(list) = usize::try_from(item).ok().and_then(|i| self.lists.get(i)) else {
            panic!(
                "item {item} is outside the database: the plan has n = {} items",
                self.plan.n
            )
        };
        list.get_or_init(|| self.family.subsets_of(item).collect())
    }

    /// Runs the diagnosis algorithm of §3.3.
    ///
    /// * `cached_items` — the ids currently in the client cache;
    /// * `cached_sigs(j)` — the client's stored signature for subset
    ///   `j`, or `None` if the client does not cache that subset
    ///   ("combined uncached signatures are considered equal to the ones
    ///   that are being broadcast", i.e. they never unmatch);
    /// * `broadcast` — the `m` signatures from the report.
    ///
    /// Item `i` is invalidated iff more than `θ·deg(i)` of its subsets
    /// unmatch (see the module docs), decided as its list is walked.
    pub fn diagnose<F>(
        &self,
        cached_items: &[u64],
        cached_sigs: F,
        broadcast: &[CombinedSignature],
    ) -> Diagnosis
    where
        F: Fn(u32) -> Option<CombinedSignature>,
    {
        assert_eq!(
            broadcast.len(),
            self.plan.m as usize,
            "report carries {} signatures, expected m={}",
            broadcast.len(),
            self.plan.m
        );
        let alpha = |j: u32| cached_sigs(j).is_some_and(|mine| mine != broadcast[j as usize]);
        let threshold = self.plan.degree_threshold_fraction();
        let invalidated = cached_items
            .iter()
            .copied()
            .filter(|&item| {
                let subsets = self.subsets_of(item);
                let count = subsets.iter().filter(|&&j| alpha(j)).count();
                count as f64 > threshold * subsets.len() as f64
            })
            .collect();
        Diagnosis {
            invalidated,
            unmatched_subsets: (0..self.plan.m).filter(|&j| alpha(j)).count() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::{combine, item_signature};
    use std::collections::HashMap;

    /// A tiny in-memory "server": n items with values, producing the m
    /// combined signatures the MSS would broadcast.
    struct MiniServer {
        family: SubsetFamily,
        values: Vec<u64>,
        g: u32,
    }

    impl MiniServer {
        fn new(family: SubsetFamily, n: u64, g: u32) -> Self {
            MiniServer {
                family,
                values: (0..n).map(|i| i * 1000 + 1).collect(),
                g,
            }
        }

        fn update(&mut self, item: u64, value: u64) {
            self.values[item as usize] = value;
        }

        fn broadcast(&self) -> Vec<CombinedSignature> {
            (0..self.family.m())
                .map(|j| {
                    combine(
                        (0..self.values.len() as u64)
                            .filter(|&i| self.family.contains(j, i))
                            .map(|i| item_signature(i, self.values[i as usize], self.g)),
                    )
                })
                .collect()
        }
    }

    fn setup(f: u32, n: u64) -> (MiniServer, SyndromeDecoder) {
        let g = 16;
        let plan = SigPlan::new(f, g, n, 0.05, SigPlan::DEFAULT_K);
        let family = SubsetFamily::new(0xABCD, plan.m, f);
        let server = MiniServer::new(family, n, g);
        (server, SyndromeDecoder::new(family, plan))
    }

    /// Client snapshot: stores all subset signatures touching its items.
    fn snapshot(
        decoder: &SyndromeDecoder,
        server: &MiniServer,
        cached_items: &[u64],
    ) -> HashMap<u32, CombinedSignature> {
        let all = server.broadcast();
        let mut sigs = HashMap::new();
        for &item in cached_items {
            for j in decoder.family().subsets_of(item) {
                sigs.insert(j, all[j as usize]);
            }
        }
        sigs
    }

    /// The paper's subset-major loop, hashing every `(j, i)` pair —
    /// the reference `diagnose` must agree with. Returns the diagnosis
    /// and the per-item unmatch counts and degrees, parallel to
    /// `cached_items`.
    fn literal_diagnose<F>(
        decoder: &SyndromeDecoder,
        cached_items: &[u64],
        cached_sigs: F,
        broadcast: &[CombinedSignature],
    ) -> (Diagnosis, Vec<u32>, Vec<u32>)
    where
        F: Fn(u32) -> Option<CombinedSignature>,
    {
        let mut counts = vec![0u32; cached_items.len()];
        let mut degrees = vec![0u32; cached_items.len()];
        let mut unmatched_subsets = 0u32;
        for (j, &bsig) in broadcast.iter().enumerate() {
            let j = j as u32;
            let alpha = match cached_sigs(j) {
                Some(csig) => csig != bsig,
                None => false,
            };
            if alpha {
                unmatched_subsets += 1;
            }
            for (idx, &item) in cached_items.iter().enumerate() {
                if decoder.family().contains(j, item) {
                    degrees[idx] += 1;
                    if alpha {
                        counts[idx] += 1;
                    }
                }
            }
        }
        let threshold = decoder.plan().degree_threshold_fraction();
        let invalidated = cached_items
            .iter()
            .zip(counts.iter().zip(&degrees))
            .filter(|&(_, (&c, &d))| c as f64 > threshold * d as f64)
            .map(|(&i, _)| i)
            .collect();
        let diagnosis = Diagnosis {
            invalidated,
            unmatched_subsets,
        };
        (diagnosis, counts, degrees)
    }

    #[test]
    fn clean_cache_nothing_invalidated() {
        let (server, decoder) = setup(10, 500);
        let cached: Vec<u64> = (0..20).collect();
        let sigs = snapshot(&decoder, &server, &cached);
        let d = decoder.diagnose(&cached, |j| sigs.get(&j).copied(), &server.broadcast());
        assert!(d.invalidated.is_empty());
        assert_eq!(d.unmatched_subsets, 0);
        let (_, counts, _) = literal_diagnose(
            &decoder,
            &cached,
            |j| sigs.get(&j).copied(),
            &server.broadcast(),
        );
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn updated_cached_item_is_diagnosed() {
        let (mut server, decoder) = setup(10, 500);
        let cached: Vec<u64> = (0..20).collect();
        let sigs = snapshot(&decoder, &server, &cached);
        server.update(5, 999_999);
        let d = decoder.diagnose(&cached, |j| sigs.get(&j).copied(), &server.broadcast());
        let (_, counts, _) = literal_diagnose(
            &decoder,
            &cached,
            |j| sigs.get(&j).copied(),
            &server.broadcast(),
        );
        assert!(
            d.invalidated.contains(&5),
            "item 5 should be diagnosed; counts: {counts:?}"
        );
    }

    #[test]
    fn update_to_uncached_item_rarely_kills_valid_cache() {
        // f updates land on items the client does NOT cache; the client's
        // own items should (mostly) survive — this is the false-alarm
        // probability the Chernoff bound controls.
        let (mut server, decoder) = setup(10, 500);
        let cached: Vec<u64> = (0..20).collect();
        let sigs = snapshot(&decoder, &server, &cached);
        for u in 0..10 {
            server.update(400 + u, 777_000 + u);
        }
        let d = decoder.diagnose(&cached, |j| sigs.get(&j).copied(), &server.broadcast());
        assert!(
            d.invalidated.len() <= 2,
            "too many false alarms: {:?}",
            d.invalidated
        );
    }

    #[test]
    fn multiple_updated_items_all_diagnosed() {
        let (mut server, decoder) = setup(10, 500);
        let cached: Vec<u64> = (0..30).collect();
        let sigs = snapshot(&decoder, &server, &cached);
        for item in [3u64, 11, 27] {
            server.update(item, item + 1_000_000);
        }
        let d = decoder.diagnose(&cached, |j| sigs.get(&j).copied(), &server.broadcast());
        for item in [3u64, 11, 27] {
            assert!(d.invalidated.contains(&item), "missed {item}: {:?}", d.invalidated);
        }
    }

    #[test]
    fn sleeping_through_many_updates_still_diagnoses() {
        // SIG's selling point: the report is state-based, so a client
        // that slept through any number of intervals compares against
        // the CURRENT state and still finds its stale items.
        let (mut server, decoder) = setup(10, 500);
        let cached: Vec<u64> = (100..130).collect();
        let sigs = snapshot(&decoder, &server, &cached);
        // Many intervals pass; item 100 is updated repeatedly, ending at
        // a final value.
        for round in 0..50u64 {
            server.update(100, 5_000 + round);
        }
        let d = decoder.diagnose(&cached, |j| sigs.get(&j).copied(), &server.broadcast());
        assert!(d.invalidated.contains(&100));
    }

    #[test]
    fn uncached_subsets_never_unmatch() {
        let (mut server, decoder) = setup(10, 500);
        // Client caches nothing: no subsets cached, so no alarm no matter
        // how much the database churns.
        for i in 0..100 {
            server.update(i, i + 42);
        }
        let d = decoder.diagnose(&[], |_| None, &server.broadcast());
        assert_eq!(d.unmatched_subsets, 0);
        assert!(d.invalidated.is_empty());
    }

    #[test]
    fn counts_are_parallel_to_input() {
        let (mut server, decoder) = setup(10, 200);
        let cached = vec![7u64, 8, 9];
        let sigs = snapshot(&decoder, &server, &cached);
        server.update(8, 123_456);
        let (_, counts, _) = literal_diagnose(
            &decoder,
            &cached,
            |j| sigs.get(&j).copied(),
            &server.broadcast(),
        );
        assert_eq!(counts.len(), 3);
        // The updated item has the (strictly) largest count.
        assert!(counts[1] > counts[0]);
        assert!(counts[1] > counts[2]);
    }

    /// SplitMix64: a seeded stream for the random cases below.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn bernoulli(&mut self, p: f64) -> bool {
            ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
        }
    }

    /// Item-major `diagnose` against the subset-major loop, over seeded
    /// random cases: f from "every item in every subset" to Scenario
    /// 4's 200, empty to full caches, tracking that leaves subsets
    /// uncached and a varying share of the tracked ones out of date.
    #[test]
    fn item_major_diagnose_matches_the_subset_major_loop() {
        let n = 300u64;
        let mut rng = Rng(0xD1A6);
        for f in [0u32, 1, 10, 200] {
            let plan = SigPlan::new(f, 16, n, 0.05, SigPlan::DEFAULT_K);
            for case in 0..12u64 {
                let decoder =
                    SyndromeDecoder::new(SubsetFamily::new(case ^ 0x51C, plan.m, f), plan);
                let cached: Vec<u64> = match case % 4 {
                    0 => Vec::new(),
                    1 => (0..n).collect(),
                    _ => (0..n).filter(|_| rng.bernoulli(0.1)).collect(),
                };
                let broadcast: Vec<CombinedSignature> =
                    (0..plan.m).map(|_| rng.next_u64() >> 48).collect();
                let stale_share = [0.0, 0.05, 0.3, 1.0][(case / 4) as usize % 4];
                let tracked: Vec<Option<CombinedSignature>> = broadcast
                    .iter()
                    .map(|&sig| {
                        rng.bernoulli(0.7)
                            .then(|| sig ^ rng.bernoulli(stale_share) as u64)
                    })
                    .collect();
                let sigs = |j: u32| tracked[j as usize];
                let (expected, _, degrees) = literal_diagnose(&decoder, &cached, sigs, &broadcast);
                let d = decoder.diagnose(&cached, sigs, &broadcast);
                assert_eq!(d, expected, "f={f} case {case}");
                for (&item, &deg) in cached.iter().zip(&degrees) {
                    assert_eq!(decoder.subsets_of(item).len(), deg as usize, "deg({item})");
                }
            }
        }
    }

    /// The stored lists are the family's membership, in ascending
    /// order, and a clone reads the very same slice.
    #[test]
    fn subset_lists_match_the_family_and_are_shared_by_clones() {
        for f in [0u32, 1, 10, 200] {
            let (_, decoder) = setup(f, 200);
            let clone = decoder.clone();
            for i in 0..200 {
                let expected: Vec<u32> = decoder.family().subsets_of(i).collect();
                assert_eq!(decoder.subsets_of(i), &expected[..], "f={f} item {i}");
                assert!(std::ptr::eq(decoder.subsets_of(i), clone.subsets_of(i)));
            }
            let fresh = clone.clone();
            assert!(std::ptr::eq(fresh.subsets_of(7), decoder.subsets_of(7)));
        }
    }

    #[test]
    fn debug_counts_the_filled_lists() {
        let (_, decoder) = setup(10, 200);
        for item in [3, 5, 3] {
            decoder.subsets_of(item);
        }
        assert!(
            format!("{decoder:?}").contains("filled_lists: 2"),
            "{decoder:?}"
        );
    }

    #[test]
    #[should_panic(expected = "item 200 is outside the database: the plan has n = 200 items")]
    fn an_item_beyond_the_database_is_rejected() {
        let (_, decoder) = setup(10, 200);
        decoder.subsets_of(200);
    }

    #[test]
    #[should_panic(expected = "report carries")]
    fn wrong_report_length_rejected() {
        let (_, decoder) = setup(10, 200);
        let _ = decoder.diagnose(&[], |_| None, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "subset family has")]
    fn family_plan_mismatch_rejected() {
        let plan = SigPlan::new(10, 16, 200, 0.05, SigPlan::DEFAULT_K);
        let family = SubsetFamily::new(1, plan.m + 1, 10);
        let _ = SyndromeDecoder::new(family, plan);
    }
}
