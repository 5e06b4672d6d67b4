//! Zipf-skewed query workloads over a client's hotspot domain.
//!
//! The paper's clients pose single-item queries; the query-result cache
//! (`sw-query`) needs *predicate* queries whose answers span several
//! items — e.g. Example 1's stock filter restricted to one watched
//! sector. This module generates a deterministic family of query
//! *templates* per client (each a small distinct footprint of hotspot
//! items) and draws which template fires with Zipf(θ) popularity, so a
//! few hot queries dominate exactly as in edge traffic. Everything is
//! seed-streamed: a template set and its draw sequence are a pure
//! function of `(MasterSeed, StreamId::QueryPlan { index })`.

use sw_sim::RngStream;

/// Specification of one client's query-template family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWorkloadSpec {
    /// Number of distinct query templates to generate.
    pub n_templates: usize,
    /// Items per template footprint (clipped to the domain size).
    pub footprint: usize,
    /// Zipf exponent for template popularity (θ → 0 is uniform).
    pub theta: f64,
}

impl QueryWorkloadSpec {
    /// Creates a spec, validating the shape parameters.
    pub fn new(n_templates: usize, footprint: usize, theta: f64) -> Self {
        assert!(n_templates > 0, "need at least one query template");
        assert!(footprint > 0, "footprints cannot be empty");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf exponent must be finite and non-negative, got {theta}"
        );
        QueryWorkloadSpec {
            n_templates,
            footprint,
            theta,
        }
    }
}

/// A client's generated template family plus its Zipf popularity over
/// the template ranks (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    templates: Vec<Vec<u64>>,
    popularity: ZipfPicker,
}

impl QueryWorkload {
    /// Builds the template family over `domain` (a client's hotspot
    /// item ids). Footprints are distinct item subsets drawn from the
    /// domain; templates are ranked by generation order, rank 0 being
    /// the most popular under Zipf(θ).
    pub fn generate(domain: &[u64], spec: QueryWorkloadSpec, rng: &mut RngStream) -> Self {
        assert!(!domain.is_empty(), "query domain cannot be empty");
        let footprint = spec.footprint.min(domain.len());
        let templates: Vec<Vec<u64>> = (0..spec.n_templates)
            .map(|_| {
                let picks = rng.sample_distinct(domain.len() as u64, footprint);
                let mut items: Vec<u64> = picks.into_iter().map(|i| domain[i as usize]).collect();
                items.sort_unstable();
                items
            })
            .collect();
        let popularity = ZipfPicker::new(spec.n_templates, spec.theta);
        QueryWorkload {
            templates,
            popularity,
        }
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when the family is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The footprint of template `rank` (sorted, distinct item ids).
    pub fn footprint(&self, rank: usize) -> &[u64] {
        &self.templates[rank]
    }

    /// Draws which template fires: [`ZipfPicker::draw`] over the ranks.
    pub fn draw(&self, rng: &mut RngStream) -> usize {
        self.popularity.draw(rng)
    }
}

/// Zipf(θ) popularity over `n` ranks: the one CDF and its inversion,
/// behind both [`QueryWorkload::draw`] (template ranks) and the
/// single-item query picks over a client's hotspot ranks (the
/// bounded-cache workload knob).
///
/// For single-item picks, rank 0 is the hottest item — the first item
/// drawn into the hotspot, so the popularity order is itself
/// seed-streamed. `theta = 0` degenerates to the uniform pick the paper
/// models; draws come from a dedicated [`sw_sim::StreamId::ZipfQuery`]
/// stream so arming the knob never perturbs the classic arrival/pick
/// sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfPicker {
    cdf: Vec<f64>,
}

impl ZipfPicker {
    /// Builds the cumulative Zipf weights over `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf picker needs a non-empty domain");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf exponent must be finite and non-negative, got {theta}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        ZipfPicker { cdf }
    }

    /// Number of ranks in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the domain is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`: inversion over the Zipf CDF, the
    /// first rank whose cumulative weight reaches a uniform `u` of the
    /// total weight. The CDF strictly increases, so this is the index a
    /// three-way binary search for `u` finds, at one two-way compare
    /// per halving, which a release build turns into a conditional move
    /// rather than a branch that mispredicts on random `u`.
    #[inline]
    pub fn draw(&self, rng: &mut RngStream) -> usize {
        self.rank(rng.uniform() * self.cdf[self.cdf.len() - 1])
    }

    /// The rank a draw of cumulative weight `u` lands on.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{MasterSeed, StreamId};

    fn rng(i: u64) -> RngStream {
        MasterSeed::TEST.stream(StreamId::QueryPlan { index: i })
    }

    fn domain(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 3 + 100).collect()
    }

    #[test]
    fn footprints_are_distinct_sorted_subsets_of_the_domain() {
        let d = domain(40);
        let w = QueryWorkload::generate(&d, QueryWorkloadSpec::new(8, 5, 0.9), &mut rng(0));
        assert_eq!(w.len(), 8);
        for rank in 0..w.len() {
            let f = w.footprint(rank);
            assert_eq!(f.len(), 5);
            let mut dedup = f.to_vec();
            dedup.dedup();
            assert_eq!(dedup, f, "footprint must be sorted and distinct");
            assert!(f.iter().all(|i| d.contains(i)));
        }
    }

    #[test]
    fn footprint_clips_to_small_domains() {
        let d = domain(3);
        let w = QueryWorkload::generate(&d, QueryWorkloadSpec::new(2, 10, 1.0), &mut rng(1));
        assert_eq!(w.footprint(0).len(), 3);
    }

    #[test]
    fn generation_is_deterministic_per_stream() {
        let d = domain(30);
        let spec = QueryWorkloadSpec::new(6, 4, 1.1);
        let a = QueryWorkload::generate(&d, spec, &mut rng(2));
        let b = QueryWorkload::generate(&d, spec, &mut rng(2));
        for rank in 0..a.len() {
            assert_eq!(a.footprint(rank), b.footprint(rank));
        }
        let mut ra = rng(3);
        let mut rb = rng(3);
        let draws_a: Vec<usize> = (0..100).map(|_| a.draw(&mut ra)).collect();
        let draws_b: Vec<usize> = (0..100).map(|_| b.draw(&mut rb)).collect();
        assert_eq!(draws_a, draws_b);
    }

    #[test]
    fn zipf_draws_prefer_low_ranks() {
        let d = domain(50);
        let w = QueryWorkload::generate(&d, QueryWorkloadSpec::new(20, 3, 1.2), &mut rng(4));
        let mut r = rng(5);
        let n = 20_000;
        let hot = (0..n).filter(|_| w.draw(&mut r) < 2).count();
        // Zipf(1.2) over 20 ranks puts well over a third of the mass on
        // the top two templates; uniform would give 10%.
        assert!(
            hot as f64 / n as f64 > 0.3,
            "top-2 templates drew only {hot}/{n}"
        );
    }

    #[test]
    fn theta_zero_degenerates_to_uniform() {
        let d = domain(50);
        let w = QueryWorkload::generate(&d, QueryWorkloadSpec::new(10, 3, 0.0), &mut rng(6));
        let mut r = rng(7);
        let n = 50_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[w.draw(&mut r)] += 1;
        }
        let expected = n as f64 / 10.0;
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.1,
                "rank {rank} drew {c}, far from uniform {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one query template")]
    fn empty_family_rejected() {
        let _ = QueryWorkloadSpec::new(0, 3, 1.0);
    }

    #[test]
    fn zipf_picker_prefers_low_ranks_and_is_deterministic() {
        let picker = ZipfPicker::new(20, 1.2);
        let mut a = MasterSeed::TEST.stream(StreamId::ZipfQuery { index: 0 });
        let mut b = MasterSeed::TEST.stream(StreamId::ZipfQuery { index: 0 });
        let draws: Vec<usize> = (0..5_000).map(|_| picker.draw(&mut a)).collect();
        let again: Vec<usize> = (0..5_000).map(|_| picker.draw(&mut b)).collect();
        assert_eq!(draws, again, "same stream must replay identically");
        assert!(draws.iter().all(|&r| r < 20));
        let hot = draws.iter().filter(|&&r| r < 2).count();
        assert!(
            hot as f64 / draws.len() as f64 > 0.3,
            "top-2 ranks drew only {hot}/5000 under Zipf(1.2)"
        );
    }

    #[test]
    fn zipf_picker_theta_zero_is_uniform() {
        let picker = ZipfPicker::new(10, 0.0);
        let mut r = MasterSeed::TEST.stream(StreamId::ZipfQuery { index: 1 });
        let n = 50_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[picker.draw(&mut r)] += 1;
        }
        let expected = n as f64 / 10.0;
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.1,
                "rank {rank} drew {c}, far from uniform {expected}"
            );
        }
    }

    /// The inversion `draw` replaced: a three-way binary search.
    fn searched_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// `partition_point` finds the binary search's index for every `u`
    /// on a strictly increasing CDF — seeded uniforms, every exact
    /// cumulative weight, and the total — so no stream is re-drawn.
    #[test]
    fn zipf_picker_picks_the_binary_search_rank() {
        for n in [1, 2, 30, 200, 1000] {
            for theta in [0.0, 0.8, 1.2] {
                let picker = ZipfPicker::new(n, theta);
                let cdf = &picker.cdf;
                assert!(
                    cdf.windows(2).all(|w| w[0] < w[1]),
                    "CDF over {n} ranks at θ = {theta} must strictly increase"
                );
                let total = cdf[n - 1];
                let mut draws = MasterSeed::TEST.stream(StreamId::ZipfQuery { index: n as u64 });
                let mut again = draws.clone();
                for _ in 0..1_000_000 {
                    let u = again.uniform() * total;
                    assert_eq!(picker.draw(&mut draws), searched_rank(cdf, u), "u = {u}");
                }
                for (i, &c) in cdf.iter().enumerate() {
                    assert_eq!(picker.rank(c), i);
                    assert_eq!(searched_rank(cdf, c), i);
                }
                for u in [0.0, total] {
                    assert_eq!(picker.rank(u), searched_rank(cdf, u), "u = {u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty domain")]
    fn zipf_picker_rejects_empty_domain() {
        let _ = ZipfPicker::new(0, 1.0);
    }
}
