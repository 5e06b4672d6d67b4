//! Analytical bounds for the SIG scheme (§4.5).
//!
//! * `p` — probability that a *valid* cached item appears in an
//!   unmatching combined signature (Eq. 21):
//!   `p = (1/(f+1)) · (1 − (1 − 1/(f+1))^f · (1 − 2^−g))`, which the
//!   paper approximates as `(1/(f+1))(1 − 1/e)`.
//! * `p_f` — Chernoff bound on a valid item being falsely diagnosed
//!   (Eq. 22): `p_f ≤ exp(−(K−1)²·m·p/3)` for `1 < K ≤ 2`.
//! * `m` — signatures required so that the probability of *any* false
//!   diagnosis among the valid cached items stays below `δ` (Eq. 24):
//!   `m ≥ 6(f+1)(ln(1/δ) + ln n)`.
//! * `P_nf = 1 − p_f` — feeds the SIG hit ratio `h_sig` (Eq. 26/43).

/// Exact per-subset probability that a valid cached item sits in an
/// unmatching signature (Eq. 21 before approximation).
///
/// `f` is the number of items that truly need invalidation, `g` the
/// signature width in bits.
pub fn p_valid_in_unmatched(f: u32, g: u32) -> f64 {
    let fp1 = f as f64 + 1.0;
    let member = 1.0 / fp1;
    // Probability that at least one of the f invalid items is in the
    // subset and flips its signature.
    let some_invalid = (1.0 - (1.0 - member).powi(f as i32)) * (1.0 - 2f64.powi(-(g as i32)));
    member * some_invalid
}

/// The paper's closed-form approximation of Eq. 21:
/// `p ≈ (1/(f+1))(1 − 1/e)`.
pub fn p_valid_in_unmatched_approx(f: u32) -> f64 {
    (1.0 / (f as f64 + 1.0)) * (1.0 - (-1.0f64).exp())
}

/// Chernoff bound of Eq. 22 on the probability that a valid item's
/// unmatch count exceeds the threshold `K·m·p`:
/// `p_f ≤ exp(−(K−1)²·m·p/3)`.
///
/// # Panics
/// Panics unless `1 < K ≤ 2` (the range the paper derives the bound for).
pub fn chernoff_false_alarm_bound(k: f64, m: u32, p: f64) -> f64 {
    assert!(k > 1.0 && k <= 2.0, "Chernoff bound requires 1 < K <= 2, got {k}");
    (-(k - 1.0).powi(2) * m as f64 * p / 3.0).exp()
}

/// Probability of *no* false diagnosis for a single valid item,
/// `P_nf = 1 − p_f` — the factor by which SIG's hit ratio lags the
/// others (Eq. 26).
pub fn prob_no_false_diagnosis(k: f64, m: u32, p: f64) -> f64 {
    1.0 - chernoff_false_alarm_bound(k, m, p)
}

/// Number of combined signatures needed so that the probability of any
/// of the (at most `n`) valid cached items being falsely diagnosed is
/// below `delta` (Eq. 24, derived with `K = 2`):
/// `m ≥ 6(f+1)(ln(1/δ) + ln n)`.
pub fn required_signatures(f: u32, n: u64, delta: f64) -> u32 {
    assert!(delta > 0.0 && delta < 1.0, "confidence δ must be in (0,1)");
    assert!(n > 0, "database cannot be empty");
    let m = 6.0 * (f as f64 + 1.0) * ((1.0 / delta).ln() + (n as f64).ln());
    m.ceil() as u32
}

/// A complete SIG configuration: everything both sides must agree on,
/// with the derived analytical quantities attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigPlan {
    /// Diagnosable difference count `f`.
    pub f: u32,
    /// Signature width `g` in bits.
    pub g: u32,
    /// Number of combined signatures `m`.
    pub m: u32,
    /// Database size `n`: item ids run over `0..n`.
    pub n: u64,
    /// Decision threshold factor `K` (`count > K·m·p` ⇒ invalid).
    pub k: f64,
    /// The per-subset false-positive probability `p` (Eq. 21).
    pub p: f64,
    /// Chernoff bound on per-item false diagnosis (Eq. 22).
    pub false_alarm_bound: f64,
    /// `P_nf = 1 − p_f` (Eq. 26).
    pub p_no_false: f64,
}

impl SigPlan {
    /// Builds the plan the paper's scenarios use: `m` from Eq. 24 with
    /// confidence `delta`, exact `p` from Eq. 21, and operating
    /// threshold factor `k`.
    ///
    /// The detection threshold must sit strictly between the expected
    /// unmatch count of a valid item (`m·p`) and that of an invalid item
    /// (`≈ m/(f+1)`); `k` is validated against that ceiling,
    /// `1/(1 − 1/e) ≈ 1.582`.
    pub fn new(f: u32, g: u32, n: u64, delta: f64, k: f64) -> Self {
        let p = p_valid_in_unmatched(f, g);
        let separation_ceiling = 1.0 / (1.0 - (-1.0f64).exp());
        assert!(
            k > 1.0 && k < separation_ceiling,
            "threshold factor K must lie in (1, {separation_ceiling:.3}) to separate \
             valid from invalid items, got {k}"
        );
        let m = required_signatures(f, n, delta);
        // The Chernoff expression is monotone in K; evaluate at the
        // operating threshold (it only strengthens toward K = 2).
        let false_alarm_bound = chernoff_false_alarm_bound(k.min(2.0), m, p);
        SigPlan {
            f,
            g,
            m,
            n,
            k,
            p,
            false_alarm_bound,
            p_no_false: 1.0 - false_alarm_bound,
        }
    }

    /// The default operating threshold factor: midway between the two
    /// expected counts.
    pub const DEFAULT_K: f64 = 1.25;

    /// The syndrome count threshold `m·δ_f = K·m·p` of the paper's
    /// literal rule (kept for the analytical comparisons).
    pub fn count_threshold(&self) -> f64 {
        self.k * self.m as f64 * self.p
    }

    /// The degree-normalized threshold fraction `θ = K·p·(f+1)` used by
    /// the operational decoder: item `i` is invalidated iff its unmatch
    /// count exceeds `θ·deg(i)`. Identical to the paper's rule in
    /// expectation (`E[deg] = m/(f+1)`), robust to degree variance; see
    /// `sw_signature::syndrome` for the rationale.
    pub fn degree_threshold_fraction(&self) -> f64 {
        self.k * self.p * (self.f as f64 + 1.0)
    }

    /// Report size in bits: `m · g` signatures, which the throughput
    /// formula (Eq. 25) upper-bounds as `6g(f+1)(ln(1/δ) + ln n)`.
    pub fn report_bits(&self) -> u64 {
        self.m as u64 * self.g as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_p_close_to_paper_approximation() {
        for f in [5u32, 10, 20, 200] {
            let exact = p_valid_in_unmatched(f, 16);
            let approx = p_valid_in_unmatched_approx(f);
            assert!(
                (exact - approx).abs() / approx < 0.1,
                "f={f}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn p_decreases_with_f() {
        let p10 = p_valid_in_unmatched(10, 16);
        let p200 = p_valid_in_unmatched(200, 16);
        assert!(p200 < p10);
    }

    #[test]
    fn chernoff_bound_shrinks_with_m() {
        let p = p_valid_in_unmatched(10, 16);
        let loose = chernoff_false_alarm_bound(2.0, 100, p);
        let tight = chernoff_false_alarm_bound(2.0, 1000, p);
        assert!(tight < loose);
        assert!(tight > 0.0 && loose < 1.0);
    }

    #[test]
    fn required_m_matches_eq24_scenario1() {
        // Scenario 1: f = 10, n = 1000, δ = 0.05:
        // m ≥ 6·11·(ln 20 + ln 1000) ≈ 6·11·(3.0 + 6.91) ≈ 653.6.
        let m = required_signatures(10, 1000, 0.05);
        assert_eq!(m, 654);
    }

    #[test]
    fn required_m_grows_logarithmically_with_n() {
        let m_small = required_signatures(10, 1_000, 0.05);
        let m_large = required_signatures(10, 1_000_000, 0.05);
        // ln grows by ln(1000) ≈ 6.9 → Δm ≈ 6·11·6.9 ≈ 456.
        let delta = m_large - m_small;
        assert!((400..520).contains(&delta), "Δm = {delta}");
    }

    #[test]
    fn plan_threshold_separates_valid_from_invalid() {
        let plan = SigPlan::new(10, 16, 1000, 0.05, SigPlan::DEFAULT_K);
        let valid_expected = plan.m as f64 * plan.p;
        let invalid_expected = plan.m as f64 / (plan.f as f64 + 1.0);
        let threshold = plan.count_threshold();
        assert!(
            valid_expected < threshold && threshold < invalid_expected,
            "threshold {threshold} must sit between {valid_expected} and {invalid_expected}"
        );
    }

    #[test]
    fn plan_report_bits() {
        let plan = SigPlan::new(10, 16, 1000, 0.05, SigPlan::DEFAULT_K);
        assert_eq!(plan.report_bits(), plan.m as u64 * 16);
    }

    #[test]
    fn p_no_false_is_high_for_paper_parameters() {
        let plan = SigPlan::new(10, 16, 1000, 0.05, SigPlan::DEFAULT_K);
        assert!(
            plan.p_no_false > 0.5,
            "P_nf {} unexpectedly low",
            plan.p_no_false
        );
    }

    #[test]
    #[should_panic(expected = "threshold factor")]
    fn k_beyond_separation_rejected() {
        let _ = SigPlan::new(10, 16, 1000, 0.05, 1.8);
    }

    #[test]
    #[should_panic(expected = "Chernoff bound requires")]
    fn chernoff_k_range_enforced() {
        let _ = chernoff_false_alarm_bound(0.5, 100, 0.05);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn delta_range_enforced() {
        let _ = required_signatures(10, 1000, 1.5);
    }
}
