//! E-invariant 1: the no-stale-reads safety contract (§2).
//!
//! "Our schemes will only allow false alarm errors and will always
//! correctly inform the client if his copy is invalid." For TS and AT
//! this must hold absolutely, across arbitrary parameter combinations —
//! a deterministic seeded driver pushes the whole simulator through
//! randomized regimes. SIG is probabilistic; its violation rate is
//! bounded statistically. Each case runs on both client stores.

use sleepers_workaholics::prelude::*;
use sleepers_workaholics::sim::{MasterSeed, RngStream, StreamId};
use sleepers_workaholics::Strategy;

fn rng(tag: u64) -> RngStream {
    MasterSeed(0x5AFE_0000_0000_0000 | tag).stream(StreamId::Custom { tag })
}

fn scenario(lambda: f64, mu: f64, s: f64, k: u32, n: u64) -> ScenarioParams {
    let mut p = ScenarioParams::scenario1();
    p.lambda = lambda;
    p.mu = mu;
    p.k = k;
    p.n_items = n;
    // Safety is about correctness, not capacity: a wide channel keeps
    // randomized μ/k combinations from tripping the report-size guard.
    p.bandwidth_bps = 100_000_000;
    p.with_s(s)
}

/// Safety violations and entries checked, summed over both client
/// stores: every strategy runs on each, so the contract must hold on
/// each, not just on the one a cell picks by default.
fn run_safety(params: ScenarioParams, strategy: Strategy, seed: u64, intervals: u64) -> (u64, u64) {
    let (mut violations, mut checked) = (0, 0);
    for backend in [FleetBackend::Units, FleetBackend::Columnar] {
        let cfg = CellConfig::new(params)
            .with_clients(6)
            .with_hotspot_size(15.min(params.n_items as usize))
            .with_seed(seed)
            .with_safety_checking()
            .with_fleet(backend);
        let mut sim = CellSimulation::new(cfg, strategy).expect("valid config");
        let report = sim.run(intervals).expect("in-budget scenario");
        violations += report.safety.violations;
        checked += report.safety.entries_checked;
    }
    (violations, checked)
}

fn in_range(rng: &mut RngStream, lo: f64, hi: f64) -> f64 {
    lo + rng.uniform() * (hi - lo)
}

/// TS never validates a stale cache entry, whatever the regime.
#[test]
fn ts_never_stale() {
    let mut rng = rng(1);
    for case in 0..24 {
        let lambda = in_range(&mut rng, 0.01, 0.5);
        let mu = in_range(&mut rng, 1e-5, 5e-2);
        let s = in_range(&mut rng, 0.0, 1.0);
        let k = 1 + rng.uniform_index(19) as u32;
        let seed = rng.next_u64();
        let params = scenario(lambda, mu, s, k, 300);
        let (violations, checked) = run_safety(params, Strategy::BroadcastTimestamps, seed, 60);
        assert_eq!(
            violations, 0,
            "case {case}: TS stale entries out of {checked} checked \
             (λ={lambda}, μ={mu}, s={s}, k={k}, seed={seed})"
        );
    }
}

/// AT never validates a stale cache entry, whatever the regime.
#[test]
fn at_never_stale() {
    let mut rng = rng(2);
    for case in 0..24 {
        let lambda = in_range(&mut rng, 0.01, 0.5);
        let mu = in_range(&mut rng, 1e-5, 5e-2);
        let s = in_range(&mut rng, 0.0, 1.0);
        let seed = rng.next_u64();
        let params = scenario(lambda, mu, s, 5, 300);
        let (violations, checked) = run_safety(params, Strategy::AmnesicTerminals, seed, 60);
        assert_eq!(
            violations, 0,
            "case {case}: AT stale entries out of {checked} checked \
             (λ={lambda}, μ={mu}, s={s}, seed={seed})"
        );
    }
}

/// The adaptive-TS per-item gap rule preserves safety too.
#[test]
fn adaptive_ts_never_stale() {
    let mut rng = rng(3);
    for case in 0..24 {
        let lambda = in_range(&mut rng, 0.01, 0.3);
        let mu = in_range(&mut rng, 1e-4, 2e-2);
        let s = in_range(&mut rng, 0.0, 0.9);
        let seed = rng.next_u64();
        let params = scenario(lambda, mu, s, 4, 300);
        let strategy = Strategy::AdaptiveTs {
            method: FeedbackMethod::Method1,
            eval_period: 8,
            step: 2,
        };
        let (violations, checked) = run_safety(params, strategy, seed, 80);
        assert_eq!(
            violations, 0,
            "case {case}: adaptive TS stale entries out of {checked} checked \
             (λ={lambda}, μ={mu}, s={s}, seed={seed})"
        );
    }
}

/// SIG's stale-validation rate stays within its probabilistic budget
/// (signature collisions at g = 16 are ~2⁻¹⁶; the measured rate must be
/// far below 1%).
#[test]
fn sig_stale_rate_is_bounded() {
    let params = scenario(0.05, 1e-3, 0.4, 10, 400);
    let mut total_violations = 0;
    let mut total_checked = 0;
    for seed in 0..4u64 {
        let (v, c) = run_safety(params, Strategy::Signatures, seed * 7 + 1, 150);
        total_violations += v;
        total_checked += c;
    }
    let rate = total_violations as f64 / total_checked.max(1) as f64;
    assert!(
        rate < 0.005,
        "SIG stale-validation rate {rate} (of {total_checked}) exceeds the probabilistic budget"
    );
}

/// The quasi-delay condition allows *bounded lag*, never fabricated
/// values: every cached value must equal the server value at some time
/// within α of the read — which the per-entry timestamp discipline
/// already certifies (the checker validates value-at-timestamp).
#[test]
fn quasi_delay_lag_is_honest() {
    let params = scenario(0.05, 2e-3, 0.3, 5, 300);
    let (violations, checked) = run_safety(
        params,
        Strategy::QuasiDelay { alpha_intervals: 5 },
        99,
        150,
    );
    assert!(checked > 0);
    assert_eq!(
        violations, 0,
        "quasi-delay entries must be honest about their validity timestamp"
    );
}
