//! Extension: a *mixed* population — the title's two species in
//! one cell.
//!
//! The paper analyzes homogeneous populations (every client shares
//! `s`). Real cells mix workaholics and sleepers, and the server must
//! pick ONE strategy for everyone. This experiment puts half-and-half
//! populations under each strategy and reports per-group hit ratios
//! and latencies, quantifying the §5 verdicts as a single-cell policy
//! question: AT sacrifices the sleepers, TS/SIG tax the workaholics
//! with bigger reports, and the latency guarantee (≤ L for every
//! query, §2) holds for everyone regardless.

use crate::replicate::replicate_seed;
use sleepers::prelude::*;

#[derive(serde::Serialize)]
struct Row {
    strategy: String,
    h_workaholics: f64,
    h_sleepers: f64,
    latency_mean_workaholics: f64,
    latency_max_overall: f64,
    report_bits_mean: f64,
    effectiveness: f64,
}

pub(super) fn run(fast: bool, replicate: u64) -> String {
    let intervals = if fast { 200 } else { 800 };

    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 5e-4;
    params.k = 10;

    // Even client indices are workaholics (s = 0), odd are heavy
    // sleepers (s = 0.8).
    let profile = vec![0.0, 0.8];

    println!("mixed population: half workaholics (s=0), half sleepers (s=0.8)");
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "strat", "h work", "h sleep", "lat mean", "lat max", "B_c bits", "e"
    );
    let mut rows = Vec::new();
    for strategy in [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
        Strategy::HybridSig { hot_count: 100 },
    ] {
        let cfg = CellConfig::new(params)
            .with_clients(12)
            .with_hotspot_size(25)
            .with_sleep_profile(profile.clone())
            .with_seed(replicate_seed(0xE19, replicate));
        let mut sim = CellSimulation::new(cfg, strategy).expect("valid");
        for _ in 0..intervals / 4 {
            sim.step().expect("fits");
        }
        sim.reset_metrics();
        for _ in 0..intervals {
            sim.step().expect("fits");
        }
        let report = sim.report();

        // Per-group stats straight off the fleet.
        let mut work = (0u64, 0u64);
        let mut sleep = (0u64, 0u64);
        let mut lat_sum_work = 0.0;
        let mut queries_work = 0u64;
        let mut lat_max: f64 = 0.0;
        for idx in 0..sim.client_slots() {
            let s = sim.client_stats(idx);
            let bucket = if idx % 2 == 0 { &mut work } else { &mut sleep };
            bucket.0 += s.hit_events;
            bucket.1 += s.miss_events;
            if idx % 2 == 0 {
                lat_sum_work += s.latency_sum_secs;
                queries_work += s.queries_posed;
            }
            lat_max = lat_max.max(s.latency_max_secs);
        }
        let ratio = |(h, m): (u64, u64)| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        let row = Row {
            strategy: strategy.name().to_string(),
            h_workaholics: ratio(work),
            h_sleepers: ratio(sleep),
            latency_mean_workaholics: if queries_work == 0 {
                0.0
            } else {
                lat_sum_work / queries_work as f64
            },
            latency_max_overall: lat_max,
            report_bits_mean: report.report_bits_mean(),
            effectiveness: report.effectiveness(),
        };
        println!(
            "{:>6} {:>8.4} {:>8.4} {:>10.2} {:>10.2} {:>12.1} {:>8.4}",
            row.strategy,
            row.h_workaholics,
            row.h_sleepers,
            row.latency_mean_workaholics,
            row.latency_max_overall,
            row.report_bits_mean,
            row.effectiveness
        );
        assert!(
            row.latency_max_overall <= params.latency_secs + 1e-9,
            "§2's synchronous-latency guarantee: every query answered within L"
        );
        rows.push(row);
    }
    println!();
    println!("AT abandons the sleepers (h_sleep ≈ AT's homogeneous s=0.8 value)");
    println!("while its report stays tiny; SIG/TS carry the sleepers at a fixed");
    println!(
        "report tax on everyone. Max latency ≤ L = {} s for every strategy —",
        params.latency_secs
    );
    println!("the §2 guarantee of synchronous broadcasting, measured.");

    crate::results::to_json(&rows)
}
