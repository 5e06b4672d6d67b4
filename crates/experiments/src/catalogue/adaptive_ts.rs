//! §8 adaptive invalidation reports.
//!
//! Reproduces the two motivating cases and the headline comparison:
//!
//! * a never-changing, heavily queried item under sleepers — the
//!   adaptive window grows (toward "infinite"), rescuing sleepers' hit
//!   ratio;
//! * a constantly changing item — its window shrinks to zero and stops
//!   bloating the report;
//! * overall: adaptive TS vs static TS for a sleepy population, with
//!   both feedback methods.

use crate::replicate::replicate_seed;
use sleepers::prelude::*;

#[derive(serde::Serialize)]
struct ComparisonRow {
    s: f64,
    method: String,
    hit_static: f64,
    hit_adaptive: f64,
    report_bits_static: u64,
    report_bits_adaptive: u64,
}

fn measure(
    strategy: Strategy,
    params: ScenarioParams,
    intervals: u64,
    seed: u64,
) -> SimulationReport {
    let cfg = CellConfig::new(params)
        .with_clients(12)
        .with_hotspot_size(20)
        .with_seed(seed);
    let mut sim = CellSimulation::new(cfg, strategy).unwrap();
    sim.run_measured(intervals / 4, intervals).unwrap()
}

pub(super) fn run(fast: bool, replicate: u64) -> String {
    let intervals = if fast { 300 } else { 1200 };
    let seed = replicate_seed(0xE13, replicate);

    // A sleepy population with a modest static window: static TS drops
    // caches after k intervals of sleep; adaptive TS can learn better
    // per-item windows.
    let mut base = ScenarioParams::scenario1();
    base.n_items = 500;
    base.mu = 5e-4;
    base.k = 3;

    println!("adaptive TS (per-item windows, Eq. 29–32) vs static TS");
    println!(
        "{:>5} {:>9} {:>10} {:>12} {:>14} {:>16}",
        "s", "method", "h static", "h adaptive", "bits static", "bits adaptive"
    );
    let mut rows = Vec::new();
    for &s in &[0.3, 0.5, 0.7] {
        let params = base.with_s(s);
        let static_report = measure(Strategy::BroadcastTimestamps, params, intervals, seed);
        for (label, method) in [
            ("method1", FeedbackMethod::Method1),
            ("method2", FeedbackMethod::Method2),
        ] {
            let adaptive_report = measure(
                Strategy::AdaptiveTs {
                    method,
                    eval_period: 10,
                    step: 2,
                },
                params,
                intervals,
                seed,
            );
            println!(
                "{:>5.1} {:>9} {:>10.4} {:>12.4} {:>14} {:>16}",
                s,
                label,
                static_report.hit_ratio(),
                adaptive_report.hit_ratio(),
                static_report.report_bits_total,
                adaptive_report.report_bits_total
            );
            rows.push(ComparisonRow {
                s,
                method: label.to_string(),
                hit_static: static_report.hit_ratio(),
                hit_adaptive: adaptive_report.hit_ratio(),
                report_bits_static: static_report.report_bits_total,
                report_bits_adaptive: adaptive_report.report_bits_total,
            });
        }
    }

    // Window trajectories for the two §8 extreme cases, observed
    // directly on the controller.
    println!();
    println!("Window trajectories (direct controller drive, §8's two extremes):");
    use sleepers::adaptive::{AdaptiveController, PeriodItemStats, WindowTable};
    let mut controller = AdaptiveController::new(FeedbackMethod::Method1, 1, 0.0, 512, 512, 500);
    let mut windows = WindowTable::new(3);
    let mut hot_static_window = Vec::new();
    let mut hot_churn_window = Vec::new();
    let mut ahr = 0.2f64;
    for period in 0..15 {
        ahr = (ahr + 0.06).min(0.98);
        let hits = (ahr * 100.0) as u64;
        let stats = [
            // Item 1: never changes, queried a lot by sleepers.
            PeriodItemStats {
                item: 1,
                uplink_queries: 100 - hits,
                piggybacked_hits: hits,
                mentions: 0,
                mhr: Some(1.0),
            },
            // Item 2: changes every interval, hit ratio pinned at zero.
            PeriodItemStats {
                item: 2,
                uplink_queries: 50,
                piggybacked_hits: 0,
                mentions: 10,
                mhr: Some(0.02),
            },
        ];
        controller.end_period(&mut windows, stats);
        hot_static_window.push(windows.get(1));
        hot_churn_window.push(windows.get(2));
        println!(
            "  period {:>2}: w(hot-static) = {:>3}, w(hot-churn) = {:>3}",
            period,
            windows.get(1),
            windows.get(2)
        );
    }
    assert!(
        hot_static_window.last().unwrap() > &3,
        "hot-static window must grow"
    );
    assert_eq!(
        *hot_churn_window.last().unwrap(),
        0,
        "hot-churn window must hit zero"
    );

    let payload = serde_json::json!({
        "comparison": rows,
        "hot_static_window_trajectory": hot_static_window,
        "hot_churn_window_trajectory": hot_churn_window,
    });
    crate::results::to_json(&payload)
}
