//! Extension: §10's weighted hybrid reports — "the 'hot spot'
//! items can be individually broadcasted, while the rest of the
//! database items would participate in the signatures."
//!
//! Under a Zipf query population, the hybrid strategy is compared
//! against pure AT and pure SIG across the sleep spectrum, and the hot
//! set size is swept to expose the tradeoff: more individually
//! broadcast items help workaholic-style precision on the hottest data,
//! while the signatures keep everything else nap-proof at fixed cost.

use sleepers::prelude::*;
use sleepers::workload::Popularity;

#[derive(serde::Serialize)]
struct Row {
    s: f64,
    strategy: String,
    hot_count: u64,
    hit_ratio: f64,
    effectiveness: f64,
    report_bits_mean: f64,
}

fn measure(strategy: Strategy, s: f64, intervals: u64) -> SimulationReport {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 1e-3;
    params.k = 10;
    let params = params.with_s(s);
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(25)
        .with_popularity(Popularity::Zipf { theta: 1.0 })
        .with_seed(0xE16);
    let mut sim = CellSimulation::new(cfg, strategy).expect("valid");
    sim.run_measured(intervals / 4, intervals).expect("fits")
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 150 } else { 600 };

    println!("§10 hybrid weighted reports under Zipf(1.0) queries");
    println!(
        "{:>5} {:>6} {:>5} {:>9} {:>9} {:>12}",
        "s", "strat", "hot", "h", "e", "B_c bits"
    );
    let mut rows = Vec::new();
    for &s in &[0.0, 0.3, 0.6] {
        let mut entries: Vec<(Strategy, u64)> = vec![
            (Strategy::AmnesicTerminals, 0),
            (Strategy::Signatures, 0),
        ];
        for hot in [10u64, 50, 200] {
            entries.push((Strategy::HybridSig { hot_count: hot }, hot));
        }
        for (strategy, hot) in entries {
            let r = measure(strategy, s, intervals);
            println!(
                "{:>5.1} {:>6} {:>5} {:>9.4} {:>9.4} {:>12.1}",
                s,
                strategy.name(),
                hot,
                r.hit_ratio(),
                r.effectiveness(),
                r.report_bits_mean()
            );
            rows.push(Row {
                s,
                strategy: strategy.name().to_string(),
                hot_count: hot,
                hit_ratio: r.hit_ratio(),
                effectiveness: r.effectiveness(),
                report_bits_mean: r.report_bits_mean(),
            });
        }
        println!();
    }
    println!("Expected shape: at s = 0 hybrid ≈ SIG (hot list adds little);");
    println!("for sleepers hybrid beats AT on hit ratio (cold items survive");
    println!("naps) while carrying a smaller id list than full TS would.");

    crate::results::to_json(&rows)
}
