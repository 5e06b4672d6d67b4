//! Extension: caching strategies under report loss.
//!
//! The paper's recovery rules — AT drops its whole cache after any
//! missed report, TS restamps across gaps shorter than `w = kL`, SIG
//! shrugs and eats collision risk — are derived for units that *sleep*
//! through reports. A lossy downlink produces exactly the same gaps
//! without the energy savings, so this sweep measures what each rule
//! costs when the channel (not the sleep schedule) is the adversary:
//! hit ratio, uplink traffic, and whole-cache drops as a function of
//! the per-report loss rate, plus a Gilbert–Elliott burst point at a
//! matched average rate to show that *clustered* losses are the regime
//! separating TS's window recovery from AT's drop-everything rule.
//!
//! Injects nothing unless the `faults` cargo feature is compiled in;
//! the catalogue row's `needs_faults` refuses to run it otherwise.

use sleepers::prelude::*;
use sw_sim::runner::{cell_seed, ParallelRunner};

#[derive(serde::Serialize)]
struct Row {
    strategy: String,
    loss_model: String,
    loss_rate: f64,
    hit_ratio: f64,
    uplink_query_bits: u64,
    cache_drops: u64,
    reports_lost: u64,
    reports_missed_per_client_interval: f64,
}

struct Cell {
    strategy: Strategy,
    label: &'static str,
    loss_rate: f64,
    loss: LossModel,
    tag: u64,
}

fn run_cell(cell: &Cell, intervals: u64) -> Row {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 1e-3;
    params.k = 10;
    let params = params.with_s(0.3);
    let seed = cell_seed(0xFA_0175, &[cell.loss_rate.to_bits(), cell.tag]);
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(25)
        .with_seed(seed)
        .with_faults(FaultPlan::none().with_loss(cell.loss));
    let mut sim = CellSimulation::new(cfg, cell.strategy).expect("valid config");
    let r = sim.run_measured(intervals / 4, intervals).expect("fits");
    Row {
        strategy: cell.strategy.name().to_string(),
        loss_model: cell.label.to_string(),
        loss_rate: cell.loss_rate,
        hit_ratio: r.hit_ratio(),
        uplink_query_bits: r.traffic.query_bits,
        cache_drops: r.cache_drops,
        reports_lost: r.faults.reports_lost,
        reports_missed_per_client_interval: r.faults.reports_missed_total() as f64
            / (r.intervals * r.n_clients as u64) as f64,
    }
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 200 } else { 800 };
    let rates: &[f64] = if fast {
        &[0.0, 0.05, 0.2]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5]
    };
    let strategies = [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
    ];

    let mut cells = Vec::new();
    for (si, &strategy) in strategies.iter().enumerate() {
        for &p in rates {
            cells.push(Cell {
                strategy,
                label: "bernoulli",
                loss_rate: p,
                loss: LossModel::bernoulli(p),
                tag: si as u64,
            });
        }
        // A bursty channel with the same ~20% average loss: entering a
        // burst at 5%/report, leaving at 30%, losing 90% while inside
        // gives a stationary loss rate of 0.05/(0.05+0.30) × 0.9 ≈ 0.13
        // — but in *runs*, which is what multi-report gaps are made of.
        cells.push(Cell {
            strategy,
            label: "burst",
            loss_rate: 0.13,
            loss: LossModel::burst(0.05, 0.3, 0.9),
            tag: 0x100 + si as u64,
        });
    }

    let rows = ParallelRunner::from_env().run(&cells, |_, cell| run_cell(cell, intervals));

    println!("hit ratio and uplink traffic vs report loss");
    println!(
        "{:>6} {:>10} {:>7} {:>9} {:>14} {:>8} {:>8} {:>10}",
        "strat", "model", "loss", "h", "uplink bits", "drops", "lost", "missed/ci"
    );
    for row in &rows {
        println!(
            "{:>6} {:>10} {:>7.2} {:>9.4} {:>14} {:>8} {:>8} {:>10.4}",
            row.strategy,
            row.loss_model,
            row.loss_rate,
            row.hit_ratio,
            row.uplink_query_bits,
            row.cache_drops,
            row.reports_lost,
            row.reports_missed_per_client_interval,
        );
    }
    println!();
    println!("Expected shape: every strategy loses hits as loss grows, but AT");
    println!("pays a whole-cache drop per gap (drops ≈ lost reports) while TS");
    println!("restamps across gaps shorter than w = kL and SIG's signatures");
    println!("re-validate the surviving cache; bursty loss at a matched average");
    println!("rate widens the TS-vs-AT spread (multi-report gaps).");

    crate::results::to_json(&rows)
}
