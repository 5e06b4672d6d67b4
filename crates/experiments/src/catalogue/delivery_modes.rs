//! Extension: §9 network environments and the §10 listening-cost
//! discussion, quantified.
//!
//! The invalidation-report idea is network-agnostic, but *how* a dozing
//! client finds the report is not: reservation-MAC networks (PRMA,
//! MACAW) let it wake on a timer just before `T_i` (paying for clock
//! skew), while CSMA/CDPD networks deliver to a multicast address the
//! NIC filters while the CPU dozes. This experiment measures client
//! energy per interval for each strategy under each mode — showing how
//! report *size* (TS ≫ SIG ≫ AT) turns into listening cost, §10's
//! "this presents a problem if the user is paying for the listening
//! time".

use sleepers::prelude::*;

#[derive(serde::Serialize)]
struct Row {
    strategy: String,
    mode: String,
    energy_per_client_interval: f64,
    report_bits_mean: f64,
    hit_ratio: f64,
}

fn measure(strategy: Strategy, delivery: DeliveryMode, intervals: u64) -> SimulationReport {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 1e-3; // visible report sizes
    params.k = 10;
    let params = params.with_s(0.3);
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(25)
        .with_delivery(delivery)
        .with_seed(0xE15);
    let mut sim = CellSimulation::new(cfg, strategy).expect("valid");
    sim.run_measured(intervals / 4, intervals).expect("fits")
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 150 } else { 600 };

    let modes = [
        (
            "timer(skew=0)",
            DeliveryMode::TimerSynchronized {
                clock_skew_bound: 0.0,
            },
        ),
        (
            "timer(skew=0.5s)",
            DeliveryMode::TimerSynchronized {
                clock_skew_bound: 0.5,
            },
        ),
        ("multicast(jitter=1s)", DeliveryMode::Multicast { max_jitter: 1.0 }),
    ];
    let strategies = [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
    ];

    println!("report delivery modes (§9) and listening energy (§10)");
    println!(
        "{:>6} {:>22} {:>18} {:>14} {:>9}",
        "strat", "mode", "energy/client/ivl", "B_c bits", "h"
    );
    let mut rows = Vec::new();
    for strategy in strategies {
        for (label, mode) in modes {
            let r = measure(strategy, mode, intervals);
            println!(
                "{:>6} {:>22} {:>18.3} {:>14.1} {:>9.4}",
                strategy.name(),
                label,
                r.energy_per_client_interval(),
                r.report_bits_mean(),
                r.hit_ratio()
            );
            rows.push(Row {
                strategy: strategy.name().to_string(),
                mode: label.to_string(),
                energy_per_client_interval: r.energy_per_client_interval(),
                report_bits_mean: r.report_bits_mean(),
                hit_ratio: r.hit_ratio(),
            });
        }
        println!();
    }
    println!("Expected shape: within a mode, energy tracks report size");
    println!("(TS > SIG > AT); across modes, clock skew is pure listening");
    println!("waste, and multicast NIC filtering eliminates it.");

    crate::results::to_json(&rows)
}
