//! Extension: the §2 stateful-server baseline, measured.
//!
//! "To maintain the server state, the clients must inform the server
//! when they come and go ... Besides, even if the client is not about
//! to use a particular cache, it gets notified about its invalid
//! status. This is a potential waste of bandwidth." This experiment
//! puts numbers on that argument: directed invalidation traffic and
//! registration control messages grow with the client population, while
//! the stateless AT broadcast costs the same regardless of who is
//! listening — the scalability case for statelessness.

use sleepers::prelude::*;

#[derive(serde::Serialize)]
struct Row {
    clients: usize,
    s: f64,
    stateless_downlink_bits: u64,
    stateful_downlink_bits: u64,
    registration_messages: u64,
    hit_ratio_stateless: f64,
    hit_ratio_stateful: f64,
}

fn measure(strategy: Strategy, clients: usize, s: f64, intervals: u64) -> SimulationReport {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 2e-3;
    let params = params.with_s(s);
    let cfg = CellConfig::new(params)
        .with_clients(clients)
        .with_hotspot_size(25)
        .with_seed(0xE17);
    let mut sim = CellSimulation::new(cfg, strategy).expect("valid");
    sim.run_measured(intervals / 4, intervals).expect("fits")
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 150 } else { 600 };

    println!("stateful server (§2) vs stateless AT broadcast");
    println!(
        "{:>8} {:>5} {:>16} {:>16} {:>10} {:>9} {:>9}",
        "clients", "s", "stateless bits", "stateful bits", "reg msgs", "h (AT)", "h (SF)"
    );
    let mut rows = Vec::new();
    for &clients in &[4usize, 8, 16, 32] {
        for &s in &[0.0, 0.4] {
            let at = measure(Strategy::AmnesicTerminals, clients, s, intervals);
            let sf = measure(Strategy::Stateful, clients, s, intervals);
            let stateless_bits = at.traffic.downlink_bits() - at.traffic.answer_bits;
            let stateful_bits = sf.traffic.downlink_bits() - sf.traffic.answer_bits;
            println!(
                "{:>8} {:>5.1} {:>16} {:>16} {:>10} {:>9.4} {:>9.4}",
                clients,
                s,
                stateless_bits,
                stateful_bits,
                sf.registration_messages,
                at.hit_ratio(),
                sf.hit_ratio()
            );
            rows.push(Row {
                clients,
                s,
                stateless_downlink_bits: stateless_bits,
                stateful_downlink_bits: stateful_bits,
                registration_messages: sf.registration_messages,
                hit_ratio_stateless: at.hit_ratio(),
                hit_ratio_stateful: sf.hit_ratio(),
            });
        }
    }
    println!();
    println!("Expected shape: identical hit ratios (same client semantics);");
    println!("the stateless broadcast cost is flat in the population, while");
    println!("the stateful directed traffic and registration chatter grow");
    println!("with every client added — §2's argument, measured.");

    crate::results::to_json(&rows)
}
