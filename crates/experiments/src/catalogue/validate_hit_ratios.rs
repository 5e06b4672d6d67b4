//! Validates the simulator against the closed-form hit ratios —
//! simulated `h_AT` vs Eq. 41, `h_SIG` vs Eq. 43, and `h_TS` against
//! the Appendix-1 bounds — across a grid of (s, μ).

use crate::replicate::replicate_seed;
use sleepers::prelude::*;

#[derive(serde::Serialize)]
struct Row {
    s: f64,
    mu: f64,
    h_at_sim: f64,
    h_at_eq41: f64,
    h_sig_sim: f64,
    h_sig_eq43: f64,
    h_ts_sim: f64,
    h_ts_lower: f64,
    h_ts_upper: f64,
    ts_in_bounds: bool,
}

fn simulate(params: ScenarioParams, strategy: Strategy, intervals: u64, seed: u64) -> f64 {
    let config = CellConfig::new(params)
        .with_clients(16)
        .with_hotspot_size(25)
        .with_seed(seed);
    let mut sim = CellSimulation::new(config, strategy).expect("valid config");
    sim.run_measured(intervals / 4, intervals)
        .expect("run")
        .hit_ratio()
}

pub(super) fn run(fast: bool, replicate: u64) -> String {
    let intervals: u64 = if fast { 200 } else { 800 };
    let seed = replicate_seed(0xE11, replicate);

    // A small-n base so simulation is fast; hit ratios do not depend on
    // n in the model (per-item rates are fixed).
    let mut base = ScenarioParams::scenario1();
    base.n_items = 1_000;
    base.k = 10;

    let s_values = [0.0, 0.2, 0.4, 0.6, 0.8];
    let mu_values = [1e-4, 1e-3];

    println!(
        "simulated hit ratios vs the closed forms ({} intervals/cell)",
        intervals
    );
    println!(
        "{:>5} {:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} {:>9} {:>6}",
        "s", "mu", "h_at sim", "Eq.41", "h_sig sim", "Eq.43", "h_ts sim", "lower", "upper", "in?"
    );

    let mut rows = Vec::new();
    let mut worst_at: f64 = 0.0;
    let mut worst_sig: f64 = 0.0;
    let mut ts_out_of_bounds = 0u32;
    for &mu in &mu_values {
        for &s in &s_values {
            let params = base.with_s(s).with_mu(mu);
            let h_at_sim = simulate(params, Strategy::AmnesicTerminals, intervals, seed);
            let h_sig_sim = simulate(params, Strategy::Signatures, intervals, seed);
            let h_ts_sim = simulate(params, Strategy::BroadcastTimestamps, intervals, seed);
            let at_model = h_at(&params);
            let p_nf = sleepers::analysis::throughput::sig_p_nf(&params);
            let sig_model = h_sig(&params, p_nf);
            let b = h_ts_bounds(&params);
            // Allow statistical slack around the bounds.
            let slack = 0.05;
            let in_bounds = h_ts_sim >= b.lower - slack && h_ts_sim <= b.upper + slack;
            if !in_bounds {
                ts_out_of_bounds += 1;
            }
            worst_at = worst_at.max((h_at_sim - at_model).abs());
            worst_sig = worst_sig.max((h_sig_sim - sig_model).abs());
            println!(
                "{:>5.2} {:>8.0e} | {:>9.4} {:>9.4} | {:>9.4} {:>9.4} | {:>9.4} {:>9.4} {:>9.4} {:>6}",
                s, mu, h_at_sim, at_model, h_sig_sim, sig_model, h_ts_sim, b.lower, b.upper,
                if in_bounds { "yes" } else { "NO" }
            );
            rows.push(Row {
                s,
                mu,
                h_at_sim,
                h_at_eq41: at_model,
                h_sig_sim,
                h_sig_eq43: sig_model,
                h_ts_sim,
                h_ts_lower: b.lower,
                h_ts_upper: b.upper,
                ts_in_bounds: in_bounds,
            });
        }
    }
    println!();
    println!("worst |h_at sim − Eq.41|  = {worst_at:.4}");
    println!("worst |h_sig sim − Eq.43| = {worst_sig:.4}");
    println!("h_ts points outside the Appendix-1 bounds (±0.05 slack): {ts_out_of_bounds}");

    crate::results::to_json(&rows)
}
