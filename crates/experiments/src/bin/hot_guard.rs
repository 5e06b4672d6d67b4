//! Hot-path zero-cost guard probe.
//!
//! Runs one fixed, deterministic hot-path workload — a TS cell big
//! enough that the per-interval sweep dominates — timing each of 60
//! intervals on its own, and prints their 5th percentile (the third
//! fastest) in µs as a bare number on stdout. That is the floor
//! compiled-in-but-disabled features could raise, `benchmark/`'s
//! `interval_us_p05` by the same reasoning: a mean over the run moves
//! 10 %+ with one slow spell of a shared host, and the single fastest
//! interval is the noisiest order statistic of all (CHANGES.md, PR 18,
//! has the same-binary spreads of the three).
//!
//! `scripts/check.sh` builds this binary twice (feature-off, and with
//! `observe,faults` compiled in but disabled at runtime), interleaves
//! several rounds of each, and fails the check if the feature-armed
//! build's best round is more than 5% slower than the feature-off
//! build's: the "zero-cost disabled path" contract, enforced instead
//! of eyeballed. The workload is identical in both builds (neither a
//! fault plan nor an observe label is configured, and disabled
//! instrumentation consumes no randomness), so any gap is pure
//! compiled-in overhead.

use std::time::Instant;

use sleepers::prelude::*;

fn main() {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 2_000;
    // Non-saturating channel: measure the sweep, not queue churn.
    params.bandwidth_bps *= 2_048;
    let params = params.with_s(0.2);
    let cfg = CellConfig::new(params)
        .with_clients(2_000)
        .with_hotspot_size(30)
        .with_seed(17)
        .with_sweep_threads(1);
    let mut sim =
        CellSimulation::new(cfg, Strategy::BroadcastTimestamps).expect("guard cell constructs");
    sim.run(20).expect("guard warmup runs");
    sim.reset_metrics();
    let mut interval_us: Vec<f64> = (0..60)
        .map(|_| {
            let start = Instant::now();
            sim.step().expect("guard cell runs");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    assert_eq!(sim.report().overflow_exchanges, 0, "guard channel saturated");
    interval_us.sort_by(f64::total_cmp);
    println!("{:.1}", interval_us[2]);
}
