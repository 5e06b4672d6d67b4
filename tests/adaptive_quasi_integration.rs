//! E12/E13 end-to-end: the §7 and §8 extensions integrated with the
//! full cell simulation.

use sleepers_workaholics::prelude::*;

fn sleepy_params() -> ScenarioParams {
    let mut p = ScenarioParams::scenario1();
    p.n_items = 500;
    p.mu = 5e-4;
    p.k = 3;
    p.with_s(0.6)
}

fn run(params: ScenarioParams, strategy: Strategy, seed: u64) -> SimulationReport {
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(20)
        .with_seed(seed);
    CellSimulation::new(cfg, strategy)
        .expect("valid config")
        .run_measured(100, 500)
        .expect("fits channel")
}

#[test]
fn adaptive_ts_rescues_sleepers_hit_ratio() {
    // §8's purpose: with a tight static window, sleepers keep losing
    // their caches; adaptive windows grow where it pays.
    let params = sleepy_params();
    let static_ts = run(params, Strategy::BroadcastTimestamps, 7);
    for method in [FeedbackMethod::Method1, FeedbackMethod::Method2] {
        let adaptive = run(
            params,
            Strategy::AdaptiveTs {
                method,
                eval_period: 10,
                step: 2,
            },
            7,
        );
        assert!(
            adaptive.hit_ratio() > static_ts.hit_ratio() + 0.1,
            "{method:?}: adaptive h {} must clearly beat static h {}",
            adaptive.hit_ratio(),
            static_ts.hit_ratio()
        );
    }
}

#[test]
fn adaptive_ts_saves_net_channel_bits() {
    // The gain function optimizes total bits: extra report mentions must
    // buy a larger saving in uplink (miss) traffic. One seed can go
    // either way (the saving's seed-to-seed SD is ~4 %), so the claim is
    // the mean saving over a seed list fixed in advance.
    let params = sleepy_params();
    let per_miss = (params.query_bits + params.answer_bits) as u64;
    let total_bits = |r: &SimulationReport| r.report_bits_total + r.miss_events * per_miss;
    let seeds = 1..=10u64;
    let savings: Vec<f64> = seeds
        .clone()
        .map(|seed| {
            let static_ts = run(params, Strategy::BroadcastTimestamps, seed);
            let adaptive = run(
                params,
                Strategy::AdaptiveTs {
                    method: FeedbackMethod::Method1,
                    eval_period: 10,
                    step: 2,
                },
                seed,
            );
            1.0 - total_bits(&adaptive) as f64 / total_bits(&static_ts) as f64
        })
        .collect();
    let mean = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(
        mean > 0.0,
        "adaptive must win on total bits on average over seeds {seeds:?}: savings {savings:?}"
    );
}

#[test]
fn adaptive_windows_diverge_per_item() {
    // After a long run, windows are no longer uniform: some grew, and
    // the exceptions list is non-trivial.
    let params = sleepy_params();
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(20)
        .with_seed(13);
    let mut sim = CellSimulation::new(
        cfg,
        Strategy::AdaptiveTs {
            method: FeedbackMethod::Method1,
            eval_period: 10,
            step: 2,
        },
    )
    .unwrap();
    sim.run(400).unwrap();
    let windows: Vec<u32> = (0..params.n_items)
        .map(|i| sim.adaptive_window(i).unwrap())
        .collect();
    let grew = windows.iter().filter(|&&w| w > params.k).count();
    assert!(grew > 0, "some windows must grow for a sleepy population");
    let max = windows.iter().max().unwrap();
    assert!(
        *max >= params.k + 4,
        "hot items should grow well past the default, max = {max}"
    );
}

#[test]
fn quasi_delay_trades_hit_ratio_for_report_bits() {
    // §7: the delay condition thins reports; hits may suffer slightly
    // (entries are dropped at their lag deadline even when a plain-TS
    // client could have revalidated them precisely).
    let mut params = ScenarioParams::scenario1();
    params.n_items = 500;
    params.mu = 2e-3;
    params.k = 8;
    let params = params.with_s(0.2);
    let plain = run(params, Strategy::BroadcastTimestamps, 17);
    let quasi = run(params, Strategy::QuasiDelay { alpha_intervals: 8 }, 17);
    assert!(
        quasi.report_bits_total < plain.report_bits_total,
        "obligation lists must thin the reports: {} vs {}",
        quasi.report_bits_total,
        plain.report_bits_total
    );
    // And the saving is substantial at this update rate.
    let saving = 1.0 - quasi.report_bits_total as f64 / plain.report_bits_total as f64;
    assert!(saving > 0.2, "expected >20% report saving, got {:.1}%", saving * 100.0);
}

#[test]
fn quasi_alpha_controls_the_tradeoff() {
    // Larger α ⇒ fewer obligations coming due ⇒ smaller reports.
    let mut params = ScenarioParams::scenario1();
    params.n_items = 500;
    params.mu = 2e-3;
    params.k = 20;
    let params = params.with_s(0.2);
    let tight = run(params, Strategy::QuasiDelay { alpha_intervals: 2 }, 19);
    let loose = run(params, Strategy::QuasiDelay { alpha_intervals: 20 }, 19);
    assert!(
        loose.report_bits_total <= tight.report_bits_total,
        "α=20 reports ({}) should not exceed α=2 reports ({})",
        loose.report_bits_total,
        tight.report_bits_total
    );
}
