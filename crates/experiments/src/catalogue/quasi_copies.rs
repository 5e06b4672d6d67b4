//! §7 quasi-copies — how much report traffic the delay condition
//! (obligation lists) and the arithmetic condition (ε-filter) save,
//! relative to plain TS reporting.

use sleepers::prelude::*;
use sleepers::quasi::EpsilonFilter;
use sleepers::sim::{MasterSeed, StreamId};

#[derive(serde::Serialize)]
struct DelayRow {
    alpha_intervals: u64,
    report_bits_plain_ts: u64,
    report_bits_quasi: u64,
    saving_pct: f64,
    hit_ratio_plain: f64,
    hit_ratio_quasi: f64,
}

fn run_delay(alpha: u64, intervals: u64) -> DelayRow {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 1e-3;
    params.k = alpha as u32; // plain TS gets the same window for fairness
    // A wider channel than Scenario 1: at α = 20 the *plain* TS report
    // would not even fit 10 kb/s (which is the quasi scheme's whole
    // point); the experiment compares report bits, not channel fit.
    params.bandwidth_bps = 50_000;
    let params = params.with_s(0.3);
    let cfg = || {
        CellConfig::new(params)
            .with_clients(12)
            .with_hotspot_size(25)
            .with_seed(0xE12)
    };
    let mut plain = CellSimulation::new(cfg(), Strategy::BroadcastTimestamps).unwrap();
    let plain_report = plain.run_measured(intervals / 4, intervals).unwrap();
    let mut quasi = CellSimulation::new(
        cfg(),
        Strategy::QuasiDelay {
            alpha_intervals: alpha,
        },
    )
    .unwrap();
    let quasi_report = quasi.run_measured(intervals / 4, intervals).unwrap();
    DelayRow {
        alpha_intervals: alpha,
        report_bits_plain_ts: plain_report.report_bits_total,
        report_bits_quasi: quasi_report.report_bits_total,
        saving_pct: 100.0
            * (1.0
                - quasi_report.report_bits_total as f64
                    / plain_report.report_bits_total.max(1) as f64),
        hit_ratio_plain: plain_report.hit_ratio(),
        hit_ratio_quasi: quasi_report.hit_ratio(),
    }
}

#[derive(serde::Serialize)]
struct ArithmeticRow {
    epsilon: u64,
    updates: u64,
    reported: u64,
    suppressed_pct: f64,
}

/// Random-walk stock prices through the ε-filter (Eq. 28).
fn run_arithmetic(epsilon: u64, steps: u64) -> ArithmeticRow {
    let mut filter = EpsilonFilter::new(epsilon);
    let mut rng = MasterSeed(0xE12).stream(StreamId::Custom { tag: epsilon });
    let n_items = 100u64;
    let mut prices = vec![10_000i64; n_items as usize];
    for (i, p) in prices.iter_mut().enumerate() {
        filter.seed(i as u64, *p as u64);
    }
    for _ in 0..steps {
        let item = rng.uniform_index(n_items);
        // ±1..8 tick move, the classic small-drift price process.
        let mv = rng.uniform_index(8) as i64 + 1;
        let sign = if rng.bernoulli(0.5) { 1 } else { -1 };
        prices[item as usize] += sign * mv;
        let _ = filter.should_report(item, prices[item as usize] as u64);
    }
    ArithmeticRow {
        epsilon,
        updates: filter.passed() + filter.suppressed(),
        reported: filter.passed(),
        suppressed_pct: 100.0 * filter.suppression_ratio(),
    }
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 150 } else { 600 };

    println!("(a) delay condition (obligation lists) vs plain TS, s=0.3, μ=1e-3");
    println!(
        "{:>8} {:>16} {:>16} {:>9} {:>9} {:>9}",
        "α (×L)", "TS bits", "quasi bits", "saved %", "h plain", "h quasi"
    );
    let mut delay_rows = Vec::new();
    for alpha in [2u64, 5, 10, 20] {
        let row = run_delay(alpha, intervals);
        println!(
            "{:>8} {:>16} {:>16} {:>9.1} {:>9.4} {:>9.4}",
            row.alpha_intervals,
            row.report_bits_plain_ts,
            row.report_bits_quasi,
            row.saving_pct,
            row.hit_ratio_plain,
            row.hit_ratio_quasi
        );
        delay_rows.push(row);
    }

    println!();
    println!("(b) arithmetic condition: ε-filter suppression on random-walk prices");
    println!("{:>8} {:>10} {:>10} {:>12}", "ε", "updates", "reported", "suppressed %");
    let steps = if fast { 20_000 } else { 100_000 };
    let mut arith_rows = Vec::new();
    for eps in [0u64, 5, 10, 25, 50, 100] {
        let row = run_arithmetic(eps, steps);
        println!(
            "{:>8} {:>10} {:>10} {:>12.1}",
            row.epsilon, row.updates, row.reported, row.suppressed_pct
        );
        arith_rows.push(row);
    }

    let payload = serde_json::json!({ "delay": delay_rows, "arithmetic": arith_rows });
    crate::results::to_json(&payload)
}
