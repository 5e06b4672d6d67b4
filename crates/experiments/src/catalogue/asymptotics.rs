//! Regenerates the two asymptotic tables of §5:
//! limits of q₀, p₀ and the hit ratios as s → 0, s → 1, and u₀ → 1,
//! plus a programmatic check of §5's qualitative conclusions.

use sleepers::analysis::asymptotics::{
    section5_conclusions, sleep_limit_table, update_limit_table,
};
use sleepers::prelude::ScenarioParams;

pub(super) fn run(_fast: bool, _replicate: u64) -> String {
    let base = ScenarioParams::scenario1();

    println!("§5 Table 1 — limits as s → 0 (workaholics) and s → 1 (sleepers)");
    println!("(Scenario 1 parameters: λ=0.1, μ=1e-4, L=10, k=100, f=10, g=16)");
    println!();
    let table = sleep_limit_table(&base);
    println!(
        "{:>10} | {:>14} {:>14} | {:>14} {:>14}",
        "parameter", "s→0 symbolic", "s→0 numeric", "s→1 symbolic", "s→1 numeric"
    );
    for (w, s) in table.workaholic.iter().zip(&table.sleeper) {
        println!(
            "{:>10} | {:>14.8} {:>14.8} | {:>14.8} {:>14.8}",
            w.parameter, w.symbolic, w.numeric, s.symbolic, s.numeric
        );
    }

    println!();
    println!("§5 Table 2 — limits as u₀ → 1 (infrequent updates), by sleep level");
    for s in [0.0, 0.3, 0.7] {
        println!("\n  s = {s}:");
        println!(
            "  {:>28} | {:>14} {:>14}",
            "parameter", "symbolic", "numeric"
        );
        for row in update_limit_table(&base.with_s(s)) {
            println!(
                "  {:>28} | {:>14.8} {:>14.8}",
                row.parameter, row.symbolic, row.numeric
            );
        }
    }

    println!();
    println!("§5 qualitative conclusions, checked against the model:");
    let conclusions = section5_conclusions(&base);
    for (claim, holds) in &conclusions {
        println!("  [{}] {}", if *holds { "ok" } else { "FAIL" }, claim);
    }

    let payload = serde_json::json!({
        "workaholic": table.workaholic.iter().map(|r| serde_json::json!({
            "parameter": r.parameter, "symbolic": r.symbolic, "numeric": r.numeric
        })).collect::<Vec<_>>(),
        "sleeper": table.sleeper.iter().map(|r| serde_json::json!({
            "parameter": r.parameter, "symbolic": r.symbolic, "numeric": r.numeric
        })).collect::<Vec<_>>(),
        "conclusions": conclusions.iter().map(|(c, ok)| serde_json::json!({
            "claim": c, "holds": ok
        })).collect::<Vec<_>>(),
    });
    crate::results::to_json(&payload)
}
