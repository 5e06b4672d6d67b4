//! Extension: caching strategies under inter-cell mobility.
//!
//! The paper's gap rules are derived for units that sleep through
//! reports; a handoff produces the same gap (the one-interval transit
//! blackout makes it 2L) plus a change of report stream. This sweep
//! runs the real mesh — a 4-cell ring with shared-backbone replicas —
//! and measures hit ratio, uplink traffic, and handoff cache drops as
//! a function of the per-barrier migration rate, with the safety
//! checker armed: a never-stale strategy (TS, AT, SF) that validates a
//! stale entry after a handoff aborts the whole sweep.
//!
//! Expected shape: TS degrades gracefully (the 2L gap sits well inside
//! w = 10L, so only divergent-history drops and colder caches bite),
//! AT collapses toward its no-sleep baseline minus a whole-cache drop
//! per move, SIG re-diagnoses by signature and keeps most of the
//! cache, and the stateful baseline pays a re-registration per move.

use sleepers::prelude::*;
use sw_mesh::{CellGraph, MeshConfig, MeshSimulation, MobilityModel};
use sw_sim::{mesh_seed, MasterSeed};

#[derive(serde::Serialize)]
struct Row {
    strategy: String,
    migration_rate: f64,
    hit_ratio: f64,
    uplink_query_bits: u64,
    handoff_drops: u64,
    migrations: u64,
    cross_cell_registrations: u64,
    safety_violations: u64,
}

fn run_mesh(strategy: Strategy, tag: u64, rate: f64, intervals: u64) -> Row {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 1_000;
    params.mu = 1e-3;
    params.k = 10;
    let params = params.with_s(0.3);
    let base = CellConfig::new(params)
        .with_clients(8)
        .with_hotspot_size(25)
        .with_safety_checking();
    let seed = MasterSeed(mesh_seed(0xF1_6AE5, &[rate.to_bits(), tag]));
    let config = MeshConfig::new(CellGraph::ring(4), base, seed)
        .with_mobility(MobilityModel::Markov { rate });
    let mut mesh = MeshSimulation::new(config, strategy).expect("valid config");
    let report = mesh
        .run_measured(intervals / 4, intervals)
        .unwrap_or_else(|e| {
            panic!(
                "{} at migration rate {rate} broke its safety contract: {e}",
                strategy.name()
            )
        });
    let m = report.migration();
    Row {
        strategy: strategy.name().to_string(),
        migration_rate: rate,
        hit_ratio: report.hit_ratio(),
        uplink_query_bits: report.uplink_bits(),
        handoff_drops: m.handoff_drops,
        migrations: report.migrations,
        cross_cell_registrations: m.cross_cell_registrations,
        safety_violations: report.safety_violations(),
    }
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 200 } else { 600 };
    let rates: &[f64] = if fast {
        &[0.0, 0.05, 0.2]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2]
    };
    let strategies = [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
        Strategy::Stateful,
    ];

    let mut rows = Vec::new();
    for (si, &strategy) in strategies.iter().enumerate() {
        for &rate in rates {
            // Meshes shard internally via SW_THREADS; the sweep itself
            // stays sequential to avoid nesting thread pools.
            rows.push(run_mesh(strategy, si as u64, rate, intervals));
        }
    }

    println!("hit ratio, uplink traffic, and handoff drops vs migration rate");
    println!(
        "{:>6} {:>7} {:>9} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "strat", "rate", "h", "uplink bits", "drops", "moves", "re-reg", "viol"
    );
    for row in &rows {
        println!(
            "{:>6} {:>7.2} {:>9.4} {:>14} {:>8} {:>8} {:>8} {:>6}",
            row.strategy,
            row.migration_rate,
            row.hit_ratio,
            row.uplink_query_bits,
            row.handoff_drops,
            row.migrations,
            row.cross_cell_registrations,
            row.safety_violations,
        );
    }

    // The acceptance contract, asserted rather than eyeballed.
    let point = |name: &str, rate: f64| {
        rows.iter()
            .find(|r| r.strategy == name && r.migration_rate == rate)
            .expect("swept point")
    };
    let top_rate = *rates.last().expect("non-empty sweep");
    // TS degrades gracefully: the 2L handoff gap sits inside w = 10L,
    // so it never drops a cache to a move and stays far above AT.
    assert_eq!(
        point("TS", top_rate).handoff_drops,
        0,
        "TS must keep caches across the 2L handoff gap (w = 10L)"
    );
    assert!(
        point("TS", top_rate).hit_ratio > point("AT", top_rate).hit_ratio,
        "TS must out-hit AT under heavy mobility"
    );
    // AT collapses: every move costs it the whole cache.
    assert!(
        point("AT", top_rate).handoff_drops > 0
            && point("AT", top_rate).hit_ratio < point("AT", 0.0).hit_ratio,
        "AT's gap rule must fire on handoffs and drag its hit ratio down"
    );
    // SIG re-diagnoses: the combined signatures identify the surviving
    // entries, so mobility costs it blackout misses but never a drop.
    assert_eq!(
        point("SIG", top_rate).handoff_drops,
        0,
        "SIG must re-diagnose by signature instead of dropping on handoff"
    );
    for row in &rows {
        if row.strategy != "SIG" {
            assert_eq!(
                row.safety_violations, 0,
                "{} at rate {} validated a stale entry",
                row.strategy, row.migration_rate
            );
        }
    }
    println!();
    println!("ordering ok: TS keeps every cache and out-hits AT; AT drops one cache");
    println!("per move and collapses; SIG re-diagnoses with zero handoff drops; zero");
    println!("safety violations for the never-stale strategies.");

    crate::results::to_json(&rows)
}
