//! Extension: query-result caching over the invalidation stream.
//!
//! The paper's figures measure the *item* cache. This sweep arms the
//! `sw-query` plane — cached predicate screens plus multi-item
//! transactional reads — on TS, AT, and SIG across the sleep axis and
//! measures what the result layer inherits from each strategy's
//! recovery rule: query hit ratio, footprint items refetched over the
//! uplink, entries dropped by the footprint check, and the fraction of
//! multi-item reads aborted because their pinned rows straddled an
//! update (non-serializable under the report clock).

use sleepers::prelude::*;
use sw_sim::runner::{cell_seed, ParallelRunner};

#[derive(serde::Serialize)]
struct Row {
    strategy: String,
    s: f64,
    item_hit_ratio: f64,
    query_hit_ratio: f64,
    uplink_query_bits: u64,
    query_fetch_items: u64,
    entries_invalidated: u64,
    entries_reverified: u64,
    txns_begun: u64,
    txn_abort_rate: f64,
}

struct Cell {
    strategy: Strategy,
    s: f64,
    tag: u64,
}

fn run_cell(cell: &Cell, intervals: u64) -> Row {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 500;
    params.mu = 2e-3;
    params.k = 10;
    let params = params.with_s(cell.s);
    let seed = cell_seed(0xF1_9E34, &[cell.s.to_bits(), cell.tag]);
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(25)
        .with_seed(seed)
        .with_query(QueryPlaneConfig::new().with_txn_probability(0.2));
    let mut sim = CellSimulation::new(cfg, cell.strategy).expect("valid config");
    let r = sim.run_measured(intervals / 4, intervals).expect("fits");
    let q = &r.query;
    let resolved = q.txn_commits + q.txn_aborts;
    Row {
        strategy: cell.strategy.name().to_string(),
        s: cell.s,
        item_hit_ratio: r.hit_ratio(),
        query_hit_ratio: q.hit_ratio(),
        uplink_query_bits: r.traffic.query_bits,
        query_fetch_items: q.fetch_items,
        entries_invalidated: q.entries_invalidated,
        entries_reverified: q.entries_reverified,
        txns_begun: q.txns_begun,
        txn_abort_rate: if resolved == 0 {
            0.0
        } else {
            q.txn_aborts as f64 / resolved as f64
        },
    }
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 200 } else { 800 };
    let sleep_probs: &[f64] = if fast {
        &[0.0, 0.4, 0.8]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let strategies = [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
    ];

    let mut cells = Vec::new();
    for (si, &strategy) in strategies.iter().enumerate() {
        for &s in sleep_probs {
            cells.push(Cell {
                strategy,
                s,
                tag: si as u64,
            });
        }
    }

    let rows = ParallelRunner::from_env().run(&cells, |_, cell| run_cell(cell, intervals));

    println!("query-result caching vs sleep probability");
    println!(
        "{:>6} {:>5} {:>8} {:>8} {:>13} {:>8} {:>8} {:>8} {:>7} {:>8}",
        "strat", "s", "item h", "query h", "uplink bits", "fetched", "inval", "reverif", "txns", "abort%"
    );
    for row in &rows {
        println!(
            "{:>6} {:>5.2} {:>8.4} {:>8.4} {:>13} {:>8} {:>8} {:>8} {:>7} {:>8.2}",
            row.strategy,
            row.s,
            row.item_hit_ratio,
            row.query_hit_ratio,
            row.uplink_query_bits,
            row.query_fetch_items,
            row.entries_invalidated,
            row.entries_reverified,
            row.txns_begun,
            100.0 * row.txn_abort_rate,
        );
    }
    println!();
    println!("Expected shape: the query hit ratio sits below the item hit ratio");
    println!("everywhere (a screen is only as fresh as its *coldest* footprint");
    println!("item) and tracks each strategy's recovery rule as s grows — AT's");
    println!("whole-cache drops empty the result layer after long sleeps, TS");
    println!("restamps screens across sub-window gaps, and SIG re-validates by");
    println!("diagnosis. The abort rate *climbs* with s: a sleeper holds its");
    println!("pinned reads across more reports, so more multi-item reads watch");
    println!("an update land between their legs and get detected-and-aborted.");

    crate::results::to_json(&rows)
}
