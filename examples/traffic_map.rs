//! Example 2 of the paper (§1.2): navigational traffic maps.
//!
//! The map is a grid of sections, each one a database item summarizing
//! local traffic. Every user displays the 3×3 neighborhood of their
//! current section and refreshes it periodically; users drive slowly,
//! so consecutive hotspots overlap heavily ("there is a large degree of
//! locality in these queries"). Traffic data churns, so this is an
//! update-heavy workload where the AT strategy shines for units that
//! stay awake.
//!
//! This example drives the client/server building blocks directly (the
//! moving hotspot is outside the fixed-hotspot `CellSimulation` driver)
//! — a demonstration of composing the library's lower layers.
//!
//! ```sh
//! cargo run --example traffic_map
//! ```

use sleepers_workaholics::client::{Cache, ReportRule, RuleHandler};
use sleepers_workaholics::server::{AtBuilder, Database, ReportBuilder, UpdateEngine, UplinkProcessor};
use sleepers_workaholics::sim::{MasterSeed, SimDuration, SimTime, StreamId};
use sleepers_workaholics::workload::{TrafficGrid, TrafficMapWorkload};

fn main() {
    let grid = TrafficGrid::new(30, 30); // 900 map sections
    let latency = SimDuration::from_secs(10.0);
    let mu = 5e-3; // traffic conditions churn
    let intervals = 600u64;
    let seed = MasterSeed(42);

    println!(
        "Example 2 — traffic map: {}×{} grid, {} sections, μ = {mu}/s per section",
        grid.width,
        grid.height,
        grid.n_items()
    );

    let mut db = Database::new(grid.n_items(), |i| i * 3 + 1, latency.scaled(4.0));
    let mut update_rng = seed.stream(StreamId::Updates);
    let mut engine = UpdateEngine::new(grid.n_items(), mu, &mut update_rng);
    let mut builder = AtBuilder::new(latency);
    let mut uplink = UplinkProcessor::new();

    // Five drivers with their own walks and AT caches.
    let mut walks: Vec<TrafficMapWorkload> = (0..5)
        .map(|u| {
            let mut rng = seed.stream(StreamId::Hotspot { index: u });
            TrafficMapWorkload::new(grid, 0.3, &mut rng)
        })
        .collect();
    let mut caches: Vec<Cache> = (0..5).map(|_| Cache::unbounded()).collect();
    let mut handlers: Vec<RuleHandler> = (0..5)
        .map(|_| RuleHandler::new(ReportRule::at(latency)))
        .collect();
    let mut t_l: Vec<Option<SimTime>> = vec![None; 5];
    let mut walk_rng = seed.stream(StreamId::Custom { tag: 9 });

    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut refreshed_on_move = 0u64;

    for i in 1..=intervals {
        let t_prev = SimTime::from_secs((i - 1) as f64 * latency.as_secs());
        let t_i = SimTime::from_secs(i as f64 * latency.as_secs());
        engine.advance(&mut db, t_prev, t_i, &mut update_rng);
        let payload = builder.build(i, t_i, &db);

        for u in 0..walks.len() {
            // The display refreshes every interval: query the whole 3×3
            // neighborhood.
            let _ = handlers[u].process(&mut caches[u], &payload, t_l[u]);
            t_l[u] = Some(t_i);
            let neighborhood = walks[u].hotspot();
            for &section in &neighborhood {
                if caches[u].get(section).is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                    let ans = uplink.answer(&db, section, t_i, None);
                    caches[u].insert(ans.item, ans.value, ans.timestamp);
                }
            }
            // Drive on; entering a new section pulls a fresh row of
            // sections into the display next interval.
            if walks[u].step(&mut walk_rng) {
                refreshed_on_move += 1;
            }
        }
        db.prune_log(t_i);
    }

    let total = hits + misses;
    println!();
    println!("intervals simulated : {intervals}");
    println!("display refreshes   : {total} section reads");
    println!("cache hits          : {hits} ({:.1}%)", 100.0 * hits as f64 / total as f64);
    println!("uplink fetches      : {misses}");
    println!("section changes     : {refreshed_on_move} moves across the grid");
    println!();
    println!("Locality pays: a 3×3 display over a slow walk re-reads mostly");
    println!("cached sections; only churned traffic data and newly entered");
    println!("map rows go uplink.");
    assert!(hits > misses, "locality should make hits dominate");
}
