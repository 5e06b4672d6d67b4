//! Extension: inter-cell handoff — the future work §2 defers
//! ("In this article, we do not treat the case of MUs moving between
//! cells. Therefore, all our algorithms deal with caching data within
//! one cell only.").
//!
//! Setting: two cells whose servers hold fully replicated databases fed
//! the *same* update stream (§2: "the database is fully replicated at
//! each data server" and "the replicated copies are kept consistently"),
//! with synchronized report schedules `T_i = i·L`. Mobile units
//! ping-pong between the cells every few intervals.
//!
//! Expected outcome, and why it matters: under these (paper-stated)
//! replication assumptions the invalidation reports of the two cells
//! are *identical functions of the shared database state*, so a
//! handoff is indistinguishable from staying — except for the transit
//! blackout, a one-interval nap baked into the move. The ordinary gap
//! rules (`> w` for TS, `> L` for AT) apply unchanged: TS (w = 10L)
//! shrugs the 2L gap off, AT loses everything, every time.
//!
//! Two implementations measure the same claim:
//!
//! 1. **Twin harness** — the original hand-driven pair of replicated
//!    servers and one client, kept as a cross-check of the raw client
//!    algorithms (its nap is elective, so its "migrates without nap"
//!    row shows the pure-relocation case the full mesh cannot
//!    express).
//! 2. **Mesh** — the real [`sleepers::mesh::MeshSimulation`] on a 2-cell
//!    graph with periodic mobility: full fleets, real channels, real
//!    handoff machinery. Before measuring, a stationary mesh is
//!    asserted bit-identical to two independent single-cell runs — the
//!    sharded environment itself must be invisible.

use crate::replicate::replicate_seed;
use sleepers::client::{MobileUnit, MuConfig, ReplacementPolicy, ReportRule};
use sleepers::mesh::{CellGraph, MeshConfig, MeshSimulation, MobilityModel};
use sleepers::server::{Database, UpdateEngine, UplinkProcessor};
use sleepers::sim::{MasterSeed, SimDuration, SimTime, StreamId};
use sleepers::{CellConfig, CellSimulation, ServerDriver, Strategy};
use sw_workload::ScenarioParams;

struct Cell {
    db: Database,
    server: ServerDriver,
    uplink: UplinkProcessor,
}

/// One replica: the database `params` sizes and `strategy`'s server
/// half over it.
fn new_cell(strategy: Strategy, params: &ScenarioParams, replicate: u64) -> Cell {
    let latency = SimDuration::from_secs(params.latency_secs);
    let db = Database::new(
        params.n_items,
        |i| i * 13 + 5,
        latency.scaled(params.k as f64 + 2.0),
    );
    Cell {
        server: ServerDriver::new(
            strategy,
            params,
            MasterSeed(replicate_seed(0xE20, replicate)),
            &db,
            0,
        ),
        db,
        uplink: UplinkProcessor::with_universe(params.n_items),
    }
}

fn mu(id: u64, seed: u64, n: u64, hotspot: Vec<u64>, rule: ReportRule) -> MobileUnit {
    let mut rng = MasterSeed(seed).stream(StreamId::Queries { index: id });
    MobileUnit::new(
        MuConfig {
            id,
            hotspot,
            query_rate_per_item: 0.05,
            sleep_probability: 0.0,
            cache_capacity: None,
            replacement: ReplacementPolicy::Lru,
            replacement_window: SimDuration::ZERO,
            piggyback_hits: false,
            item_universe: Some(n),
        },
        rule,
        &mut rng,
    )
}

/// Runs one `strategy` client for `intervals`, hearing cell A or B's
/// report per the `in_cell_a` schedule; `nap_on_handoff` adds a
/// one-interval nap at every cell switch.
fn run_client(
    strategy: Strategy,
    migrate_every: Option<u64>,
    nap_on_handoff: bool,
    intervals: u64,
    replicate: u64,
) -> f64 {
    let n = 500u64;
    let mut params = ScenarioParams::scenario1();
    params.latency_secs = 10.0;
    params.n_items = n;
    params.k = 10;
    let mut a = new_cell(strategy, &params, replicate);
    let mut b = new_cell(strategy, &params, replicate);
    // One shared update stream keeps the replicas consistent.
    let mut update_rng = MasterSeed(replicate_seed(0xE20, replicate)).stream(StreamId::Updates);
    let mut engine = UpdateEngine::new(n, 1e-3, &mut update_rng);

    let rule = strategy.report_rule(&params, MasterSeed(replicate_seed(0xE20, replicate)));
    let mut client = mu(
        1,
        replicate_seed(1, replicate),
        n,
        (0..25).collect(),
        rule,
    );
    let mut qrng = MasterSeed(replicate_seed(3, replicate)).stream(StreamId::Custom { tag: 1 });

    let mut in_a = true;
    for i in 1..=intervals {
        let from = SimTime::from_secs((i - 1) as f64 * 10.0);
        let to = SimTime::from_secs(i as f64 * 10.0);
        // Replicated update stream reaches both servers identically.
        for rec in engine.advance(&mut a.db, from, to, &mut update_rng) {
            a.server.on_update(&rec);
            b.server
                .on_update(&b.db.apply_update(rec.item, rec.value, rec.at));
        }
        let payload_a = a.server.build(i, to, &a.db);
        let payload_b = b.server.build(i, to, &b.db);

        let mut napping = false;
        if let Some(every) = migrate_every {
            if i % every == 0 {
                in_a = !in_a;
                napping = nap_on_handoff;
            }
        }
        client.begin_awake_interval(from, to, &mut qrng);
        if napping {
            // The relocation blackout: the unit never sleeps on its own
            // (s = 0), so the nap is this interval's report not being
            // delivered, which the next interval's gap check sees. The
            // queries posed meanwhile wait and are answered after it,
            // matching the paper's elective-disconnection model.
            continue;
        }
        let payload = if in_a { &payload_a } else { &payload_b };
        let outcome = client.hear_report_and_answer(payload);
        for (item, _) in outcome.uplink_requests {
            let cell = if in_a { &mut a } else { &mut b };
            let ans = cell.uplink.answer(&cell.db, item, to, None);
            client.install_answer(ans);
        }
        a.db.prune_log(to);
        b.db.prune_log(to);
    }
    client.stats().hit_ratio()
}

fn mesh_config(mobility: MobilityModel, replicate: u64) -> MeshConfig {
    let mut params = ScenarioParams::scenario1().with_s(0.0);
    params.n_items = 500;
    params.lambda = 0.05;
    params.mu = 1e-3;
    params.k = 10;
    let base = CellConfig::new(params)
        .with_clients(8)
        .with_hotspot_size(25);
    MeshConfig::new(
        CellGraph::line(2),
        base,
        MasterSeed(replicate_seed(0xE20, replicate)),
    )
    .with_mobility(mobility)
}

/// Cross-check: a stationary mesh must be bit-identical to its cells
/// run standalone — the sharded environment adds nothing by itself.
fn assert_mesh_matches_single_cells(strategy: Strategy, intervals: u64, replicate: u64) {
    let config = mesh_config(MobilityModel::Stationary, replicate);
    let mut mesh = MeshSimulation::new(config.clone(), strategy).expect("mesh construction");
    let report = mesh.run(intervals).expect("mesh run");
    for cell in 0..2 {
        let mut solo =
            CellSimulation::new(config.cell_config(cell), strategy).expect("cell construction");
        let solo_report = solo.run(intervals).expect("cell run");
        assert_eq!(
            format!("{:?}", report.cells[cell]),
            format!("{solo_report:?}"),
            "stationary mesh cell {cell} diverged from its standalone twin ({})",
            strategy.name()
        );
    }
}

/// Full-mesh measurement: mesh-wide hit ratio and handoff drops.
fn run_mesh(
    strategy: Strategy,
    mobility: MobilityModel,
    intervals: u64,
    replicate: u64,
) -> (f64, u64) {
    let mut mesh =
        MeshSimulation::new(mesh_config(mobility, replicate), strategy).expect("mesh construction");
    let report = mesh.run(intervals).expect("mesh run");
    (report.hit_ratio(), report.migration().handoff_drops)
}

pub(super) fn run(fast: bool, replicate: u64) -> String {
    let intervals = if fast { 300 } else { 1000 };

    println!("inter-cell handoff with replicated servers and synchronized reports");
    println!();
    println!("Twin harness (single hand-driven client):");
    println!("{:>28} {:>10} {:>10}", "client", "h (TS)", "h (AT)");
    let mut rows = Vec::new();
    for (label, every, nap) in [
        ("stationary", None, false),
        ("migrates every 5 ivls", Some(5), false),
        ("migrates + naps in transit", Some(5), true),
    ] {
        let h_ts = run_client(
            Strategy::BroadcastTimestamps,
            every,
            nap,
            intervals,
            replicate,
        );
        let h_at = run_client(Strategy::AmnesicTerminals, every, nap, intervals, replicate);
        println!("{label:>28} {h_ts:>10.4} {h_at:>10.4}");
        rows.push(serde_json::json!({
            "harness": "twin", "client": label, "h_ts": h_ts, "h_at": h_at
        }));
    }

    // The real mesh. First prove the environment itself is invisible…
    for strategy in [Strategy::BroadcastTimestamps, Strategy::AmnesicTerminals] {
        assert_mesh_matches_single_cells(strategy, intervals.min(200), replicate);
    }
    println!();
    println!("cross-check ok: stationary mesh ≡ independent single-cell runs (bit-identical)");

    // …then measure migration on it.
    println!();
    println!("Mesh (2-cell line, full fleets, periodic mobility):");
    println!(
        "{:>28} {:>10} {:>10} {:>12}",
        "fleet", "h (TS)", "h (AT)", "drops TS/AT"
    );
    for (label, mobility) in [
        ("stationary", MobilityModel::Stationary),
        (
            "migrates every 5 ivls",
            MobilityModel::Periodic { every: 5 },
        ),
    ] {
        let (h_ts, d_ts) = run_mesh(
            Strategy::BroadcastTimestamps,
            mobility,
            intervals,
            replicate,
        );
        let (h_at, d_at) = run_mesh(Strategy::AmnesicTerminals, mobility, intervals, replicate);
        println!(
            "{label:>28} {h_ts:>10.4} {h_at:>10.4} {:>12}",
            format!("{d_ts}/{d_at}")
        );
        rows.push(serde_json::json!({
            "harness": "mesh", "client": label, "h_ts": h_ts, "h_at": h_at,
            "handoff_drops_ts": d_ts, "handoff_drops_at": d_at
        }));
    }

    println!();
    println!("With consistent replicas and synchronized schedules, a clean");
    println!("handoff is invisible — the stationary and migrating rows match.");
    println!("Only the transit blackout hurts, and it hurts by the ordinary");
    println!("gap rules: AT loses everything, TS (w = 10L) shrugs it off. The");
    println!("§3 algorithms extend to mobility between cells without");
    println!("modification.");

    crate::results::to_json(&serde_json::Value::Array(rows))
}
