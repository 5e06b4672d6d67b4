//! Mesh acceptance suite: zero-mobility equivalence, thread-count
//! determinism, and per-strategy handoff recovery.

use sleepers::mesh::{CellGraph, MeshConfig, MeshSimulation, MobilityModel};
use sleepers::prelude::*;
use sw_sim::{MasterSeed, ParallelRunner};

fn quick_params() -> ScenarioParams {
    let mut p = ScenarioParams::scenario1();
    p.n_items = 200;
    p.lambda = 0.05;
    p.mu = 1e-3;
    p.k = 10;
    p
}

fn base_config(s: f64) -> CellConfig {
    CellConfig::new(quick_params().with_s(s))
        .with_clients(8)
        .with_hotspot_size(20)
}

fn strip_observe(mut r: SimulationReport) -> SimulationReport {
    // Wall-clock span timings are the one nondeterministic field.
    r.observe = None;
    r
}

/// Acceptance: a mesh at migration rate 0 is byte-identical to N
/// independent single-cell runs of the same per-cell configs.
#[test]
fn zero_mobility_mesh_equals_independent_cells() {
    for strategy in [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
        Strategy::Stateful,
    ] {
        let config = MeshConfig::new(CellGraph::ring(3), base_config(0.3), MasterSeed(41))
            .with_mobility(MobilityModel::Markov { rate: 0.0 });
        let mut mesh = MeshSimulation::new(config.clone(), strategy).unwrap();
        let mesh_report = mesh.run(80).unwrap();
        assert_eq!(mesh_report.migrations, 0);

        for cell in 0..3 {
            let mut solo = CellSimulation::new(config.cell_config(cell), strategy).unwrap();
            let solo_report = solo.run(80).unwrap();
            assert_eq!(
                format!("{:?}", strip_observe(mesh_report.cells[cell].clone())),
                format!("{:?}", strip_observe(solo_report)),
                "{} cell {cell} diverged from its standalone twin",
                strategy.name()
            );
        }
    }
}

/// Acceptance: a mesh run is byte-identical at any thread count.
#[test]
fn mesh_runs_are_identical_across_thread_counts() {
    let run = |threads: usize| {
        let config = MeshConfig::new(CellGraph::grid(2, 2), base_config(0.3), MasterSeed(42))
            .with_mobility(MobilityModel::Markov { rate: 0.1 });
        let mut mesh = MeshSimulation::with_runner(
            config,
            Strategy::BroadcastTimestamps,
            ParallelRunner::new(threads),
        )
        .unwrap();
        let report = mesh.run(120).unwrap();
        assert!(report.migrations > 0, "mobility must actually fire");
        format!("{report:?}")
    };
    let single = run(1);
    assert_eq!(single, run(2));
    assert_eq!(single, run(8));
}

/// Acceptance: the *intra-cell* parallel report sweep is invisible in
/// a mesh too — shards host boxed units (handoffs move whole units,
/// so the columnar fleet never constructs there), and the chunked
/// sweep must be byte-identical at any worker count even while
/// clients migrate. Fleets are sized so the parallel path actually
/// engages (it fans out at ≥ 256 listening clients per cell).
#[test]
fn mesh_sweep_thread_count_is_invisible() {
    let run = |sweep_threads: usize| {
        let base = base_config(0.1)
            .with_clients(400)
            .with_sweep_threads(sweep_threads);
        let config = MeshConfig::new(CellGraph::line(2), base, MasterSeed(49))
            .with_mobility(MobilityModel::Markov { rate: 0.05 });
        let mut mesh =
            MeshSimulation::new(config, Strategy::BroadcastTimestamps).unwrap();
        let report = mesh.run(40).unwrap();
        assert!(report.migrations > 0, "mobility must actually fire");
        format!("{report:?}")
    };
    let single = run(1);
    assert_eq!(single, run(2), "2 sweep threads changed a mesh run");
    assert_eq!(single, run(8), "8 sweep threads changed a mesh run");
}

/// Migration accounting is conserved: every accepted migration is one
/// departure in the source cell and one arrival in the destination.
#[test]
fn migration_counters_are_conserved() {
    let config = MeshConfig::new(CellGraph::ring(4), base_config(0.3), MasterSeed(43))
        .with_mobility(MobilityModel::Markov { rate: 0.2 });
    let mut mesh = MeshSimulation::new(config, Strategy::Signatures).unwrap();
    let report = mesh.run(100).unwrap();
    let m = report.migration();
    assert!(report.migrations > 0);
    assert_eq!(m.migrations_in, report.migrations);
    assert_eq!(m.migrations_out, report.migrations);
    let present: usize = mesh.cells().iter().map(|c| c.present_clients()).sum();
    assert_eq!(present, 4 * 8, "units are moved, never created or lost");
}

/// TS handoff rule: with a shared backbone (histories agree) and a
/// transit gap of 2L well inside the window w = kL, a migrating
/// workaholic keeps its cache — zero handoff drops.
#[test]
fn ts_keeps_cache_when_gap_inside_window() {
    let config = MeshConfig::new(CellGraph::line(2), base_config(0.0), MasterSeed(44))
        .with_mobility(MobilityModel::Periodic { every: 10 });
    let mut mesh = MeshSimulation::new(config, Strategy::BroadcastTimestamps).unwrap();
    let report = mesh.run(100).unwrap();
    assert!(report.migrations > 0);
    assert_eq!(
        report.migration().handoff_drops,
        0,
        "TS must keep entries across a 2L gap with w = 10L"
    );
}

/// AT handoff rule: the transit blackout spans two intervals, so the
/// first report heard in the new cell always exceeds AT's one-interval
/// memory — every migrating unit with a non-empty cache drops it.
#[test]
fn at_always_drops_on_handoff() {
    let config = MeshConfig::new(CellGraph::line(2), base_config(0.0), MasterSeed(45))
        .with_mobility(MobilityModel::Periodic { every: 10 });
    let mut mesh = MeshSimulation::new(config, Strategy::AmnesicTerminals).unwrap();
    let report = mesh.run(100).unwrap();
    assert!(report.migrations > 0);
    assert!(
        report.migration().handoff_drops > 0,
        "AT's gap rule must fire on the transit blackout"
    );
}

/// Stateful baseline: a migrating unit re-registers with the new
/// cell's server at its first wake-up there, and each registration is
/// charged as control traffic.
#[test]
fn stateful_reregisters_after_handoff() {
    let config = MeshConfig::new(CellGraph::line(2), base_config(0.0), MasterSeed(46))
        .with_mobility(MobilityModel::Periodic { every: 10 });
    let mut mesh = MeshSimulation::new(config, Strategy::Stateful).unwrap();
    // 95 intervals: the last Periodic barrier fires at 90, so every
    // arrival has woken (and registered) by the end of the run.
    let report = mesh.run(95).unwrap();
    assert!(report.migrations > 0);
    let m = report.migration();
    assert!(
        m.cross_cell_registrations > 0,
        "arrivals must re-register with the destination registry"
    );
    assert_eq!(
        m.cross_cell_registrations, m.migrations_in,
        "workaholics re-register exactly once per arrival"
    );
}

/// Never-stale strategies stay never-stale under mobility: a mesh run
/// with safety checking on completes without a `SafetyViolated` abort
/// and counts zero violations.
#[test]
fn never_stale_strategies_stay_safe_under_mobility() {
    for strategy in [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Stateful,
    ] {
        let base = base_config(0.3).with_safety_checking();
        let config = MeshConfig::new(CellGraph::ring(3), base, MasterSeed(47))
            .with_mobility(MobilityModel::Markov { rate: 0.15 });
        let mut mesh = MeshSimulation::new(config, strategy).unwrap();
        let report = mesh
            .run(150)
            .unwrap_or_else(|e| panic!("{} aborted under mobility: {e}", strategy.name()));
        assert!(report.migrations > 0);
        assert_eq!(
            report.safety_violations(),
            0,
            "{} validated a stale entry after a handoff",
            strategy.name()
        );
    }
}

/// Cooperative misses fire and pay for themselves: with bounded
/// caches under the same capacity, the coop mesh serves some misses
/// from neighbor directories and its uplink traffic drops below the
/// non-coop twin's. A coop-served answer installs the same
/// (value, report-stamp) pair the uplink would have returned, so the
/// saving is pure accounting, never a behavior change.
#[test]
fn coop_serves_misses_and_cuts_uplink_bits() {
    let run = |coop: bool| {
        let base = base_config(0.3).with_cache_capacity(8);
        let mut config = MeshConfig::new(CellGraph::ring(4), base, MasterSeed(50))
            .with_mobility(MobilityModel::Markov { rate: 0.05 });
        if coop {
            config = config.with_coop(CoopConfig::default());
        }
        let mut mesh = MeshSimulation::new(config, Strategy::BroadcastTimestamps).unwrap();
        mesh.run(150).unwrap()
    };
    let plain = run(false);
    let coop = run(true);
    assert_eq!(plain.coop().coop_served, 0, "unarmed mesh must not serve coop");
    let stats = coop.coop();
    assert!(stats.coop_served > 0, "coop path never fired");
    assert_eq!(
        stats.coop_bits,
        stats.coop_served * CoopConfig::default().b_coop,
        "each served miss is charged exactly b_coop"
    );
    assert!(
        coop.uplink_bits() < plain.uplink_bits(),
        "coop must cut uplink bits at equal capacity: {} vs {}",
        coop.uplink_bits(),
        plain.uplink_bits()
    );
}

/// The never-stale guarantee survives cooperative serving: vouched
/// copies are only installed when the receiver's own report proves
/// them current, so TS and AT stay violation-free even with tight
/// caches, mobility, and the coop path all armed at once.
#[test]
fn coop_stays_never_stale_under_pressure() {
    for strategy in [Strategy::BroadcastTimestamps, Strategy::AmnesicTerminals] {
        let base = base_config(0.3)
            .with_cache_capacity(6)
            .with_safety_checking();
        let config = MeshConfig::new(CellGraph::ring(3), base, MasterSeed(51))
            .with_mobility(MobilityModel::Markov { rate: 0.1 })
            .with_coop(CoopConfig::default());
        let mut mesh = MeshSimulation::new(config, strategy).unwrap();
        let report = mesh
            .run(150)
            .unwrap_or_else(|e| panic!("{} aborted under coop: {e}", strategy.name()));
        assert_eq!(
            report.safety_violations(),
            0,
            "{} validated a stale coop-served entry",
            strategy.name()
        );
    }
}

/// A coop mesh run is byte-identical at any thread count: the
/// directory exchange is part of the single-threaded barrier.
#[test]
fn coop_runs_are_identical_across_thread_counts() {
    let run = |threads: usize| {
        let base = base_config(0.3).with_cache_capacity(8);
        let config = MeshConfig::new(CellGraph::grid(2, 2), base, MasterSeed(52))
            .with_mobility(MobilityModel::Markov { rate: 0.1 })
            .with_coop(CoopConfig::default());
        let mut mesh = MeshSimulation::with_runner(
            config,
            Strategy::BroadcastTimestamps,
            ParallelRunner::new(threads),
        )
        .unwrap();
        let report = mesh.run(100).unwrap();
        assert!(report.coop().coop_served > 0, "coop path never fired");
        format!("{report:?}")
    };
    let single = run(1);
    assert_eq!(single, run(2));
    assert_eq!(single, run(8));
}

/// Repeated migration of the same units (every barrier on a 2-cell
/// line) keeps the simulation well-formed: slots accumulate but the
/// present population is constant and reports stay finite.
#[test]
fn rapid_migration_soak_stays_well_formed() {
    let config = MeshConfig::new(CellGraph::line(2), base_config(0.3), MasterSeed(48))
        .with_mobility(MobilityModel::Periodic { every: 1 });
    let mut mesh = MeshSimulation::new(config, Strategy::BroadcastTimestamps).unwrap();
    let report = mesh.run(60).unwrap();
    assert_eq!(report.migrations, 60 * 16, "everyone hops every barrier");
    let present: usize = mesh.cells().iter().map(|c| c.present_clients()).sum();
    assert_eq!(present, 16);
    for cell in &report.cells {
        assert_eq!(cell.intervals, 60);
    }
}
