//! Fault-injection soak and determinism suite.
//!
//! The tentpole claim of the fault layer: under *any* deterministic
//! fault schedule, never-stale strategies (TS, AT) produce **zero**
//! false validations — every fault-induced report gap is turned into a
//! drop (AT) or a window check (TS) — while SIG's violation rate stays
//! under its documented collision bound. The soak below drives a
//! 10 000-interval run through a hostile mix of bursty loss, frame
//! corruption, clock drift, and uplink failures with the per-interval
//! safety checker armed; the simulation itself aborts at the first
//! stale validation by a never-stale strategy
//! (`SimulationError::SafetyViolated`), so completing the run *is* the
//! proof.
//!
//! The determinism half pins that fault schedules are a pure function
//! of the master seed: the same faulty grid through [`ParallelRunner`]
//! at 1, 2, and 8 threads must yield byte-identical reports.

use sleepers::prelude::*;
use sw_sim::runner::{cell_seed, ParallelRunner};

fn hostile_plan() -> FaultPlan {
    FaultPlan::none()
        .with_loss(LossModel::burst(0.08, 0.35, 0.9))
        .with_corruption(0.03)
        .with_drift(ClockDrift {
            rate_secs_per_interval: 0.02,
            jitter_secs: 0.01,
        })
        .with_uplink(UplinkFaults {
            p_fail: 0.15,
            max_attempts: 3,
            backoff_base_bits: 64,
        })
}

fn soak_config(seed: u64) -> CellConfig {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 200;
    params.lambda = 0.05;
    params.mu = 1e-3;
    params.k = 10;
    CellConfig::new(params.with_s(0.4))
        .with_clients(8)
        .with_hotspot_size(20)
        .with_seed(seed)
        .with_delivery(DeliveryMode::TimerSynchronized {
            clock_skew_bound: 0.1,
        })
        .with_faults(hostile_plan())
        .with_safety_checking()
}

#[cfg(feature = "faults")]
#[test]
fn ten_thousand_interval_soak_upholds_the_safety_contracts() {
    let intervals = if std::env::var("SW_FAST").is_ok() {
        2_000
    } else {
        10_000
    };
    for (strategy, seed) in [
        (Strategy::BroadcastTimestamps, 0x50AC_0001),
        (Strategy::AmnesicTerminals, 0x50AC_0002),
        (Strategy::Signatures, 0x50AC_0003),
    ] {
        let mut sim = CellSimulation::new(soak_config(seed), strategy).expect("valid config");
        // A never-stale strategy that validated a stale entry would
        // abort here with SimulationError::SafetyViolated.
        let report = sim
            .run(intervals)
            .unwrap_or_else(|e| panic!("{strategy:?} soak aborted: {e}"));
        assert!(
            report.faults.reports_missed_total() > 100,
            "{strategy:?}: the soak must actually miss reports (got {})",
            report.faults.reports_missed_total()
        );
        assert!(
            report.faults.uplink_retries > 0,
            "{strategy:?}: the soak must exercise uplink retries"
        );
        assert_eq!(
            report.faults.undetected_corruptions, 0,
            "{strategy:?}: the 64-bit checksum must catch every single-bit flip"
        );
        assert!(report.safety.entries_checked > 0);
        // The per-strategy contract, verified against the run's counters.
        report
            .safety
            .verify(strategy.safety_expectation())
            .unwrap_or_else(|e| panic!("{strategy:?} broke its safety contract: {e}"));
        if matches!(strategy, Strategy::Signatures) {
            assert!(
                report.safety.violation_rate() < Strategy::SIG_VIOLATION_BOUND,
                "SIG violation rate {} must stay under the documented bound",
                report.safety.violation_rate()
            );
        } else {
            assert_eq!(
                report.safety.violations, 0,
                "{strategy:?} must never validate a stale entry under faults"
            );
        }
    }
}

/// The eviction safety audit: 5 000 intervals of burst loss and clock
/// drift with a *tight* bounded cache (capacity 6 under a 20-item
/// hotspot, so the replacement policy fires constantly) for every
/// policy. Eviction must never launder staleness: a ghost consumed as
/// `Fresh` re-enters through the uplink with a server timestamp, so
/// TS and AT keep their zero-violation contract (the armed checker
/// aborts the run otherwise — completing is the proof), and SIG stays
/// under its documented collision bound.
#[cfg(feature = "faults")]
#[test]
fn five_thousand_interval_eviction_soak_stays_never_stale() {
    let intervals = if std::env::var("SW_FAST").is_ok() {
        1_000
    } else {
        5_000
    };
    let plan = FaultPlan::none()
        .with_loss(LossModel::burst(0.08, 0.35, 0.9))
        .with_drift(ClockDrift {
            rate_secs_per_interval: 0.02,
            jitter_secs: 0.01,
        });
    for (strategy, seed) in [
        (Strategy::BroadcastTimestamps, 0x50AC_1001u64),
        (Strategy::AmnesicTerminals, 0x50AC_1002),
        (Strategy::Signatures, 0x50AC_1003),
    ] {
        for (pi, policy) in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Lfu,
            ReplacementPolicy::WindowAge,
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = soak_config(seed ^ ((pi as u64) << 32))
                .with_faults(plan)
                .with_cache_capacity(6)
                .with_replacement(policy);
            let mut sim = CellSimulation::new(cfg, strategy).expect("valid config");
            let report = sim.run(intervals).unwrap_or_else(|e| {
                panic!("{strategy:?}/{policy:?} eviction soak aborted: {e}")
            });
            assert!(
                report.capacity.evictions > intervals / 10,
                "{strategy:?}/{policy:?}: capacity 6 must actually churn (got {})",
                report.capacity.evictions
            );
            assert!(
                report.faults.reports_missed_total() > 100,
                "{strategy:?}/{policy:?}: the soak must actually miss reports"
            );
            assert!(report.safety.entries_checked > 0);
            report.safety.verify(strategy.safety_expectation()).unwrap_or_else(|e| {
                panic!("{strategy:?}/{policy:?} broke its safety contract under eviction: {e}")
            });
            if matches!(strategy, Strategy::Signatures) {
                assert!(
                    report.safety.violation_rate() < Strategy::SIG_VIOLATION_BOUND,
                    "SIG/{policy:?} violation rate {} exceeds the documented bound",
                    report.safety.violation_rate()
                );
            } else {
                assert_eq!(
                    report.safety.violations, 0,
                    "{strategy:?}/{policy:?} validated a stale entry after an eviction"
                );
            }
        }
    }
}

/// One grid cell: a strategy under the hostile plan at a swept seed.
#[derive(Clone, Copy)]
struct Cell {
    strategy: Strategy,
    tag: u64,
}

/// Runs one faulty cell end to end and renders the report
/// byte-for-byte (the `Debug` rendering covers every counter,
/// including the fault totals).
fn run_cell(cell: &Cell) -> String {
    let seed = cell_seed(0xFA_5EED, &[cell.tag]);
    let report = CellSimulation::new(soak_config(seed), cell.strategy)
        .expect("cell constructs")
        .run_measured(20, 80)
        .expect("cell runs");
    format!("{report:?}")
}

#[test]
fn fault_schedules_are_byte_identical_across_thread_counts() {
    // Fault draws come from their own `StreamId::Faults { index }`
    // streams, derived from the cell seed alone — never from
    // scheduling. Holds in both feature configs: compiled out, the
    // plan is inert but the grid must still agree.
    let cells: Vec<Cell> = [
        (Strategy::BroadcastTimestamps, 1u64),
        (Strategy::AmnesicTerminals, 2),
        (Strategy::Signatures, 3),
    ]
    .iter()
    .flat_map(|&(strategy, tag)| {
        (0..3).map(move |rep| Cell {
            strategy,
            tag: tag * 100 + rep,
        })
    })
    .collect();
    let baseline = ParallelRunner::new(1).run(&cells, |_, c| run_cell(c));
    for threads in [2, 8] {
        let reports = ParallelRunner::new(threads).run(&cells, |_, c| run_cell(c));
        assert_eq!(
            baseline, reports,
            "fault schedules changed between 1 and {threads} threads"
        );
    }
}

// ---- faults composing with mobility --------------------------------

/// A lighter hostile plan for the mesh soak: report loss plus clock
/// drift (the uplink/corruption axes are already pinned by the
/// single-cell soak above, and the mesh adds nothing to them).
#[cfg(feature = "faults")]
fn mesh_hostile_plan() -> FaultPlan {
    FaultPlan::none()
        .with_loss(LossModel::burst(0.08, 0.35, 0.9))
        .with_drift(ClockDrift {
            rate_secs_per_interval: 0.02,
            jitter_secs: 0.01,
        })
}

#[cfg(feature = "faults")]
fn mesh_soak_config(strategy_tag: u64) -> sleepers::mesh::MeshConfig {
    use sleepers::mesh::{CellGraph, MeshConfig, MobilityModel};
    use sw_sim::{mesh_seed, MasterSeed};

    let mut params = ScenarioParams::scenario1();
    params.n_items = 200;
    params.lambda = 0.05;
    params.mu = 1e-3;
    params.k = 10;
    let base = CellConfig::new(params.with_s(0.4))
        .with_clients(8)
        .with_hotspot_size(20)
        .with_delivery(DeliveryMode::TimerSynchronized {
            clock_skew_bound: 0.1,
        })
        .with_faults(mesh_hostile_plan())
        .with_safety_checking()
        // Free when the `observe` feature is off; with it, exposes the
        // SIG diagnosis counters (`sig_false_alarms`) the pins below
        // cover in the observe+faults build.
        .with_observe("mesh-soak");
    let seed = MasterSeed(mesh_seed(0x50AC_3E5B, &[strategy_tag]));
    MeshConfig::new(CellGraph::ring(3), base, seed)
        .with_mobility(MobilityModel::Markov { rate: 0.05 })
}

/// The mesh soak: 5 000 intervals of burst loss and clock drift
/// *composing* with Markov mobility — faulty gaps and handoff gaps
/// interleave freely. Never-stale strategies (TS, AT) must survive
/// with zero violations (the armed safety checker aborts the run
/// otherwise, so completing is the proof); SIG is allowed signature
/// collisions, and — because the whole mesh is a pure function of its
/// master seed — its diagnosis counters are pinned to exact values
/// rather than bounds. `SW_FAST=1` shortens the soak and keeps only
/// the invariant checks (the pins hold for the full horizon only).
#[cfg(feature = "faults")]
#[test]
fn five_thousand_interval_mesh_soak_composes_faults_with_mobility() {
    let fast = std::env::var("SW_FAST").is_ok();
    let intervals = if fast { 1_000 } else { 5_000 };

    for (strategy, tag) in [
        (Strategy::BroadcastTimestamps, 1u64),
        (Strategy::AmnesicTerminals, 2),
        (Strategy::Signatures, 3),
    ] {
        let mut mesh = sleepers::mesh::MeshSimulation::new(mesh_soak_config(tag), strategy)
            .expect("valid mesh config");
        // A never-stale strategy that validated a stale entry — after
        // a lost report, a drifted wake-up, or a handoff — aborts here
        // with SimulationError::SafetyViolated.
        let report = mesh
            .run(intervals)
            .unwrap_or_else(|e| panic!("{strategy:?} mesh soak aborted: {e}"));

        assert!(report.migrations > 0, "{strategy:?}: mobility must fire");
        let missed: u64 = report
            .cells
            .iter()
            .map(|c| c.faults.reports_missed_total())
            .sum();
        assert!(
            missed > 100,
            "{strategy:?}: the soak must actually miss reports (got {missed})"
        );
        let checked: u64 = report.cells.iter().map(|c| c.safety.entries_checked).sum();
        assert!(checked > 0);
        for cell in &report.cells {
            cell.safety
                .verify(strategy.safety_expectation())
                .unwrap_or_else(|e| panic!("{strategy:?} broke its safety contract: {e}"));
        }
        if !matches!(strategy, Strategy::Signatures) {
            assert_eq!(
                report.safety_violations(),
                0,
                "{strategy:?} must never validate a stale entry under faults + mobility"
            );
        }

        // The SIG pins: collision and false-alarm accounting is a pure
        // function of the master seed, so exact equality is the test.
        if matches!(strategy, Strategy::Signatures) && !fast {
            assert_eq!(
                report.migrations, MESH_SOAK_SIG_MIGRATIONS,
                "SIG soak: migration schedule drifted"
            );
            assert_eq!(
                report.safety_violations(),
                MESH_SOAK_SIG_COLLISIONS,
                "SIG soak: signature-collision count drifted"
            );
            assert_eq!(
                report.migration().handoff_drops,
                MESH_SOAK_SIG_HANDOFF_DROPS,
                "SIG soak: handoff-drop count drifted"
            );
            assert_eq!(
                checked, MESH_SOAK_SIG_ENTRIES_CHECKED,
                "SIG soak: safety-checker coverage drifted"
            );
            assert_eq!(
                missed, MESH_SOAK_SIG_REPORTS_MISSED,
                "SIG soak: fault schedule drifted"
            );
            // The false-alarm half lives in the observe layer and is
            // only recorded in the observe+faults build.
            #[cfg(feature = "observe")]
            {
                let false_alarms: u64 = report
                    .cells
                    .iter()
                    .map(|c| {
                        c.observe
                            .as_ref()
                            .map_or(0, |snap| snap.counter("sig_false_alarms"))
                    })
                    .sum();
                assert_eq!(
                    false_alarms, MESH_SOAK_SIG_FALSE_ALARMS,
                    "SIG soak: false-alarm count drifted"
                );
            }
        }
    }
}

/// Pinned counters for the full 5 000-interval SIG mesh soak. These
/// are regression pins, not derived quantities: any change to the RNG
/// stream layout, the fault schedule, the mobility walk, or the
/// handoff rules shows up here first.
#[cfg(feature = "faults")]
const MESH_SOAK_SIG_MIGRATIONS: u64 = 6_066;
#[cfg(feature = "faults")]
const MESH_SOAK_SIG_COLLISIONS: u64 = 0;
#[cfg(feature = "faults")]
const MESH_SOAK_SIG_HANDOFF_DROPS: u64 = 0;
#[cfg(feature = "faults")]
const MESH_SOAK_SIG_ENTRIES_CHECKED: u64 = 2_313_488;
#[cfg(feature = "faults")]
const MESH_SOAK_SIG_REPORTS_MISSED: u64 = 13_696;
#[cfg(all(feature = "faults", feature = "observe"))]
const MESH_SOAK_SIG_FALSE_ALARMS: u64 = 31_978;
