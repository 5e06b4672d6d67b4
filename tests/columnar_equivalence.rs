//! The columnar-fleet oracle: the struct-of-arrays client backend must
//! be observably indistinguishable from the boxed-`MobileUnit` fleet —
//! same report, same per-client stats, same safety and fault counters,
//! same query planes — for every eligible strategy, at any sweep worker
//! count, with and without faults armed. "Indistinguishable" is checked
//! the blunt way: the full `Debug` rendering of the simulation report
//! and of every client's stats, query-plane stats and committed reads
//! must match byte for byte, and so must the coop directory — the set
//! of entries whose validity stamp is the last report's `T_i`, which
//! the columnar store derives from `T_l` instead of restamping
//! (quasi-delay's alone writes it into the slot).

use sleepers_workaholics::mesh::{CellGraph, CoopDirectory, MeshConfig};
use sleepers_workaholics::prelude::*;

/// §8 adaptive TS on uplink-count feedback: its windows ride every
/// report and are read off it.
const ADAPTIVE_TS: Strategy = Strategy::AdaptiveTs {
    method: FeedbackMethod::Method2,
    eval_period: 10,
    step: 1,
};

/// §8.1's Method 1: the same windows, fed by the hit histories each
/// client piggybacks on its uplinks — a slot column on the columnar
/// store.
const METHOD_1: Strategy = Strategy::AdaptiveTs {
    method: FeedbackMethod::Method1,
    eval_period: 10,
    step: 1,
};

/// §7's quasi-delay: a copy not yet due keeps its stamp running, which
/// the columnar store writes per slot.
const QUASI_DELAY: Strategy = Strategy::QuasiDelay { alpha_intervals: 3 };

const ELIGIBLE: &[Strategy] = &[
    Strategy::BroadcastTimestamps,
    Strategy::AmnesicTerminals,
    Strategy::Signatures,
    Strategy::NoCache,
    Strategy::HybridSig { hot_count: 30 },
    Strategy::GroupReports { groups: 20 },
    Strategy::Stateful,
    ADAPTIVE_TS,
    METHOD_1,
    QUASI_DELAY,
];

/// What the fault, sweep-thread and bounded-cache inputs run: one
/// strategy per kind of report or client state the columnar store
/// hosts — a TS window, signatures, the stateful baseline's directed
/// ids, adaptive TS's per-item windows on either feedback, and
/// quasi-delay's running stamps.
const REPORT_KINDS: [Strategy; 6] = [
    Strategy::BroadcastTimestamps,
    Strategy::Signatures,
    Strategy::Stateful,
    ADAPTIVE_TS,
    METHOD_1,
    QUASI_DELAY,
];

fn base_config(n_clients: usize, s: f64, seed: u64) -> CellConfig {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 400;
    params.lambda = 0.04;
    params.bandwidth_bps = 40_000; // headroom: equivalence, not capacity
    let params = params.with_s(s);
    CellConfig::new(params)
        .with_clients(n_clients)
        .with_hotspot_size(24)
        .with_seed(seed)
}

/// Everything observable about a run: the report and every client's
/// stats, query-plane stats and committed reads, rendered, and the coop
/// directory — compared with `PartialEq`, since its `Debug` walks a
/// `HashMap` in no fixed order.
type Fingerprint = (String, Vec<String>, CoopDirectory);

/// Runs a config+strategy on one fleet backend and captures everything
/// observable.
fn fingerprint(cfg: CellConfig, strategy: Strategy, intervals: u64) -> Fingerprint {
    let mut sim = CellSimulation::new(cfg, strategy).expect("valid config");
    sim.run(intervals).expect("report fits");
    let per_client = (0..sim.client_slots())
        .map(|idx| {
            let plane = sim
                .query_plane(idx)
                .map(|plane| (plane.stats(), plane.committed_reads()));
            format!("{:?} {plane:?}", sim.client_stats(idx))
        })
        .collect();
    (
        format!("{:?}", sim.report()),
        per_client,
        sim.coop_directory(),
    )
}

#[test]
fn columnar_matches_units_for_every_eligible_strategy() {
    // Adaptive TS moves windows off `k_0` within the run on either
    // feedback, so its cells judge cached items by windows read off the
    // report — and under Method 1 each store's piggybacked histories
    // move the same windows.
    for strategy in [ADAPTIVE_TS, METHOD_1] {
        let cfg = base_config(40, 0.4, 77);
        let (k_0, n) = (cfg.params.k, cfg.params.n_items);
        let run = |backend| {
            let cfg = cfg.clone().with_fleet(backend);
            let mut sim = CellSimulation::new(cfg, strategy).expect("valid config");
            sim.run(80).expect("report fits");
            (0..n).map(|i| sim.adaptive_window(i)).collect::<Vec<_>>()
        };
        let windows = run(FleetBackend::Columnar);
        let moved = windows.iter().any(|&w| w != Some(k_0));
        assert!(
            moved,
            "{}: no adaptive window left k_0 = {k_0}",
            strategy.name()
        );
        assert_eq!(
            windows,
            run(FleetBackend::Units),
            "{}: the windows diverged between fleet backends",
            strategy.name()
        );
    }
    // The plain cell, and a mixed population: workaholics beside deep
    // sleepers (s = 0.9), every client posing Zipf-skewed queries, so
    // both stores credit long sleep runs and pose from the Zipf stream.
    let inputs = [
        base_config(40, 0.4, 77),
        base_config(40, 0.4, 77)
            .with_sleep_profile(vec![0.0, 0.9])
            .with_query_zipf(0.8),
    ];
    // Query cells, each recording its commits: a plane reads its
    // client's item cache through the same view on either store, so the
    // report's query totals and every client's plane stats and
    // committed reads must match too. `boxed_query_bounded`'s shape (TS,
    // 24 of 30 slots under LRU, Zipf 0.8), then an AT and a SIG cell
    // with more transactions than the default.
    let plane = QueryPlaneConfig::new().with_commit_recording();
    let query_cells = [
        (
            base_config(40, 0.5, 71)
                .with_hotspot_size(30)
                .with_cache_capacity(24)
                .with_replacement(ReplacementPolicy::Lru)
                .with_query_zipf(0.8)
                .with_query(plane),
            Strategy::BroadcastTimestamps,
        ),
        (
            base_config(40, 0.4, 73).with_query(plane.with_txn_probability(0.5)),
            Strategy::AmnesicTerminals,
        ),
        (
            base_config(40, 0.4, 79).with_query(plane.with_txn_probability(0.5)),
            Strategy::Signatures,
        ),
    ];
    let cells = inputs
        .iter()
        .flat_map(|cfg| ELIGIBLE.iter().map(move |&strategy| (cfg.clone(), strategy)))
        .chain(query_cells);
    for (cfg, strategy) in cells {
        let units = fingerprint(cfg.clone().with_fleet(FleetBackend::Units), strategy, 80);
        let columnar = fingerprint(cfg.clone().with_fleet(FleetBackend::Columnar), strategy, 80);
        assert!(
            cfg.query.is_none() || units.1.iter().any(|client| client.contains("CommittedRead")),
            "{}: no client recorded a committed read",
            strategy.name()
        );
        assert_eq!(
            units.0, columnar.0,
            "{} report diverged between fleet backends",
            strategy.name()
        );
        assert_eq!(
            units.1, columnar.1,
            "{} per-client stats diverged between fleet backends",
            strategy.name()
        );
        assert!(
            units.2 == columnar.2,
            "{} coop directory diverged between fleet backends",
            strategy.name()
        );
    }
}

#[test]
fn columnar_matches_units_under_faults() {
    // Loss + corruption + drift + flaky uplinks: the full fault
    // gauntlet must hit both backends identically (fates are decided
    // before the sweep, from per-client streams).
    let plan = FaultPlan::none()
        .with_loss(LossModel::burst(0.05, 0.4, 0.8))
        .with_corruption(0.02)
        .with_uplink(UplinkFaults {
            p_fail: 0.1,
            max_attempts: 3,
            backoff_base_bits: 64,
        })
        .with_drift(ClockDrift {
            rate_secs_per_interval: 0.3,
            jitter_secs: 0.5,
        });
    for strategy in REPORT_KINDS {
        let units = fingerprint(
            base_config(40, 0.4, 99)
                .with_faults(plan)
                .with_fleet(FleetBackend::Units),
            strategy,
            80,
        );
        let columnar = fingerprint(
            base_config(40, 0.4, 99)
                .with_faults(plan)
                .with_fleet(FleetBackend::Columnar),
            strategy,
            80,
        );
        assert_eq!(
            units.0, columnar.0,
            "{} faulted report diverged between fleet backends",
            strategy.name()
        );
        assert_eq!(units.1, columnar.1, "{} faulted stats diverged", strategy.name());
        assert!(
            units.2 == columnar.2,
            "{} faulted coop directory diverged",
            strategy.name()
        );
    }
}

#[test]
fn sweep_thread_count_is_invisible() {
    // Big enough that the parallel path actually engages (the sweep
    // fans out at ≥ 256 listening clients), on both backends.
    for strategy in REPORT_KINDS {
        let name = strategy.name();
        for backend in [FleetBackend::Units, FleetBackend::Columnar] {
            let mut baseline: Option<Fingerprint> = None;
            for threads in [1usize, 2, 8] {
                let got = fingerprint(
                    base_config(500, 0.2, 31)
                        .with_fleet(backend)
                        .with_sweep_threads(threads),
                    strategy,
                    40,
                );
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => {
                        assert_eq!(
                            want.0, got.0,
                            "{name} {backend:?} report changed at {threads} sweep threads"
                        );
                        assert_eq!(
                            want.1, got.1,
                            "{name} {backend:?} per-client stats changed at {threads} sweep threads"
                        );
                        assert!(
                            want.2 == got.2,
                            "{name} {backend:?} coop directory changed at {threads} sweep threads"
                        );
                    }
                }
            }
        }
    }
}

/// Runs a config+strategy with the recorder armed and renders every
/// deterministic observation artifact (trace, series, counters, value
/// histograms) as one string.
#[cfg(feature = "observe")]
fn observe_digest(cfg: CellConfig, strategy: Strategy, intervals: u64) -> String {
    let mut sim = CellSimulation::new(cfg.with_observe("equiv"), strategy).expect("valid config");
    sim.run(intervals).expect("report fits");
    sim.report()
        .observe
        .expect("observing run snapshots")
        .deterministic_digest()
}

/// The telemetry oracle: with the recorder armed, the columnar fleet
/// must emit the byte-identical deterministic observation digest the
/// boxed fleet emits — same counters, same per-interval series, same
/// event trace, same value histograms — for every strategy.
#[cfg(feature = "observe")]
#[test]
fn observe_snapshots_match_across_backends() {
    for &strategy in ELIGIBLE {
        let units = observe_digest(
            base_config(40, 0.4, 77).with_fleet(FleetBackend::Units),
            strategy,
            80,
        );
        let columnar = observe_digest(
            base_config(40, 0.4, 77).with_fleet(FleetBackend::Columnar),
            strategy,
            80,
        );
        assert_eq!(
            units, columnar,
            "{} observe digest diverged between fleet backends",
            strategy.name()
        );
    }
}

/// Same oracle under the full fault gauntlet: the fault event family
/// (lost/corrupted/drift counters, report_missed events, drop-on-gap
/// accounting) must be backend-invariant too.
#[cfg(all(feature = "observe", feature = "faults"))]
#[test]
fn observe_snapshots_match_across_backends_under_faults() {
    let plan = FaultPlan::none()
        .with_loss(LossModel::burst(0.05, 0.4, 0.8))
        .with_corruption(0.02)
        .with_uplink(UplinkFaults {
            p_fail: 0.1,
            max_attempts: 3,
            backoff_base_bits: 64,
        })
        .with_drift(ClockDrift {
            rate_secs_per_interval: 0.3,
            jitter_secs: 0.5,
        });
    for strategy in REPORT_KINDS {
        let units = observe_digest(
            base_config(40, 0.4, 99)
                .with_faults(plan)
                .with_fleet(FleetBackend::Units),
            strategy,
            80,
        );
        let columnar = observe_digest(
            base_config(40, 0.4, 99)
                .with_faults(plan)
                .with_fleet(FleetBackend::Columnar),
            strategy,
            80,
        );
        assert_eq!(
            units, columnar,
            "{} faulted observe digest diverged between fleet backends",
            strategy.name()
        );
    }
}

/// The digest must also be invariant to the sweep worker count, on both
/// backends, with the parallel path actually engaged (≥ 256 listeners).
#[cfg(feature = "observe")]
#[test]
fn observe_snapshots_ignore_sweep_threads() {
    for backend in [FleetBackend::Units, FleetBackend::Columnar] {
        let mut baseline: Option<String> = None;
        for threads in [1usize, 2, 8] {
            let got = observe_digest(
                base_config(500, 0.2, 31)
                    .with_fleet(backend)
                    .with_sweep_threads(threads),
                Strategy::BroadcastTimestamps,
                40,
            );
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "{backend:?} observe digest changed at {threads} sweep threads"
                ),
            }
        }
    }
}

#[test]
fn eligible_configs_default_to_columnar() {
    for &strategy in ELIGIBLE {
        let sim = CellSimulation::new(base_config(8, 0.3, 5), strategy).unwrap();
        assert!(
            sim.is_columnar(),
            "{} should auto-select the columnar fleet",
            strategy.name()
        );
    }
}

#[test]
fn ineligible_configs_stay_on_boxed_units() {
    // A query cell defaults to boxed units, whatever the strategy,
    // though either store hosts the plane (the query cells of
    // `columnar_matches_units_for_every_eligible_strategy`). Mesh shards
    // are the one refusal: a handoff moves a client's row of the
    // columns, so shards run columnar (last case below).
    for &strategy in ELIGIBLE {
        let sim = CellSimulation::new(
            base_config(8, 0.3, 5).with_query(QueryPlaneConfig::new()),
            strategy,
        )
        .unwrap();
        assert!(
            !sim.is_columnar(),
            "{} with a query plane must stay boxed",
            strategy.name()
        );
    }
    // Bounded caches are columnar-eligible: the replacement clocks ride
    // along as extra columns.
    let sim = CellSimulation::new(
        base_config(8, 0.3, 5).with_cache_capacity(10),
        Strategy::BroadcastTimestamps,
    )
    .unwrap();
    assert!(
        sim.is_columnar(),
        "bounded caches should auto-select the columnar fleet"
    );
    // Forcing boxed units onto a mesh shard is a loud configuration
    // error that names the disqualifier, not a silent fallback or a
    // bare settings dump.
    let refused = |config: CellConfig, reason: &str| match CellSimulation::new(
        config,
        Strategy::BroadcastTimestamps,
    ) {
        Err(SimulationError::InvalidConfig(msg)) => assert!(
            msg.contains(reason),
            "the error must name the disqualifying reason, got: {msg}"
        ),
        Ok(_) => panic!("expected InvalidConfig, got a running simulation"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
    };
    // A mesh shard picks the columns, and refuses boxed units.
    let mesh = MeshConfig::new(CellGraph::line(2), base_config(8, 0.3, 5), MasterSeed(5));
    let shard = CellSimulation::new(mesh.cell_config(0), Strategy::BroadcastTimestamps).unwrap();
    assert!(
        shard.is_columnar(),
        "a mesh shard runs on the columnar fleet"
    );
    refused(
        mesh.cell_config(0).with_fleet(FleetBackend::Units),
        "mesh handoffs move a client's row of the columnar store",
    );
}

/// The tentpole oracle: with a finite capacity armed, the columnar
/// capacity columns must replay the boxed cache's clock/eviction
/// machinery byte for byte — for every replacement policy, at every
/// sweep worker count the suite pins (`SW_THREADS ∈ {1, 2, 8}` via
/// `with_sweep_threads`), for AT and every strategy of `REPORT_KINDS`.
/// Capacity is set well below the hotspot so replacement actually
/// churns.
#[test]
fn bounded_caches_match_across_backends_per_policy() {
    for &policy in &[
        ReplacementPolicy::Lru,
        ReplacementPolicy::Lfu,
        ReplacementPolicy::WindowAge,
    ] {
        for strategy in std::iter::once(Strategy::AmnesicTerminals).chain(REPORT_KINDS) {
            for threads in [1usize, 2, 8] {
                let cfg = |backend| {
                    base_config(40, 0.4, 77)
                        .with_cache_capacity(8)
                        .with_replacement(policy)
                        .with_fleet(backend)
                        .with_sweep_threads(threads)
                };
                let units = fingerprint(cfg(FleetBackend::Units), strategy, 80);
                let columnar = fingerprint(cfg(FleetBackend::Columnar), strategy, 80);
                assert_eq!(
                    units.0,
                    columnar.0,
                    "{} report diverged between fleet backends under {} replacement \
                     at {threads} sweep threads",
                    strategy.name(),
                    policy.name()
                );
                assert_eq!(
                    units.1,
                    columnar.1,
                    "{} per-client stats diverged under {} replacement at {threads} \
                     sweep threads",
                    strategy.name(),
                    policy.name()
                );
                assert!(
                    units.2 == columnar.2,
                    "{} coop directory diverged under {} replacement at {threads} \
                     sweep threads",
                    strategy.name(),
                    policy.name()
                );
            }
        }
    }
}

/// Bounded caches under the parallel sweep for real: enough listeners
/// that the chunked path engages (≥ 256), with capacity churn on.
#[test]
fn bounded_caches_ignore_sweep_threads_at_scale() {
    for backend in [FleetBackend::Units, FleetBackend::Columnar] {
        let mut baseline: Option<Fingerprint> = None;
        for threads in [1usize, 2, 8] {
            let got = fingerprint(
                base_config(500, 0.2, 31)
                    .with_cache_capacity(8)
                    .with_replacement(ReplacementPolicy::WindowAge)
                    .with_fleet(backend)
                    .with_sweep_threads(threads),
                Strategy::BroadcastTimestamps,
                40,
            );
            match &baseline {
                None => baseline = Some(got),
                Some(want) => {
                    assert_eq!(
                        want.0, got.0,
                        "{backend:?} bounded report changed at {threads} sweep threads"
                    );
                    assert_eq!(
                        want.1, got.1,
                        "{backend:?} bounded stats changed at {threads} sweep threads"
                    );
                    assert!(
                        want.2 == got.2,
                        "{backend:?} bounded coop directory changed at {threads} sweep threads"
                    );
                }
            }
        }
    }
}

/// The digest kernels where they work hardest, with the chunked sweep
/// engaged (≥ 256 listeners) at every pinned worker count: AT at
/// Scenario 3's update rate (most of the database listed every
/// interval, so the walk invalidates more than it keeps), bounded AT and
/// TS (ghost slots live, retired by probing the digest), and a hot spot
/// wider than 64 items (valid and pending masks cross a word boundary).
/// The boxed fleet at one thread is the oracle for every column.
#[test]
fn digest_kernels_match_units_at_scale() {
    let scenario3_rate = |mut cfg: CellConfig| {
        cfg.params.mu = ScenarioParams::scenario3().mu;
        cfg
    };
    let cases: [(&str, Strategy, CellConfig); 5] = [
        (
            "AT at Scenario 3 update rate",
            Strategy::AmnesicTerminals,
            scenario3_rate(base_config(300, 0.1, 13)),
        ),
        (
            "bounded AT at Scenario 3 update rate",
            Strategy::AmnesicTerminals,
            scenario3_rate(base_config(300, 0.1, 13)).with_cache_capacity(8),
        ),
        (
            "bounded TS",
            Strategy::BroadcastTimestamps,
            base_config(300, 0.1, 17)
                .with_cache_capacity(8)
                .with_replacement(ReplacementPolicy::Lfu),
        ),
        (
            "TS over a 70-item hot spot",
            Strategy::BroadcastTimestamps,
            base_config(300, 0.1, 19).with_hotspot_size(70),
        ),
        (
            "bounded AT over a 70-item hot spot",
            Strategy::AmnesicTerminals,
            base_config(300, 0.1, 23)
                .with_hotspot_size(70)
                .with_cache_capacity(66),
        ),
    ];
    for (name, strategy, cfg) in cases {
        let want = fingerprint(
            cfg.clone()
                .with_fleet(FleetBackend::Units)
                .with_sweep_threads(1),
            strategy,
            30,
        );
        for threads in [1usize, 2, 8] {
            let got = fingerprint(
                cfg.clone()
                    .with_fleet(FleetBackend::Columnar)
                    .with_sweep_threads(threads),
                strategy,
                30,
            );
            assert_eq!(want.0, got.0, "{name}: report diverged at {threads} sweep threads");
            assert_eq!(want.1, got.1, "{name}: client stats diverged at {threads} sweep threads");
            assert!(
                want.2 == got.2,
                "{name}: coop directory diverged at {threads} sweep threads"
            );
        }
    }
}

/// The only six-figure fleet the tree ever builds: 100 000 columnar TS
/// clients in one cell, λ cut tenfold so the sweep (not query
/// generation) is the work, the channel widened with the fleet so no
/// exchange is ever deferred. The chunked sweep must be invisible here
/// too — same hit ratio, same queries — and the cell must construct and
/// run at all. No timing is asserted; `benchmark/` measures speed.
#[test]
fn hundred_thousand_clients_ignore_sweep_threads() {
    const CLIENTS: usize = 100_000;
    let run = |threads: usize| {
        let mut params = ScenarioParams::scenario1().with_s(0.5);
        params.n_items = 2_000;
        params.lambda *= 0.1;
        params.bandwidth_bps *= 2_048 * (CLIENTS as u64 / 1_000);
        let cfg = CellConfig::new(params)
            .with_clients(CLIENTS)
            .with_hotspot_size(30)
            .with_seed(11)
            .with_sweep_threads(threads);
        let mut sim =
            CellSimulation::new(cfg, Strategy::BroadcastTimestamps).expect("valid config");
        assert!(sim.is_columnar(), "a fleet this size must be columnar");
        sim.run(5).expect("warm-up runs");
        sim.reset_metrics();
        let report = sim.run(20).expect("report fits");
        assert_eq!(report.overflow_exchanges, 0, "scale channel saturated");
        assert!(report.queries_posed > CLIENTS as u64, "the fleet sat idle");
        (report.hit_ratio(), report.queries_posed)
    };
    assert_eq!(
        run(1),
        run(2),
        "(hit_ratio, queries_posed) changed at 2 sweep threads"
    );
}
