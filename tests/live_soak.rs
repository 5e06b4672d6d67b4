//! Thirty-second loopback soak of the live runtime.
//!
//! One real `sw-serve` session per strategy (TS, AT, SIG — run in
//! parallel threads), each with 8 mobile units over real TCP/UDP
//! loopback sockets, wall-clock pacing, genuine sleep/wake timers (the
//! units' seeded sleep runs translate into real intervals of radio
//! silence), and seeded receiver-side UDP drops on top.
//!
//! The assertion is the paper's consistency contract under all of
//! that: auditing every cache entry of every awake interval against
//! the server's value history finds **zero stale entries** for the
//! never-stale strategies (TS, AT) and at most the diagnosis bound for
//! SIG (§6's controlled false-validation risk). Every unit also runs
//! the query plane, so the audit covers cached *query results* row by
//! row under the same contract, and the multi-item transactional reads
//! must resolve — commits and detected-and-aborted non-serializable
//! interleavings both observed across the fleet.

use std::net::SocketAddr;
use std::thread;

use sleepers::query::{QueryPlaneConfig, QueryStats};
use sleepers::sim::Counters;
use sleepers::{CellConfig, Strategy};
use sw_live::{
    audit_against_history, run_mu, FlightRecorder, LiveMuReport, LiveOptions, LiveServer,
    MuOptions,
};
use sw_workload::ScenarioParams;

// ~30 seconds of wall clock: the three strategy stacks run in
// parallel, each pacing 580 broadcast intervals at 50 real ms.
const CLIENTS: usize = 8;
const INTERVALS: u64 = 580;
const INTERVAL_MS: u64 = 50;
const RX_DROP: f64 = 0.15;

fn soak_cell(seed: u64) -> CellConfig {
    let mut params = ScenarioParams::scenario1().with_s(0.5);
    params.n_items = 200;
    // Update-heavy relative to the paper's defaults, so invalidations
    // and restamps actually exercise the recovery paths.
    params.mu = 4e-3;
    params.k = 8;
    CellConfig::new(params)
        .with_clients(CLIENTS)
        .with_hotspot_size(20)
        .with_seed(seed)
        .with_safety_checking()
        .with_query(QueryPlaneConfig::new().with_txn_probability(0.3))
}

struct SoakOutcome {
    strategy: Strategy,
    entries_checked: u64,
    violations: u64,
    reports_heard: u64,
    reports_missed: u64,
    queries: u64,
    query: QueryStats,
    flights: Vec<FlightRecorder>,
}

/// A failing audit dumps every unit's flight ring before the assert
/// fires — the NDJSON shows what each unit decided in the intervals
/// leading up to the stale entry.
fn dump_flights(o: &SoakOutcome) {
    let name = o.strategy.name();
    let dir = std::env::temp_dir();
    for (idx, ring) in o.flights.iter().enumerate() {
        let path = dir.join(format!("sw-soak-{name}-mu{idx}.ndjson"));
        let reason = format!("{}: {} stale cache entries in audit", name, o.violations);
        match ring.dump(&path, &reason) {
            Ok(bytes) => eprintln!("{name}: mu{idx} flight ring ({bytes} B) -> {}", path.display()),
            Err(e) => eprintln!("{name}: mu{idx} flight dump failed: {e}"),
        }
    }
}

fn run_soak(cfg: CellConfig, strategy: Strategy) -> SoakOutcome {
    let handle = LiveServer::spawn(cfg.clone(), strategy, LiveOptions::paced(INTERVALS, INTERVAL_MS))
        .expect("spawn live server");
    let addr: SocketAddr = handle.addr();
    let opts = MuOptions {
        rx_drop: RX_DROP,
        audit_cache: true,
        // Keep a forensic ring per unit: if the audit below finds a
        // stale entry, the dump shows what each unit decided leading
        // up to it.
        flight_capacity: 64,
        ..MuOptions::default()
    };
    let workers: Vec<_> = (0..CLIENTS)
        .map(|idx| {
            let cfg = cfg.clone();
            let opts = opts.clone();
            thread::spawn(move || run_mu(addr, &cfg, strategy, idx, opts))
        })
        .collect();
    let reports: Vec<LiveMuReport> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    let server = handle.wait().expect("server session");
    assert_eq!(server.intervals, INTERVALS, "{}: truncated session", strategy.name());
    let history = server
        .history
        .expect("safety checking was on; the server kept a value history");

    let mut entries_checked = 0;
    let mut violations = 0;
    let mut reports_heard = 0;
    let mut reports_missed = 0;
    let mut queries = 0;
    let mut query = QueryStats::default();
    let mut flights = Vec::with_capacity(reports.len());
    for report in reports {
        // `report.audit` interleaves item-cache rows and query-result
        // rows; the history check applies to both uniformly.
        let (checked, bad) = audit_against_history(&history, &report.audit);
        entries_checked += checked;
        violations += bad;
        reports_heard += report.reports_heard;
        reports_missed += report.reports_missed;
        queries += report.stats.queries_posed;
        query.absorb(&report.query);
        flights.push(report.flight);
    }
    SoakOutcome {
        strategy,
        entries_checked,
        violations,
        reports_heard,
        reports_missed,
        queries,
        query,
        flights,
    }
}

#[test]
fn live_soak_never_stale_under_drops_and_sleep() {
    let stacks = [
        (Strategy::BroadcastTimestamps, 0x50AC_0001u64),
        (Strategy::AmnesicTerminals, 0x50AC_0002),
        (Strategy::Signatures, 0x50AC_0003),
    ];
    let outcomes: Vec<SoakOutcome> = stacks
        .map(|(strategy, seed)| thread::spawn(move || run_soak(soak_cell(seed), strategy)))
        .into_iter()
        .map(|t| t.join().expect("soak stack"))
        .collect();

    for o in &outcomes {
        let name = o.strategy.name();
        eprintln!(
            "{name}: {} queries, {} reports heard, {} missed, \
             {} cache+query entries audited, {} stale; query plane {:?}",
            o.queries, o.reports_heard, o.reports_missed, o.entries_checked, o.violations, o.query
        );
        // The soak must have actually soaked: queries flowed, reports
        // were heard, and the drop injector really dropped some.
        assert!(o.queries > 0, "{name}: no queries posed");
        assert!(o.reports_heard > 0, "{name}: no report ever heard");
        // The query plane must have actually cached and re-served
        // results, and its transactional reads must resolve cleanly.
        assert!(
            o.query.hits > 0 && o.query.misses > 0,
            "{name}: query plane never exercised: {:?}",
            o.query
        );
        assert!(
            o.query.txn_commits > 0,
            "{name}: no multi-item read ever committed: {:?}",
            o.query
        );
        assert!(
            o.query.txn_commits + o.query.txn_aborts <= o.query.txns_begun,
            "{name}: more txn resolutions than begins: {:?}",
            o.query
        );
        assert!(
            o.reports_missed > 0,
            "{name}: rx-drop injection never fired ({RX_DROP} over \
             {INTERVALS} intervals x {CLIENTS} clients)"
        );
        assert!(o.entries_checked > 0, "{name}: nothing was ever cached");
        match o.strategy {
            // Never-stale strategies: the contract is absolute.
            Strategy::BroadcastTimestamps | Strategy::AmnesicTerminals => {
                if o.violations > 0 {
                    dump_flights(o);
                }
                assert_eq!(
                    o.violations, 0,
                    "{name}: stale cache entries in a never-stale strategy"
                );
            }
            // SIG validates by diagnosis; its false-validation rate is
            // bounded, not zero (§6).
            _ => {
                let rate = o.violations as f64 / o.entries_checked as f64;
                if rate > Strategy::SIG_VIOLATION_BOUND {
                    dump_flights(o);
                }
                assert!(
                    rate <= Strategy::SIG_VIOLATION_BOUND,
                    "{name}: stale rate {rate:.4} above the diagnosis bound"
                );
            }
        }
    }

    // Update-heavy cells with 30% transaction arrivals over ~14k awake
    // intervals: at least one multi-item read across the three stacks
    // must have witnessed a footprint change between its pinned reads
    // and been detected-and-aborted rather than committed.
    let aborts: u64 = outcomes.iter().map(|o| o.query.txn_aborts).sum();
    assert!(
        aborts > 0,
        "no non-serializable interleaving was ever detected fleet-wide"
    );
}
