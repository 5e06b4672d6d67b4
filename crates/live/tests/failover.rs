//! Failover acceptance: a two-node HA fleet with a seeded primary
//! crash mid-session.
//!
//! Paced: the primary dies `AfterAppend` at interval 30 — the entry is
//! committed but never aired, so every awake client misses exactly
//! that interval; the replica takes over at 31 (epoch 2) on the
//! original cadence, the fleet re-registers through its announced
//! successor roster, and the end-of-run audit of every client cache
//! against the *survivor's* value history finds zero stale entries for
//! the never-stale strategies (TS, AT) and at most the diagnosis bound
//! for SIG.
//!
//! Lockstep (`faults` feature): the same crash schedule produces
//! decision logs byte-identical to `CellSimulation` fed the equivalent
//! report-gap schedule — an `AfterAppend` crash at `k` is exactly a
//! one-interval blackout at `k`, and a `BeforeAppend` crash is no gap
//! at all (the successor broadcasts the crash interval itself).

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use sleepers::{CellConfig, Strategy};
use sw_live::ha::{CrashPoint, HaOptions, HaReport, ServerFaultPlan};
use sw_live::{audit_against_history, run_mu, LiveMuReport, LiveOptions, MuOptions};
use sw_workload::ScenarioParams;

mod common;
use common::bind_pair;

const CLIENTS: usize = 4;
const INTERVALS: u64 = 80;
const INTERVAL_MS: u64 = 25;
const CRASH_AT: u64 = 30;

fn cell(seed: u64, s: f64) -> CellConfig {
    let mut params = ScenarioParams::scenario1().with_s(s);
    params.n_items = 200;
    params.mu = 4e-3;
    params.k = 8;
    CellConfig::new(params)
        .with_clients(CLIENTS)
        .with_hotspot_size(15)
        .with_seed(seed)
        .with_safety_checking()
}

struct Outcome {
    mus: Vec<LiveMuReport>,
    crashed: HaReport,
    survivor: HaReport,
}

/// One paced HA session: node 0 is the primary and dies `AfterAppend`
/// at [`CRASH_AT`]; node 1 must take over mid-run (asserted *during*
/// the session via its epoch view, not just post-mortem).
fn run_paced_failover(strategy: Strategy, seed: u64) -> Outcome {
    let cfg = cell(seed, 0.3);
    let (mut nodes, peers) = bind_pair();
    let node1 = nodes.pop().expect("node 1");
    let node0 = nodes.pop().expect("node 0");
    let h0 = node0
        .start(
            cfg.clone(),
            strategy,
            HaOptions::new(0, peers.clone(), LiveOptions::paced(INTERVALS, INTERVAL_MS))
                .with_faults(ServerFaultPlan::none().with_crash(CRASH_AT, CrashPoint::AfterAppend)),
        )
        .expect("start node 0");
    let h1 = node1
        .start(
            cfg.clone(),
            strategy,
            HaOptions::new(1, peers.clone(), LiveOptions::paced(INTERVALS, INTERVAL_MS)),
        )
        .expect("start node 1");

    let addr0 = peers[0].client;
    let successors: Vec<SocketAddr> = peers.iter().map(|p| p.client).collect();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|idx| {
            let cfg = cfg.clone();
            let opts = MuOptions {
                audit_cache: true,
                successors: successors.clone(),
                reconnect_after: 2,
                ..MuOptions::default()
            };
            thread::spawn(move || run_mu(addr0, &cfg, strategy, idx, opts))
        })
        .collect();

    // The takeover must be observable while the session still runs,
    // within a bounded number of intervals of the crash.
    let deadline = Instant::now() + Duration::from_millis((CRASH_AT + 20) * INTERVAL_MS);
    loop {
        let (epoch, primary) = h1.ha_status();
        if epoch == 2 && primary {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{}: node 1 never took over (epoch {epoch}, primary {primary})",
            strategy.name()
        );
        thread::sleep(Duration::from_millis(10));
    }

    let mus: Vec<LiveMuReport> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    let crashed = h0.wait().expect("node 0 teardown");
    let survivor = h1.wait().expect("node 1 teardown");
    Outcome {
        mus,
        crashed,
        survivor,
    }
}

fn assert_failover_contract(strategy: Strategy, o: &Outcome) {
    let name = strategy.name();
    assert!(o.crashed.crashed, "{name}: node 0 survived its fault");
    assert!(o.crashed.live.is_none());
    assert!(!o.survivor.crashed, "{name}: the survivor crashed too");
    assert_eq!(o.survivor.epoch, 2, "{name}: takeover must bump the epoch");
    // AfterAppend at k: entry k is committed cluster-wide but never
    // aired; the successor resumes *broadcasting* at k+1.
    assert_eq!(
        o.survivor.took_over_at,
        Some(CRASH_AT + 1),
        "{name}: wrong takeover interval"
    );
    let live = o.survivor.live.as_ref().expect("survivor session report");
    assert_eq!(live.intervals, INTERVALS, "{name}: truncated session");
    assert!(live.datagrams_sent > 0, "{name}: successor never broadcast");

    let history = live
        .history
        .as_ref()
        .expect("safety checking was on; the survivor kept a value history");
    let mut checked = 0u64;
    let mut violations = 0u64;
    let mut reconnects = 0u64;
    let mut heard = 0u64;
    for mu in &o.mus {
        assert_eq!(mu.rows.len() as u64, INTERVALS, "{name}: truncated client");
        let (c, v) = audit_against_history(history, &mu.audit);
        checked += c;
        violations += v;
        reconnects += mu.reconnects;
        heard += mu.reports_heard;
    }
    assert!(checked > 0, "{name}: nothing was ever cached");
    assert!(heard > 0, "{name}: no report ever heard");
    assert!(
        reconnects >= CLIENTS as u64,
        "{name}: the fleet rode through the crash without re-registering \
         ({reconnects} reconnects)"
    );
    match strategy {
        Strategy::BroadcastTimestamps | Strategy::AmnesicTerminals => {
            assert_eq!(
                violations, 0,
                "{name}: stale cache entries after failover in a never-stale strategy"
            );
        }
        _ => {
            let rate = violations as f64 / checked as f64;
            assert!(
                rate <= Strategy::SIG_VIOLATION_BOUND,
                "{name}: stale rate {rate:.4} above the diagnosis bound after failover"
            );
        }
    }
}

#[test]
fn paced_primary_crash_hands_over_with_zero_stale_caches() {
    let stacks = [
        (Strategy::BroadcastTimestamps, 0xFA11_0001u64),
        (Strategy::AmnesicTerminals, 0xFA11_0002),
        (Strategy::Signatures, 0xFA11_0003),
    ];
    let outcomes: Vec<(Strategy, Outcome)> = stacks
        .map(|(strategy, seed)| {
            thread::spawn(move || (strategy, run_paced_failover(strategy, seed)))
        })
        .into_iter()
        .map(|t| t.join().expect("failover stack"))
        .collect();
    for (strategy, outcome) in &outcomes {
        eprintln!(
            "{}: epoch {}, takeover at {:?}, {} reconnects, {} audited entries",
            strategy.name(),
            outcome.survivor.epoch,
            outcome.survivor.took_over_at,
            outcome.mus.iter().map(|m| m.reconnects).sum::<u64>(),
            outcome.mus.iter().map(|m| m.audit.len()).sum::<usize>(),
        );
        assert_failover_contract(*strategy, outcome);
    }
}

/// Lockstep conformance through a crash: the live fleet's decision
/// logs must be byte-identical to the simulator fed the equivalent
/// report-gap schedule.
#[cfg(feature = "faults")]
mod lockstep_conformance {
    use super::*;
    use sleepers::faults::FaultPlan;
    use sw_live::conformance::sim_decision_log;
    use sw_live::{encode_rows, DecisionRow};

    const CONF_INTERVALS: u64 = 24;
    const CONF_CRASH_AT: u64 = 12;

    /// Runs a two-node lockstep HA session with the given crash point
    /// on the primary and returns each client's locally-kept rows.
    fn ha_lockstep_rows(
        cfg: &CellConfig,
        strategy: Strategy,
        point: CrashPoint,
    ) -> (Vec<Vec<DecisionRow>>, HaReport) {
        let (mut nodes, peers) = bind_pair();
        let node1 = nodes.pop().expect("node 1");
        let node0 = nodes.pop().expect("node 0");
        let h0 = node0
            .start(
                cfg.clone(),
                strategy,
                HaOptions::new(0, peers.clone(), LiveOptions::lockstep(CONF_INTERVALS))
                    .with_faults(ServerFaultPlan::none().with_crash(CONF_CRASH_AT, point)),
            )
            .expect("start node 0");
        let h1 = node1
            .start(
                cfg.clone(),
                strategy,
                HaOptions::new(1, peers.clone(), LiveOptions::lockstep(CONF_INTERVALS)),
            )
            .expect("start node 1");
        let addr0 = peers[0].client;
        let successors: Vec<SocketAddr> = peers.iter().map(|p| p.client).collect();
        let workers: Vec<_> = (0..cfg.n_clients)
            .map(|idx| {
                let cfg = cfg.clone();
                let successors = successors.clone();
                thread::spawn(move || {
                    run_mu(
                        addr0,
                        &cfg,
                        strategy,
                        idx,
                        MuOptions {
                            successors,
                            ..MuOptions::default()
                        },
                    )
                })
            })
            .collect();
        // Collect the node outcomes on their own threads so a server
        // error surfaces (on stderr, at least) even if it would
        // otherwise leave a client blocked.
        let t0 = thread::spawn(move || {
            let r = h0.wait();
            if let Err(e) = &r {
                eprintln!("node 0 teardown error: {e}");
            }
            r
        });
        let t1 = thread::spawn(move || {
            let r = h1.wait();
            if let Err(e) = &r {
                eprintln!("node 1 teardown error: {e}");
            }
            r
        });
        let rows: Vec<Vec<DecisionRow>> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread").expect("client session").rows)
            .collect();
        let crashed = t0.join().expect("node 0 thread").expect("node 0 teardown");
        assert!(crashed.crashed, "node 0 survived its fault");
        let survivor = t1.join().expect("node 1 thread").expect("node 1 teardown");
        assert!(!survivor.crashed);
        assert_eq!(survivor.epoch, 2);
        (rows, survivor)
    }

    fn assert_logs_identical(live: &[Vec<DecisionRow>], sim: &[Vec<DecisionRow>], what: &str) {
        assert_eq!(live.len(), sim.len());
        let decided: u64 = sim.iter().flatten().map(|r| r.queries + r.hits + r.misses).sum();
        assert!(decided > 0, "{what}: a trivial log conforms vacuously");
        for (idx, (l, s)) in live.iter().zip(sim).enumerate() {
            assert_eq!(
                encode_rows(l),
                encode_rows(s),
                "{what}: client {idx}'s decision log diverges"
            );
        }
    }

    /// AfterAppend at k: the entry is committed but never aired — the
    /// fleet sees exactly a one-interval blackout at k, and the paper's
    /// recovery rules make that indistinguishable from simulated loss.
    #[test]
    fn after_append_crash_is_byte_identical_to_blackout_sim() {
        let cfg = cell(0x10C5_0001, 0.4);
        let (live, survivor) =
            ha_lockstep_rows(&cfg, Strategy::BroadcastTimestamps, CrashPoint::AfterAppend);
        assert_eq!(survivor.took_over_at, Some(CONF_CRASH_AT + 1));
        let sim_cfg = cfg
            .clone()
            .with_faults(FaultPlan::none().with_blackout(CONF_CRASH_AT, CONF_CRASH_AT));
        let sim = sim_decision_log(&sim_cfg, Strategy::BroadcastTimestamps, CONF_INTERVALS)
            .expect("reference simulation");
        assert_logs_identical(&live, &sim, "TS after-append crash");
    }

    /// BeforeAppend at k: the entry was never sequenced, so the
    /// successor promotes *at* k and broadcasts it itself — the fleet
    /// sees no gap at all and the log matches the fault-free simulator.
    #[test]
    fn before_append_crash_is_byte_identical_to_plain_sim() {
        let cfg = cell(0x10C5_0002, 0.4);
        let (live, survivor) =
            ha_lockstep_rows(&cfg, Strategy::AmnesicTerminals, CrashPoint::BeforeAppend);
        assert_eq!(survivor.took_over_at, Some(CONF_CRASH_AT));
        let sim = sim_decision_log(&cfg, Strategy::AmnesicTerminals, CONF_INTERVALS)
            .expect("reference simulation");
        assert_logs_identical(&live, &sim, "AT before-append crash");
    }

    /// SIG's re-diagnosis path through the same takeover blackout.
    #[test]
    fn sig_after_append_crash_is_byte_identical_to_blackout_sim() {
        let cfg = cell(0x10C5_0003, 0.4);
        let (live, _) = ha_lockstep_rows(&cfg, Strategy::Signatures, CrashPoint::AfterAppend);
        let sim_cfg = cfg
            .clone()
            .with_faults(FaultPlan::none().with_blackout(CONF_CRASH_AT, CONF_CRASH_AT));
        let sim = sim_decision_log(&sim_cfg, Strategy::Signatures, CONF_INTERVALS)
            .expect("reference simulation");
        assert_logs_identical(&live, &sim, "SIG after-append crash");
    }
}
