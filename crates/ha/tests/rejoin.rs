//! CrashRestart rejoin soak: a crashed primary comes back mid-session
//! and catches up from the replicated log.
//!
//! Node 0 (primary) dies `AfterAppend` at interval 30 under a
//! `CrashRestart` schedule; node 1 takes over on the original cadence
//! and the query-cached fleet re-registers through the successor
//! roster. After the scheduled downtime the test — acting as the
//! process supervisor — rebinds node 0 on its original addresses and
//! starts it `with_rejoin()`: the fresh process announces
//! `RepHello { last_applied: 0 }`, the new primary replays the entire
//! session log, and the restarted node replays it through its own
//! ticker, rebuilding database and value history from interval 1
//! without ever broadcasting or sequencing a bogus entry.
//!
//! The acceptance is zero-stale *twice over*: every client's audited
//! cache rows — item entries and cached query-result rows alike, the
//! fleet runs the query plane — are consistent against the survivor's
//! value history AND against the restarted node's rebuilt history.
//! If catch-up missed or reordered a single update, the second audit
//! would flag every row that read the diverged value.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use sleepers::query::QueryPlaneConfig;
use sleepers::{CellConfig, Strategy};
use sw_faults::server::{CrashPoint, ServerFaultPlan};
use sw_ha::{HaNode, HaOptions};
use sw_live::server::LiveOptions;
use sw_live::{audit_against_history, run_mu, LiveMuReport, MuOptions};
use sw_workload::ScenarioParams;

mod common;
use common::bind_pair;

const CLIENTS: usize = 4;
const INTERVALS: u64 = 100;
const INTERVAL_MS: u64 = 25;
const CRASH_AT: u64 = 30;
const DOWN_INTERVALS: u64 = 10;

fn cell(seed: u64) -> CellConfig {
    let mut params = ScenarioParams::scenario1().with_s(0.3);
    params.n_items = 200;
    params.mu = 4e-3;
    params.k = 8;
    CellConfig::new(params)
        .with_clients(CLIENTS)
        .with_hotspot_size(15)
        .with_seed(seed)
        .with_safety_checking()
        .with_query(QueryPlaneConfig::new())
}

#[test]
fn restarted_primary_rejoins_catches_up_and_serves_no_stale_query_rows() {
    let strategy = Strategy::BroadcastTimestamps;
    let cfg = cell(0x4E10_1A01);
    let (mut nodes, peers) = bind_pair();
    let node1 = nodes.pop().expect("node 1");
    let node0 = nodes.pop().expect("node 0");
    let live = || LiveOptions::paced(INTERVALS, INTERVAL_MS);
    let plan = ServerFaultPlan::none().with_crash_restart(
        CRASH_AT,
        CrashPoint::AfterAppend,
        DOWN_INTERVALS,
    );
    let h0 = node0
        .start(
            cfg.clone(),
            strategy,
            HaOptions::new(0, peers.clone(), live()).with_faults(plan),
        )
        .expect("start node 0");
    let h1 = node1
        .start(cfg.clone(), strategy, HaOptions::new(1, peers.clone(), live()))
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

    // Supervisor role: reap the crashed incarnation, honor the
    // schedule's downtime, then restart node 0 on its original
    // addresses as a rejoining replica with a clean fault plan (a
    // fresh process does not re-crash on the old schedule).
    let crashed = h0.wait().expect("node 0 first incarnation");
    assert!(crashed.crashed, "node 0 survived its CrashRestart fault");
    assert!(crashed.live.is_none());
    thread::sleep(Duration::from_millis(DOWN_INTERVALS * INTERVAL_MS));
    let rebound = HaNode::bind(peers[0].rep, peers[0].client).expect("rebind node 0");
    let restart_started = Instant::now();
    let h0b = rebound
        .start(
            cfg.clone(),
            strategy,
            HaOptions::new(0, peers.clone(), live()).with_rejoin(),
        )
        .expect("restart node 0");

    let mus: Vec<LiveMuReport> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    let survivor = h1.wait().expect("node 1 teardown");
    let rejoined = h0b.wait().expect("node 0 second incarnation");

    // The survivor ran the takeover exactly as in the permanent-crash
    // case: AfterAppend at k means the fleet missed exactly k.
    assert!(!survivor.crashed);
    assert_eq!(survivor.epoch, 2, "takeover must bump the epoch");
    assert_eq!(survivor.took_over_at, Some(CRASH_AT + 1));
    let survivor_live = survivor.live.as_ref().expect("survivor session report");
    assert_eq!(survivor_live.intervals, INTERVALS);

    // The restarted node adopted the takeover epoch from the replayed
    // appends, never promoted itself, never broadcast, and still ran
    // the full session by replaying the canonical log.
    assert!(!rejoined.crashed, "the second incarnation must survive");
    assert_eq!(rejoined.epoch, 2, "catch-up must adopt the cluster epoch");
    assert_eq!(rejoined.took_over_at, None, "a rejoiner must not promote");
    let rejoined_live = rejoined.live.as_ref().expect("rejoined session report");
    assert_eq!(rejoined_live.intervals, INTERVALS, "truncated replay");
    assert_eq!(
        rejoined_live.datagrams_sent, 0,
        "a rejoined replica must not broadcast"
    );
    // Replaying ~40 settled intervals takes milliseconds, not the 1 s
    // of wall clock the originals spent pacing them: the catch-up ran
    // off the log, not the timer.
    let catch_up = restart_started.elapsed();
    assert!(
        catch_up < Duration::from_millis((INTERVALS + 20) * INTERVAL_MS),
        "rejoin took {catch_up:?} — it paced instead of replaying"
    );

    let survivor_history = survivor_live
        .history
        .as_ref()
        .expect("safety checking was on");
    let rejoined_history = rejoined_live
        .history
        .as_ref()
        .expect("safety checking was on");
    let mut checked = 0u64;
    let mut reconnects = 0u64;
    let mut qhits = 0u64;
    let mut qcommits = 0u64;
    for mu in &mus {
        assert_eq!(mu.rows.len() as u64, INTERVALS, "truncated client");
        // Zero stale against the node that served the session...
        let (c, v) = audit_against_history(survivor_history, &mu.audit);
        assert_eq!(v, 0, "mu{}: stale rows vs the survivor's history", mu.index);
        // ...and zero stale against the restarted node's *rebuilt*
        // history: the catch-up replay reproduced the same values.
        let (c2, v2) = audit_against_history(rejoined_history, &mu.audit);
        assert_eq!(v2, 0, "mu{}: stale rows vs the rejoined history", mu.index);
        assert_eq!(c, c2, "both audits cover the same rows");
        checked += c;
        reconnects += mu.reconnects;
        qhits += mu.query.hits;
        qcommits += mu.query.txn_commits;
    }
    assert!(checked > 0, "nothing was ever cached");
    assert!(
        reconnects >= CLIENTS as u64,
        "the fleet rode through the crash without re-registering"
    );
    assert!(qhits > 0, "the query plane never re-served a result");
    assert!(qcommits > 0, "no multi-item read ever committed");
}
