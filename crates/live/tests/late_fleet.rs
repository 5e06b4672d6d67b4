//! A healthy fleet does not take over from itself: a primary that is
//! merely waiting for its clients to register is silent, not dead.
//!
//! Two paced nodes, no fault plan; the clients arrive 2.5 s after both
//! nodes are up — longer than the replica's 2 s silence bound. The
//! primary appends nothing while it waits, so the replica has heard no
//! entry of epoch 1 and must keep waiting for the first one instead of
//! promoting itself at interval 1 and airing the session to nobody.
//!
//! Its own test binary: the `missed == 0` assertion is a timing claim
//! about one paced session and should not share its cores with the
//! three concurrent failover stacks next door.

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use sleepers::{CellConfig, Strategy};
use sw_live::ha::HaOptions;
use sw_live::{run_mu, LiveMuReport, LiveOptions, MuOptions};
use sw_workload::ScenarioParams;

mod common;
use common::bind_pair;

const CLIENTS: usize = 2;
const INTERVALS: u64 = 20;
const INTERVAL_MS: u64 = 100;
const ARRIVE_AFTER: Duration = Duration::from_millis(2500);

#[test]
fn late_clients_do_not_trigger_a_takeover() {
    let strategy = Strategy::BroadcastTimestamps;
    let mut params = ScenarioParams::scenario1().with_s(0.3);
    params.n_items = 200;
    params.mu = 4e-3;
    params.k = 8;
    let cfg = CellConfig::new(params)
        .with_clients(CLIENTS)
        .with_hotspot_size(15)
        .with_seed(0x1A7E_F1EE);

    let (nodes, peers) = bind_pair();
    let handles: Vec<_> = nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            let live = LiveOptions::paced(INTERVALS, INTERVAL_MS);
            node.start(
                cfg.clone(),
                strategy,
                HaOptions::new(i as u32, peers.clone(), live),
            )
            .expect("start node")
        })
        .collect();

    thread::sleep(ARRIVE_AFTER);

    let primary = peers[0].client;
    let successors: Vec<SocketAddr> = peers.iter().map(|p| p.client).collect();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|idx| {
            let cfg = cfg.clone();
            let opts = MuOptions {
                successors: successors.clone(),
                ..MuOptions::default()
            };
            thread::spawn(move || run_mu(primary, &cfg, strategy, idx, opts))
        })
        .collect();
    let mus: Vec<LiveMuReport> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();

    // Checked before the nodes are reaped: at the parent of this test
    // the demoted node 0 never finishes, and a failure should say so
    // rather than hang.
    let status: Vec<(u64, bool)> = handles.iter().map(|h| h.ha_status()).collect();
    assert_eq!(
        status,
        [(1, true), (1, false)],
        "(epoch, primary) per node: the replica deposed a waiting primary"
    );
    for mu in &mus {
        assert_eq!(mu.rows.len() as u64, INTERVALS, "mu{}: truncated", mu.index);
        assert!(mu.reports_heard > 0, "mu{}: heard nothing", mu.index);
        assert_eq!(mu.reports_missed, 0, "mu{}: missed reports", mu.index);
        assert_eq!(mu.reconnects, 0, "mu{}: re-registered", mu.index);
    }

    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("node teardown"))
        .collect();
    for report in &reports {
        assert!(!report.crashed);
        assert_eq!(report.epoch, 1, "node {}: epoch moved", report.node);
        assert_eq!(report.took_over_at, None, "node {} promoted", report.node);
        let live = report.live.as_ref().expect("session report");
        assert_eq!(live.intervals, INTERVALS, "node {}: truncated", report.node);
    }
    let aired = |n: usize| reports[n].live.as_ref().map(|l| l.datagrams_sent);
    assert!(aired(0) > Some(0), "the primary never broadcast");
    assert_eq!(aired(1), Some(0), "the replica broadcast");
}
