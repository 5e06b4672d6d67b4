//! The ops plane against a real paced session: a scraper polling
//! `/metrics` and `/healthz` while `sw-serve`'s engine broadcasts,
//! per-MU gauges published to an in-process hub, flight rings on both
//! sides, and the fault-storm dump path driven by a unit that never
//! hears a report.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use sleepers::query::QueryPlaneConfig;
use sleepers::{CellConfig, Strategy};
use sw_live::{run_mu, LiveMuReport, LiveOptions, LiveServer, MetricsHub, MuOptions};
use sw_observe::Value;
use sw_workload::ScenarioParams;

const CLIENTS: usize = 3;

fn cell(s: f64, seed: u64) -> CellConfig {
    let mut params = ScenarioParams::scenario1().with_s(s);
    params.n_items = 200;
    params.mu = 2e-3;
    params.k = 8;
    CellConfig::new(params)
        .with_clients(CLIENTS)
        .with_hotspot_size(15)
        .with_seed(seed)
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// Reads gauge `name` (unlabeled sample suffix included) off a
/// Prometheus text page.
fn gauge(page: &str, name: &str) -> Option<f64> {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(['{', ' ']))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn paced_session_serves_live_metrics_and_flight_ring() {
    let intervals = 30u64;
    // The label is inert without the `observe` feature; with it, the
    // server's recorder counters must show up on the scraped page.
    let cfg = cell(0.4, 0x0B5E_CAFE).with_observe("ops");
    let opts = LiveOptions::paced(intervals, 20)
        .with_metrics(loopback())
        .with_flight_capacity(16);
    let handle = LiveServer::spawn(cfg.clone(), Strategy::BroadcastTimestamps, opts)
        .expect("spawn live server");
    let addr = handle.addr();
    let metrics_addr = handle.metrics_addr().expect("metrics plane armed");

    // MU-side gauges go to an in-process hub; the last published view
    // must reconcile with the unit's own end-of-session report.
    let hub = MetricsHub::new();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|idx| {
            let cfg = cfg.clone();
            let opts = MuOptions {
                flight_capacity: 8,
                metrics: (idx == 0).then(|| Arc::clone(&hub)),
                ..MuOptions::default()
            };
            thread::spawn(move || run_mu(addr, &cfg, Strategy::BroadcastTimestamps, idx, opts))
        })
        .collect();

    // Scrape until the exporter dies with the session, keeping the
    // last page each endpoint served.
    let scraper = thread::spawn(move || {
        let t = Duration::from_secs(2);
        let mut last_page = String::new();
        let mut pages = 0u64;
        while let Ok(body) = sw_ops::http::get(metrics_addr, "/healthz", t) {
            assert_eq!(body, "ok\n");
            if let Ok(page) = sw_ops::http::get(metrics_addr, "/metrics", t) {
                pages += 1;
                last_page = page;
            }
            thread::sleep(Duration::from_millis(5));
        }
        (pages, last_page)
    });

    let reports: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    let server = handle.wait().expect("server session");
    let (pages, last_page) = scraper.join().expect("scraper thread");

    assert!(pages > 0, "no page scraped during a 600 ms session");
    assert!(
        last_page.contains("role=\"server\"") && last_page.contains("strategy=\"TS\""),
        "identity labels missing: {last_page}"
    );
    assert_eq!(
        gauge(&last_page, "sw_mu_registered"),
        Some(CLIENTS as f64),
        "{last_page}"
    );
    // Scraped totals are a prefix of (or equal to) the final report's.
    let scraped_datagrams = gauge(&last_page, "sw_datagrams_sent").expect("gauge present");
    assert!(scraped_datagrams > 0.0);
    assert!(scraped_datagrams <= server.datagrams_sent as f64);
    #[cfg(feature = "observe")]
    assert!(
        last_page.contains("sw_reports_built_total"),
        "observing build: recorder counters belong on the page"
    );

    // The endpoint dies with the session.
    assert!(
        sw_ops::http::get(metrics_addr, "/healthz", Duration::from_millis(300)).is_err(),
        "exporter outlived the session"
    );

    // Server flight ring: one entry per broadcast tick, bounded at 16.
    assert_eq!(server.intervals, intervals);
    assert_eq!(server.flight.len(), 16);
    let kinds: Vec<_> = server.flight.entries().map(|e| e.kind).collect();
    assert!(kinds.iter().all(|&k| k == "report"));
    let dump = server.flight.to_ndjson("session end");
    assert!(dump.contains("\"forgotten\":14"), "{dump}");

    // The hub's final MU view reconciles with that unit's report.
    let mu0 = &reports[0];
    let view = hub.read();
    assert_eq!(view.gauge_value("reports_heard"), Some(mu0.reports_heard as f64));
    assert_eq!(view.gauge_value("reports_missed"), Some(mu0.reports_missed as f64));
    assert!(!mu0.flight.is_empty(), "mu flight ring recorded nothing");
}

/// A unit that never hears a report crosses its storm threshold and
/// dumps its flight ring exactly once, NDJSON with the storm reason.
#[test]
fn rx_drop_storm_dumps_flight_ring() {
    let intervals = 12u64;
    // Workaholic fleet (s = 0): every unit is awake every interval, so
    // the full-drop client misses 12 reports in a row.
    let cfg = cell(0.0, 0x5708_0001);
    let dir = std::env::temp_dir().join(format!("sw-ops-storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let handle = LiveServer::spawn(
        cfg.clone(),
        Strategy::BroadcastTimestamps,
        LiveOptions::lockstep(intervals),
    )
    .expect("spawn live server");
    let addr = handle.addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|idx| {
            let cfg = cfg.clone();
            let opts = MuOptions {
                // Unit 0 drops every datagram at the receiver; the
                // others keep the session honest.
                rx_drop: if idx == 0 { 1.0 } else { 0.0 },
                flight_capacity: 32,
                storm_threshold: 5,
                flight_dir: Some(dir.clone()),
                ..MuOptions::default()
            };
            thread::spawn(move || run_mu(addr, &cfg, Strategy::BroadcastTimestamps, idx, opts))
        })
        .collect();
    let reports: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    handle.wait().expect("server session");

    assert_eq!(reports[0].reports_missed, intervals, "unit 0 heard something");
    let dump_path = dir.join("sw-flight-mu0.ndjson");
    let body = std::fs::read_to_string(&dump_path).expect("storm dump written");
    let first = body.lines().next().expect("meta line");
    assert!(first.contains("\"kind\":\"flight_meta\""), "{first}");
    assert!(first.contains("fault storm: 5 consecutive missed"), "{first}");
    assert!(body.contains("\"kind\":\"fault_storm\""));
    assert!(body.contains("\"kind\":\"report_missed\""));
    // One dump per session, even though the storm kept raging.
    assert_eq!(
        body.matches("\"kind\":\"fault_storm\"").count(),
        1,
        "the dump fired more than once"
    );
    // Units that heard their reports never dump.
    assert!(!dir.join("sw-flight-mu1.ndjson").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A lockstep TS session over a query-armed cell whose caches hold 12
/// of each unit's 15 hot items, so both optional counter families
/// move. `options(idx)` configures unit `idx`.
fn query_bounded_session(
    cfg: &CellConfig,
    intervals: u64,
    options: impl Fn(usize) -> MuOptions,
) -> Vec<LiveMuReport> {
    let handle = LiveServer::spawn(
        cfg.clone(),
        Strategy::BroadcastTimestamps,
        LiveOptions::lockstep(intervals),
    )
    .expect("spawn live server");
    let addr = handle.addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|idx| {
            let (cfg, opts) = (cfg.clone(), options(idx));
            thread::spawn(move || run_mu(addr, &cfg, Strategy::BroadcastTimestamps, idx, opts))
        })
        .collect();
    let reports = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    handle.wait().expect("server session");
    reports
}

fn query_bounded_cell(s: f64, seed: u64) -> CellConfig {
    cell(s, seed)
        .with_query(QueryPlaneConfig::new())
        .with_cache_capacity(12)
}

/// The renderer prefixes `sw_` itself, so the MU must publish its
/// query and capacity families unprefixed — as `QueryStats` and
/// `CapacityStats` name them — for `/metrics` to read as DESIGN §15
/// documents.
#[test]
fn mu_metrics_page_names_the_query_and_capacity_families_once() {
    let hub = MetricsHub::new();
    let cfg = query_bounded_cell(0.0, 0x0B5E_0015);
    let reports = query_bounded_session(&cfg, 30, |idx| MuOptions {
        metrics: (idx == 0).then(|| Arc::clone(&hub)),
        ..MuOptions::default()
    });
    let page = sw_ops::prom::render_metrics(&hub.read());
    for name in [
        "sw_query_hits",
        "sw_query_misses",
        "sw_query_invalidated",
        "sw_query_txn_commits",
        "sw_query_txn_aborts",
        "sw_capacity_evictions",
        "sw_capacity_misses",
    ] {
        assert!(gauge(&page, name).is_some(), "{name} is not on the page:\n{page}");
    }
    let doubled: Vec<_> = page.lines().filter(|l| l.starts_with("sw_sw_")).collect();
    assert!(doubled.is_empty(), "doubly prefixed metrics: {doubled:?}");
    // The families are the unit's own counters, not placeholders.
    let mu0 = &reports[0];
    assert!(mu0.query.hits > 0 && mu0.stats.evictions > 0, "the session was too quiet");
    assert_eq!(gauge(&page, "sw_query_hits"), Some(mu0.query.hits as f64));
    assert_eq!(
        gauge(&page, "sw_capacity_evictions"),
        Some(mu0.stats.evictions as f64)
    );
}

/// Reads the unsigned field `name` off one NDJSON line.
fn ndjson_field(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let digits = &line[line.find(&key)? + key.len()..];
    digits.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// An awake interval's flight `decision` line is the whole
/// `DecisionRow` — flags, then every counter — so the fault-storm dump
/// can explain a query-plane or a capacity decision; an asleep
/// interval stays the one field saying so.
#[test]
fn awake_decision_lines_carry_every_counter_into_the_storm_dump() {
    let dir = std::env::temp_dir().join(format!("sw-ops-decision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cfg = query_bounded_cell(0.3, 0x0B5E_0016);
    let reports = query_bounded_session(&cfg, 200, |idx| MuOptions {
        // Unit 0 loses every other report at the receiver: sooner or
        // later six in a row, which is its storm.
        rx_drop: if idx == 0 { 0.5 } else { 0.0 },
        flight_capacity: 512,
        storm_threshold: 6,
        flight_dir: Some(dir.clone()),
        ..MuOptions::default()
    });

    // The flags, then `DecisionRow`'s counters in declaration order.
    let whole_row = [
        "awake", "heard", "queries", "hits", "misses", "invalidated", "drops", "qhits", "qmisses",
        "qcommits", "qaborts", "evictions", "capacity_misses",
    ];
    let (mut awake, mut asleep) = (0, 0);
    for entry in reports[0].flight.entries().filter(|e| e.kind == "decision") {
        let names: Vec<&str> = entry.fields.iter().map(|(name, _)| *name).collect();
        if entry.fields[0] == ("awake", Value::U64(1)) {
            assert_eq!(names, whole_row, "interval {}", entry.t);
            awake += 1;
        } else {
            assert_eq!(entry.fields, [("awake", Value::U64(0))], "interval {}", entry.t);
            asleep += 1;
        }
    }
    assert!(awake > 0 && asleep > 0, "{awake} awake, {asleep} asleep");

    let dump = std::fs::read_to_string(dir.join("sw-flight-mu0.ndjson"))
        .expect("six reports in a row were lost and the ring was dumped");
    let decisions: Vec<&str> = dump
        .lines()
        .filter(|l| l.contains("\"kind\":\"decision\""))
        .collect();
    for counter in ["qhits", "evictions"] {
        assert!(
            decisions
                .iter()
                .any(|l| ndjson_field(l, counter).is_some_and(|v| v > 0)),
            "no decision line before the storm shows a non-zero {counter}:\n{dump}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
