//! E9: the Figure-2 interval semantics (§2).
//!
//! * "The MU has to wait for the next invalidation report before
//!   answering a query";
//! * "If two or more queries of the same item are posed in an interval,
//!   they will all be answered at the same time in the next interval";
//! * "The answer to a query will reflect any updates to the item made
//!   during the interval in which the query was posed ... even if the
//!   query predates the update during the interval."

use sleepers_workaholics::client::{
    MobileUnit, MuConfig, ReplacementPolicy, ReportRule, RuleHandler,
};
use sleepers_workaholics::server::{Database, QueryAnswer, UplinkProcessor};
use sleepers_workaholics::sim::{MasterSeed, SimDuration, SimTime, StreamId};
use sleepers_workaholics::workload::ScenarioParams;
use sleepers_workaholics::{ServerDriver, Strategy};

fn mu_with_hotspot(hotspot: Vec<u64>, lambda: f64) -> MobileUnit {
    let mut rng = MasterSeed(0xE9).stream(StreamId::Queries { index: 0 });
    MobileUnit::new(
        MuConfig {
            id: 0,
            hotspot,
            query_rate_per_item: lambda,
            sleep_probability: 0.0,
            cache_capacity: None,
            replacement: ReplacementPolicy::Lru,
            replacement_window: SimDuration::ZERO,
            piggyback_hits: false,
            item_universe: None,
        },
        RuleHandler::new(ReportRule::at(SimDuration::from_secs(10.0))),
        &mut rng,
    )
}

#[test]
fn queries_wait_for_the_next_report() {
    let mut mu = mu_with_hotspot(vec![0, 1, 2], 1.0);
    let mut qrng = MasterSeed(0xE9).stream(StreamId::Custom { tag: 5 });
    mu.begin_awake_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut qrng);
    // Queries are pending but unanswered until the report arrives.
    assert!(mu.pending_len() > 0);
    assert_eq!(mu.stats().query_events(), 0, "no answers before the report");
    let report = sleepers_workaholics::wireless::FramePayload::AmnesicReport {
        report_ts_micros: 10_000_000,
        ids: vec![],
    };
    let out = mu.hear_report_and_answer(&report);
    assert_eq!(mu.pending_len(), 0, "all pending queries answered at T_i");
    assert!(mu.stats().query_events() > 0);
    assert!(!out.uplink_requests.is_empty(), "cold cache misses go uplink");
}

#[test]
fn same_item_queries_answered_once_per_interval() {
    // λ so high every item is queried many times per interval; each
    // distinct item is one query event and one uplink request.
    let mut mu = mu_with_hotspot(vec![7, 8], 50.0);
    let mut qrng = MasterSeed(1).stream(StreamId::Custom { tag: 6 });
    mu.begin_awake_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut qrng);
    assert!(mu.stats().queries_posed > 100, "the burst really happened");
    let report = sleepers_workaholics::wireless::FramePayload::AmnesicReport {
        report_ts_micros: 10_000_000,
        ids: vec![],
    };
    let out = mu.hear_report_and_answer(&report);
    assert_eq!(out.uplink_requests.len(), 2, "one fetch per distinct item");
    assert_eq!(mu.stats().query_events(), 2);
}

#[test]
fn answer_reflects_update_made_after_the_query_in_the_same_interval() {
    // Query posed at t = 3; the item is updated at t = 7; the answer
    // (delivered after the report at t = 10) must carry the t = 7 value.
    let mut db = Database::new(10, |i| i * 100, SimDuration::from_secs(1e4));
    let mut uplink = UplinkProcessor::new();
    let mut params = ScenarioParams::scenario1();
    params.latency_secs = 10.0;
    params.n_items = 10;
    let mut at = ServerDriver::new(Strategy::AmnesicTerminals, &params, MasterSeed(2), &db, 0);

    let mut mu = mu_with_hotspot(vec![3], 0.2);
    let mut qrng = MasterSeed(2).stream(StreamId::Custom { tag: 7 });
    mu.begin_awake_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut qrng);
    // Mid-interval update, after queries may have been posed.
    at.on_update(&db.apply_update(3, 999_999, SimTime::from_secs(7.0)));

    let payload = at.build(1, SimTime::from_secs(10.0), &db);
    let out = mu.hear_report_and_answer(&payload);
    if out.uplink_requests.is_empty() {
        // The Poisson draw posed no queries this interval — nothing to
        // assert (rare at λ·L = 2 but possible); the other tests cover
        // the mechanics.
        return;
    }
    let (item, _) = out.uplink_requests[0];
    assert_eq!(item, 3);
    let ans: QueryAnswer = uplink.answer(&db, item, SimTime::from_secs(10.0), None);
    assert_eq!(
        ans.value, 999_999,
        "the answer must reflect the intra-interval update even though \
         the query predates it"
    );
    mu.install_answer(ans);
    assert_eq!(mu.cache().peek(3).unwrap().value, 999_999);
}

#[test]
fn synchronous_latency_is_bounded_by_l() {
    // §2: "In case of synchronous caching, there is a guaranteed
    // latency due to the periodic nature of the synchronous broadcast."
    // Every query is answered at the closing report: latency ≤ L, and
    // Poisson arrivals make the mean ≈ L/2.
    use sleepers_workaholics::prelude::*;
    let mut params = ScenarioParams::scenario1();
    params.n_items = 500;
    params.lambda = 0.05;
    let params = params.with_s(0.2);
    let cfg = CellConfig::new(params)
        .with_clients(10)
        .with_hotspot_size(20)
        .with_seed(31);
    let mut sim = CellSimulation::new(cfg, Strategy::AmnesicTerminals).unwrap();
    sim.run(300).unwrap();
    let mut total_lat = 0.0;
    let mut total_q = 0u64;
    for idx in 0..sim.client_slots() {
        let s = sim.client_stats(idx);
        assert!(
            s.latency_max_secs <= params.latency_secs + 1e-9,
            "client {idx} saw latency {} > L",
            s.latency_max_secs
        );
        total_lat += s.latency_sum_secs;
        total_q += s.queries_posed;
    }
    let mean = total_lat / total_q.max(1) as f64;
    assert!(
        (mean - params.latency_secs / 2.0).abs() < 0.5,
        "mean latency {mean} should be ≈ L/2 = {}",
        params.latency_secs / 2.0
    );
}

#[test]
fn cache_hits_answer_with_report_validated_values() {
    // An item cached and revalidated by the report answers queries
    // locally — and the validity timestamp is the report's.
    let mut mu = mu_with_hotspot(vec![4], 0.5);
    let mut qrng = MasterSeed(3).stream(StreamId::Custom { tag: 8 });

    // Interval 1: fetch the item.
    mu.begin_awake_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut qrng);
    let report1 = sleepers_workaholics::wireless::FramePayload::AmnesicReport {
        report_ts_micros: 10_000_000,
        ids: vec![],
    };
    let out = mu.hear_report_and_answer(&report1);
    for (item, _) in &out.uplink_requests {
        mu.install_answer(QueryAnswer {
            item: *item,
            value: 1234,
            timestamp: SimTime::from_secs(10.0),
        });
    }
    // Interval 2: the report revalidates; a repeat query hits locally.
    mu.begin_awake_interval(
        SimTime::from_secs(10.0),
        SimTime::from_secs(20.0),
        &mut qrng,
    );
    let report2 = sleepers_workaholics::wireless::FramePayload::AmnesicReport {
        report_ts_micros: 20_000_000,
        ids: vec![],
    };
    let _ = mu.hear_report_and_answer(&report2);
    if mu.stats().hit_events > 0 {
        let entry = mu.cache().peek(4).expect("still cached");
        assert_eq!(entry.value, 1234);
        assert_eq!(
            entry.timestamp,
            SimTime::from_secs(20.0),
            "hit validity is 'as of the last invalidation report'"
        );
    }
}
