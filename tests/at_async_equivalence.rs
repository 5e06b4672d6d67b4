//! E10: the AT ≡ asynchronous-broadcast equivalence claim (§3.2).
//!
//! "Notice that, in both cases, the total number of messages downloaded
//! by the server is identical; the AT simply groups them together in
//! the periodic invalidation. Also, in both cases, the client loses his
//! cache entirely upon disconnection. Therefore, AT is really
//! equivalent to the asynchronous broadcast of invalidation reports."
//!
//! We drive the same update stream into both mechanisms and check the
//! two halves of the claim.

use sleepers_workaholics::server::{
    AsyncBroadcaster, AtBuilder, Database, ReportBuilder, UpdateEngine,
};
use sleepers_workaholics::sim::{MasterSeed, SimDuration, SimTime, StreamId};
use sleepers_workaholics::wireless::FramePayload;

fn setup(n: u64, mu: f64) -> (Database, UpdateEngine, sleepers_workaholics::sim::RngStream) {
    let mut rng = MasterSeed(0xE10).stream(StreamId::Updates);
    let db = Database::new(n, |i| i, SimDuration::from_secs(1e5));
    let engine = UpdateEngine::new(n, mu, &mut rng);
    (db, engine, rng)
}

/// Per update, the async scheme sends exactly one message; AT groups
/// the same ids into its periodic report (deduplicated per interval,
/// which §3.2's footnote notes "may lead to saving in terms of total
/// number of packets" — the ids covered are identical).
#[test]
fn same_invalidations_per_interval() {
    let latency = SimDuration::from_secs(10.0);
    let (mut db, mut engine, mut rng) = setup(500, 2e-3);
    let mut at = AtBuilder::new(latency);
    let mut async_bcast = AsyncBroadcaster::new();

    for i in 1..=200u64 {
        let from = SimTime::from_secs((i - 1) as f64 * 10.0);
        let to = SimTime::from_secs(i as f64 * 10.0);
        let recs = engine.advance(&mut db, from, to, &mut rng);
        for rec in &recs {
            async_bcast.on_update(rec);
        }
        // The async messages this interval, deduplicated and sorted,
        // must equal the AT report's id list exactly.
        let mut async_ids = async_bcast.take_ids();
        let async_raw = async_ids.len();
        async_ids.sort_unstable();
        async_ids.dedup();
        match at.build(i, to, &db) {
            FramePayload::AmnesicReport { ids, .. } => {
                assert_eq!(ids, async_ids, "interval {i} diverged");
                assert!(async_raw >= ids.len());
            }
            other => panic!("unexpected payload {other:?}"),
        }
        db.prune_log(to);
    }
}

/// Total messages: the async count equals the raw update count, the AT
/// entries equal the per-interval-distinct count — identical when no
/// item is updated twice in one interval, never more.
#[test]
fn total_message_accounting() {
    let latency = SimDuration::from_secs(10.0);
    let (mut db, mut engine, mut rng) = setup(2_000, 1e-3);
    let mut at = AtBuilder::new(latency);
    let mut async_bcast = AsyncBroadcaster::new();
    let mut at_entries = 0usize;
    let mut updates = 0usize;

    for i in 1..=300u64 {
        let from = SimTime::from_secs((i - 1) as f64 * 10.0);
        let to = SimTime::from_secs(i as f64 * 10.0);
        let recs = engine.advance(&mut db, from, to, &mut rng);
        updates += recs.len();
        for rec in &recs {
            async_bcast.on_update(rec);
        }
        if let FramePayload::AmnesicReport { ids, .. } = at.build(i, to, &db) {
            at_entries += ids.len();
        }
        db.prune_log(to);
    }

    assert_eq!(async_bcast.messages_sent() as usize, updates);
    assert!(at_entries <= updates);
    // With n·μ·L = 20 expected updates/interval over n = 2000 items,
    // same-interval repeats are rare: the two counts agree within 2%.
    let ratio = at_entries as f64 / updates.max(1) as f64;
    assert!(
        ratio > 0.98,
        "AT entries {at_entries} vs async messages {updates} (ratio {ratio})"
    );
}

/// Both schemes lose the cache entirely on disconnection: an AT client
/// that missed one report drops everything — exactly what an async
/// client that slept through individual messages must also do.
#[test]
fn both_lose_cache_on_disconnection() {
    use sleepers_workaholics::client::{Cache, ReportRule, RuleHandler};
    let latency = SimDuration::from_secs(10.0);
    let mut handler = RuleHandler::new(ReportRule::at(latency));
    let mut cache = Cache::unbounded();
    cache.insert(1, 10, SimTime::from_secs(10.0));
    cache.insert(2, 20, SimTime::from_secs(10.0));
    // Missed the report at 20; hears the one at 30.
    let report = FramePayload::AmnesicReport {
        report_ts_micros: 30_000_000,
        ids: vec![],
    };
    let out = handler.process(&mut cache, &report, Some(SimTime::from_secs(10.0)));
    assert!(out.dropped_all);
    assert!(cache.is_empty());
}
