use std::collections::BTreeMap;
use std::sync::Arc;

use sw_signature::{combine, item_signature};
use sw_sim::IntervalClock;

use super::*;

/// Broadcast latency `L` of every test here, in seconds.
const L: f64 = 10.0;

/// Scenario 1 with `L` = 10 s, `n` items and window multiple `k`.
fn params(n: u64, k: u32) -> ScenarioParams {
    let mut params = ScenarioParams::scenario1();
    params.latency_secs = L;
    params.n_items = n;
    params.k = k;
    params
}

fn t(secs: f64) -> SimTime {
    SimTime::from_secs(secs)
}

/// The ids a report lists (entries, ids, group ids or hot ids).
fn listed(payload: &FramePayload) -> Vec<ItemId> {
    match payload {
        FramePayload::TimestampReport { entries, .. }
        | FramePayload::AdaptiveTimestampReport { entries, .. } => {
            entries.iter().map(|&(item, _)| item).collect()
        }
        FramePayload::AmnesicReport { ids, .. } => ids.clone(),
        FramePayload::HybridReport { hot_ids, .. } => hot_ids.clone(),
        other => panic!("not an id-bearing report: {other:?}"),
    }
}

#[test]
fn adaptive_period_obeys_the_counter_laws() {
    sw_sim::counters::assert_laws::<AdaptivePeriod>();
}

/// The report each window-walking arm builds from a handful of updates,
/// one row per behaviour: the window's open and closed ends, the clamp
/// at the origin, the latest update winning, AT ≡ TS(k = 1), groups
/// listed once, HYB's id list holding only hot items, per-item adaptive
/// windows (grown, zero). Stamped entries always carry the item's
/// latest update.
#[test]
fn window_reports_list_exactly_their_window() {
    let ts = Strategy::BroadcastTimestamps;
    let (at, nc) = (Strategy::AmnesicTerminals, Strategy::NoCache);
    let gr = Strategy::GroupReports { groups: 10 };
    let hyb = Strategy::HybridSig { hot_count: 10 };
    let ats = Strategy::AdaptiveTs {
        method: FeedbackMethod::Method2,
        eval_period: 4,
        step: 1,
    };
    // (what, strategy, k, adaptive window exceptions, updates `(j, t_j)`,
    // the report closes interval `i` at `T_i = i·L`, the ids it lists)
    type Case = (
        &'static str,
        Strategy,
        u32,
        &'static [(ItemId, u32)],
        &'static [(ItemId, f64)],
        u64,
        &'static [ItemId],
    );
    #[rustfmt::skip]
    let cases: [Case; 13] = [
        ("TS lists (T_i − kL, T_i]", ts, 5, &[], &[(1, 5.0), (2, 55.0), (3, 95.0)], 10, &[2, 3]),
        ("the latest update wins", ts, 10, &[], &[(4, 12.0), (4, 17.0)], 2, &[4]),
        ("the window clamps at the origin", ts, 100, &[], &[(0, 5.0)], 1, &[0]),
        ("TS(k = 1) lists one interval", ts, 1, &[], &[(1, 10.0), (5, 12.0), (9, 19.0)], 2, &[5, 9]),
        ("AT lists (T_{i−1}, T_i]", at, 1, &[], &[(1, 9.0), (2, 11.0), (3, 20.0)], 2, &[2, 3]),
        ("AT ≡ TS(k = 1)", at, 1, &[], &[(1, 10.0), (5, 12.0), (9, 19.0)], 2, &[5, 9]),
        ("NC lists nothing", nc, 1, &[], &[(1, 15.0)], 2, &[]),
        ("GR lists each changed group once", gr, 1, &[], &[(3, 15.0), (7, 16.0), (110, 17.0)], 2, &[0, 5]),
        ("GR forgets older intervals", gr, 1, &[], &[(3, 5.0)], 2, &[]),
        ("HYB lists hot updates only", hyb, 1, &[], &[(3, 15.0), (150, 16.0)], 2, &[3]),
        ("ATS defaults to TS at k_0", ats, 2, &[], &[(1, 5.0), (2, 25.0)], 3, &[2]),
        ("a grown window reaches back", ats, 2, &[(1, 100)], &[(1, 5.0)], 3, &[1]),
        ("a zero window suppresses its item", ats, 2, &[(1, 0)], &[(1, 25.0), (2, 26.0)], 3, &[2]),
    ];
    for (what, strategy, k, exceptions, updates, i, ids) in cases {
        let params = params(200, k);
        let mut db = Database::new(200, |i| i + 1000, SimDuration::from_secs(1e6));
        let mut driver = ServerDriver::new(strategy, &params, MasterSeed::TEST, &db, 0);
        for &(item, at) in updates {
            driver.on_update(&db.apply_update(item, 1, t(at)));
        }
        if let Arm::Adaptive { windows, .. } = &mut driver.arm {
            for &(item, k) in exceptions {
                windows.set(item, k);
            }
        }
        let t_i = t(i as f64 * L);
        let payload = driver.build(i, t_i, &db);
        assert_eq!(listed(&payload), ids, "{what}");
        if let FramePayload::TimestampReport { entries, .. }
        | FramePayload::AdaptiveTimestampReport { entries, .. } = &payload
        {
            for &(item, stamp) in entries {
                let latest = updates
                    .iter()
                    .rfind(|u| u.0 == item && u.1 <= t_i.as_secs());
                assert_eq!(Some(stamp), latest.map(|u| t(u.1).as_micros()), "{what}");
            }
        }
        if let FramePayload::AdaptiveTimestampReport {
            window_exceptions, ..
        } = &payload
        {
            assert_eq!(
                window_exceptions, exceptions,
                "{what}: exceptions ride every report"
            );
        }
    }
}

/// The adaptive arm counts `Report(i, new)` per evaluation period: every
/// report mentioning an item adds one, the period boundary drains them.
#[test]
fn adaptive_mentions_accumulate_per_period() {
    let params = params(100, 10);
    let mut db = Database::new(100, |i| i, SimDuration::from_secs(1e6));
    let strategy = Strategy::AdaptiveTs {
        method: FeedbackMethod::Method2,
        eval_period: 5,
        step: 1,
    };
    let mut driver = ServerDriver::new(strategy, &params, MasterSeed::TEST, &db, 0);
    driver.on_update(&db.apply_update(1, 1, t(5.0)));
    let mentions = |driver: &ServerDriver| match &driver.arm {
        Arm::Adaptive { mentions, .. } => mentions.get(1).copied().unwrap_or(0),
        _ => unreachable!(),
    };
    let mut uplink = UplinkProcessor::with_universe(100);
    for i in 1..=5 {
        // Item 1, updated at t = 5 under w = 100 s, is in all five.
        assert_eq!(listed(&driver.build(i, t(i as f64 * L), &db)), [1]);
        assert_eq!(mentions(&driver), i as u32);
        if i < 5 {
            assert_eq!(driver.end_period_if_due(i, &mut uplink, &mut db), None);
        }
    }
    assert!(driver.end_period_if_due(5, &mut uplink, &mut db).is_some());
    assert_eq!(mentions(&driver), 0, "the boundary starts a new period");
}

/// Every strategy's report against its definition, computed by brute
/// force from the full update list — the server-side twin of
/// `sw_client::rule`'s pseudo-code oracle. 100 intervals of seeded
/// random updates (several per item, some exactly at `T_i`) and uplink
/// answers; the signature reports are recomputed from the current
/// values each interval, so the driver's incremental patches (and HYB's
/// hot updates never reaching them) are checked against the state they
/// summarize.
#[test]
fn every_report_matches_its_definition_from_the_update_list() {
    const N: u64 = 64;
    const K: u32 = 3;
    const ALPHA: u64 = 2;
    const HOT: u64 = 8;
    const GROUPS: u64 = 8;
    let params = params(N, K);
    let seed = MasterSeed::TEST;
    let decoder = sig_decoder(&params, seed);
    let map = GroupMap::new(N, GROUPS);
    let strategies = [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
        Strategy::NoCache,
        Strategy::AdaptiveTs {
            method: FeedbackMethod::Method2,
            eval_period: 4,
            step: 1,
        },
        Strategy::QuasiDelay {
            alpha_intervals: ALPHA,
        },
        Strategy::Stateful,
        Strategy::HybridSig { hot_count: HOT },
        Strategy::GroupReports { groups: GROUPS },
    ];
    for strategy in strategies {
        let mut rng = seed.stream(StreamId::Custom { tag: 0x0AC1E });
        let mut db = Database::new(N, |i| i * 7 + 3, SimDuration::from_secs(1e9));
        let mut driver = ServerDriver::new(strategy, &params, seed, &db, 1);
        let mut log: Vec<UpdateRecord> = Vec::new();
        // §7's obligation lists: the intervals of each item's
        // outstanding copies.
        let mut obligations: Vec<Vec<u64>> = vec![Vec::new(); N as usize];
        for i in 1..=100u64 {
            let (t_prev, t_i) = ((i - 1) as f64 * L, i as f64 * L);
            let mut times: Vec<f64> = (0..rng.uniform_index(6))
                .map(|_| {
                    if rng.bernoulli(0.2) {
                        t_i
                    } else {
                        t_prev + L * (1.0 - rng.uniform())
                    }
                })
                .collect();
            times.sort_by(f64::total_cmp);
            for at in times {
                let rec = db.apply_update(rng.uniform_index(N), rng.next_u64(), t(at));
                driver.on_update(&rec);
                log.push(rec);
            }

            // Latest stamp of each item updated in `(from, T_i]`.
            let window = |from: f64| -> Vec<(ItemId, u64)> {
                let mut latest = BTreeMap::new();
                for r in log
                    .iter()
                    .filter(|r| r.at.as_secs() > from && r.at.as_secs() <= t_i)
                {
                    latest.insert(r.item, r.at.as_micros());
                }
                latest.into_iter().collect()
            };
            let at_ids: Vec<ItemId> = window(t_prev).into_iter().map(|(item, _)| item).collect();
            let signatures = |cold: &dyn Fn(ItemId) -> bool| -> Arc<Vec<u64>> {
                let members = |j| {
                    decoder
                        .family()
                        .members(j, N)
                        .into_iter()
                        .filter(|&x| cold(x))
                };
                Arc::new(
                    (0..decoder.plan().m)
                        .map(|j| {
                            combine(members(j).map(|x| item_signature(x, db.value(x), params.g)))
                        })
                        .collect(),
                )
            };
            let report_ts_micros = t(t_i).as_micros();
            let expected = match strategy {
                Strategy::BroadcastTimestamps => FramePayload::TimestampReport {
                    report_ts_micros,
                    entries: window(t_i - K as f64 * L),
                },
                Strategy::AmnesicTerminals | Strategy::Stateful => FramePayload::AmnesicReport {
                    report_ts_micros,
                    ids: at_ids,
                },
                Strategy::NoCache => FramePayload::AmnesicReport {
                    report_ts_micros,
                    ids: Vec::new(),
                },
                Strategy::GroupReports { .. } => {
                    let mut groups: Vec<u64> = at_ids.iter().map(|&j| map.group_of(j)).collect();
                    groups.sort_unstable();
                    groups.dedup();
                    FramePayload::AmnesicReport {
                        report_ts_micros,
                        ids: groups,
                    }
                }
                Strategy::Signatures => FramePayload::SignatureReport {
                    report_ts_micros,
                    sig_bits: params.g,
                    signatures: signatures(&|_| true),
                },
                Strategy::HybridSig { .. } => FramePayload::HybridReport {
                    report_ts_micros,
                    hot_ids: at_ids.into_iter().filter(|&j| j < HOT).collect(),
                    sig_bits: params.g,
                    signatures: signatures(&|j| j >= HOT),
                },
                Strategy::AdaptiveTs { .. } => FramePayload::AdaptiveTimestampReport {
                    report_ts_micros,
                    entries: window(t_i - K as f64 * L),
                    window_exceptions: Vec::new(),
                },
                Strategy::QuasiDelay { .. } => {
                    let due: Vec<bool> = obligations
                        .iter()
                        .map(|list| list.first().is_some_and(|&l| i >= l + ALPHA))
                        .collect();
                    let entries: Vec<(ItemId, u64)> = window(t_i - ALPHA as f64 * L)
                        .into_iter()
                        .filter(|&(j, _)| due[j as usize])
                        .collect();
                    // A due copy is either reported (dropped by its
                    // holders) or re-validated (its lag clock restarts).
                    for j in (0..N).filter(|&j| due[j as usize]) {
                        let list = &mut obligations[j as usize];
                        list.retain(|&l| l + ALPHA > i);
                        if !entries.iter().any(|e| e.0 == j) {
                            list.push(i);
                        }
                    }
                    FramePayload::TimestampReport {
                        report_ts_micros,
                        entries,
                    }
                }
            };
            assert_eq!(
                driver.build(i, t(t_i), &db),
                expected,
                "{} interval {i}",
                strategy.name()
            );

            for _ in 0..rng.uniform_index(4) {
                let item = rng.uniform_index(N);
                driver.note_uplink(0, item, i, t(t_i), None);
                obligations[item as usize].push(i);
            }
        }
    }
}

const ITEM: ItemId = 7;

/// The order inside [`CellServer::close_interval`] is behaviour:
/// swap its two lines and this fails at report 9.
///
/// `k = 1`, so the log starts out retaining `4L`. One update to
/// `ITEM` lands at `T_1 = L` and one uplink query asks for it. The
/// boundary at interval 4 grows its window 1 → 5 (retention `7L`),
/// the boundary at interval 8 grows it 5 → 9 (retention `11L`). At
/// `T_8` the update is exactly `7L` old: pruning under the *old*
/// retention before the boundary widens it throws the record away,
/// and report 9 — whose window `(0, 9L]` covers it — would go out
/// without the entry sleepers of up to nine intervals rely on.
#[test]
fn close_interval_widens_retention_before_it_prunes() {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 64;
    params.mu = 0.0; // the one published update is the only update
    params.k = 1;
    let strategy = Strategy::AdaptiveTs {
        method: FeedbackMethod::Method2,
        eval_period: 4,
        step: 4,
    };
    let mut server = CellServer::new(&CellConfig::new(params), strategy);
    let mut clock = IntervalClock::new(SimDuration::from_secs(params.latency_secs));
    let mut reports = Vec::new();
    for _ in 0..9 {
        let (i, t_i) = clock.tick();
        let publishes: &[(ItemId, u64)] = if i == 1 { &[(ITEM, 0xFEED)] } else { &[] };
        server.advance(i, clock.report_time(i - 1), t_i, publishes);
        reports.push(listed(&server.build()));
        if i == 1 {
            server.answer(0, ITEM, None);
        }
        server.close_interval();
    }
    assert_eq!(server.driver().adaptive_window(ITEM), Some(9));
    assert_eq!(
        (
            server.updates_applied(),
            server.publishes_applied(),
            server.uplink_answers()
        ),
        (0, 1, 1),
        "the publish is not a seeded update; the one query was answered"
    );
    assert_eq!(reports[0], [ITEM], "report 1 lists the fresh update");
    assert_eq!(
        reports[4],
        [ITEM],
        "the 5-interval window reaches back to T_1"
    );
    assert!(reports[7].is_empty(), "at T_8 the update is outside w = 5L");
    assert_eq!(
        reports[8],
        [ITEM],
        "the window grown at T_8 covers the update again; its log record must have survived"
    );
}
