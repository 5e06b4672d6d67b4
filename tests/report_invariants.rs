//! Randomized invariants on the report pipeline (DESIGN.md §6,
//! invariants 4 and 6): report windows are exactly the paper's sets,
//! and the signature algebra composes correctly, under arbitrary
//! update schedules. Driven by the workspace's own deterministic
//! `RngStream` (seeded, replayable) rather than an external
//! property-testing framework.

use sleepers_workaholics::server::{AtBuilder, Database, ReportBuilder, TsBuilder};
use sleepers_workaholics::signature::{combine, item_signature, SubsetFamily};
use sleepers_workaholics::sim::{MasterSeed, RngStream, SimDuration, SimTime, StreamId};
use sleepers_workaholics::wireless::FramePayload;

fn rng(tag: u64) -> RngStream {
    MasterSeed(0xC0FF_EE00_0000_0000 | tag).stream(StreamId::Custom { tag })
}

/// An arbitrary update schedule: (item, at-seconds) pairs in time order.
fn update_schedule(rng: &mut RngStream, n_items: u64, horizon: f64) -> Vec<(u64, f64)> {
    let len = rng.uniform_index(60) as usize;
    let mut v: Vec<(u64, f64)> = (0..len)
        .map(|_| (rng.uniform_index(n_items), rng.uniform() * horizon))
        .collect();
    v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
    v
}

fn distinct_items(rng: &mut RngStream, universe: u64, min: usize, max: usize) -> Vec<u64> {
    let count = min + rng.uniform_index((max - min) as u64) as usize;
    let mut set = std::collections::BTreeSet::new();
    while set.len() < count {
        set.insert(rng.uniform_index(universe));
    }
    set.into_iter().collect()
}

fn apply(db: &mut Database, schedule: &[(u64, f64)]) {
    for (step, &(item, at)) in schedule.iter().enumerate() {
        // Monotone per-item times are guaranteed by the global sort.
        db.apply_update(item, 10_000 + step as u64, SimTime::from_secs(at));
    }
}

/// Invariant 4a: the TS report at `T_i` contains exactly
/// `{j : T_i − w < t_j ≤ T_i}` with each item's latest timestamp.
#[test]
fn ts_report_is_exactly_the_window() {
    let mut rng = rng(1);
    for case in 0..64 {
        let schedule = update_schedule(&mut rng, 50, 200.0);
        let k = 1 + rng.uniform_index(7) as u32;
        let latency = SimDuration::from_secs(10.0);
        let mut db = Database::new(50, |i| i, SimDuration::from_secs(1e4));
        apply(&mut db, &schedule);
        let mut builder = TsBuilder::new(latency, k);
        let t_i = 200.0;
        let w = k as f64 * 10.0;
        let payload = builder.build((t_i / 10.0) as u64, SimTime::from_secs(t_i), &db);
        let entries = match payload {
            FramePayload::TimestampReport { entries, .. } => entries,
            other => panic!("unexpected {other:?}"),
        };
        // Reference: last update per item within the window.
        let mut expected = std::collections::BTreeMap::new();
        for &(item, at) in &schedule {
            if at > t_i - w && at <= t_i {
                expected.insert(item, (at * 1e6).round() as u64);
            }
        }
        let got: std::collections::BTreeMap<u64, u64> = entries.into_iter().collect();
        assert_eq!(got, expected, "case {case} (k={k})");
    }
}

/// Invariant 4b: the AT report covers exactly `(T_{i−1}, T_i]`.
#[test]
fn at_report_is_exactly_one_interval() {
    let mut rng = rng(2);
    for case in 0..64 {
        let schedule = update_schedule(&mut rng, 50, 200.0);
        let latency = SimDuration::from_secs(10.0);
        let mut db = Database::new(50, |i| i, SimDuration::from_secs(1e4));
        apply(&mut db, &schedule);
        let mut builder = AtBuilder::new(latency);
        let payload = builder.build(20, SimTime::from_secs(200.0), &db);
        let ids = match payload {
            FramePayload::AmnesicReport { ids, .. } => ids,
            other => panic!("unexpected {other:?}"),
        };
        let mut expected: Vec<u64> = schedule
            .iter()
            .filter(|&&(_, at)| at > 190.0 && at <= 200.0)
            .map(|&(item, _)| item)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(ids, expected, "case {case}");
    }
}

/// Invariant 6a: equal item sets with equal values give equal combined
/// signatures regardless of order; any single value change flips the
/// combination (up to the 2^−g collision budget, which at g = 32 never
/// fires in 64 cases).
#[test]
fn combined_signature_set_semantics() {
    let mut rng = rng(3);
    for case in 0..64 {
        let items = distinct_items(&mut rng, 1000, 1, 40);
        let flip_idx = rng.uniform_index(40) as usize;
        let g = 32;
        let forward: Vec<u64> = items
            .iter()
            .map(|&i| item_signature(i, i * 7 + 1, g))
            .collect();
        let backward: Vec<u64> = items
            .iter()
            .rev()
            .map(|&i| item_signature(i, i * 7 + 1, g))
            .collect();
        assert_eq!(
            combine(forward.iter().copied()),
            combine(backward.iter().copied()),
            "case {case}: order must not matter"
        );

        let victim = items[flip_idx % items.len()];
        let mutated = combine(items.iter().map(|&i| {
            let value = if i == victim { i * 7 + 2 } else { i * 7 + 1 };
            item_signature(i, value, g)
        }));
        assert_ne!(
            mutated,
            combine(forward.iter().copied()),
            "case {case}: a changed value must flip the combination"
        );
    }
}

/// Invariant 6b: XOR-patching a combined signature for one member's
/// change equals recomputing from scratch.
#[test]
fn incremental_patch_equals_recompute() {
    let mut rng = rng(4);
    for case in 0..64 {
        let items = distinct_items(&mut rng, 500, 2, 30);
        let new_value = rng.next_u64();
        let g = 16;
        let victim = items[0];
        let old = combine(items.iter().map(|&i| item_signature(i, i + 1, g)));
        let patched =
            old ^ item_signature(victim, victim + 1, g) ^ item_signature(victim, new_value, g);
        let recomputed = combine(items.iter().map(|&i| {
            let v = if i == victim { new_value } else { i + 1 };
            item_signature(i, v, g)
        }));
        assert_eq!(patched, recomputed, "case {case}");
    }
}

/// The shared-seed property behind SIG: two `SubsetFamily` values built
/// from the same (seed, m, f) agree on every membership query.
#[test]
fn families_agree_and_empty_cache_is_silent() {
    let mut rng = rng(5);
    for case in 0..32 {
        let seed = rng.next_u64();
        let f = 1 + rng.uniform_index(49) as u32;
        let a = SubsetFamily::new(seed, 64, f);
        let b = SubsetFamily::new(seed, 64, f);
        for j in 0..64u32 {
            for item in (0..200u64).step_by(7) {
                assert_eq!(
                    a.contains(j, item),
                    b.contains(j, item),
                    "case {case}: family divergence at subset {j}, item {item}"
                );
            }
        }
    }
}

/// Invariant 2 (boundary discipline): TS drops the whole cache iff the
/// gap strictly exceeds `w`; AT iff it strictly exceeds `L` — checked at
/// the exact boundary, one tick inside, and one tick outside.
#[test]
fn drop_boundaries_are_exact() {
    use sleepers_workaholics::client::{Cache, ReportRule, RuleHandler};
    let latency = SimDuration::from_secs(10.0);

    for (gap, expect_drop) in [(20.0, false), (20.0001, true), (19.9999, false)] {
        let mut h = RuleHandler::new(ReportRule::ts(latency, 2)); // w = 20
        let mut c = Cache::unbounded();
        c.insert(1, 1, SimTime::from_secs(100.0));
        let report = FramePayload::TimestampReport {
            report_ts_micros: ((100.0 + gap) * 1e6) as u64,
            entries: vec![],
        };
        let out = h.process(&mut c, &report, Some(SimTime::from_secs(100.0)));
        assert_eq!(
            out.dropped_all, expect_drop,
            "TS gap {gap}: expected drop={expect_drop}"
        );
    }

    for (gap, expect_drop) in [(10.0, false), (10.001, true)] {
        let mut h = RuleHandler::new(ReportRule::at(latency));
        let mut c = Cache::unbounded();
        c.insert(1, 1, SimTime::from_secs(100.0));
        let report = FramePayload::AmnesicReport {
            report_ts_micros: ((100.0 + gap) * 1e6) as u64,
            ids: vec![],
        };
        let out = h.process(&mut c, &report, Some(SimTime::from_secs(100.0)));
        assert_eq!(
            out.dropped_all, expect_drop,
            "AT gap {gap}: expected drop={expect_drop}"
        );
    }
}
