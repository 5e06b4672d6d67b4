//! Microbenches for the hot-path overhaul: per-MU report application,
//! the per-broadcast report digest (build, and per-client probing),
//! the per-item table, and wake-heap vs full-scan sleeper
//! handling. These are the mechanisms the per-interval loop is built
//! from; `BENCH_report.json` (see the `bench_report` binary) and
//! `benchmark/` measure their end-to-end effect.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sleepers::client::{
    Cache, DigestScratch, MobileUnit, MuConfig, ReplacementPolicy, ReportRule, RuleHandler,
};
use sleepers::server::{AtBuilder, Database, ItemTable, ReportBuilder, TsBuilder, UpdateEngine};
use sleepers::sim::{MasterSeed, SimDuration, SimTime, StreamId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

const N_ITEMS: u64 = 10_000;

fn loaded_db(n_items: u64, mu: f64, horizon: f64) -> Database {
    let mut rng = MasterSeed(1).stream(StreamId::Updates);
    let mut db = Database::new(n_items, |i| i, SimDuration::from_secs(horizon * 2.0));
    let mut engine = UpdateEngine::new(n_items, mu, &mut rng);
    engine.advance(
        &mut db,
        SimTime::ZERO,
        SimTime::from_secs(horizon),
        &mut rng,
    );
    db
}

/// One interval of a single MU: generate queries, hear the TS report,
/// answer from cache.
fn bench_report_apply_per_mu(c: &mut Criterion) {
    let db = loaded_db(N_ITEMS, 1e-4, 1_000.0);
    let latency = SimDuration::from_secs(10.0);
    let payload = TsBuilder::new(latency, 100).build(100, SimTime::from_secs(1_000.0), &db);

    let mut group = c.benchmark_group("report_apply_per_mu");
    group.throughput(Throughput::Elements(1));
    group.bench_function("dense_cache", |b| {
        b.iter_batched(
            || {
                let mut rng = MasterSeed(7).stream(StreamId::Queries { index: 1 });
                let mut unit = MobileUnit::new(
                    MuConfig {
                        id: 1,
                        hotspot: (0..100).collect(),
                        query_rate_per_item: 0.02,
                        sleep_probability: 0.0,
                        cache_capacity: None,
                        replacement: ReplacementPolicy::Lru,
                        replacement_window: SimDuration::ZERO,
                        piggyback_hits: false,
                        item_universe: Some(N_ITEMS),
                    },
                    RuleHandler::new(ReportRule::ts(latency, 100)),
                    &mut rng,
                );
                for item in 0..50 {
                    unit.install_answer(sleepers::server::QueryAnswer {
                        item,
                        value: item,
                        timestamp: SimTime::from_secs(995.0),
                    });
                }
                let mut qrng = MasterSeed(8).stream(StreamId::Queries { index: 2 });
                unit.begin_awake_interval(
                    SimTime::from_secs(990.0),
                    SimTime::from_secs(1_000.0),
                    &mut qrng,
                );
                unit
            },
            |mut unit| black_box(unit.hear_report_and_answer(&payload)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The per-broadcast digest: what one build costs as the report grows
/// (a quiet AT interval, `workaholic_ts`'s window, `at_churn`'s
/// Scenario 3 interval), and what one client's cache walk costs against
/// it at both ends of the update-rate range — the walk is bounded by
/// the 30-entry cache, not by the report.
fn bench_report_digest(c: &mut Criterion) {
    let latency = SimDuration::from_secs(10.0);
    let t_i = SimTime::from_secs(1_000.0);
    let at = |n, mu| AtBuilder::new(latency).build(100, t_i, &loaded_db(n, mu, 1_000.0));
    let ts = |n, mu| TsBuilder::new(latency, 100).build(100, t_i, &loaded_db(n, mu, 1_000.0));

    let mut group = c.benchmark_group("report_digest");
    for (label, payload) in [
        ("build/at_1_id", at(1_000, 1e-4)),
        ("build/ts_190_entries", ts(2_000, 1e-4)),
        ("build/at_630_ids", at(1_000, 0.1)),
    ] {
        let mut scratch = DigestScratch::default();
        group.bench_function(label, |b| {
            b.iter(|| black_box(scratch.digest(black_box(&payload)).report_time()))
        });
    }

    let mut cache = Cache::for_universe(1_000);
    for item in (0..1_000).step_by(34) {
        cache.insert(item, item, SimTime::from_secs(995.0));
    }
    let t_l = Some(SimTime::from_secs(990.0));
    for (label, mu) in [("mu=1e-4", 1e-4), ("mu=0.1", 0.1)] {
        let handlers = [
            ("at", RuleHandler::new(ReportRule::at(latency)), at(1_000, mu)),
            ("ts", RuleHandler::new(ReportRule::ts(latency, 100)), ts(1_000, mu)),
        ];
        for (name, mut handler, payload) in handlers {
            let mut scratch = DigestScratch::default();
            let digest = scratch.digest(&payload);
            group.bench_function(format!("apply_per_client/{name}/{label}"), |b| {
                b.iter_batched(
                    || cache.clone(),
                    |mut cache| black_box(handler.process_digest(&mut cache, &digest, t_l)),
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

/// The item table under a per-interval access pattern: populate,
/// point-probe, ordered scan.
fn bench_item_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("item_table");
    group.throughput(Throughput::Elements(N_ITEMS));
    group.bench_function("dense/fill_probe_scan", |b| {
        b.iter(|| {
            let mut t = ItemTable::dense(N_ITEMS);
            for item in 0..N_ITEMS {
                t.insert(item, item * 3);
            }
            // Pseudo-random probes (fixed LCG, not wall-clock).
            let mut x = 0x9E37u64;
            let mut found = 0u64;
            for _ in 0..N_ITEMS {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if t.get(x % N_ITEMS).is_some() {
                    found += 1;
                }
            }
            let sum: u64 = t.iter().map(|(_, &v)| v).sum();
            black_box((found, sum))
        })
    });
    group.finish();
}

/// Sleeper handling: touch every client every interval (the old loop —
/// a Bernoulli sleep draw plus per-client bookkeeping whether or not
/// the unit is awake) vs pop only the due wake-ups from a heap, one
/// geometric run draw per wake (the cell driver now). Same sleep
/// process, same client count, same horizon.
fn bench_wake_scan(c: &mut Criterion) {
    use sleepers::sim::process::BernoulliIntervalProcess;

    // The paper's "sleeper" regime: long disconnection runs. This is
    // where skipping sleeping clients pays — at small s the Bernoulli
    // scan is already cheap and the heap is a wash.
    const CLIENTS: u64 = 1_000;
    const INTERVALS: u64 = 1_000;
    const S: f64 = 0.99;

    let mut group = c.benchmark_group("wake_scan");
    group.throughput(Throughput::Elements(CLIENTS * INTERVALS));
    let process = BernoulliIntervalProcess::new(S);

    group.bench_function("full_scan", |b| {
        b.iter(|| {
            let mut rng = MasterSeed(42).stream(StreamId::Sleep { index: 0 });
            // The old driver touched every client every interval: one
            // sleep draw plus an asleep/awake stats bump each.
            let mut awake_events = 0u64;
            let mut asleep_credits = 0u64;
            for _ in 0..INTERVALS {
                for _ in 0..CLIENTS {
                    if process.draw_asleep(&mut rng) {
                        asleep_credits += 1;
                    } else {
                        awake_events += 1;
                    }
                }
            }
            black_box((awake_events, asleep_credits))
        })
    });

    group.bench_function("wake_heap", |b| {
        b.iter(|| {
            let mut rng = MasterSeed(42).stream(StreamId::Sleep { index: 0 });
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut asleep_credits = 0u64;
            for idx in 0..CLIENTS {
                let k = process.draw_sleep_run(&mut rng);
                if k != u64::MAX {
                    heap.push(Reverse((1u64.saturating_add(k), idx)));
                }
            }
            let mut awake_events = 0u64;
            for i in 1..=INTERVALS {
                while let Some(&Reverse((wake, idx))) = heap.peek() {
                    if wake > i {
                        break;
                    }
                    heap.pop();
                    awake_events += 1;
                    asleep_credits += wake - 1;
                    let k = process.draw_sleep_run(&mut rng);
                    if k != u64::MAX {
                        heap.push(Reverse((i.saturating_add(1 + k), idx)));
                    }
                }
            }
            black_box((awake_events, asleep_credits))
        })
    });
    group.finish();
}

/// End-to-end check that the cell driver's cost tracks the *awake*
/// population: with the wake-heap, raising s at fixed client count
/// should cut per-interval time roughly in proportion to 1 − s.
fn bench_interval_cost_vs_sleep(c: &mut Criterion) {
    use sleepers::prelude::*;

    let mut group = c.benchmark_group("interval_cost_vs_sleep");
    for s in [0.0, 0.9, 0.99] {
        let mut params = ScenarioParams::scenario1();
        params.n_items = 2_000;
        let params = params.with_s(s);
        group.bench_function(format!("ts/s={s}"), |b| {
            b.iter_batched(
                || {
                    let mut sim = CellSimulation::new(
                        CellConfig::new(params)
                            .with_clients(100)
                            .with_hotspot_size(30)
                            .with_seed(3),
                        Strategy::BroadcastTimestamps,
                    )
                    .expect("valid");
                    sim.run(10).expect("warm-up fits");
                    sim
                },
                |mut sim| {
                    for _ in 0..20 {
                        black_box(sim.step().expect("fits"));
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_report_apply_per_mu,
    bench_report_digest,
    bench_item_table,
    bench_wake_scan,
    bench_interval_cost_vs_sleep
);
criterion_main!(benches);
