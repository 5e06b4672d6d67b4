//! The assembled interval: one cell's interval protocol driven from the
//! outside through the layers' public calls, one span per call.
//!
//! `CellSimulation::step` is one function; what each layer costs inside
//! it cannot be seen from outside. This loop strings the same public
//! calls together in the same phase order — the construction mirrors
//! `CellSimulation::new` stream for stream, so on a channel that never
//! defers an exchange it runs the identical workload, which the caller
//! checks against a `FleetBackend::Units` cell. Energy accounting and
//! the safety audit are not part of it.

use sleepers::client::{MobileUnit, MuConfig};
use sleepers::prelude::*;
use sleepers::query::QueryPlane;
use sleepers::server::{Database, ItemId, PiggybackInfo, UpdateEngine, UplinkProcessor};
use sleepers::sim::{IntervalClock, RngStream, StreamId};
use sleepers::wireless::frame::{open_frame, seal_frame};
use sleepers::wireless::{BroadcastChannel, WireEncode};
use sleepers::workload::{HotspotSpec, ZipfPicker};
use sleepers::ServerDriver;

use crate::trace::Tracer;

/// What the measured window of an assembled run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
}

/// The server half and the channel, bundled so one uplink exchange is
/// one call.
struct ServerSide {
    db: Database,
    driver: ServerDriver,
    uplink: UplinkProcessor,
    channel: BroadcastChannel,
}

impl ServerSide {
    /// One uplink exchange for `unit`: charge the channel, answer, install.
    fn exchange(
        &mut self,
        tr: &mut Tracer,
        unit: &mut MobileUnit,
        item: ItemId,
        piggyback: Option<PiggybackInfo>,
        i: u64,
        t_i: SimTime,
    ) {
        tr.enter("wireless.channel_charge");
        self.channel
            .send_query_exchange(unit.id(), item)
            .expect("the widened channel never defers an exchange");
        tr.exit();
        tr.enter("server.uplink_answer");
        let answer = self.uplink.answer(&self.db, item, t_i, piggyback.as_ref());
        self.driver
            .note_uplink(unit.id(), item, i, t_i, piggyback.as_ref());
        tr.exit();
        tr.enter("client.install");
        unit.install_answer(answer);
        tr.exit();
    }
}

/// Runs `warm` untraced intervals, then `measured` traced ones, of the
/// cell `cfg` describes with boxed units. With `wire`, every report is
/// also serialised, sealed, opened and decoded as the live stack would.
pub fn run(
    cfg: &CellConfig,
    strategy: Strategy,
    warm: u64,
    measured: u64,
    wire: bool,
    tr: &mut Tracer,
) -> Observed {
    let params = cfg.params;
    let latency = SimDuration::from_secs(params.latency_secs);
    let retention = latency.scaled((params.k as f64 + 2.0).max(4.0));
    let protocol_seed = cfg.protocol_seed();
    let mut db_rng = protocol_seed.stream(StreamId::Database);
    let db = Database::new(params.n_items, |_| db_rng.next_u64(), retention);
    let driver = ServerDriver::new(strategy, &params, protocol_seed, &db, cfg.n_clients);
    let encode = WireEncode::new(
        params.n_items,
        params.timestamp_bits,
        params.query_bits,
        params.answer_bits,
    );
    let mut server = ServerSide {
        db,
        driver,
        uplink: UplinkProcessor::with_universe(params.n_items),
        channel: BroadcastChannel::new(params.bandwidth_bps, params.latency_secs, encode),
    };
    let mut update_rng = protocol_seed.stream(StreamId::Updates);
    let mut engine = UpdateEngine::new(params.n_items, params.mu, &mut update_rng);

    let spec = HotspotSpec::new(params.n_items, cfg.hotspot_size, cfg.popularity);
    let n = cfg.n_clients;
    let mut units: Vec<MobileUnit> = Vec::with_capacity(n);
    let mut planes: Vec<Option<QueryPlane>> = Vec::with_capacity(n);
    let mut query_rngs: Vec<RngStream> = Vec::with_capacity(n);
    let mut sleep_rngs: Vec<RngStream> = Vec::with_capacity(n);
    let mut next_wake: Vec<u64> = Vec::with_capacity(n);
    let mut last_settled = vec![0u64; n];
    for idx in 0..n as u64 {
        let mut hotspot_rng = cfg.seed.stream(StreamId::Hotspot { index: idx });
        let hotspot = tr.span("workload.hotspot_draw", || spec.draw(&mut hotspot_rng));
        planes.push(cfg.query.map(|qc| {
            QueryPlane::new(
                &hotspot,
                qc,
                cfg.seed.stream(StreamId::QueryPlan { index: idx }),
            )
        }));
        let mut query_rng = cfg.seed.stream(StreamId::Queries { index: idx });
        let mu_config = MuConfig {
            id: idx,
            hotspot,
            query_rate_per_item: params.lambda,
            sleep_probability: params.s,
            cache_capacity: cfg.cache_capacity,
            replacement: cfg.replacement,
            replacement_window: latency.scaled(params.k as f64),
            piggyback_hits: false,
            item_universe: Some(params.n_items),
        };
        let handler = strategy.make_handler(&params, protocol_seed);
        let mut mu = MobileUnit::new(mu_config, handler, &mut query_rng);
        let mut sleep_rng = cfg.seed.stream(StreamId::Sleep { index: idx });
        let k0 = mu.draw_sleep_run(&mut sleep_rng);
        if k0 > 0 {
            mu.enter_sleep();
        }
        next_wake.push(1u64.saturating_add(k0));
        units.push(mu);
        query_rngs.push(query_rng);
        sleep_rngs.push(sleep_rng);
    }
    let mut zipf = cfg.query_zipf.map(|theta| {
        let rngs: Vec<RngStream> = (0..n as u64)
            .map(|idx| cfg.seed.stream(StreamId::ZipfQuery { index: idx }))
            .collect();
        (ZipfPicker::new(cfg.hotspot_size, theta), rngs)
    });

    let mut clock = IntervalClock::new(latency);
    let mut awake: Vec<usize> = Vec::new();
    let was_enabled = tr.set_enabled(false);
    for step in 1..=warm + measured {
        if step == warm + 1 {
            tr.set_enabled(was_enabled);
            units.iter_mut().for_each(MobileUnit::reset_stats);
        }
        let (i, t_i) = clock.tick();
        let from = clock.report_time(i - 1);
        // Spans are numbered from the first measured interval.
        tr.set_interval(step.saturating_sub(warm + 1));
        tr.enter("assembled.interval");
        server.channel.begin_interval();

        // 1. Wake-ups and their query arrivals.
        awake.clear();
        awake.extend((0..n).filter(|&idx| next_wake[idx] == i));
        for &idx in &awake {
            let slept = i - last_settled[idx] - 1;
            last_settled[idx] = i;
            if slept > 0 {
                units[idx].credit_asleep_intervals(slept);
            }
            tr.enter("client.query_gen");
            let mut zipf_pick = zipf.as_mut().map(|(picker, rngs)| {
                let picker = &*picker;
                let rng = &mut rngs[idx];
                move || picker.draw(rng)
            });
            let pick = zipf_pick.as_mut().map(|f| f as &mut dyn FnMut() -> usize);
            units[idx].begin_awake_interval_skewed(from, t_i, &mut query_rngs[idx], pick);
            tr.exit();
            if let Some(plane) = planes[idx].as_mut() {
                tr.span("query.plane", || plane.begin_awake_interval());
            }
        }

        // 2. This interval's updates.
        tr.enter("server.update_apply");
        let recs = engine.advance(&mut server.db, from, t_i, &mut update_rng);
        for rec in &recs {
            server.driver.on_update(rec);
        }
        tr.exit();

        // 3. Build and charge the report.
        tr.enter("server.report_build");
        let payload = server.driver.build(i, t_i, &server.db);
        tr.exit();
        tr.enter("wireless.channel_charge");
        server
            .channel
            .send_report_payload(&payload)
            .expect("the report fits the widened interval");
        tr.exit();
        if wire {
            tr.enter("wireless.frame_encode");
            let datagram = seal_frame(0, encode.serialize_payload(&payload));
            tr.exit();
            tr.enter("wireless.frame_decode");
            let (_, frame) = open_frame(&datagram).expect("a frame just sealed opens");
            let decoded = encode
                .deserialize(frame)
                .expect("a frame just encoded decodes");
            tr.exit();
            assert_eq!(
                decoded.payload, payload,
                "the wire round trip changed the report"
            );
        }

        // 4. Every awake unit hears the report and settles its misses.
        for &idx in &awake {
            tr.enter("client.report_apply");
            let heard = units[idx].hear_report_and_answer(&payload);
            tr.exit();
            for (item, piggyback) in heard.uplink_requests {
                server.exchange(tr, &mut units[idx], item, piggyback, i, t_i);
            }
            if let Some(plane) = planes[idx].as_mut() {
                tr.enter("query.plane");
                let check = plane.observe_report(units[idx].cache(), t_i);
                tr.exit();
                for item in check.fetch {
                    server.exchange(tr, &mut units[idx], item, None, i, t_i);
                }
                tr.enter("query.plane");
                plane.settle(units[idx].cache(), t_i);
                tr.exit();
            }
        }

        // 7. Log hygiene.
        tr.enter("server.log_prune");
        server.db.prune_log(t_i);
        tr.exit();

        // 8. Next sleep runs.
        for &idx in &awake {
            tr.enter("client.sleep_draw");
            let k = units[idx].draw_sleep_run(&mut sleep_rngs[idx]);
            if k > 0 {
                units[idx].enter_sleep();
            }
            next_wake[idx] = if k == u64::MAX {
                u64::MAX
            } else {
                (i + 1).saturating_add(k)
            };
            tr.exit();
        }
        tr.exit();
    }

    units.iter().fold(
        Observed {
            queries: 0,
            hits: 0,
            misses: 0,
        },
        |acc, mu| {
            let s = mu.stats();
            Observed {
                queries: acc.queries + s.queries_posed,
                hits: acc.hits + s.hit_events,
                misses: acc.misses + s.miss_events,
            }
        },
    )
}
