//! The server half of Figure 2, shared by the simulator and the live
//! daemon.
//!
//! A *static* broadcast strategy (TS, AT, SIG, hybrid) is fully
//! described by its [`ReportBuilder`]: feed it updates, ask it for the
//! report. The driver-constructed strategies carry extra server state —
//! adaptive TS folds per-period query/update feedback into its window
//! controller, quasi-delay thins the TS report to the *due* obligations,
//! and the stateful baseline keeps a per-client registry for directed
//! invalidations. [`ServerDriver`] packages all four shapes behind one
//! seam.
//!
//! [`CellServer`] is the paper's one server loop around that driver
//! (§2): the database, the update process, the uplink processor and the
//! current `(i, T_i)`, with one method per phase — apply the interval's
//! updates, build the report, answer uplink queries stamped `T_i`, then
//! close the interval (evaluation-period boundary, *then* log prune).
//! `CellSimulation`, the live `sw-serve` ticker and every HA replica
//! drive this one type, so sim-vs-live conformance compares two drivers
//! of one server, and there is one place where the retention rule, the
//! seed streams and the phase order are spelled.
//!
//! The live daemon can host every driver shape except the stateful
//! baseline (directed messages need per-client connections the
//! broadcast wire does not model) and adaptive Method 1 (its MHR
//! estimate needs piggybacked local-hit times, which the live uplink
//! frame does not carry).

use sw_adaptive::{
    AdaptiveController, AdaptiveTsBuilder, FeedbackMethod, PeriodItemStats,
};
use sw_quasi::ObligationTracker;
use sw_server::{
    Database, ItemId, ItemTable, PiggybackInfo, QueryAnswer, ReportBuilder, StatefulServer,
    TsBuilder, UpdateEngine, UpdateRecord, UplinkProcessor,
};
use sw_sim::{counters, MasterSeed, RngStream, SimDuration, SimTime, StreamId};
use sw_wireless::FramePayload;
use sw_workload::ScenarioParams;

use crate::config::CellConfig;
use crate::safety::ValueHistory;
use crate::strategy::Strategy;

/// Server-side machinery; adaptive and quasi strategies carry extra
/// state beyond the plain report builder.
// One Side exists per driver; the variant size spread is irrelevant
// next to the database it sits beside.
#[allow(clippy::large_enum_variant)]
enum Side {
    Static(Box<dyn ReportBuilder + Send>),
    Adaptive {
        builder: AdaptiveTsBuilder,
        controller: AdaptiveController,
        eval_period: u32,
        method: FeedbackMethod,
        /// Per-item query timestamps this period (uplink + piggybacked).
        query_times: ItemTable<Vec<SimTime>>,
        /// Per-item update timestamps this period.
        update_times: ItemTable<Vec<SimTime>>,
    },
    QuasiDelay {
        builder: TsBuilder,
        tracker: ObligationTracker,
    },
    /// §2's stateful baseline: directed invalidation messages to
    /// registered holders instead of a broadcast report. `pending_ids`
    /// collects this interval's updated ids so the AT-style client
    /// algorithm can apply them.
    Stateful {
        registry: StatefulServer,
        pending_ids: Vec<ItemId>,
    },
}

/// One strategy's complete server half. See the module docs.
pub struct ServerDriver {
    side: Side,
}

impl ServerDriver {
    /// Builds the server half of `strategy`. `n_clients` seeds the
    /// stateful baseline's registry (every unit starts connected);
    /// the other shapes ignore it.
    pub fn new(
        strategy: Strategy,
        params: &ScenarioParams,
        protocol_seed: MasterSeed,
        db: &Database,
        n_clients: usize,
    ) -> Self {
        let latency = SimDuration::from_secs(params.latency_secs);
        let side = match strategy {
            Strategy::AdaptiveTs {
                method,
                eval_period,
                step,
            } => Side::Adaptive {
                builder: AdaptiveTsBuilder::new(latency, params.k),
                controller: AdaptiveController::new(
                    method,
                    step,
                    0.0,
                    params.query_bits,
                    params.timestamp_bits,
                    params.n_items,
                ),
                eval_period,
                method,
                query_times: ItemTable::dense(params.n_items),
                update_times: ItemTable::dense(params.n_items),
            },
            Strategy::QuasiDelay { alpha_intervals } => Side::QuasiDelay {
                builder: TsBuilder::with_window(latency.scaled(alpha_intervals as f64)),
                tracker: ObligationTracker::for_universe(alpha_intervals, params.n_items),
            },
            Strategy::Stateful => {
                let mut registry = StatefulServer::with_universe(params.n_items);
                for idx in 0..n_clients as u64 {
                    registry.connect(idx);
                }
                Side::Stateful {
                    registry,
                    pending_ids: Vec::new(),
                }
            }
            other => Side::Static(other.make_builder(params, protocol_seed, db)),
        };
        ServerDriver { side }
    }

    /// Whether this driver runs the stateful baseline (directed
    /// messages instead of a broadcast report).
    pub fn is_stateful(&self) -> bool {
        matches!(self.side, Side::Stateful { .. })
    }

    /// The stateful baseline's registry, for connect/disconnect and
    /// directed-recipient bookkeeping. `None` for every other shape.
    pub fn registry_mut(&mut self) -> Option<&mut StatefulServer> {
        match &mut self.side {
            Side::Stateful { registry, .. } => Some(registry),
            _ => None,
        }
    }

    /// Current per-item adaptive window (adaptive strategy only).
    pub fn adaptive_window(&self, item: ItemId) -> Option<u32> {
        match &self.side {
            Side::Adaptive { builder, .. } => Some(builder.windows().get(item)),
            _ => None,
        }
    }

    /// Ingests one applied update.
    pub fn on_update(&mut self, rec: &UpdateRecord) {
        match &mut self.side {
            Side::Static(b) => b.on_update(rec),
            Side::Adaptive {
                builder,
                update_times,
                ..
            } => {
                builder.on_update(rec);
                update_times
                    .get_or_insert_with(rec.item, Vec::new)
                    .push(rec.at);
            }
            Side::QuasiDelay { .. } => {}
            // Stateful invalidations are charged by the caller, which
            // owns the channel; here we only remember the ids for the
            // client-side framing.
            Side::Stateful { pending_ids, .. } => pending_ids.push(rec.item),
        }
    }

    /// Builds interval `i`'s report payload, broadcast at `t_i`.
    pub fn build(&mut self, i: u64, t_i: SimTime, db: &Database) -> FramePayload {
        match &mut self.side {
            Side::Static(b) => b.build(i, t_i, db),
            Side::Adaptive { builder, .. } => builder.build(i, t_i, db),
            Side::QuasiDelay { builder, tracker } => {
                // Build the full TS report over window α, then thin it to
                // the *due* items (§7: an item "can be considered for
                // reporting" only when an outstanding copy reaches its
                // allowed lag).
                let payload = builder.build(i, t_i, db);
                let entries = match payload {
                    FramePayload::TimestampReport { entries, .. } => entries,
                    other => unreachable!("TS builder produced {other:?}"),
                };
                let mut kept = Vec::new();
                for (item, ts) in entries {
                    if tracker.due(item, i) {
                        kept.push((item, ts));
                        // Reported: outstanding copies will be dropped
                        // and re-fetched (fresh obligations arrive via
                        // the uplink path).
                        tracker.consume(item, i, false);
                    }
                }
                // Due items that did NOT change within α are implicitly
                // re-validated by their absence; their obligation clock
                // restarts.
                let due_unchanged: Vec<ItemId> = (0..db.len())
                    .filter(|&item| tracker.due(item, i))
                    .collect();
                for item in due_unchanged {
                    tracker.consume(item, i, true);
                }
                FramePayload::TimestampReport {
                    report_ts_micros: (t_i.as_secs() * 1e6).round() as u64,
                    entries: kept,
                }
            }
            Side::Stateful { pending_ids, .. } => {
                let mut ids = std::mem::take(pending_ids);
                ids.sort_unstable();
                ids.dedup();
                FramePayload::AmnesicReport {
                    report_ts_micros: (t_i.as_secs() * 1e6).round() as u64,
                    ids,
                }
            }
        }
    }

    /// Feeds one answered uplink query into the strategy's server
    /// state: adaptive Method 1 records the query time (plus any
    /// piggybacked local-hit times) for its MHR estimate, quasi-delay
    /// registers the fresh obligation, and the stateful baseline
    /// registers the cached copy.
    pub fn note_uplink(
        &mut self,
        mu_id: u64,
        item: ItemId,
        i: u64,
        t_i: SimTime,
        piggyback: Option<&PiggybackInfo>,
    ) {
        match &mut self.side {
            Side::Adaptive {
                query_times,
                method: FeedbackMethod::Method1,
                ..
            } => {
                let times = query_times.get_or_insert_with(item, Vec::new);
                if let Some(pb) = piggyback {
                    times.extend(pb.local_hit_times.iter().copied());
                }
                times.push(t_i);
            }
            Side::QuasiDelay { tracker, .. } => tracker.on_uplink(item, i),
            Side::Stateful { registry, .. } => {
                // Registration rides the uplink query for free.
                registry.register_cache(mu_id, item);
            }
            _ => {}
        }
    }

    /// Runs the adaptive evaluation-period boundary when interval `i`
    /// closes a period: drains the builder's mention counts and the
    /// uplink processor's per-item stats, feeds the window controller,
    /// and widens the database's update-log retention to cover the
    /// largest granted window. Returns the closed period (for
    /// observation), `None` when none closed.
    /// Private: [`CellServer::close_interval`] is the one caller, so the
    /// boundary cannot be sequenced against the log prune a second way.
    fn end_period_if_due(
        &mut self,
        i: u64,
        uplink: &mut UplinkProcessor,
        db: &mut Database,
    ) -> Option<AdaptivePeriod> {
        let Side::Adaptive {
            builder,
            controller,
            eval_period,
            method,
            query_times,
            update_times,
        } = &mut self.side
        else {
            return None;
        };
        if !i.is_multiple_of(*eval_period as u64) {
            return None;
        }
        let mentions = builder.end_period();
        let uplink_stats = uplink.end_period();
        // Both tables iterate in ascending id order; merge the two
        // sorted id streams.
        let mut items: Vec<ItemId> = mentions
            .iter()
            .map(|(item, _)| item)
            .chain(uplink_stats.iter().map(|(item, _)| item))
            .collect();
        items.sort_unstable();
        items.dedup();
        let stats: Vec<PeriodItemStats> = items
            .into_iter()
            .map(|item| {
                let us = uplink_stats.get(item).copied().unwrap_or_default();
                let mhr = match method {
                    FeedbackMethod::Method1 => {
                        let queries = query_times.get(item).map(|v| v.as_slice()).unwrap_or(&[]);
                        let updates = update_times.get(item).map(|v| v.as_slice()).unwrap_or(&[]);
                        Some(sw_adaptive::estimate_mhr(queries, updates))
                    }
                    FeedbackMethod::Method2 => None,
                };
                PeriodItemStats {
                    item,
                    uplink_queries: us.uplink_queries,
                    piggybacked_hits: us.piggybacked_hits,
                    mentions: mentions.get(item).copied().unwrap_or(0),
                    mhr,
                }
            })
            .collect();
        controller.end_period(builder.windows_mut(), stats);
        query_times.clear();
        update_times.clear();
        // Growing windows need deeper update history.
        let max_k = builder
            .windows()
            .exceptions()
            .iter()
            .map(|&(_, k)| k)
            .chain(std::iter::once(builder.windows().default_k()))
            .max()
            .unwrap_or(1);
        db.widen_log_retention(builder.latency().scaled(max_k as f64 + 2.0));
        Some(AdaptivePeriod {
            default_k: builder.windows().default_k() as u64,
            exceptions: builder.windows().exceptions().len() as u64,
        })
    }
}

counters! {
    /// A closed adaptive evaluation period: the fields of the
    /// `adaptive_period` event, on the simulator's trace and on the live
    /// server's trace and flight ring alike.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AdaptivePeriod {
        /// The default window multiplier `k` after the boundary.
        pub default_k,
        /// Items holding a per-item window exception.
        pub exceptions,
    }
}

/// One cell's stationary server (§2, Figure 2): everything between the
/// update process and the report, with no channel, no clients and no
/// sockets. See the module docs.
pub struct CellServer {
    db: Database,
    history: Option<ValueHistory>,
    driver: ServerDriver,
    uplink: UplinkProcessor,
    engine: UpdateEngine,
    update_rng: RngStream,
    /// The interval being served and its report time `T_i`: reports are
    /// built for it, uplink answers stamped with it.
    interval: u64,
    now: SimTime,
    publishes_applied: u64,
}

impl CellServer {
    /// Builds the server half of `strategy` for the cell `config`
    /// describes.
    pub fn new(config: &CellConfig, strategy: Strategy) -> Self {
        let params = config.params;
        let latency = SimDuration::from_secs(params.latency_secs);
        // The update log must cover the largest lookback any strategy
        // performs: w = kL for TS (also the quasi α and the adaptive
        // starting window), one L for AT.
        let retention = latency.scaled((params.k as f64 + 2.0).max(4.0));
        // Cell-independent machinery (database contents, the update
        // process, the SIG subset family) derives from the protocol
        // seed: the cell's own seed when standalone, the shared
        // backbone seed when the cell is a mesh shard — every shard
        // then replicates the same database seeing the same updates,
        // which is what makes a migrated cache entry meaningful.
        let protocol_seed = config.protocol_seed();
        let mut db_rng = protocol_seed.stream(StreamId::Database);
        let db = Database::new(params.n_items, |_| db_rng.next_u64(), retention);
        let history = config
            .check_safety
            .then(|| ValueHistory::new(params.n_items, |i| db.value(i)));
        let driver = ServerDriver::new(strategy, &params, protocol_seed, &db, config.n_clients);
        let mut update_rng = protocol_seed.stream(StreamId::Updates);
        let engine = UpdateEngine::new(params.n_items, params.mu, &mut update_rng);
        CellServer {
            db,
            history,
            driver,
            uplink: UplinkProcessor::with_universe(params.n_items),
            engine,
            update_rng,
            interval: 0,
            now: SimTime::ZERO,
            publishes_applied: 0,
        }
    }

    /// Opens interval `i`, covering `(from, t_i]`: applies the seeded
    /// update arrivals in that window, then the interval's external
    /// `publishes` stamped `t_i`, feeding each record to the driver and
    /// the value history. Returns the applied records in that order.
    /// Every replicated node calls this with the *same* publish
    /// sequence, which is what keeps database, builder and history
    /// identical clusterwide.
    pub fn advance(
        &mut self,
        i: u64,
        from: SimTime,
        t_i: SimTime,
        publishes: &[(ItemId, u64)],
    ) -> Vec<UpdateRecord> {
        (self.interval, self.now) = (i, t_i);
        let mut recs = self
            .engine
            .advance(&mut self.db, from, t_i, &mut self.update_rng);
        self.publishes_applied += publishes.len() as u64;
        recs.extend(
            publishes
                .iter()
                .map(|&(item, value)| self.db.apply_update(item, value, t_i)),
        );
        for rec in &recs {
            self.driver.on_update(rec);
            if let Some(h) = self.history.as_mut() {
                h.record(rec);
            }
        }
        recs
    }

    /// Builds the current interval's report, broadcast at `T_i`.
    pub fn build(&mut self) -> FramePayload {
        self.driver.build(self.interval, self.now, &self.db)
    }

    /// Answers one uplink query from the current database state,
    /// stamped `T_i`, and feeds it to the strategy's server state
    /// (adaptive counts, quasi obligations, stateful registration).
    pub fn answer(
        &mut self,
        mu_id: u64,
        item: ItemId,
        piggyback: Option<&PiggybackInfo>,
    ) -> QueryAnswer {
        let answer = self.uplink.answer(&self.db, item, self.now, piggyback);
        self.driver
            .note_uplink(mu_id, item, self.interval, self.now, piggyback);
        answer
    }

    /// Closes the current interval once its uplink feedback is
    /// complete: the adaptive evaluation-period boundary, *then* the
    /// log prune — a boundary that grows a window widens the retention
    /// first, so the history the wider window reports from is still
    /// there. Returns the period when one closed.
    pub fn close_interval(&mut self) -> Option<AdaptivePeriod> {
        let closed = self
            .driver
            .end_period_if_due(self.interval, &mut self.uplink, &mut self.db);
        self.db.prune_log(self.now);
        closed
    }

    /// The database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The full value history, when the config enabled safety checking.
    pub fn history(&self) -> Option<&ValueHistory> {
        self.history.as_ref()
    }

    /// Moves the value history out, for a post-run staleness audit.
    pub fn take_history(&mut self) -> Option<ValueHistory> {
        self.history.take()
    }

    /// The strategy driver.
    pub fn driver(&self) -> &ServerDriver {
        &self.driver
    }

    /// The strategy driver, for the stateful registry's connect and
    /// disconnect bookkeeping.
    pub fn driver_mut(&mut self) -> &mut ServerDriver {
        &mut self.driver
    }

    /// Updates applied by the seeded update engine.
    pub fn updates_applied(&self) -> u64 {
        self.db.update_count() - self.publishes_applied
    }

    /// External publishes applied.
    pub fn publishes_applied(&self) -> u64 {
        self.publishes_applied
    }

    /// Uplink queries answered.
    pub fn uplink_answers(&self) -> u64 {
        self.uplink.total_uplink_queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::IntervalClock;

    const ITEM: ItemId = 7;

    #[test]
    fn adaptive_period_obeys_the_counter_laws() {
        sw_sim::counters::assert_laws::<AdaptivePeriod>();
    }

    fn listed(payload: &FramePayload) -> Vec<ItemId> {
        match payload {
            FramePayload::AdaptiveTimestampReport { entries, .. } => {
                entries.iter().map(|&(item, _)| item).collect()
            }
            other => panic!("adaptive TS builds adaptive reports, not {other:?}"),
        }
    }

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
            (server.updates_applied(), server.publishes_applied(), server.uplink_answers()),
            (0, 1, 1),
            "the publish is not a seeded update; the one query was answered"
        );
        assert_eq!(reports[0], [ITEM], "report 1 lists the fresh update");
        assert_eq!(reports[4], [ITEM], "the 5-interval window reaches back to T_1");
        assert!(reports[7].is_empty(), "at T_8 the update is outside w = 5L");
        assert_eq!(
            reports[8],
            [ITEM],
            "the window grown at T_8 covers the update again; its log record must have survived"
        );
    }
}
