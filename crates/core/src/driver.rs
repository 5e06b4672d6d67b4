//! The server half of Figure 2, shared by the simulator and the live
//! daemon.
//!
//! [`ServerDriver`] is every strategy's server algorithm, one arm per
//! kind of report and one `match` per phase (construct, ingest an
//! update, build the report, note an uplink answer, close an evaluation
//! period):
//!
//! * the *window* arm — TS, AT, NC, GR and QD. §3's history-based
//!   reports: the items the update log holds for `(T_i − w, T_i]`, with
//!   `w = kL` (TS, each entry stamped `t_j`), `w = L` (AT ids, GR group
//!   ids) or `w = αL` (QD, thinned to the *due* obligations); NC's
//!   window is empty;
//! * the *signatures* arm — SIG, and HYB = SIG over the items outside a
//!   hot set plus the hot ids of the `w = L` window. §3.3's state-based
//!   report: a [`SignatureVector`] XOR-patched per update;
//! * the *adaptive* arm — §8's per-item windows: the window walk at the
//!   widest window, filtered per item, plus the controller that adjusts
//!   the windows from per-period feedback;
//! * the *stateful* arm — §2's baseline, a per-client registry for
//!   directed invalidations.
//!
//! Every history-based report is one walk of the update log.
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
//! The live daemon can host every arm except the stateful baseline
//! (directed messages need per-client connections the broadcast wire
//! does not model) and adaptive Method 1 (its MHR estimate needs
//! piggybacked local-hit times, which the live uplink frame does not
//! carry).

use sw_server::{
    Database, GroupMap, HotSet, ItemId, ItemTable, PiggybackInfo, QueryAnswer, SignatureVector,
    StatefulServer, UpdateEngine, UpdateRecord, UplinkProcessor,
};
use sw_sim::{counters, MasterSeed, RngStream, SimDuration, SimTime, StreamId};
use sw_wireless::FramePayload;
use sw_workload::ScenarioParams;

use crate::adaptive::{AdaptiveController, FeedbackMethod, PeriodItemStats, WindowTable};
use crate::config::CellConfig;
use crate::quasi::ObligationTracker;
use crate::safety::ValueHistory;
use crate::strategy::{group_map, hot_set, sig_decoder, Strategy};

/// What each entry of a window report carries.
enum Carry {
    /// TS: `(j, t_j)`, the item's latest update in the window.
    Stamps,
    /// AT (and NC, whose window is empty): the id.
    Ids,
    /// GR: the id's group, each group once.
    Groups(GroupMap),
    /// QD: `(j, t_j)` for the items whose oldest outstanding copy
    /// reaches its allowed lag this interval (§7's obligation lists).
    Due(ObligationTracker),
}

/// One strategy's server algorithm. See the module docs.
// One Arm exists per driver; the variant size spread is irrelevant
// next to the database it sits beside.
#[allow(clippy::large_enum_variant)]
enum Arm {
    /// TS, AT, NC, GR, QD: what the update log holds for the window.
    Window { window: SimDuration, carry: Carry },
    /// SIG, and HYB, whose report also lists the hot items updated in
    /// `hot_window` (`L`) by id.
    Signatures {
        sigs: SignatureVector,
        hot_window: Option<SimDuration>,
    },
    /// Adaptive TS (§8).
    Adaptive {
        latency: SimDuration,
        windows: WindowTable,
        controller: AdaptiveController,
        eval_period: u32,
        method: FeedbackMethod,
        /// Report mentions per item this period (`Report(i, new)`).
        mentions: ItemTable<u32>,
        /// Per-item query timestamps this period (uplink + piggybacked).
        query_times: ItemTable<Vec<SimTime>>,
        /// Per-item update timestamps this period (Method 1 only, whose
        /// MHR estimate is their one reader).
        update_times: ItemTable<Vec<SimTime>>,
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

/// The update log's view of `(T_i − w, T_i]`, clamped at the origin:
/// each item updated in the window once, ascending, with its latest
/// update time.
fn walk(db: &Database, t_i: SimTime, window: SimDuration) -> Vec<(ItemId, SimTime)> {
    let from = SimTime::from_secs((t_i.as_secs() - window.as_secs()).max(0.0));
    db.updated_in_window(from, t_i)
}

/// The widest window in the adaptive table, in intervals.
fn widest(default_k: u32, exceptions: &[(ItemId, u32)]) -> u32 {
    exceptions.iter().map(|&(_, k)| k).fold(default_k, u32::max)
}

/// One strategy's complete server half. See the module docs.
pub struct ServerDriver {
    arm: Arm,
}

impl ServerDriver {
    /// Builds the server half of `strategy`. `protocol_seed` and `db`
    /// seed the SIG/HYB signatures; `n_clients` seeds the stateful
    /// baseline's registry (every unit starts connected).
    pub fn new(
        strategy: Strategy,
        params: &ScenarioParams,
        protocol_seed: MasterSeed,
        db: &Database,
        n_clients: usize,
    ) -> Self {
        let latency = SimDuration::from_secs(params.latency_secs);
        let window = |intervals: u64, carry| Arm::Window {
            window: latency.scaled(intervals as f64),
            carry,
        };
        let signatures =
            |hot: HotSet| SignatureVector::new(sig_decoder(params, protocol_seed), hot, db);
        let arm = match strategy {
            Strategy::BroadcastTimestamps => window(params.k as u64, Carry::Stamps),
            Strategy::AmnesicTerminals => window(1, Carry::Ids),
            // No report: an empty window lists nothing, zero bits.
            Strategy::NoCache => window(0, Carry::Ids),
            Strategy::GroupReports { groups } => {
                window(1, Carry::Groups(group_map(groups, params)))
            }
            Strategy::QuasiDelay { alpha_intervals } => window(
                alpha_intervals,
                Carry::Due(ObligationTracker::for_universe(
                    alpha_intervals,
                    params.n_items,
                )),
            ),
            Strategy::Signatures => Arm::Signatures {
                sigs: signatures(HotSet::default()),
                hot_window: None,
            },
            Strategy::HybridSig { hot_count } => Arm::Signatures {
                sigs: signatures(hot_set(hot_count, params)),
                hot_window: Some(latency),
            },
            Strategy::AdaptiveTs {
                method,
                eval_period,
                step,
            } => Arm::Adaptive {
                latency,
                windows: WindowTable::new(params.k),
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
                mentions: ItemTable::dense(params.n_items),
                query_times: ItemTable::dense(params.n_items),
                update_times: ItemTable::dense(params.n_items),
            },
            Strategy::Stateful => {
                let mut registry = StatefulServer::with_universe(params.n_items);
                for idx in 0..n_clients as u64 {
                    registry.connect(idx);
                }
                Arm::Stateful {
                    registry,
                    pending_ids: Vec::new(),
                }
            }
        };
        ServerDriver { arm }
    }

    /// Whether this driver runs the stateful baseline (directed
    /// messages instead of a broadcast report).
    pub fn is_stateful(&self) -> bool {
        matches!(self.arm, Arm::Stateful { .. })
    }

    /// The stateful baseline's registry, for connect/disconnect and
    /// directed-recipient bookkeeping. `None` for every other arm.
    pub fn registry_mut(&mut self) -> Option<&mut StatefulServer> {
        match &mut self.arm {
            Arm::Stateful { registry, .. } => Some(registry),
            _ => None,
        }
    }

    /// Current per-item adaptive window (adaptive strategy only).
    pub fn adaptive_window(&self, item: ItemId) -> Option<u32> {
        match &self.arm {
            Arm::Adaptive { windows, .. } => Some(windows.get(item)),
            _ => None,
        }
    }

    /// Ingests one applied update.
    pub fn on_update(&mut self, rec: &UpdateRecord) {
        match &mut self.arm {
            Arm::Signatures { sigs, .. } => sigs.patch(rec),
            Arm::Adaptive {
                update_times,
                method: FeedbackMethod::Method1,
                ..
            } => update_times
                .get_or_insert_with(rec.item, Vec::new)
                .push(rec.at),
            // The update log is the whole state of the window arm and of
            // adaptive Method 2.
            Arm::Window { .. } | Arm::Adaptive { .. } => {}
            // Stateful invalidations are charged by the caller, which
            // owns the channel; here we only remember the ids for the
            // client-side framing.
            Arm::Stateful { pending_ids, .. } => pending_ids.push(rec.item),
        }
    }

    /// Builds interval `i`'s report payload, broadcast at `t_i`.
    pub fn build(&mut self, i: u64, t_i: SimTime, db: &Database) -> FramePayload {
        let report_ts_micros = t_i.as_micros();
        let ids = |window| walk(db, t_i, window).into_iter().map(|(item, _)| item);
        match &mut self.arm {
            Arm::Window {
                window,
                carry: Carry::Stamps,
            } => FramePayload::TimestampReport {
                report_ts_micros,
                entries: walk(db, t_i, *window)
                    .into_iter()
                    .map(|(item, at)| (item, at.as_micros()))
                    .collect(),
            },
            Arm::Window {
                window,
                carry: Carry::Ids,
            } => FramePayload::AmnesicReport {
                report_ts_micros,
                ids: ids(*window).collect(),
            },
            Arm::Window {
                window,
                carry: Carry::Groups(map),
            } => {
                // Group ids ride an AmnesicReport frame, which the wire
                // charges ⌈log₂ n⌉ bits per id where a group id needs
                // only ⌈log₂ G⌉: the over-charge is conservative against
                // the strategy, so the ablation's measured savings are a
                // lower bound. Ascending items map to ascending groups.
                let mut groups: Vec<u64> = ids(*window).map(|item| map.group_of(item)).collect();
                groups.dedup();
                FramePayload::AmnesicReport {
                    report_ts_micros,
                    ids: groups,
                }
            }
            Arm::Window {
                window,
                carry: Carry::Due(tracker),
            } => {
                // §7: an item "can be considered for reporting" only
                // when an outstanding copy reaches its allowed lag.
                // Reported: those copies will be dropped and re-fetched
                // (fresh obligations arrive via the uplink path).
                let mut entries = Vec::new();
                for (item, at) in walk(db, t_i, *window) {
                    if tracker.due(item, i) {
                        entries.push((item, at.as_micros()));
                        tracker.consume(item, i, false);
                    }
                }
                // Due items that did NOT change within α are implicitly
                // re-validated by their absence; their obligation clock
                // restarts.
                for item in 0..db.len() {
                    if tracker.due(item, i) {
                        tracker.consume(item, i, true);
                    }
                }
                FramePayload::TimestampReport {
                    report_ts_micros,
                    entries,
                }
            }
            Arm::Signatures {
                sigs,
                hot_window: None,
            } => FramePayload::SignatureReport {
                report_ts_micros,
                sig_bits: sigs.sig_bits(),
                signatures: sigs.snapshot(),
            },
            Arm::Signatures {
                sigs,
                hot_window: Some(window),
            } => FramePayload::HybridReport {
                report_ts_micros,
                hot_ids: ids(*window)
                    .filter(|&item| sigs.hot().contains(item))
                    .collect(),
                sig_bits: sigs.sig_bits(),
                signatures: sigs.snapshot(),
            },
            Arm::Adaptive {
                latency,
                windows,
                mentions,
                ..
            } => {
                // One walk at the widest window bounds the work by recent
                // update volume; each candidate is then held to its own
                // window `w_j`. A zero window starts at `T_i` itself, so
                // its item is never listed (§8: "the item should not be
                // included in the report").
                let window_exceptions = windows.exceptions();
                let widest = widest(windows.default_k(), &window_exceptions);
                let candidates = walk(db, t_i, latency.scaled(widest as f64));
                let mut entries = Vec::with_capacity(candidates.len());
                for (item, at) in candidates {
                    let w_j = windows.get(item) as f64 * latency.as_secs();
                    if at.as_secs() > t_i.as_secs() - w_j {
                        entries.push((item, at.as_micros()));
                        *mentions.get_or_insert_with(item, || 0) += 1;
                    }
                }
                // The exception list rides every report, so clients
                // always apply the windows the server used.
                FramePayload::AdaptiveTimestampReport {
                    report_ts_micros,
                    entries,
                    window_exceptions,
                }
            }
            Arm::Stateful { pending_ids, .. } => {
                let mut ids = std::mem::take(pending_ids);
                ids.sort_unstable();
                ids.dedup();
                FramePayload::AmnesicReport {
                    report_ts_micros,
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
        match &mut self.arm {
            Arm::Adaptive {
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
            Arm::Window {
                carry: Carry::Due(tracker),
                ..
            } => tracker.on_uplink(item, i),
            // Registration rides the uplink query for free.
            Arm::Stateful { registry, .. } => registry.register_cache(mu_id, item),
            _ => {}
        }
    }

    /// Runs the adaptive evaluation-period boundary when interval `i`
    /// closes a period: drains the mention counts and the uplink
    /// processor's per-item stats, feeds the window controller, and
    /// widens the database's update-log retention to cover the largest
    /// granted window. Returns the closed period (for observation),
    /// `None` when none closed.
    /// Private: [`CellServer::close_interval`] is the one caller, so the
    /// boundary cannot be sequenced against the log prune a second way.
    fn end_period_if_due(
        &mut self,
        i: u64,
        uplink: &mut UplinkProcessor,
        db: &mut Database,
    ) -> Option<AdaptivePeriod> {
        let Arm::Adaptive {
            latency,
            windows,
            controller,
            eval_period,
            method,
            mentions,
            query_times,
            update_times,
        } = &mut self.arm
        else {
            return None;
        };
        if !i.is_multiple_of(*eval_period as u64) {
            return None;
        }
        let mentions = mentions.take();
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
                        Some(crate::adaptive::estimate_mhr(queries, updates))
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
        controller.end_period(windows, stats);
        query_times.clear();
        update_times.clear();
        // Growing windows need deeper update history.
        let exceptions = windows.exceptions();
        let widest = widest(windows.default_k(), &exceptions);
        db.widen_log_retention(latency.scaled(widest as f64 + 2.0));
        Some(AdaptivePeriod {
            default_k: windows.default_k() as u64,
            exceptions: exceptions.len() as u64,
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
mod tests;
