//! The mobile unit driver.
//!
//! Ties together the sleep process, the query stream, the cache, and the
//! strategy handler, implementing the interval semantics of Figure 2:
//!
//! * the unit "keeps a list of items queried during an interval and
//!   answers them after receiving the next report";
//! * "if two or more queries of the same item are posed in an interval,
//!   they will all be answered at the same time in the next interval" —
//!   so hit/miss accounting is per *query event* (item × interval), the
//!   granularity the paper's hit-ratio analysis uses;
//! * an asleep interval produces no queries and hears no report (the
//!   combined probability `p_0 = s + (1−s)e^{−λL}` of Eq. 5);
//! * a unit that posed queries stays up to hear the closing report and
//!   answer them, then may sleep again (§4's stated simplification).

use sw_capacity::{CapacityStats, GhostFate, ReplacementPolicy};
use sw_server::{ItemId, ItemTable, PiggybackInfo, QueryAnswer};
use sw_sim::{
    counters, BernoulliIntervalProcess, PoissonProcess, RngStream, SimDuration, SimTime,
};
use sw_wireless::FramePayload;

use crate::cache::Cache;
use crate::digest::{DigestScratch, ReportDigest};
use crate::handler::{ProcessOutcome, RuleHandler};

/// Static configuration of one mobile unit.
#[derive(Debug, Clone)]
pub struct MuConfig {
    /// Client id within the cell.
    pub id: u64,
    /// The unit's hotspot: the subset of the database it queries
    /// repeatedly (§2: "The MUs exhibit a large degree of data locality,
    /// repeatedly querying a particular subset of the database").
    pub hotspot: Vec<ItemId>,
    /// Per-item query rate λ (queries/second).
    pub query_rate_per_item: f64,
    /// Per-interval disconnection probability `s`.
    pub sleep_probability: f64,
    /// Optional cache capacity (None = unbounded, the paper's model).
    pub cache_capacity: Option<usize>,
    /// Replacement policy for a bounded cache (ignored when unbounded).
    pub replacement: ReplacementPolicy,
    /// TS window `w = kL` consulted by
    /// [`ReplacementPolicy::WindowAge`]; ignored by the other policies.
    pub replacement_window: SimDuration,
    /// Whether to collect local-hit timestamps for uplink piggybacking
    /// (adaptive Method 1, §8.1).
    pub piggyback_hits: bool,
    /// Size of the item universe, when known: pre-sizes the cache and
    /// hit-history tables as dense vectors (no hashing on the query hot
    /// path). `None` starts them empty; they grow to the largest id
    /// seen.
    pub item_universe: Option<u64>,
}

counters! {
    /// Counters the experiments read out.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct MuStats {
        /// Sum of query answer latencies in seconds (posed → answered at
        /// the next report; §2's guaranteed-latency property of synchronous
        /// methods).
        pub latency_sum_secs: f64,
        /// Largest single query latency observed, in seconds.
        pub latency_max_secs: f64;
        /// Raw queries posed (each arrival counts).
        pub queries_posed,
        /// Query events (item × interval) answered from cache.
        pub hit_events,
        /// Query events that had to go uplink.
        pub miss_events,
        /// Intervals spent awake.
        pub intervals_awake,
        /// Intervals spent asleep.
        pub intervals_asleep,
        /// Whole-cache drops forced by disconnection gaps.
        pub cache_drops,
        /// Individual items invalidated by reports.
        pub items_invalidated,
        /// Reports the unit listened for but never received intact (lost,
        /// corrupted, or missed through clock drift — fault injection).
        pub reports_missed,
        /// Entries evicted to make room (capacity enforcement only — not
        /// invalidations or gap drops). Zero for unbounded caches.
        pub evictions,
        /// Misses on items whose evicted copy was still fresh: the misses
        /// the capacity bound itself caused.
        pub capacity_misses,
        /// Misses on any previously evicted item, fresh or stale.
        pub evicted_then_requeried,
    }
}

impl MuStats {
    /// Measured hit ratio over query events.
    pub fn hit_ratio(&self) -> f64 {
        let events = self.hit_events + self.miss_events;
        if events == 0 {
            0.0
        } else {
            self.hit_events as f64 / events as f64
        }
    }

    /// Total query events.
    pub fn query_events(&self) -> u64 {
        self.hit_events + self.miss_events
    }

    /// The eviction statistics family, as its own record.
    pub fn capacity(&self) -> CapacityStats {
        CapacityStats {
            evictions: self.evictions,
            capacity_misses: self.capacity_misses,
            evicted_then_requeried: self.evicted_then_requeried,
        }
    }
}

/// What one interval did at this unit (for the cell driver's log).
#[derive(Debug, Clone)]
pub struct IntervalReport {
    /// Outcome of report processing.
    pub outcome: ProcessOutcome,
    /// Query events that missed and must go uplink, deduplicated.
    pub uplink_requests: Vec<(ItemId, Option<PiggybackInfo>)>,
}

/// One mobile unit.
pub struct MobileUnit {
    config: MuConfig,
    cache: Cache,
    handler: RuleHandler,
    sleep: BernoulliIntervalProcess,
    queries: PoissonProcess,
    t_l: Option<SimTime>,
    /// The queries waiting for the next report: the items asked, and
    /// (parallel) when each was posed.
    pending: Vec<ItemId>,
    posed_at: Vec<SimTime>,
    awake: bool,
    local_hits: ItemTable<Vec<SimTime>>,
    stats: MuStats,
}

impl std::fmt::Debug for MobileUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileUnit")
            .field("id", &self.config.id)
            .field("strategy", &self.handler.name())
            .field("cache_len", &self.cache.len())
            .field("t_l", &self.t_l)
            .finish_non_exhaustive()
    }
}

impl MobileUnit {
    /// Creates the unit with its strategy handler, drawing the query
    /// process's first arrival from `rng`.
    pub fn new(config: MuConfig, handler: RuleHandler, rng: &mut RngStream) -> Self {
        assert!(!config.hotspot.is_empty(), "hotspot cannot be empty");
        assert!(
            config.query_rate_per_item.is_finite() && config.query_rate_per_item >= 0.0,
            "query rate must be non-negative"
        );
        let total_rate = config.query_rate_per_item * config.hotspot.len() as f64;
        // An unknown universe starts the tables empty; they grow.
        let universe = config.item_universe.unwrap_or(0);
        let mut cache = match config.cache_capacity {
            Some(cap) => Cache::with_capacity_for_universe(cap, universe),
            None => Cache::for_universe(universe),
        };
        cache.set_replacement(config.replacement, config.replacement_window);
        // Hit times are only collected for piggybacking.
        let local_hits = ItemTable::dense(if config.piggyback_hits { universe } else { 0 });
        MobileUnit {
            sleep: BernoulliIntervalProcess::new(config.sleep_probability),
            queries: PoissonProcess::new(total_rate, rng),
            cache,
            handler,
            t_l: None,
            pending: Vec::new(),
            posed_at: Vec::new(),
            awake: true,
            local_hits,
            stats: MuStats::default(),
            config,
        }
    }

    /// Unit id.
    pub fn id(&self) -> u64 {
        self.config.id
    }

    /// Read access to the cache (tests and invariant checks).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MuStats {
        self.stats
    }

    /// Zeroes the statistics (cache and protocol state untouched) —
    /// used to discard warm-up intervals before measuring.
    pub fn reset_stats(&mut self) {
        self.stats = MuStats::default();
    }

    /// Time the unit last heard a report.
    pub fn last_report_heard(&self) -> Option<SimTime> {
        self.t_l
    }

    /// The unit's strategy: its name, which report frames it
    /// [accepts](RuleHandler::accepts) (hearing one it refuses panics),
    /// its signature telemetry.
    pub fn handler(&self) -> &RuleHandler {
        &self.handler
    }

    /// Whether the unit is awake in the current interval.
    pub fn is_awake(&self) -> bool {
        self.awake
    }

    /// Starts interval `(from, to]`: draws the sleep state and, if
    /// awake, generates this interval's query arrivals into the pending
    /// list.
    ///
    /// Unit-level convenience built on [`Self::begin_awake_interval`] /
    /// [`Self::enter_sleep`]; the cell driver schedules wake-ups with a
    /// heap instead and never touches sleeping units.
    pub fn begin_interval(
        &mut self,
        from: SimTime,
        to: SimTime,
        sleep_rng: &mut RngStream,
        query_rng: &mut RngStream,
    ) {
        if self.sleep.draw_asleep(sleep_rng) {
            self.enter_sleep();
            self.credit_asleep_intervals(1);
        } else {
            self.begin_awake_interval(from, to, query_rng);
        }
    }

    /// Starts interval `(from, to]` with the unit known awake: generates
    /// this interval's query arrivals into the pending list. The sleep
    /// decision is the caller's (the cell driver's wake heap).
    pub fn begin_awake_interval(&mut self, from: SimTime, to: SimTime, query_rng: &mut RngStream) {
        self.begin_awake_interval_skewed(from, to, query_rng, None);
    }

    /// [`Self::begin_awake_interval`] with an optional skewed item
    /// pick: when `pick` is `Some`, each arrival's hotspot index comes
    /// from the closure (a Zipf draw over a dedicated RNG stream)
    /// instead of a uniform draw on `query_rng` — so the classic
    /// uniform draw sequence is *not consumed*, and unarmed runs are
    /// untouched. Arrival times keep coming from `query_rng` either
    /// way.
    pub fn begin_awake_interval_skewed(
        &mut self,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        mut pick: Option<&mut dyn FnMut() -> usize>,
    ) {
        self.awake = true;
        self.stats.intervals_awake += 1;
        let posed = self.posed_at.len();
        self.queries
            .arrivals_in(from, to, query_rng, &mut self.posed_at);
        for _ in posed..self.posed_at.len() {
            let idx = match pick.as_deref_mut() {
                Some(pick) => pick(),
                None => query_rng.uniform_index(self.config.hotspot.len() as u64) as usize,
            };
            self.pending.push(self.config.hotspot[idx]);
            self.stats.queries_posed += 1;
        }
    }

    /// Marks the unit asleep. Asleep intervals are credited lazily with
    /// [`Self::credit_asleep_intervals`] when the unit wakes (the cell
    /// driver never iterates sleeping units).
    pub fn enter_sleep(&mut self) {
        self.awake = false;
    }

    /// Draws a whole sleep run from the unit's sleep process (see
    /// [`BernoulliIntervalProcess::draw_sleep_run`]): the number of
    /// consecutive asleep intervals before the next awake one. The cell
    /// driver uses this to schedule the unit's wake-up on a heap.
    pub fn draw_sleep_run(&self, rng: &mut RngStream) -> u64 {
        self.sleep.draw_sleep_run(rng)
    }

    /// Credits `k` intervals spent asleep (lazy settlement of a whole
    /// sleep run at wake-up time).
    pub fn credit_asleep_intervals(&mut self, k: u64) {
        self.stats.intervals_asleep += k;
    }

    /// Hears the report closing the current interval (awake units only)
    /// and answers the pending queries: returns the deduplicated uplink
    /// requests for the misses.
    ///
    /// # Panics
    /// Panics if called while asleep — the cell driver must not deliver
    /// reports to sleeping units.
    pub fn hear_report_and_answer(&mut self, payload: &FramePayload) -> IntervalReport {
        self.hear_digest_and_answer(&DigestScratch::default().digest(payload))
    }

    /// [`Self::hear_report_and_answer`] given the broadcast's shared
    /// digest: a cell digests each report once for all its listeners.
    pub fn hear_digest_and_answer(&mut self, digest: &ReportDigest<'_>) -> IntervalReport {
        assert!(self.awake, "a sleeping unit cannot hear a report");
        let outcome = self
            .handler
            .process_digest(&mut self.cache, digest, self.t_l);
        let t_i = outcome.report_time;
        // Latency accounting: every pending query is answered now.
        for &posed_at in &self.posed_at {
            let lat = t_i.saturating_duration_since(posed_at).as_secs();
            self.stats.latency_sum_secs += lat;
            if lat > self.stats.latency_max_secs {
                self.stats.latency_max_secs = lat;
            }
        }
        self.t_l = Some(t_i);
        if outcome.dropped_all {
            self.stats.cache_drops += 1;
        }
        self.stats.items_invalidated += outcome.invalidated.len() as u64;
        // Note: the piggyback history survives invalidation on purpose —
        // §8.1 defines it as "all the timestamps of requests ... satisfied
        // locally from the time of the previous uplink request", a query
        // history, not a property of the current cache incarnation.

        // Answer Q_i: one event per distinct pending item.
        self.pending.sort_unstable();
        self.pending.dedup();
        let mut uplink = Vec::new();
        for &item in &self.pending {
            if self.cache.get(item).is_some() {
                self.stats.hit_events += 1;
                if self.config.piggyback_hits {
                    self.local_hits
                        .get_or_insert_with(item, Vec::new)
                        .push(t_i);
                }
            } else {
                self.stats.miss_events += 1;
                match self.cache.take_ghost(item) {
                    Some(GhostFate::Fresh) => {
                        self.stats.capacity_misses += 1;
                        self.stats.evicted_then_requeried += 1;
                    }
                    Some(GhostFate::Stale) => self.stats.evicted_then_requeried += 1,
                    None => {}
                }
                let piggyback = if self.config.piggyback_hits {
                    Some(PiggybackInfo {
                        local_hit_times: self.local_hits.remove(item).unwrap_or_default(),
                    })
                } else {
                    None
                };
                uplink.push((item, piggyback));
            }
        }
        self.pending.clear();
        self.posed_at.clear();
        IntervalReport {
            outcome,
            uplink_requests: uplink,
        }
    }

    /// Records that the awake unit listened for the interval-closing
    /// report but never received it intact (lost, corrupted, or missed
    /// through clock drift).
    ///
    /// Crucially, `t_l` does *not* advance and the pending queries are
    /// *not* answered: to this unit the interval looks exactly like a
    /// nap, so the next intact report triggers the strategy's ordinary
    /// gap recovery (AT drops the cache after any missed report, TS
    /// drops iff the silent span exceeds the window `w`, SIG proceeds
    /// modulo collisions). Pending queries wait for that next report,
    /// accruing latency — the §2 latency guarantee is exactly what a
    /// lossy channel breaks.
    ///
    /// # Panics
    /// Panics if called while asleep — a sleeping unit was not
    /// listening in the first place.
    pub fn miss_report(&mut self) {
        assert!(self.awake, "a sleeping unit was not listening for the report");
        self.stats.reports_missed += 1;
    }

    /// Installs the answer to an uplink request: caches the fresh copy
    /// with the request's server timestamp and notifies the strategy
    /// handler (SIG starts tracking the item's subsets immediately).
    pub fn install_answer(&mut self, answer: QueryAnswer) {
        let before = self.cache.evictions();
        self.cache
            .insert(answer.item, answer.value, answer.timestamp);
        self.stats.evictions += self.cache.evictions() - before;
        self.handler.on_fetch(answer.item);
    }

    /// Number of queries waiting for the next report (test hook).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Reassigns the unit's id (mesh handoff: the destination cell
    /// hands the arriving unit a fresh id in its own id space, so
    /// stateful registries and traces never alias it with a resident
    /// or a previous visitor).
    pub fn reassign_id(&mut self, id: u64) {
        self.config.id = id;
    }

    /// Drops the entire cache as part of a conservative handoff (the
    /// mesh detected diverged report histories between the source and
    /// destination cells, so no entry can be trusted). Returns how many
    /// entries were dropped; a non-empty drop counts in
    /// [`MuStats::cache_drops`] exactly like the strategies' own gap
    /// drops.
    pub fn drop_cache_for_handoff(&mut self) -> usize {
        let dropped = self.cache.len();
        if dropped > 0 {
            self.cache.clear();
            self.stats.cache_drops += 1;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_stats_obey_the_counter_laws() {
        sw_sim::counters::assert_laws::<MuStats>();
    }
    use crate::rule::ReportRule;
    use sw_sim::{MasterSeed, SimDuration, StreamId};

    fn at_report(t_i: f64, ids: Vec<u64>) -> FramePayload {
        FramePayload::AmnesicReport {
            report_ts_micros: (t_i * 1e6) as u64,
            ids,
        }
    }

    fn unit(s: f64, lambda: f64) -> (MobileUnit, RngStream, RngStream) {
        unit_with_capacity(s, lambda, None)
    }

    fn unit_with_capacity(
        s: f64,
        lambda: f64,
        cache_capacity: Option<usize>,
    ) -> (MobileUnit, RngStream, RngStream) {
        let cfg = MuConfig {
            id: 0,
            hotspot: (0..10).collect(),
            query_rate_per_item: lambda,
            sleep_probability: s,
            cache_capacity,
            replacement: ReplacementPolicy::Lru,
            replacement_window: SimDuration::ZERO,
            piggyback_hits: true,
            item_universe: None,
        };
        let mut qrng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
        let srng = MasterSeed::TEST.stream(StreamId::Sleep { index: 0 });
        let handler = RuleHandler::new(ReportRule::at(SimDuration::from_secs(10.0)));
        let mu = MobileUnit::new(cfg, handler, &mut qrng);
        (mu, qrng, srng)
    }

    #[test]
    fn awake_unit_generates_queries() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 1.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        assert!(mu.is_awake());
        assert!(mu.pending_len() > 0, "λ·|hotspot|·L = 100 expected arrivals");
    }

    #[test]
    fn asleep_unit_generates_nothing() {
        let (mut mu, mut qrng, mut srng) = unit(1.0, 1.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        assert!(!mu.is_awake());
        assert_eq!(mu.pending_len(), 0);
        assert_eq!(mu.stats().intervals_asleep, 1);
    }

    #[test]
    fn misses_become_uplink_requests_and_hits_after_install() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 1.0);
        // Interval 1: all queries miss (cold cache).
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        assert!(!rep.uplink_requests.is_empty());
        assert_eq!(mu.stats().hit_events, 0);
        let misses = rep.uplink_requests.len() as u64;
        assert_eq!(mu.stats().miss_events, misses);
        // Install answers.
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Interval 2: no updates — queried items that repeat are hits.
        mu.begin_interval(SimTime::from_secs(10.0), SimTime::from_secs(20.0), &mut srng, &mut qrng);
        let _ = mu.hear_report_and_answer(&at_report(20.0, vec![]));
        assert!(mu.stats().hit_events > 0, "repeat queries should hit");
    }

    #[test]
    fn duplicate_queries_in_interval_are_one_event() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 10.0);
        // Very high λ: many arrivals, only ≤10 distinct hotspot items.
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        assert!(mu.pending_len() > 100);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        assert!(rep.uplink_requests.len() <= 10);
        assert_eq!(mu.stats().query_events(), rep.uplink_requests.len() as u64);
    }

    #[test]
    fn invalidated_item_misses_next_time() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 5.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Interval 2: the report invalidates item 3.
        mu.begin_interval(SimTime::from_secs(10.0), SimTime::from_secs(20.0), &mut srng, &mut qrng);
        let rep2 = mu.hear_report_and_answer(&at_report(20.0, vec![3]));
        // If item 3 was queried this interval it must be among the misses.
        let missed: Vec<ItemId> = rep2.uplink_requests.iter().map(|(i, _)| *i).collect();
        assert!(!mu.cache().contains(3));
        if mu.stats().queries_posed > 0 && missed.contains(&3) {
            assert!(missed.contains(&3));
        }
    }

    #[test]
    fn piggyback_carries_local_hit_history() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 5.0);
        // Warm the cache.
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Several hit intervals.
        for i in 2..6u64 {
            let t0 = (i - 1) as f64 * 10.0;
            mu.begin_interval(
                SimTime::from_secs(t0),
                SimTime::from_secs(t0 + 10.0),
                &mut srng,
                &mut qrng,
            );
            let _ = mu.hear_report_and_answer(&at_report(t0 + 10.0, vec![]));
        }
        assert!(mu.stats().hit_events > 0);
        // Now invalidate everything; the next miss must carry history.
        let all: Vec<ItemId> = (0..10).collect();
        mu.begin_interval(SimTime::from_secs(50.0), SimTime::from_secs(60.0), &mut srng, &mut qrng);
        let rep = mu.hear_report_and_answer(&at_report(60.0, all));
        let with_history = rep
            .uplink_requests
            .iter()
            .filter(|(_, pb)| pb.as_ref().is_some_and(|p| !p.local_hit_times.is_empty()))
            .count();
        assert!(
            with_history > 0,
            "at least one uplink request should piggyback hit history"
        );
    }

    #[test]
    fn gap_drop_counts_once() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 1.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Simulate a missed report: next heard report is at 30 (gap 20 > L).
        mu.begin_interval(SimTime::from_secs(20.0), SimTime::from_secs(30.0), &mut srng, &mut qrng);
        let _ = mu.hear_report_and_answer(&at_report(30.0, vec![]));
        assert_eq!(mu.stats().cache_drops, 1);
        assert!(mu.cache().is_empty());
    }

    #[test]
    fn missed_report_defers_answers_and_triggers_gap_recovery() {
        let (mut mu, mut qrng, mut srng) = unit(0.0, 1.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Interval 2: the report is lost in flight.
        mu.begin_interval(SimTime::from_secs(10.0), SimTime::from_secs(20.0), &mut srng, &mut qrng);
        let pending_before = mu.pending_len();
        assert!(pending_before > 0);
        mu.miss_report();
        assert_eq!(mu.stats().reports_missed, 1);
        // Queries stay queued; t_l still points at the last heard report.
        assert_eq!(mu.pending_len(), pending_before);
        assert_eq!(mu.last_report_heard(), Some(SimTime::from_secs(10.0)));
        assert_eq!(mu.stats().query_events(), rep.uplink_requests.len() as u64);
        // Interval 3: the next intact report closes a 20 s gap > L = 10 s,
        // so the AT handler drops the whole cache — the paper's recovery.
        mu.begin_interval(SimTime::from_secs(20.0), SimTime::from_secs(30.0), &mut srng, &mut qrng);
        let rep3 = mu.hear_report_and_answer(&at_report(30.0, vec![]));
        assert_eq!(mu.stats().cache_drops, 1);
        assert!(mu.cache().is_empty());
        assert!(!rep3.uplink_requests.is_empty(), "deferred queries answered now");
    }

    #[test]
    fn bounded_unit_accounts_evictions_and_capacity_misses() {
        // Capacity 3 under a 10-item hotspot at high λ: every interval
        // queries most of the hotspot, so insertion churn must evict
        // and later requeries must find fresh ghosts (no invalidations
        // arrive — the reports are empty).
        let (mut mu, mut qrng, mut srng) = unit_with_capacity(0.0, 5.0, Some(3));
        for i in 0..6u64 {
            let t0 = i as f64 * 10.0;
            mu.begin_interval(
                SimTime::from_secs(t0),
                SimTime::from_secs(t0 + 10.0),
                &mut srng,
                &mut qrng,
            );
            let rep = mu.hear_report_and_answer(&at_report(t0 + 10.0, vec![]));
            for (item, _) in &rep.uplink_requests {
                mu.install_answer(QueryAnswer {
                    item: *item,
                    value: 1,
                    timestamp: SimTime::from_secs(t0 + 10.5),
                });
            }
        }
        let s = mu.stats();
        assert!(s.evictions > 0, "capacity 3 must evict under churn");
        assert!(
            s.capacity_misses > 0,
            "requeried fresh ghosts must be classified as capacity misses"
        );
        assert_eq!(
            s.capacity_misses, s.evicted_then_requeried,
            "no report invalidated anything, so every requeried ghost is fresh"
        );
        assert!(mu.cache().len() <= 3);
    }

    #[test]
    fn skewed_picks_bypass_the_uniform_draw() {
        let (mut mu, mut qrng, _) = unit(0.0, 1.0);
        let mut always_zero = || 0usize;
        mu.begin_awake_interval_skewed(
            SimTime::ZERO,
            SimTime::from_secs(10.0),
            &mut qrng,
            Some(&mut always_zero),
        );
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        assert_eq!(
            rep.uplink_requests.len(),
            1,
            "a constant pick can only ever miss one distinct item"
        );
        assert_eq!(rep.uplink_requests[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "was not listening")]
    fn sleeping_unit_cannot_miss_a_report() {
        let (mut mu, mut qrng, mut srng) = unit(1.0, 1.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        mu.miss_report();
    }

    #[test]
    #[should_panic(expected = "sleeping unit cannot hear")]
    fn sleeping_unit_rejects_report() {
        let (mut mu, mut qrng, mut srng) = unit(1.0, 1.0);
        mu.begin_interval(SimTime::ZERO, SimTime::from_secs(10.0), &mut srng, &mut qrng);
        let _ = mu.hear_report_and_answer(&at_report(10.0, vec![]));
    }
}
