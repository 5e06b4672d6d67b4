//! The mobile unit driver.
//!
//! Ties together a [`UnitState`] (stats, `T_l`, the sleep process, the
//! query stream), the cache, the pending list and the strategy handler,
//! implementing the interval semantics of Figure 2. The steps themselves
//! are `UnitState`'s, shared with the columnar fleet; what this driver
//! adds is where a boxed unit keeps its cache and its pending queries:
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

use sw_server::{ItemId, ItemTable, PiggybackInfo, QueryAnswer};
use sw_sim::{counters, RngStream, SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::cache::{Cache, CapacityStats, ReplacementPolicy};
use crate::digest::{DigestScratch, ReportDigest};
use crate::handler::{ProcessOutcome, RuleHandler};
use crate::unit::UnitState;

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

/// One mobile unit: a cache, a strategy handler, the pending list `Q_i`
/// and a [`UnitState`] for the rest of its interval bookkeeping.
pub struct MobileUnit {
    config: MuConfig,
    cache: Cache,
    handler: RuleHandler,
    state: UnitState,
    /// The items asked since the last heard report.
    pending: Vec<ItemId>,
    local_hits: ItemTable<Vec<SimTime>>,
}

impl std::fmt::Debug for MobileUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileUnit")
            .field("id", &self.config.id)
            .field("strategy", &self.handler.name())
            .field("cache_len", &self.cache.len())
            .field("t_l", &self.state.last_report_heard())
            .finish_non_exhaustive()
    }
}

impl MobileUnit {
    /// Creates the unit with its strategy handler. Draws nothing: each
    /// interval's queries are drawn when it opens, so `_query_rng` (the
    /// stream those draws will come from) is left as it was.
    pub fn new(config: MuConfig, handler: RuleHandler, _query_rng: &mut RngStream) -> Self {
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
            state: UnitState::new(total_rate, config.sleep_probability),
            cache,
            handler,
            pending: Vec::new(),
            local_hits,
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
        self.state.stats()
    }

    /// Zeroes the statistics (cache and protocol state untouched) —
    /// used to discard warm-up intervals before measuring.
    pub fn reset_stats(&mut self) {
        self.state.reset_stats();
    }

    /// The unit's interval bookkeeping: `T_l`, the awake flag, the
    /// stats.
    pub fn state(&self) -> &UnitState {
        &self.state
    }

    /// The same, for a driver that keeps the unit's streams itself and
    /// credits, draws and misses through it (`sleepers`' `ClientSeat`).
    pub fn state_mut(&mut self) -> &mut UnitState {
        &mut self.state
    }

    /// The unit's strategy: its name, which report frames it
    /// [accepts](RuleHandler::accepts) (hearing one it refuses panics),
    /// its signature telemetry.
    pub fn handler(&self) -> &RuleHandler {
        &self.handler
    }

    /// Starts interval `(from, to]` with the unit known awake: draws
    /// this interval's queries into the pending list
    /// ([`UnitState::pose`]). The sleep
    /// decision is the caller's (the cell driver's wake heap).
    pub fn begin_awake_interval(&mut self, from: SimTime, to: SimTime, query_rng: &mut RngStream) {
        self.begin_awake_interval_skewed(from, to, query_rng, None);
    }

    /// [`Self::begin_awake_interval`] with an optional skewed item
    /// pick: when `pick` is `Some`, each query's hotspot index comes
    /// from the closure (a Zipf draw over a dedicated RNG stream)
    /// instead of a uniform draw on `query_rng` — so the classic
    /// uniform draw sequence is *not consumed*, and unarmed runs are
    /// untouched. The query count and pose times keep coming from
    /// `query_rng` either way.
    pub fn begin_awake_interval_skewed(
        &mut self,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        pick: Option<&mut dyn FnMut() -> usize>,
    ) {
        let (hotspot, pending) = (&self.config.hotspot, &mut self.pending);
        self.state
            .pose(from, to, query_rng, hotspot.len(), pick, |j| {
                pending.push(hotspot[j])
            });
    }

    /// Marks the unit asleep. Asleep intervals are credited lazily with
    /// [`Self::credit_asleep_intervals`] when the unit wakes (the cell
    /// driver never iterates sleeping units).
    pub fn enter_sleep(&mut self) {
        self.state.enter_sleep();
    }

    /// Draws a whole sleep run from the unit's sleep process (see
    /// [`UnitState::draw_sleep_run`]): the number of consecutive asleep
    /// intervals before the next awake one. The cell driver uses this
    /// to schedule the unit's wake-up on a heap.
    pub fn draw_sleep_run(&self, rng: &mut RngStream) -> u64 {
        self.state.draw_sleep_run(rng)
    }

    /// Credits `k` intervals spent asleep (lazy settlement of a whole
    /// sleep run at wake-up time).
    pub fn credit_asleep_intervals(&mut self, k: u64) {
        self.state.credit_asleep_intervals(k);
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
        let t_l = self.state.hearing();
        let outcome = self.handler.process_digest(&mut self.cache, digest, t_l);
        let t_i = outcome.report_time;
        self.state
            .settle(t_i, outcome.dropped_all, outcome.invalidated.len());
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
                self.state.hit();
                if self.config.piggyback_hits {
                    self.local_hits
                        .get_or_insert_with(item, Vec::new)
                        .push(t_i);
                }
            } else {
                self.state.miss(self.cache.take_ghost(item));
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
        IntervalReport {
            outcome,
            uplink_requests: uplink,
        }
    }

    /// Installs the answer to an uplink request: caches the fresh copy
    /// with the request's server timestamp and notifies the strategy
    /// handler (SIG starts tracking the item's subsets immediately).
    pub fn install_answer(&mut self, answer: QueryAnswer) {
        let before = self.cache.evictions();
        self.cache
            .insert(answer.item, answer.value, answer.timestamp);
        self.state.note_evictions(self.cache.evictions() - before);
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
            self.state.note_cache_drop();
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

    /// Opens the awake interval `(t0, t0 + 10]`.
    fn open(mu: &mut MobileUnit, qrng: &mut RngStream, t0: f64) {
        let (from, to) = (SimTime::from_secs(t0), SimTime::from_secs(t0 + 10.0));
        mu.begin_awake_interval(from, to, qrng);
    }

    #[test]
    fn awake_unit_generates_queries() {
        let (mut mu, mut qrng, _) = unit(0.0, 1.0);
        open(&mut mu, &mut qrng, 0.0);
        assert!(mu.state().is_awake());
        assert!(mu.pending_len() > 0, "λ·|hotspot|·L = 100 expected arrivals");
    }

    #[test]
    fn asleep_unit_generates_nothing() {
        let (mut mu, _, mut srng) = unit(1.0, 1.0);
        assert_eq!(mu.draw_sleep_run(&mut srng), u64::MAX, "s = 1 never wakes");
        mu.enter_sleep();
        mu.credit_asleep_intervals(1);
        assert!(!mu.state().is_awake());
        assert_eq!(mu.pending_len(), 0);
        assert_eq!(mu.stats().intervals_asleep, 1);
    }

    #[test]
    fn misses_become_uplink_requests_and_hits_after_install() {
        let (mut mu, mut qrng, _) = unit(0.0, 1.0);
        // Interval 1: all queries miss (cold cache).
        open(&mut mu, &mut qrng, 0.0);
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
        open(&mut mu, &mut qrng, 10.0);
        let _ = mu.hear_report_and_answer(&at_report(20.0, vec![]));
        assert!(mu.stats().hit_events > 0, "repeat queries should hit");
    }

    #[test]
    fn duplicate_queries_in_interval_are_one_event() {
        let (mut mu, mut qrng, _) = unit(0.0, 10.0);
        // Very high λ: many arrivals, only ≤10 distinct hotspot items.
        open(&mut mu, &mut qrng, 0.0);
        assert!(mu.pending_len() > 100);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        assert!(rep.uplink_requests.len() <= 10);
        assert_eq!(mu.stats().query_events(), rep.uplink_requests.len() as u64);
    }

    #[test]
    fn invalidated_item_misses_next_time() {
        let (mut mu, mut qrng, _) = unit(0.0, 5.0);
        open(&mut mu, &mut qrng, 0.0);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Interval 2: the report invalidates item 3.
        open(&mut mu, &mut qrng, 10.0);
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
        let (mut mu, mut qrng, _) = unit(0.0, 5.0);
        // Warm the cache.
        open(&mut mu, &mut qrng, 0.0);
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
            open(&mut mu, &mut qrng, t0);
            let _ = mu.hear_report_and_answer(&at_report(t0 + 10.0, vec![]));
        }
        assert!(mu.stats().hit_events > 0);
        // Now invalidate everything; the next miss must carry history.
        let all: Vec<ItemId> = (0..10).collect();
        open(&mut mu, &mut qrng, 50.0);
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
        let (mut mu, mut qrng, _) = unit(0.0, 1.0);
        open(&mut mu, &mut qrng, 0.0);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Simulate a missed report: next heard report is at 30 (gap 20 > L).
        open(&mut mu, &mut qrng, 20.0);
        let _ = mu.hear_report_and_answer(&at_report(30.0, vec![]));
        assert_eq!(mu.stats().cache_drops, 1);
        assert!(mu.cache().is_empty());
    }

    #[test]
    fn missed_report_defers_answers_and_triggers_gap_recovery() {
        let (mut mu, mut qrng, _) = unit(0.0, 1.0);
        open(&mut mu, &mut qrng, 0.0);
        let rep = mu.hear_report_and_answer(&at_report(10.0, vec![]));
        for (item, _) in &rep.uplink_requests {
            mu.install_answer(QueryAnswer {
                item: *item,
                value: 1,
                timestamp: SimTime::from_secs(10.5),
            });
        }
        // Interval 2: the report is lost in flight.
        open(&mut mu, &mut qrng, 10.0);
        let pending_before = mu.pending_len();
        assert!(pending_before > 0);
        mu.state_mut().miss_report();
        assert_eq!(mu.stats().reports_missed, 1);
        // Queries stay queued; t_l still points at the last heard report.
        assert_eq!(mu.pending_len(), pending_before);
        assert_eq!(mu.state().last_report_heard(), Some(SimTime::from_secs(10.0)));
        assert_eq!(mu.stats().query_events(), rep.uplink_requests.len() as u64);
        // Interval 3: the next intact report closes a 20 s gap > L = 10 s,
        // so the AT handler drops the whole cache — the paper's recovery.
        open(&mut mu, &mut qrng, 20.0);
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
        let (mut mu, mut qrng, _) = unit_with_capacity(0.0, 5.0, Some(3));
        for i in 0..6u64 {
            let t0 = i as f64 * 10.0;
            open(&mut mu, &mut qrng, t0);
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
        let (mut mu, _, mut srng) = unit(1.0, 1.0);
        let run = mu.draw_sleep_run(&mut srng);
        assert!(run > 0);
        mu.enter_sleep();
        mu.state_mut().miss_report();
    }

    #[test]
    #[should_panic(expected = "sleeping unit cannot hear")]
    fn sleeping_unit_rejects_report() {
        let (mut mu, _, mut srng) = unit(1.0, 1.0);
        let run = mu.draw_sleep_run(&mut srng);
        assert!(run > 0);
        mu.enter_sleep();
        let _ = mu.hear_report_and_answer(&at_report(10.0, vec![]));
    }
}
