//! The mobile unit: one row of the slot store.
//!
//! A [`MobileUnit`] is a [`SlotStore`] with a single row, plus its id:
//! its cache, its pending set `Q_i` and its [`UnitState`] are that row,
//! and hearing a report or installing an answer runs the store's one
//! per-client path, the very code the cell's columnar fleet runs for
//! each of its rows. What this type adds is the boxed unit's interface,
//! for a driver that keeps the unit's streams itself (the boxed layout
//! of `sleepers`' fleet, and hand-built harnesses), which implements
//! the interval semantics of Figure 2:
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

use sw_server::{ItemId, PiggybackInfo, QueryAnswer};
use sw_sim::{counters, RngStream, SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::cache::{CacheView, CapacityStats, ReplacementPolicy};
use crate::digest::{DigestScratch, ReportDigest};
use crate::rule::ReportRule;
use crate::store::{CapacitySpec, Heard, SlotStore, SweepLists};
use crate::unit::UnitState;

/// Static configuration of one mobile unit.
#[derive(Debug, Clone)]
pub struct MuConfig {
    /// Client id within the cell.
    pub id: u64,
    /// The unit's hotspot: the subset of the database it queries
    /// repeatedly (§2: "The MUs exhibit a large degree of data locality,
    /// repeatedly querying a particular subset of the database"). Its
    /// ids must be distinct: each owns one slot of the cache.
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
    /// Size of the item universe, when known: every hotspot id must be
    /// below it. The cache is sized by the hotspot, never by this.
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

/// What processing one report did to the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOutcome {
    /// The report timestamp `T_i`.
    pub report_time: SimTime,
    /// True if the whole cache was dropped (disconnection gap exceeded
    /// the strategy's tolerance).
    pub dropped_all: bool,
    /// Items individually invalidated by this report, ascending by item
    /// id for *any* payload — sorted, unsorted or with duplicated ids.
    /// HYB alone has two runs: ascending within the hot pass, then
    /// ascending within the cold pass.
    pub invalidated: Vec<ItemId>,
}

/// What one interval did at this unit, as its own lists.
#[derive(Debug, Clone)]
pub struct IntervalReport {
    /// Outcome of report processing.
    pub outcome: ProcessOutcome,
    /// Query events that missed and must go uplink, deduplicated,
    /// ascending, each with its piggybacked hit history when the unit
    /// collects one.
    pub uplink_requests: Vec<(ItemId, Option<PiggybackInfo>)>,
}

/// One mobile unit: a one-row [`SlotStore`] and its id.
pub struct MobileUnit {
    id: u64,
    store: SlotStore,
}

impl std::fmt::Debug for MobileUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileUnit")
            .field("id", &self.id)
            .field("strategy", &self.rule().name())
            .field("cache_len", &self.cache().len())
            .field("t_l", &self.state().last_report_heard())
            .finish_non_exhaustive()
    }
}

impl MobileUnit {
    /// Creates the unit, applying `rule` to every report it hears. Draws
    /// nothing: each interval's queries are drawn when it opens, so
    /// `_query_rng` (the stream those draws will come from) is left as
    /// it was.
    ///
    /// # Panics
    /// Panics if the hotspot is empty or names an item twice, if a
    /// hotspot id is not below a known `item_universe`, or if the query
    /// rate is negative.
    pub fn new(config: MuConfig, rule: ReportRule, _query_rng: &mut RngStream) -> Self {
        assert!(
            config.query_rate_per_item.is_finite() && config.query_rate_per_item >= 0.0,
            "query rate must be non-negative"
        );
        if let Some(universe) = config.item_universe {
            if let Some(&item) = config.hotspot.iter().find(|&&item| item >= universe) {
                panic!("hotspot item {item} is outside the item universe of {universe}");
            }
        }
        let capacity = config.cache_capacity.map(|cap| CapacitySpec {
            cap,
            policy: config.replacement,
            window: config.replacement_window,
        });
        let h = config.hotspot.len();
        let mut store = SlotStore::new(h, 1, rule, capacity, config.piggyback_hits);
        store.push_row(
            &config.hotspot,
            config.query_rate_per_item,
            config.sleep_probability,
        );
        MobileUnit {
            id: config.id,
            store,
        }
    }

    /// Unit id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Read access to the cache (the query plane, audits and tests).
    #[inline]
    pub fn cache(&self) -> CacheView<'_> {
        self.store.cache(0)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MuStats {
        self.state().stats()
    }

    /// Zeroes the statistics (cache and protocol state untouched) —
    /// used to discard warm-up intervals before measuring.
    pub fn reset_stats(&mut self) {
        self.store.reset_stats();
    }

    /// The unit's interval bookkeeping: `T_l`, the awake flag, the
    /// stats.
    #[inline]
    pub fn state(&self) -> &UnitState {
        self.store.unit(0)
    }

    /// The same, for a driver that keeps the unit's streams itself and
    /// credits, draws and misses through it (`sleepers`' fleet).
    #[inline]
    pub fn state_mut(&mut self) -> &mut UnitState {
        self.store.unit_mut(0)
    }

    /// The unit's strategy: its name, and which report frames it
    /// [accepts](ReportRule::accepts) (hearing one it refuses panics).
    pub fn rule(&self) -> &ReportRule {
        self.store.rule()
    }

    /// Whether `item` is in the unit's hotspot: the only items it can
    /// ask for, so the only answers it can install.
    pub fn in_hotspot(&self, item: ItemId) -> bool {
        self.store.in_hotspot(0, item)
    }

    /// Syndrome-decode telemetry: how many tracked subsets' signatures
    /// failed to match in the last processed report. `None` for
    /// non-signature strategies. Mismatched subsets are where SIG's
    /// false alarms (and, when the mismatch count stays under the
    /// decoding threshold, its false validations) originate, so the
    /// observability layer tracks them per interval.
    #[inline]
    pub fn last_unmatched_subsets(&self) -> Option<u32> {
        self.store.last_unmatched(0)
    }

    /// Number of subsets currently tracked (0 for the rules that track
    /// none).
    pub fn tracked_subsets(&self) -> usize {
        self.store.tracked_subsets(0)
    }

    /// Starts interval `(from, to]` with the unit known awake: draws
    /// this interval's queries into the pending set
    /// ([`UnitState::pose`]). The sleep decision is the caller's (the
    /// cell driver's wake heap).
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
    #[inline]
    pub fn begin_awake_interval_skewed(
        &mut self,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        pick: Option<&mut dyn FnMut() -> usize>,
    ) {
        self.store.pose(0, from, to, query_rng, pick);
    }

    /// Marks the unit asleep. Asleep intervals are credited lazily with
    /// [`Self::credit_asleep_intervals`] when the unit wakes (the cell
    /// driver never iterates sleeping units).
    pub fn enter_sleep(&mut self) {
        self.state_mut().enter_sleep();
    }

    /// Draws a whole sleep run from the unit's sleep process (see
    /// [`UnitState::draw_sleep_run`]): the number of consecutive asleep
    /// intervals before the next awake one. The cell driver uses this
    /// to schedule the unit's wake-up on a heap.
    pub fn draw_sleep_run(&self, rng: &mut RngStream) -> u64 {
        self.state().draw_sleep_run(rng)
    }

    /// Credits `k` intervals spent asleep (lazy settlement of a whole
    /// sleep run at wake-up time).
    pub fn credit_asleep_intervals(&mut self, k: u64) {
        self.state_mut().credit_asleep_intervals(k);
    }

    /// Hears the report closing the current interval (awake units only)
    /// and answers the pending queries: returns the deduplicated uplink
    /// requests for the misses.
    ///
    /// # Panics
    /// Panics if called while asleep — the cell driver must not deliver
    /// reports to sleeping units.
    pub fn hear_report_and_answer(&mut self, payload: &FramePayload) -> IntervalReport {
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(payload);
        let mut lists = SweepLists::default();
        let heard = self.hear_into(&digest, &mut lists);
        let SweepLists {
            invalidated,
            uplinks,
            piggybacks,
            ..
        } = lists;
        // Parallel to the uplinks when the unit collects hit histories,
        // else empty.
        let mut piggybacks = piggybacks.into_iter();
        IntervalReport {
            outcome: ProcessOutcome {
                report_time: digest.report_time(),
                dropped_all: heard.dropped_all,
                invalidated,
            },
            uplink_requests: uplinks
                .into_iter()
                .map(|item| (item, piggybacks.next()))
                .collect(),
        }
    }

    /// [`Self::hear_report_and_answer`] given the broadcast's shared
    /// digest, into a sweep worker's lists: the invalidated ids and the
    /// uplink requests are appended to `lists`, and their ranges
    /// returned, so a driver that keeps the lists allocates nothing.
    #[inline]
    pub fn hear_into(&mut self, digest: &ReportDigest<'_>, lists: &mut SweepLists) -> Heard {
        self.store.rows().hear(0, 0, digest, lists)
    }

    /// Installs the answer to an uplink request: caches the fresh copy
    /// with the request's server timestamp, evicting past a capacity
    /// bound, and (SIG/HYB) starts tracking the item's subsets.
    ///
    /// # Panics
    /// Panics if the item is not [in the hotspot](Self::in_hotspot).
    #[inline]
    pub fn install_answer(&mut self, answer: QueryAnswer) {
        self.store.install(0, answer);
    }

    /// Number of distinct items waiting for the next report.
    pub fn pending_len(&self) -> usize {
        self.store.pending_len(0)
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
        let mu = MobileUnit::new(cfg, ReportRule::at(SimDuration::from_secs(10.0)), &mut qrng);
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
        assert!(mu.stats().queries_posed > 100);
        assert!(mu.pending_len() <= 10, "the pending set is distinct items");
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

    /// A config for the hotspot `hotspot` over a universe of `universe`.
    fn config(hotspot: Vec<ItemId>, universe: Option<u64>) -> MuConfig {
        MuConfig {
            id: 0,
            hotspot,
            query_rate_per_item: 1.0,
            sleep_probability: 0.0,
            cache_capacity: None,
            replacement: ReplacementPolicy::Lru,
            replacement_window: SimDuration::ZERO,
            piggyback_hits: false,
            item_universe: universe,
        }
    }

    #[test]
    #[should_panic(expected = "hotspot item 10 is outside the item universe of 10")]
    fn a_hotspot_item_past_the_universe_is_refused() {
        let mut qrng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
        let rule = ReportRule::at(SimDuration::from_secs(10.0));
        MobileUnit::new(config(vec![3, 10, 4], Some(10)), rule, &mut qrng);
    }

    #[test]
    #[should_panic(expected = "hotspot ids must be distinct")]
    fn a_hotspot_naming_an_item_twice_is_refused() {
        let mut qrng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
        let rule = ReportRule::at(SimDuration::from_secs(10.0));
        MobileUnit::new(config(vec![3, 7, 3], Some(10)), rule, &mut qrng);
    }

    #[test]
    fn a_hotspot_inside_the_universe_is_seated() {
        let mut qrng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
        let rule = ReportRule::at(SimDuration::from_secs(10.0));
        let mu = MobileUnit::new(config(vec![9, 0, 4], Some(10)), rule, &mut qrng);
        assert!(mu.in_hotspot(9) && mu.in_hotspot(0) && !mu.in_hotspot(5));
        let unknown = MobileUnit::new(config(vec![1 << 40], None), ReportRule::NoCache, &mut qrng);
        assert!(unknown.in_hotspot(1 << 40), "an unknown universe bounds nothing");
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
