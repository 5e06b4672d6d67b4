//! One seat per client: everything one boxed mobile unit is, and the
//! interval protocol of Figure 2 written once.
//!
//! A [`ClientSeat`] owns a client's [`MobileUnit`], its
//! `ClientStreams` (query, sleep and Zipf streams and the
//! settled-interval mark), its optional query-result plane, and its
//! next-wake mark. It is built from a [`CellConfig`] in exactly one
//! place ([`ClientSeat::new`]) and offers one method per protocol phase:
//!
//! 1. [`open_interval`](ClientSeat::open_interval) — wake: settle the
//!    sleep run that just ended, pose the interval's queries;
//! 2. [`hear`](ClientSeat::hear) the report and answer `Q_i`, or
//!    [`miss_report`](ClientSeat::miss_report);
//! 3. [`install_answer`](ClientSeat::install_answer) per uplink fetch,
//!    with the query plane's [`check_queries`](ClientSeat::check_queries)
//!    / [`settle_queries`](ClientSeat::settle_queries) around its own
//!    fetches;
//! 4. [`close_interval`](ClientSeat::close_interval) — draw the next
//!    sleep run, returning the next awake interval.
//!
//! The same seat is what the boxed fleet stores, what a mesh handoff
//! carries between cells, and what `sw_live::LiveMu` wraps behind its
//! sockets, so the three agree by construction. The columnar fleet
//! offers the same phase methods over its columns, from the same two
//! records per client: the [`UnitState`] a `MobileUnit` holds, and the
//! `ClientStreams` a seat holds, whose `open` and `close` both stores
//! call. So a per-client fact beside the cache is one field in one of
//! those two structs.

use std::sync::Arc;

use sw_client::{
    IntervalReport, MobileUnit, MuConfig, ReplacementPolicy, ReportDigest, ReportRule, RuleHandler,
    UnitState,
};
use sw_faults::FaultLayer;
use sw_query::QueryPlane;
use sw_server::{ItemId, QueryAnswer};
use sw_sim::{MasterSeed, RngStream, SimDuration, SimTime, StreamId};
use sw_wireless::frame::{checksum64, flip_bit};
use sw_workload::{HotspotSpec, ZipfPicker};

use crate::adaptive::FeedbackMethod;
use crate::config::CellConfig;
use crate::strategy::Strategy;

/// The id a departed slot's husk carries; real ids count up from zero.
const HUSK_ID: u64 = u64::MAX;

/// Whether a cell's units collect local-hit histories for uplink
/// piggybacking: adaptive TS's Method 1 feeds on them (§8.1).
pub(crate) fn piggybacks(strategy: Strategy) -> bool {
    matches!(
        strategy,
        Strategy::AdaptiveTs {
            method: FeedbackMethod::Method1,
            ..
        }
    )
}

/// The Zipf rank CDF every client of the cell shares
/// (`CellConfig::query_zipf`); `None` when queries pick uniformly.
pub fn shared_zipf(cfg: &CellConfig) -> Option<Arc<ZipfPicker>> {
    cfg.query_zipf
        .map(|theta| Arc::new(ZipfPicker::new(cfg.hotspot_size, theta)))
}

/// What client `index` of a configuration starts from on either fleet
/// backend: its hotspot (in draw order), its sleep probability, and its
/// private streams, each a pure function of `(seed, StreamId { index })`.
pub(crate) type ClientStart = (Vec<ItemId>, f64, ClientStreams);

/// A client's private streams and its settled-interval mark: one record
/// on either store, with the one [`open`](Self::open) and the one
/// [`close`](Self::close) of an awake interval.
pub(crate) struct ClientStreams {
    /// Each window's query count and pose times, and the item pick
    /// unless Zipf is armed.
    query_rng: RngStream,
    sleep_rng: RngStream,
    /// The cell's shared Zipf rank CDF and the per-arrival rank draw
    /// (`Some` iff `query_zipf` is set), so unarmed runs consume exactly
    /// the classic draw sequence.
    zipf: Option<(Arc<ZipfPicker>, RngStream)>,
    /// Last interval whose sleep accounting was settled (sleep runs are
    /// credited lazily at wake-up).
    last_settled: u64,
}

impl ClientStreams {
    pub(crate) fn new(
        query_rng: RngStream,
        sleep_rng: RngStream,
        zipf: Option<(Arc<ZipfPicker>, RngStream)>,
    ) -> Self {
        ClientStreams {
            query_rng,
            sleep_rng,
            zipf,
            last_settled: 0,
        }
    }

    /// Client `index` of `cfg`; `zipf` is the cell's [`shared_zipf`]
    /// picker.
    pub(crate) fn draw(
        cfg: &CellConfig,
        index: usize,
        zipf: Option<&Arc<ZipfPicker>>,
    ) -> ClientStart {
        let idx = index as u64;
        let spec = HotspotSpec::new(cfg.params.n_items, cfg.hotspot_size, cfg.popularity);
        (
            spec.draw(&mut cfg.seed.stream(StreamId::Hotspot { index: idx })),
            match &cfg.sleep_profile {
                Some(profile) => profile[index % profile.len()],
                None => cfg.params.s,
            },
            ClientStreams::new(
                cfg.seed.stream(StreamId::Queries { index: idx }),
                cfg.seed.stream(StreamId::Sleep { index: idx }),
                zipf.map(|picker| {
                    let rng = cfg.seed.stream(StreamId::ZipfQuery { index: idx });
                    (Arc::clone(picker), rng)
                }),
            ),
        )
    }

    /// The query stream, which `MobileUnit::new` is handed and draws
    /// nothing from.
    pub(crate) fn query_rng(&mut self) -> &mut RngStream {
        &mut self.query_rng
    }

    /// Opens interval `i` for the waking `unit`: credits the sleep run
    /// that just ended, then hands back what
    /// [`UnitState::pose`](sw_client::UnitState::pose) draws the
    /// interval's queries from — the query stream, and the pick on the
    /// Zipf stream when Zipf is armed.
    pub(crate) fn open(
        &mut self,
        unit: &mut UnitState,
        i: u64,
    ) -> (&mut RngStream, Option<impl FnMut() -> usize + '_>) {
        unit.credit_asleep_intervals(i - self.last_settled - 1);
        self.last_settled = i;
        let pick = self.zipf.as_mut();
        let pick = pick.map(|(picker, rng)| move || picker.draw(rng));
        (&mut self.query_rng, pick)
    }

    /// Closes interval `i` for `unit`: draws its next sleep run and
    /// returns the next interval it is awake in (`u64::MAX` = never).
    pub(crate) fn close(&mut self, unit: &mut UnitState, i: u64) -> u64 {
        let run = unit.draw_sleep_run(&mut self.sleep_rng);
        if run > 0 {
            unit.enter_sleep();
        }
        // A never-waking run, `u64::MAX`, saturates to itself.
        (i + 1).saturating_add(run)
    }

    /// Credits no asleep interval up to `i` at the next wake: a warm-up
    /// reset at `i`, or a handoff in transit through `i`.
    pub(crate) fn settled_through(&mut self, i: u64) {
        self.last_settled = self.last_settled.max(i);
    }
}

/// One client of a cell. See the module docs.
pub struct ClientSeat {
    mu: MobileUnit,
    streams: ClientStreams,
    /// Draws only from `StreamId::QueryPlan { index }`, so arming it
    /// never perturbs the item-plane streams. Does not travel: query
    /// cells are standalone.
    plane: Option<QueryPlane>,
    /// The next interval the unit is awake in (`u64::MAX` = never).
    next_wake: u64,
    /// Arrived by handoff and has not heard a report here yet; the
    /// first report heard decides whether the move cost it its cache.
    newly_migrated: bool,
}

impl ClientSeat {
    /// Builds client `index` of `cfg`, asleep or awake per its first
    /// sleep run. `rule` is the cell's `strategy.report_rule(..)`, built
    /// once per cell so its seats share one SIG subset-list table;
    /// `zipf` is the cell's [`shared_zipf`] picker.
    pub fn new(
        cfg: &CellConfig,
        strategy: Strategy,
        rule: &ReportRule,
        index: usize,
        zipf: Option<&Arc<ZipfPicker>>,
    ) -> Self {
        let params = &cfg.params;
        let (hotspot, sleep_probability, mut streams) = ClientStreams::draw(cfg, index, zipf);
        // The query plane's workload is a pure function of its own
        // stream over the hotspot the item plane drew.
        let plane = cfg.query.map(|qc| {
            let rng = cfg.seed.stream(StreamId::QueryPlan {
                index: index as u64,
            });
            QueryPlane::new(&hotspot, qc, rng)
        });
        let mu_config = MuConfig {
            id: index as u64,
            hotspot,
            query_rate_per_item: params.lambda,
            sleep_probability,
            cache_capacity: cfg.cache_capacity,
            replacement: cfg.replacement,
            replacement_window: SimDuration::from_secs(params.latency_secs)
                .scaled(params.k as f64),
            piggyback_hits: piggybacks(strategy),
            item_universe: Some(params.n_items),
        };
        let handler = RuleHandler::new(rule.clone());
        let mu = MobileUnit::new(mu_config, handler, streams.query_rng());
        Self::seated(mu, streams, plane)
    }

    /// Seats `mu` and draws its first sleep run: one geometric draw
    /// from the sleep stream, as if closing interval 0.
    pub(crate) fn seated(
        mu: MobileUnit,
        streams: ClientStreams,
        plane: Option<QueryPlane>,
    ) -> Self {
        let mut seat = ClientSeat {
            mu,
            streams,
            plane,
            next_wake: 0,
            newly_migrated: false,
        };
        seat.close_interval(0);
        seat
    }

    /// What a departed slot keeps: never queries, never wakes, caches
    /// nothing. Slots are never reused, so fleet indices stay stable.
    pub(crate) fn husk() -> Self {
        let rng = || MasterSeed(0).stream(StreamId::Custom { tag: 0xDEAD });
        let config = MuConfig {
            id: HUSK_ID,
            hotspot: vec![0],
            query_rate_per_item: 0.0,
            sleep_probability: 1.0,
            cache_capacity: None,
            replacement: ReplacementPolicy::Lru,
            replacement_window: SimDuration::ZERO,
            piggyback_hits: false,
            item_universe: None,
        };
        let mut streams = ClientStreams::new(rng(), rng(), None);
        let mu = MobileUnit::new(
            config,
            RuleHandler::new(ReportRule::NoCache),
            streams.query_rng(),
        );
        Self::seated(mu, streams, None)
    }

    /// Whether this is a departed slot's [`husk`](Self::husk).
    #[inline]
    pub(crate) fn is_husk(&self) -> bool {
        self.mu.id() == HUSK_ID
    }

    /// The seated unit (stats, cache, id, awake flag).
    #[inline]
    pub fn unit(&self) -> &MobileUnit {
        &self.mu
    }

    /// The query-result plane (`None` unless the config arms one).
    #[inline]
    pub fn query_plane(&self) -> Option<&QueryPlane> {
        self.plane.as_ref()
    }

    /// The next interval the unit is awake in (`u64::MAX` = never).
    #[inline]
    pub fn next_wake(&self) -> u64 {
        self.next_wake
    }

    /// Whether the unit arrived by handoff and has yet to hear a report
    /// in this cell.
    #[inline]
    pub(crate) fn newly_migrated(&self) -> bool {
        self.newly_migrated
    }

    /// Opens interval `i = (from, to]` for the waking unit: credits the
    /// sleep run that just ended and poses the interval's queries.
    /// The query count and pose times come from the query stream; each
    /// query's item from the Zipf stream when armed, else from the query
    /// stream.
    #[inline]
    pub fn open_interval(&mut self, i: u64, from: SimTime, to: SimTime) {
        debug_assert!(i >= self.next_wake, "opened before the scheduled wake");
        let (query_rng, mut pick) = self.streams.open(self.mu.state_mut(), i);
        let pick = pick.as_mut().map(|pick| pick as &mut dyn FnMut() -> usize);
        self.mu
            .begin_awake_interval_skewed(from, to, query_rng, pick);
        if let Some(plane) = &mut self.plane {
            plane.begin_awake_interval();
        }
    }

    /// The report closing the interval never arrived intact: pending
    /// queries (both planes') wait for the next one, and to the
    /// strategy the interval looks like a nap.
    #[inline]
    pub fn miss_report(&mut self) {
        self.mu.state_mut().miss_report();
        if let Some(plane) = &mut self.plane {
            plane.on_report_missed();
        }
    }

    /// Hears the report closing the interval and answers `Q_i`.
    #[inline]
    pub fn hear(&mut self, digest: &ReportDigest<'_>) -> IntervalReport {
        self.newly_migrated = false;
        self.mu.hear_digest_and_answer(digest)
    }

    /// The query plane's footprint check against the item cache the
    /// report just settled: the items to fetch before
    /// [`settle_queries`](Self::settle_queries). `None` without a plane.
    #[inline]
    pub fn check_queries(&mut self, t_i: SimTime) -> Option<Vec<ItemId>> {
        let plane = self.plane.as_mut()?;
        Some(plane.observe_report(self.mu.cache(), t_i).fetch)
    }

    /// Materializes missed query results and resolves transactional
    /// reads once the fetch list was served. No-op without a plane.
    #[inline]
    pub fn settle_queries(&mut self, t_i: SimTime) {
        if let Some(plane) = &mut self.plane {
            plane.settle(self.mu.cache(), t_i);
        }
    }

    /// Installs one uplink answer.
    #[inline]
    pub fn install_answer(&mut self, answer: QueryAnswer) {
        self.mu.install_answer(answer);
    }

    /// Closes interval `i`: draws the next sleep run and returns the
    /// next interval the unit is awake in.
    #[inline]
    pub fn close_interval(&mut self, i: u64) -> u64 {
        self.next_wake = self.streams.close(self.mu.state_mut(), i);
        self.next_wake
    }

    /// Zeroes the unit's and the plane's stats after warm-up. A sleep
    /// run straddling the reset at interval `now` must not credit its
    /// pre-reset intervals into the fresh stats.
    pub(crate) fn reset_stats(&mut self, now: u64) {
        self.mu.reset_stats();
        self.streams.settled_through(now);
        if let Some(plane) = &mut self.plane {
            plane.reset_stats();
        }
    }

    /// Lands a traveling seat in a new cell under the id `id`. The unit
    /// is in transit for the whole of interval `transit` and hears no
    /// report in it: it sleeps until `transit + 1` at the earliest.
    /// With diverged report histories no report of the new cell can
    /// vouch for the carried cache, so it is dropped here; returns
    /// whether that lost any entries.
    pub(crate) fn arrive(&mut self, id: u64, transit: u64, histories_agree: bool) -> bool {
        self.mu.reassign_id(id);
        self.mu.enter_sleep();
        self.streams.settled_through(transit);
        self.next_wake = self.next_wake.max(transit.saturating_add(1));
        self.newly_migrated = true;
        !histories_agree && self.mu.drop_cache_for_handoff() > 0
    }
}

/// Demonstrates corruption detection on real bytes: flips the bit of
/// `frame` the fault layer draws for `client` and requires the checksum
/// to notice. An undetected flip would mean a half-applied report.
pub fn demonstrate_corruption(faults: &mut FaultLayer, client: usize, frame: &[u8]) {
    let mut damaged = frame.to_vec();
    let bit = faults.corrupt_bit_index(client, damaged.len() as u64 * 8);
    flip_bit(&mut damaged, bit);
    if checksum64(&damaged) == checksum64(frame) {
        faults.note_undetected_corruption();
    }
}
