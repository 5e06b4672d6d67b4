//! The discrete-event cell simulation.
//!
//! One [`CellSimulation`] drives a single cell: the stationary server
//! (one [`CellServer`]: database + update process + report builder +
//! uplink processor), the broadcast channel, and a fleet of mobile
//! units. Time advances interval by interval (everything in the paper
//! synchronizes on the report at `T_i = i·L`); within an interval,
//! updates occur at exact exponential arrival times, and each awake
//! unit's queries are a Poisson count with uniform pose times.
//!
//! Per interval `i` (covering `(T_{i−1}, T_i]`), [`CellSimulation::step`]
//! runs these phases in order over the cell's [`Fleet`] — its rows boxed
//! or columnar; no phase asks which:
//!
//! 1. `wake_and_pose` — the units due this interval wake, settle the
//!    sleep run that just ended, and draw their queries
//!    (`registry_transitions` then charges the stateful baseline's
//!    connect/disconnect messages);
//! 2. `apply_updates` — `CellServer::advance` applies this interval's
//!    updates; the cell charges the stateful baseline's directed
//!    invalidations for them;
//! 3. `broadcast` — `CellServer::build` produces the report broadcast
//!    at `T_i`, which is charged `B_c` bits against the interval budget
//!    `L·W`;
//! 4. `drain_deferred_uplinks`, `draw_fates`, `Fleet::sweep`, `merge` —
//!    awake clients hear the report (running their strategy's §3
//!    algorithm) or miss it, answer pending queries from cache, and
//!    send misses uplink — each costing `b_q + b_a` bits;
//! 5. `charge_energy` — §9/§10 radio-state accounting;
//! 6. `audit_safety` — optionally, the safety checker verifies every
//!    cache entry against the full value history;
//! 7. `close_period` — `CellServer::close_interval`: the adaptive
//!    evaluation period closes at its boundary, then the update log is
//!    pruned;
//! 8. `schedule_sleep` — every awake unit draws its next sleep run;
//!    `record_interval` writes the observation record.
//!
//! What an observed interval records is declared once, beside
//! `Interval`: `Tally` *is* the series row (its field names are the
//! columns), `Counted` the unconditional counters, and the fault,
//! capacity and coop families are snapshotted as the interval opens
//! and reported as `now.since(&before)` — each emitted whole, from its
//! own declaration, only when its plane is armed.

use std::collections::{HashSet, VecDeque};

use sw_client::{CapacityStats, DigestScratch, MuStats, Presence, ReportDigest, SweepLists};
use sw_observe::{Recorder, Value};
use sw_query::{QueryPlane, QueryStats};
use sw_server::{Database, ItemId, PiggybackInfo, QueryAnswer};
use sw_sim::{counters, Counters, IntervalClock, RngStream, SimDuration, SimTime, StreamId};
use sw_wireless::frame::checksum64;
use sw_wireless::{
    BroadcastChannel, ChannelError, EnergyModel, EnergyTotals, FramePayload, ReportDelivery,
    WireEncode,
};

use crate::config::{CellConfig, WakeMode};
use crate::driver::CellServer;
use crate::faults::{FaultLayer, FaultTotals, ReportFate};
use crate::fleet::{Fleet, SweepOut, WakeSchedule};
use crate::mesh::{CoopDirectory, CoopStats};
use crate::metrics::{MigrationStats, SimulationReport};
use crate::safety::{SafetyExpectation, SafetyStats};
use crate::strategy::Strategy;

/// Errors a simulation can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// The invalidation report exceeds the interval capacity `L·W` —
    /// the strategy is unusable at these parameters (§6 drops TS from
    /// Scenarios 3/4 for exactly this).
    ReportTooLarge {
        /// Bits the report needed.
        bits: u64,
        /// Bits available per interval.
        capacity: u64,
    },
    /// A never-stale strategy (TS, AT, NC, ATS, SF, GR) validated a
    /// stale cache entry. The safety checker normally just counts
    /// violations so SIG's bounded collision rate can be measured; for
    /// strategies whose contract is *zero* false validations under any
    /// fault schedule, the run aborts at the first one instead of
    /// averaging it away.
    SafetyViolated {
        /// The offending strategy's name.
        strategy: &'static str,
        /// Interval in which the stale entry was validated.
        interval: u64,
    },
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimulationError::ReportTooLarge { bits, capacity } => write!(
                f,
                "invalidation report of {bits} bits exceeds interval capacity of {capacity} bits; \
                 the strategy is unusable at these parameters"
            ),
            SimulationError::SafetyViolated { strategy, interval } => write!(
                f,
                "no-stale-reads guarantee broken: never-stale strategy {strategy} validated a \
                 stale cache entry in interval {interval}"
            ),
        }
    }
}

impl std::error::Error for SimulationError {}

/// Above this mean sleep probability the automatic [`WakeMode`] choice
/// uses the heap: with ≥ 95% of the cell asleep, skipping sleepers
/// outweighs the heap's churn. Below it, the dense scan's sequential
/// pass beats paying a push+pop per awake client per interval.
const HEAP_SLEEP_THRESHOLD: f64 = 0.95;

/// A query exchange rejected by a saturated interval (or abandoned by
/// the uplink fault model), waiting for a later interval's budget.
/// Deferred exchanges are charged to the traffic totals only when they
/// actually transmit, so each query counts once however long it waits.
struct QueuedExchange {
    /// Client index within the cell.
    idx: usize,
    /// Item the client is fetching.
    item: ItemId,
    /// Piggybacked hit history captured when the miss occurred.
    piggyback: Option<PiggybackInfo>,
}

/// Whether the report just heard vouches that a cooperative copy
/// stamped at `feed_stamp_micros` is still current for `item`. TS is
/// sound because its window `w = kL ≥ L` always covers the one-interval
/// gap back to the neighbor's snapshot: decline iff the report lists an
/// update strictly after the snapshot. AT's id list is exactly the
/// updates since the last report: decline iff the item is listed. Every
/// other family (signatures, hybrid, group, adaptive) cannot prove
/// per-item freshness from its report, so it always declines — the
/// never-stale safety audit stays armed downstream either way.
fn coop_vouch(digest: &ReportDigest<'_>, feed_stamp_micros: u64, item: ItemId) -> bool {
    match digest.payload() {
        FramePayload::TimestampReport { .. } => !digest.ts_newer_than(item, feed_stamp_micros),
        FramePayload::AmnesicReport { .. } => !digest.listed(item),
        _ => false,
    }
}

/// How one uplink exchange attempt sequence ended.
enum ExchangeOutcome {
    /// Transmitted, answered, and installed in the client's cache.
    Done,
    /// The interval's bit budget rejected the exchange; it is queued
    /// FIFO for a later interval and has been charged nothing.
    Saturated,
    /// Every transmitted attempt this interval failed (uplink fault
    /// model); the exchange is queued for a later interval. The failed
    /// attempts *did* burn airtime and are charged as traffic.
    FaultDeferred,
}

counters! {
    /// Interval `i` of one cell as its series row: the columns are these
    /// fields, in this order (mesh shards append `migrations`). The
    /// phases write what they observe as they go; `record_interval`
    /// fills in what only the closed interval knows (`awake`, `uplinks`,
    /// `used_bits`, `lost`, `retries`). Cheap register-width counters,
    /// dead code when the recorder is disabled (and compiled out
    /// entirely without the `observe` feature, where `is_enabled()` is
    /// a compile-time `false`) — except `report_bits`, which `step`
    /// returns and the energy model reads.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Tally {
        awake,
        hits,
        misses,
        uplinks,
        invalidated,
        drops,
        report_bits,
        used_bits,
        overflow,
        lost,
        retries,
    }
}

counters! {
    /// What an interval adds to the trace's unconditional counters,
    /// under their trace names.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Counted {
        intervals,
        updates_applied,
        overflow_exchanges,
        sig_false_alarms,
        sig_unmatched_subsets,
    }
}

/// The cell's cumulative counter families, each emitted only when its
/// plane is armed; an observed interval reports `now.since(&before)`.
#[derive(Clone, Copy, Default)]
struct Families {
    faults: FaultTotals,
    capacity: CapacityStats,
    coop: CoopStats,
}

impl Families {
    fn since(&self, before: &Families) -> Families {
        Families {
            faults: self.faults.since(&before.faults),
            capacity: self.capacity.since(&before.capacity),
            coop: self.coop.since(&before.coop),
        }
    }
}

/// One interval in flight, handed from phase to phase.
struct Interval {
    /// The interval index; it covers `(from, t_i]`.
    i: u64,
    from: SimTime,
    t_i: SimTime,
    /// This interval's awake units, ascending by client index.
    awake: Vec<usize>,
    /// Uplink exchanges completed per awake unit, parallel to `awake`.
    uplinks: Vec<u32>,
    observing: bool,
    tally: Tally,
    counted: Counted,
    /// Query-plane deltas of the clients merged so far.
    query: QueryStats,
    /// The families as the interval opened, snapshotted only when
    /// observing: eviction counters live per client, so the snapshot
    /// is an O(n) fold on a bounded cell.
    before: Option<Families>,
}

/// The lists one interval fills and the next reuses: cleared, never
/// freed, so a steady-state columnar [`CellSimulation::step`] makes the
/// same few heap allocations however many clients wake, invalidate or
/// miss (DESIGN §8 item 10).
#[derive(Default)]
struct StepBuffers {
    /// The awake set, lent to each interval's [`Interval::awake`].
    awake: Vec<usize>,
    /// Lent to each interval's [`Interval::uplinks`].
    uplinks: Vec<u32>,
    /// The awake-set positions that heard the report.
    heard: Vec<usize>,
    /// Behind the per-broadcast [`ReportDigest`].
    digest: DigestScratch,
    /// One per worker of the intra-cell report sweep. The count is
    /// resolved once at construction from the config (or
    /// `SW_THREADS`/machine parallelism); results are bit-identical at
    /// any value, so it is purely a throughput knob.
    swept: Vec<SweepOut>,
}

impl StepBuffers {
    fn new(sweep_threads: usize) -> Self {
        StepBuffers {
            swept: (0..sweep_threads).map(|_| SweepOut::default()).collect(),
            ..StepBuffers::default()
        }
    }
}

/// One simulated cell.
pub struct CellSimulation {
    config: CellConfig,
    strategy: Strategy,
    /// The server half of Figure 2. What stays out here belongs to the
    /// cell, not the server: channel charges, the stateful registry's
    /// directed and control messages, observation, the clock.
    server: CellServer,
    channel: BroadcastChannel,
    clock: IntervalClock,
    /// The clients: their rows, boxed or struct-of-arrays, chosen at
    /// construction (see `Fleet::new`) and bit-identical either way
    /// (pinned by the columnar-equivalence suite), and their streams,
    /// wake marks and query planes as columns beside the rows.
    /// Everything per-client lives in here.
    fleet: Fleet,
    /// The per-interval loop takes exactly the awake set from this —
    /// heap-backed sleeper cells never visit sleepers; scan-backed
    /// workaholic cells pay one sequential pass instead of heap churn.
    wake: WakeSchedule,
    /// Stateful baseline only: units that went to sleep after the
    /// previous interval and must disconnect at the start of this one.
    pending_disconnects: Vec<usize>,
    /// Cooperative-miss state (mesh shards with `config.coop` armed):
    /// the merged neighbor directory installed at the last barrier,
    /// consumed by this interval's fresh misses. `None` for standalone
    /// cells and before the first barrier.
    coop_feed: Option<CoopDirectory>,
    /// Sidelink serve counters (all zeros unless `config.coop` armed).
    coop_stats: CoopStats,
    report_bits_total: u64,
    overflow_exchanges: u64,
    registration_messages: u64,
    safety: SafetyStats,
    /// Exchanges deferred by saturated intervals (or exhausted uplink
    /// retries), drained FIFO at the start of each interval's client
    /// phase. Normally empty: the simulated fleet sits far below
    /// channel capacity.
    pending_uplinks: VecDeque<QueuedExchange>,
    /// What each interval fills and the next reuses.
    buffers: StepBuffers,
    /// Mirror of `pending_uplinks` as a membership set, so the
    /// duplicate-fetch check is O(1) instead of a queue scan. Under a
    /// saturated cold start the queue holds tens of thousands of
    /// entries and every fresh miss consults this check — the linear
    /// scan made those intervals quadratic. Entries for departed
    /// clients are tombstones: they stay queued (and in this set) until
    /// the FIFO drain reaches and discards them, so a mesh detach costs
    /// O(1) instead of an O(queue) retain.
    queued_exchanges: HashSet<(usize, ItemId)>,
    /// Deterministic fault injector. A zero-sized compile-time no-op
    /// without the `faults` cargo feature; one null check per interval
    /// when compiled in but unarmed. Draws only from
    /// `StreamId::Faults { index }`, so arming it never perturbs the
    /// query/sleep/update streams.
    faults: FaultLayer,
    delivery: ReportDelivery,
    delivery_rng: RngStream,
    energy: EnergyTotals,
    /// Slots whose unit migrated away (present population =
    /// `fleet.len() - departed_count`). Slots are never reused;
    /// arrivals append, and a unit's id is its slot index.
    departed_count: usize,
    /// Handoff counters (all zero for standalone cells).
    migration: MigrationStats,
    /// Arrivals since the last step, for the mesh series column.
    arrivals_since_step: u64,
    /// Rolling log of `(interval, report checksum)` pairs, kept only
    /// for mesh shards (`config.backbone` set): the mesh compares the
    /// overlapping suffixes of two cells' logs to decide the "report
    /// histories diverge" handoff clause. Never feeds back into the
    /// simulation.
    report_digests: VecDeque<(u64, u64)>,
    /// The serialized report the digest log checksums, kept across
    /// intervals so a report allocates only when it outgrows the last.
    report_bytes: Vec<u8>,
    /// Stateful baseline: control-message charges owed for clients that
    /// disconnected by *leaving the cell* between intervals (the
    /// registry is updated at detach; the channel can only be charged
    /// once the next interval opens its budget).
    deferred_control: Vec<u64>,
    /// Instrumentation. A compile-time no-op without the `observe`
    /// cargo feature; a one-branch no-op unless the config carries an
    /// observation label. Never consumes randomness and never feeds
    /// back into the simulation, so observed and unobserved runs are
    /// bit-identical (pinned by the determinism suite).
    obs: Recorder,
}

impl CellSimulation {
    /// Builds the cell: database, server, channel, and client fleet.
    pub fn new(config: CellConfig, strategy: Strategy) -> Result<Self, SimulationError> {
        config.validate().map_err(SimulationError::InvalidConfig)?;
        let params = config.params;
        let latency = SimDuration::from_secs(params.latency_secs);
        let server = CellServer::new(&config, strategy);

        let encode = WireEncode::new(
            params.n_items,
            params.timestamp_bits,
            params.query_bits,
            params.answer_bits,
        );
        let channel = BroadcastChannel::new(params.bandwidth_bps, params.latency_secs, encode);

        // Every unit drew its initial sleep run as it was built; units
        // starting asleep are not visited again until they wake.
        let fleet = Fleet::new(&config, strategy)?;
        let wake_mode = config.wake_mode.unwrap_or_else(|| {
            if config.mean_sleep_probability() >= HEAP_SLEEP_THRESHOLD {
                WakeMode::Heap
            } else {
                WakeMode::Scan
            }
        });
        let wake = WakeSchedule::new(wake_mode, &fleet);
        let pending_disconnects = if server.driver().is_stateful() {
            (0..fleet.len())
                .filter(|&idx| !fleet.unit(idx).is_awake())
                .collect()
        } else {
            Vec::new()
        };

        let mut obs = match &config.observe {
            Some(label) => Recorder::enabled(label.clone()),
            None => Recorder::disabled(),
        };
        if obs.is_enabled() {
            // Mesh shards get one extra per-interval column: arrivals
            // by handoff. Standalone schemas are unchanged, keeping
            // every pre-mesh trace artifact byte-identical.
            let migrations = config.backbone.map(|_| "migrations");
            obs.series_schema(Tally::NAMES.iter().copied().chain(migrations));
            obs.event(
                0,
                "sim_start",
                [
                    ("strategy", Value::Str(strategy.name().to_string())),
                    (
                        "wake_mode",
                        Value::Str(
                            match wake_mode {
                                WakeMode::Scan => "scan",
                                WakeMode::Heap => "heap",
                            }
                            .to_string(),
                        ),
                    ),
                    ("clients", Value::U64(config.n_clients as u64)),
                    ("n_items", Value::U64(params.n_items)),
                    ("mean_sleep", Value::F64(config.mean_sleep_probability())),
                ],
            );
        }

        let delivery = ReportDelivery::new(config.delivery);
        let delivery_rng = config.seed.stream(StreamId::Custom { tag: 0xDE11 });
        let faults = FaultLayer::new(config.faults.as_ref(), config.seed, config.n_clients);
        Ok(CellSimulation {
            strategy,
            server,
            channel,
            clock: IntervalClock::new(latency),
            fleet,
            wake,
            pending_disconnects,
            coop_feed: None,
            coop_stats: CoopStats::default(),
            report_bits_total: 0,
            overflow_exchanges: 0,
            registration_messages: 0,
            safety: SafetyStats::default(),
            pending_uplinks: VecDeque::new(),
            buffers: StepBuffers::new(
                config
                    .sweep_threads
                    .unwrap_or_else(|| sw_sim::ParallelRunner::from_env().threads()),
            ),
            queued_exchanges: HashSet::new(),
            faults,
            delivery,
            delivery_rng,
            energy: EnergyTotals::default(),
            departed_count: 0,
            migration: MigrationStats::default(),
            arrivals_since_step: 0,
            report_digests: VecDeque::new(),
            report_bytes: Vec::new(),
            deferred_control: Vec::new(),
            obs,
            config,
        })
    }

    /// The strategy under simulation.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Read access to the database (tests).
    pub fn database(&self) -> &Database {
        self.server.database()
    }

    /// Number of client slots in the cell, including departed ones
    /// (slot indices are stable; arrivals append).
    pub fn client_slots(&self) -> usize {
        self.fleet.len()
    }

    /// Stats snapshot of the client in slot `idx`, on either fleet
    /// backend (a departed slot reports zeroed stats).
    pub fn client_stats(&self, idx: usize) -> MuStats {
        self.fleet.stats(idx)
    }

    /// Whether the cell runs the columnar client backend.
    pub fn is_columnar(&self) -> bool {
        self.fleet.is_columnar()
    }

    /// Fleet-wide client totals: one O(n) fold over the per-client
    /// stats, on either backend.
    fn client_totals(&self) -> MuStats {
        MuStats::total(self.fleet.stats_iter())
    }

    /// The cumulative families right now. The eviction family is all
    /// zeros on an unbounded cell, which skips the fold.
    fn families(&self) -> Families {
        Families {
            faults: self.faults.totals(),
            capacity: match self.config.cache_capacity {
                Some(_) => self.client_totals().capacity(),
                None => CapacityStats::default(),
            },
            coop: self.coop_stats,
        }
    }

    /// Snapshot of every cache entry stamped exactly at the last
    /// broadcast report time `T_i`: the set this cell can vouch fresh
    /// to a neighbor, because any copy stamped at the report the whole
    /// backbone just heard is provably current as of `T_i`. The mesh
    /// builds these at its barrier and hands each cell the merged
    /// neighbor view for its next interval's misses.
    ///
    /// Clients are visited in ascending slot order and items in sorted
    /// order, keeping the snapshot deterministic.
    pub fn coop_directory(&self) -> CoopDirectory {
        let t_last = self.clock.report_time(self.clock.next_index());
        let mut dir = CoopDirectory::new(t_last);
        self.fleet.for_each_cached_entry(|item, value, timestamp| {
            if timestamp == t_last {
                dir.insert(item, value);
            }
        });
        dir
    }

    /// Installs the merged neighbor directory the next interval's
    /// misses may be served from (mesh barrier hook).
    pub(crate) fn install_coop_feed(&mut self, feed: CoopDirectory) {
        self.coop_feed = Some(feed);
    }

    /// Query-plane stats for the client in slot `idx` (`None` unless
    /// the cell was configured with [`CellConfig::with_query`]).
    pub fn client_query_stats(&self, idx: usize) -> Option<QueryStats> {
        self.query_plane(idx).map(QueryPlane::stats)
    }

    /// The query plane of the client in slot `idx`, for audits and the
    /// committed-read log (`None` unless the cell was configured with
    /// [`CellConfig::with_query`]).
    pub fn query_plane(&self, idx: usize) -> Option<&QueryPlane> {
        self.fleet.query_plane(idx)
    }

    /// Whether an identical exchange is already queued for `idx`. A
    /// client re-querying an item it is still waiting for must not
    /// enqueue (or be served) a second copy of the same fetch.
    fn exchange_queued(&self, idx: usize, item: ItemId) -> bool {
        self.queued_exchanges.contains(&(idx, item))
    }

    fn enqueue_exchange(&mut self, idx: usize, item: ItemId, piggyback: Option<PiggybackInfo>) {
        if self.queued_exchanges.insert((idx, item)) {
            self.pending_uplinks.push_back(QueuedExchange {
                idx,
                item,
                piggyback,
            });
        }
    }

    /// Runs one uplink query exchange for client `idx` to completion,
    /// deferral, or abandonment.
    ///
    /// On success the exchange is charged to the channel, the
    /// server-side bookkeeping (adaptive feedback, quasi obligations,
    /// stateful registration) runs, and the answer is installed in the
    /// client's cache. A saturated interval defers the exchange to the
    /// FIFO queue *without charging anything* — the query counts once
    /// in the traffic totals however many intervals it waits. Under the
    /// uplink fault model, each transmitted-but-failed attempt is
    /// retried up to `max_attempts` times with exponentially growing
    /// backoff charged as dead air against the interval budget; failed
    /// attempts burned real airtime and stay charged as traffic.
    fn attempt_uplink_exchange(
        &mut self,
        idx: usize,
        item: ItemId,
        piggyback: Option<PiggybackInfo>,
    ) -> ExchangeOutcome {
        let mu_id = idx as u64;
        let uplink_model = self.faults.uplink_model();
        let max_attempts = uplink_model.map_or(1, |m| m.max_attempts);
        let mut attempt = 1u32;
        loop {
            if self.channel.send_query_exchange(mu_id, item).is_err() {
                self.enqueue_exchange(idx, item, piggyback);
                return ExchangeOutcome::Saturated;
            }
            let failed = uplink_model.is_some() && self.faults.uplink_attempt_fails(idx);
            if !failed {
                break;
            }
            self.faults.note_uplink_retry();
            if attempt >= max_attempts {
                // Bounded retry exhausted: give the channel back and
                // try again in a later interval.
                self.enqueue_exchange(idx, item, piggyback);
                return ExchangeOutcome::FaultDeferred;
            }
            let backoff = uplink_model
                .expect("a failed attempt implies an uplink model")
                .backoff_base_bits
                << (attempt - 1);
            if self.channel.charge_backoff(backoff).is_err() {
                // The backoff wait would outlast the interval budget.
                self.enqueue_exchange(idx, item, piggyback);
                return ExchangeOutcome::Saturated;
            }
            self.faults.note_backoff_interval();
            attempt += 1;
        }
        let answer = self.server.answer(mu_id, item, piggyback.as_ref());
        self.fleet.install_answer(idx, answer);
        ExchangeOutcome::Done
    }

    /// Runs one broadcast interval — Figure 2, phase by phase — and
    /// returns the report's size in bits (zero for the stateful
    /// baseline, which sends directed messages instead).
    pub fn step(&mut self) -> Result<u64, SimulationError> {
        let mut iv = self.begin_interval();
        self.wake_and_pose(&mut iv);
        self.registry_transitions(&iv);
        self.apply_updates(&mut iv);
        let payload = self.broadcast(&mut iv)?;
        let process_timer = self.obs.timer("client_process");
        self.drain_deferred_uplinks(&mut iv);
        // The buffers leave `self` so the digest can outlive the
        // merge's `&mut self` calls.
        let mut buffers = std::mem::take(&mut self.buffers);
        self.draw_fates(&iv, &payload, &mut buffers.heard);
        // The report is digested once — its time plus a membership
        // bitset over the listed ids — and every listening client walks
        // its *own* cache probing that digest.
        let digest = buffers.digest.digest(&payload);
        self.fleet.sweep(
            &buffers.heard,
            &iv.awake,
            &digest,
            iv.observing,
            &mut buffers.swept,
        );
        // The workers' outputs in order are ascending client order.
        for out in &mut buffers.swept {
            self.merge(&mut iv, out, &digest);
        }
        self.buffers = buffers;
        self.obs.finish(process_timer);
        self.charge_energy(&iv);
        self.audit_safety(&iv)?;
        self.close_period(&iv);
        self.schedule_sleep(&iv);
        self.record_interval(&iv);
        self.buffers.awake = iv.awake;
        self.buffers.uplinks = iv.uplinks;
        Ok(iv.tally.report_bits)
    }

    /// Ticks the clock, opens the channel budget, and — when observing —
    /// snapshots the families the interval record reports deltas of.
    fn begin_interval(&mut self) -> Interval {
        let (i, t_i) = self.clock.tick();
        self.channel.begin_interval();
        let observing = self.obs.is_enabled();
        let mut awake = std::mem::take(&mut self.buffers.awake);
        awake.clear();
        Interval {
            i,
            from: self.clock.report_time(i - 1),
            t_i,
            awake,
            uplinks: std::mem::take(&mut self.buffers.uplinks),
            observing,
            tally: Tally::default(),
            counted: Counted::default(),
            query: QueryStats::default(),
            before: observing.then(|| self.families()),
        }
    }

    /// Phase 1: take this interval's wake-ups off the schedule and
    /// draw their queries. Each unit drew its whole sleep
    /// run when it went under, so sleepers cost nothing here beyond (in
    /// scan mode) one sequential wake-time comparison. Either wake mode
    /// yields the awake set in ascending client index, so the rng
    /// consumption order never depends on it.
    fn wake_and_pose(&mut self, iv: &mut Interval) {
        self.wake.pop_due(iv.i, &self.fleet, &mut iv.awake);
        for &idx in &iv.awake {
            self.fleet.open_interval(idx, iv.i, iv.from, iv.t_i);
        }
        iv.uplinks.clear();
        iv.uplinks.resize(iv.awake.len(), 0);
    }

    /// Stateful baseline only: clients announce connects/disconnects;
    /// each transition is one control message on the channel. Units
    /// that fell asleep after the previous interval disconnect now,
    /// waking units (re)connect — same transition count as observing
    /// every client's state each interval. A unit that left the cell
    /// between intervals was disconnected in the registry at detach
    /// time; its control message is charged here, in the first interval
    /// with an open budget.
    fn registry_transitions(&mut self, iv: &Interval) {
        let Some(registry) = self.server.driver_mut().registry_mut() else {
            return;
        };
        for id in self.deferred_control.drain(..) {
            let _ = self.channel.send_invalidation(id); // control msg
            self.registration_messages += 1;
        }
        // A unit that left the cell was taken off this list, and
        // disconnected, at detach.
        for idx in self.pending_disconnects.drain(..) {
            let id = idx as u64;
            if registry.is_connected(id) {
                registry.disconnect(id);
                let _ = self.channel.send_invalidation(id); // control msg
                self.registration_messages += 1;
            }
        }
        for &idx in &iv.awake {
            let id = idx as u64;
            if !registry.is_connected(id) {
                registry.connect(id);
                let _ = self.channel.send_invalidation(id); // control msg
                self.registration_messages += 1;
                if self.fleet.unit(idx).presence() == Presence::Arrived {
                    // First registration with a server that has never
                    // seen this unit: the stateful baseline's
                    // per-handoff price.
                    self.migration.cross_cell_registrations += 1;
                    self.obs.add("cross_cell_registrations", 1);
                }
            }
        }
    }

    /// Phase 2: apply this interval's updates; the stateful server
    /// fires a directed invalidation message per registered holder.
    fn apply_updates(&mut self, iv: &mut Interval) {
        let recs = self.server.advance(iv.i, iv.from, iv.t_i, &[]);
        if let Some(registry) = self.server.driver_mut().registry_mut() {
            for rec in &recs {
                for _ in &registry.on_update(rec) {
                    let _ = self.channel.send_invalidation(rec.item);
                }
            }
        }
        iv.counted.updates_applied = recs.len() as u64;
    }

    /// Phase 3: build and broadcast the report (not charged by the
    /// stateful baseline, whose messages were charged above; the
    /// AT-style framing still drives the client algorithm). Zero-copy:
    /// the payload is charged by reference (its bit size computed in
    /// place) and then lent to every listening client — no
    /// per-interval frame clone, no per-client copies.
    fn broadcast(&mut self, iv: &mut Interval) -> Result<FramePayload, SimulationError> {
        let payload = {
            let _span = self.obs.span("server_build");
            self.server.build()
        };
        iv.tally.report_bits = if self.server.driver().is_stateful() {
            // The size only feeds the energy model's listening window.
            self.channel.encoder().payload_bits(&payload)
        } else {
            let bits = self
                .channel
                .send_report_payload(&payload)
                .map_err(|e| match e {
                    ChannelError::ReportExceedsInterval { needed, capacity } => {
                        SimulationError::ReportTooLarge {
                            bits: needed,
                            capacity,
                        }
                    }
                    other => unreachable!("report send can only fail by size: {other}"),
                })?;
            self.report_bits_total += bits;
            bits
        };
        if self.config.backbone.is_some() {
            // Mesh shard: log this report's checksum so the mesh can
            // compare two cells' recent report histories at a handoff.
            // Pure bookkeeping over the already-built payload — no
            // randomness, no feedback into the simulation.
            let bytes = &mut self.report_bytes;
            self.channel
                .encoder()
                .serialize_payload_into(&payload, bytes);
            self.report_digests.push_back((iv.i, checksum64(bytes)));
            let retention = self.config.params.k as usize + 4;
            while self.report_digests.len() > retention {
                self.report_digests.pop_front();
            }
        }
        Ok(payload)
    }

    /// Phase 4a: drain exchanges deferred by earlier saturated
    /// intervals, oldest first, before this interval's fresh misses
    /// compete for the budget — strict FIFO across intervals. Entries
    /// whose client is asleep keep their place; the first renewed
    /// saturation stops the drain and the rest wait in order.
    fn drain_deferred_uplinks(&mut self, iv: &mut Interval) {
        if self.pending_uplinks.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.pending_uplinks);
        let mut stalled = false;
        while let Some(q) = queue.pop_front() {
            if self.fleet.is_departed(q.idx) {
                // Tombstone: the client left the cell while its fetch
                // waited. Nobody is listening for the answer; discard
                // instead of serving or re-queuing.
                self.queued_exchanges.remove(&(q.idx, q.item));
                continue;
            }
            if stalled || !self.fleet.unit(q.idx).is_awake() {
                self.pending_uplinks.push_back(q);
                continue;
            }
            let slot = iv
                .awake
                .binary_search(&q.idx)
                .expect("an awake client is always in the interval's awake set");
            // Drop the membership mark before the attempt: a deferral
            // re-queues (and re-marks) the same exchange.
            self.queued_exchanges.remove(&(q.idx, q.item));
            match self.attempt_uplink_exchange(q.idx, q.item, q.piggyback) {
                ExchangeOutcome::Done => iv.uplinks[slot] += 1,
                // Already re-queued by the attempt; keep the remaining
                // entries behind it, in order.
                ExchangeOutcome::Saturated => stalled = true,
                ExchangeOutcome::FaultDeferred => {}
            }
        }
    }

    /// Phase 4b: decide every awake client's report fate; fills `heard`
    /// with the awake-set positions that hear the report. Drift (woke too
    /// late), loss (fade-out), or corruption (checksum failure) all
    /// mean the strategy's recovery path runs at the *next* intact
    /// report, exactly as the paper prescribes for a unit that slept
    /// through reports. Fates consume the per-client fault streams in
    /// ascending index order (a client's fate draw always precedes its
    /// uplink-retry draws), and drawing them here leaves the report
    /// sweep entirely free of randomness.
    fn draw_fates(&mut self, iv: &Interval, payload: &FramePayload, heard: &mut Vec<usize>) {
        heard.clear();
        // Fault injection only attacks the *broadcast* downlink; the
        // stateful baseline's directed invalidations model a reliable
        // connection-oriented link (its consistency story depends on
        // it, §2).
        if !self.faults.is_active() || self.server.driver().is_stateful() {
            heard.extend(0..iv.awake.len());
            return;
        }
        // The serialized report, computed lazily at most once per
        // interval, only when a corruption fate needs real bytes to
        // flip.
        let mut wire: Option<Vec<u8>> = None;
        for (slot, &idx) in iv.awake.iter().enumerate() {
            let delivery = self.delivery;
            let fate = self
                .faults
                .report_fate(idx, iv.i, |drift| delivery.misses_with_drift(drift));
            if !fate.is_missed() {
                heard.push(slot);
                continue;
            }
            if fate == ReportFate::Corrupted {
                let bytes =
                    wire.get_or_insert_with(|| self.channel.encoder().serialize_payload(payload));
                self.faults.demonstrate_corruption(idx, bytes);
            }
            self.fleet.miss_report(idx);
            if iv.observing {
                let fate = match fate {
                    ReportFate::Lost => "lost",
                    ReportFate::Corrupted => "corrupted",
                    ReportFate::DriftMissed => "drift",
                    ReportFate::Heard => unreachable!(),
                };
                self.obs.event(
                    iv.i,
                    "report_missed",
                    [
                        ("client", Value::U64(idx as u64)),
                        ("fate", Value::Str(fate.to_string())),
                    ],
                );
            }
        }
    }

    /// Phase 4d: the sequential merge of the sweep's results in
    /// ascending client order — handoff drop accounting, observation
    /// deltas, and the uplink exchanges: everything that charges the
    /// shared channel, draws randomness, or emits events — over one
    /// sweep worker's output.
    fn merge(&mut self, iv: &mut Interval, out: &mut SweepOut, digest: &ReportDigest<'_>) {
        let (i, t_i) = (iv.i, iv.t_i);
        let SweepOut { items, lists } = out;
        let SweepLists {
            invalidated,
            uplinks,
            piggybacks,
            ..
        } = lists;
        for sw in items.iter() {
            let heard = &sw.heard;
            let slot = sw.slot;
            let idx = iv.awake[slot];
            if heard.handoff_drop {
                self.migration.handoff_drops += 1;
                self.obs.add("handoff_drops", 1);
            }
            if iv.observing {
                let invalidated = &invalidated[heard.invalidated.clone()];
                iv.tally.invalidated += invalidated.len() as u64;
                iv.tally.drops += heard.dropped_all as u64;
                // The last-report time is the false-alarm reference
                // point: an invalidation is *false* iff the item did
                // not actually change since this client last heard a
                // report (SIG's diagnosis risk, §6).
                if let Some((_, Some(t_l))) = &sw.pre {
                    for &item in invalidated {
                        if self.server.database().updated_at(item) <= *t_l {
                            iv.counted.sig_false_alarms += 1;
                        }
                    }
                }
                if let Some(u) = self.fleet.last_unmatched_subsets(idx) {
                    iv.counted.sig_unmatched_subsets += u as u64;
                }
            }
            for k in heard.uplinks.clone() {
                let (item, piggyback) = (uplinks[k], piggybacks.get_mut(k).map(std::mem::take));
                if self.exchange_queued(idx, item) {
                    // The same fetch is already waiting from an earlier
                    // interval; answering it once is enough.
                    continue;
                }
                // Cooperative miss path: a neighbor cell snapshotted a
                // copy of this item stamped at the last report, and the
                // report this client *just heard* (everything merged
                // here heard an intact one) can vouch nothing changed
                // since. Served copies cost `b_coop` sidelink bits
                // instead of an uplink exchange; hit/miss counts are
                // untouched (the miss already counted in the sweep) and
                // the installed entry faces the same safety audit as
                // any uplink answer.
                if let (Some(coop), Some(feed)) = (self.config.coop, self.coop_feed.as_ref()) {
                    match feed.get(item) {
                        Some(value)
                            if coop_vouch(
                                digest,
                                feed.stamp
                                    .expect("a holding feed carries its stamp")
                                    .as_micros(),
                                item,
                            ) =>
                        {
                            self.coop_stats.coop_served += 1;
                            self.coop_stats.coop_bits += coop.b_coop;
                            self.fleet.install_answer(
                                idx,
                                QueryAnswer {
                                    item,
                                    value,
                                    timestamp: t_i,
                                },
                            );
                            continue;
                        }
                        _ => self.coop_stats.coop_declined += 1,
                    }
                }
                match self.attempt_uplink_exchange(idx, item, piggyback) {
                    ExchangeOutcome::Done => iv.uplinks[slot] += 1,
                    ExchangeOutcome::Saturated => {
                        // First deferral of a fresh exchange: count the
                        // overage once (retries are the same exchange).
                        self.overflow_exchanges += 1;
                        iv.tally.overflow += 1;
                        if iv.observing {
                            let mu_id = idx as u64;
                            self.obs
                                .event(i, "overflow", [("client", mu_id), ("item", item)]);
                        }
                    }
                    ExchangeOutcome::FaultDeferred => {}
                }
            }
            // The query plane's footprint check runs against the item
            // cache the strategy handler just processed; its fetch list
            // is served over the same uplink (and the same budget) as
            // the item plane's misses, then the settle half materializes
            // entries and resolves transaction reads. All RNG-free, so
            // the sweep/merge split keeps runs byte-identical at any
            // `SW_THREADS`.
            let before = iv.observing.then(|| self.client_query_stats(idx)).flatten();
            if let Some(fetch) = self.fleet.check_queries(idx, t_i) {
                for item in fetch {
                    if self.exchange_queued(idx, item) {
                        continue;
                    }
                    match self.attempt_uplink_exchange(idx, item, None) {
                        ExchangeOutcome::Done => iv.uplinks[slot] += 1,
                        // The entry stays unmaterialized (a txn read
                        // aborts conservatively); count the overage
                        // like any deferred exchange.
                        ExchangeOutcome::Saturated => {
                            self.overflow_exchanges += 1;
                            iv.tally.overflow += 1;
                        }
                        ExchangeOutcome::FaultDeferred => {}
                    }
                }
                self.fleet.settle_queries(idx, t_i);
                if let (Some(before), Some(after)) = (before, self.client_query_stats(idx)) {
                    iv.query.absorb(&after.since(&before));
                }
            }
            if let Some((pre_stats, _)) = sw.pre {
                let gained = self.fleet.stats(idx).since(&pre_stats);
                iv.tally.hits += gained.hit_events;
                iv.tally.misses += gained.miss_events;
            }
        }
    }

    /// Phase 5, energy accounting (§9/§10): asleep units pay sleep
    /// energy; awake units listen for the report (delivery-mode
    /// dependent), transmit their queries, receive their answers, and
    /// doze the rest of the interval.
    fn charge_energy(&mut self, iv: &Interval) {
        let model = EnergyModel::default();
        let params = &self.config.params;
        let interval = SimDuration::from_secs(params.latency_secs);
        // One O(1) charge settles the whole sleeping population for
        // this interval (sleep power is linear in time). Departed
        // slots are not sleepers — nobody pays for them.
        let asleep = self.present_clients() - iv.awake.len();
        if asleep > 0 {
            self.energy
                .add_sleep(&model, interval.scaled(asleep as f64));
        }
        let tx_time = |bits: u64| SimDuration::from_secs(self.channel.transmission_secs(bits));
        let report_tx = tx_time(iv.tally.report_bits);
        let per_query_tx = tx_time(params.query_bits as u64);
        let per_answer_rx = tx_time(params.answer_bits as u64);
        // `uplinks` is parallel to the awake set, in ascending client
        // order — the order the delivery rng draws in.
        for &misses in &iv.uplinks {
            let outcome = self
                .delivery
                .deliver(iv.t_i, report_tx, &mut self.delivery_rng);
            let active = SimDuration::from_secs(
                (outcome.listening.as_secs()
                    + misses as f64 * (per_query_tx.as_secs() + per_answer_rx.as_secs()))
                .min(interval.as_secs()),
            );
            self.energy.add_rx(
                &model,
                SimDuration::from_secs(
                    (outcome.listening.as_secs() + misses as f64 * per_answer_rx.as_secs())
                        .min(interval.as_secs()),
                ),
            );
            self.energy
                .add_tx(&model, per_query_tx.scaled(misses as f64));
            self.energy
                .add_doze(&model, interval - active.min(interval));
        }
        if iv.observing {
            // Radio-state transition census (§9/§10): how many
            // client-intervals each energy state absorbed.
            self.obs.add("energy_sleep_intervals", asleep as u64);
            self.obs.add("energy_rx_intervals", iv.awake.len() as u64);
            let tx: u64 = iv.uplinks.iter().map(|&c| c as u64).sum();
            self.obs.add("energy_tx_queries", tx);
        }
    }

    /// Phase 6, the safety invariant: every cache entry's value must
    /// match the item's historical value at the entry's validity
    /// timestamp. Query-result rows are audited by the same rule — a
    /// stale row is a stale *query answer*, so it counts against the
    /// owning strategy's safety contract exactly like a stale
    /// item-cache entry.
    fn audit_safety(&mut self, iv: &Interval) -> Result<(), SimulationError> {
        let Some(history) = self.server.history() else {
            return Ok(());
        };
        let before = self.safety;
        let safety = &mut self.safety;
        let mut check = |item, value, timestamp| {
            safety.entries_checked += 1;
            if !history.is_consistent(item, value, timestamp) {
                safety.violations += 1;
            }
        };
        self.fleet.for_each_cached_entry(&mut check);
        for plane in self.fleet.query_planes() {
            for row in plane.cache().iter().flat_map(|entry| &entry.rows) {
                check(row.item, row.value, row.timestamp);
            }
        }
        let violations = self.safety.since(&before).violations;
        if iv.observing {
            // Stale entries the strategy validated anyway — SIG's
            // false-validation risk made visible per interval.
            self.obs.add("safety_false_validations", violations);
        }
        // The no-stale-reads guarantee is absolute for never-stale
        // strategies: abort at the first false validation instead of
        // averaging it into a rate. SIG/HYB keep counting (their
        // contract is a bounded rate), quasi-copies are stale by
        // design.
        if violations > 0 && self.strategy.safety_expectation() == SafetyExpectation::NeverStale {
            return Err(SimulationError::SafetyViolated {
                strategy: self.strategy.name(),
                interval: iv.i,
            });
        }
        Ok(())
    }

    /// Phase 7: period boundaries and log hygiene.
    fn close_period(&mut self, iv: &Interval) {
        if let Some(period) = self.server.close_interval() {
            self.obs.event(iv.i, "adaptive_period", period.named());
        }
    }

    /// Phase 8: each awake unit draws its next sleep run and schedules
    /// its wake-up: a run of k > 0 means the unit is absent until
    /// interval i+1+k (and, stateful, disconnects at i+1). Units
    /// drawing the never-wake sentinel leave the schedule for good.
    fn schedule_sleep(&mut self, iv: &Interval) {
        let stateful = self.server.driver().is_stateful();
        for &idx in &iv.awake {
            let next_wake = self.fleet.close_interval(idx, iv.i);
            if stateful && !self.fleet.unit(idx).is_awake() {
                self.pending_disconnects.push(idx);
            }
            if iv.observing && next_wake == u64::MAX {
                self.obs.add("never_wake_draws", 1);
            }
            self.wake.schedule(idx, next_wake);
        }
    }

    /// Writes the interval's observation record (counters, histograms,
    /// one series row). Nothing here feeds back into the simulation.
    fn record_interval(&mut self, iv: &Interval) {
        let arrivals = std::mem::take(&mut self.arrivals_since_step);
        let Some(before) = &iv.before else {
            return;
        };
        let gained = self.families().since(before);
        let row = Tally {
            awake: iv.awake.len() as u64,
            uplinks: iv.uplinks.iter().map(|&c| c as u64).sum(),
            used_bits: self.channel.budget().used,
            lost: gained.faults.reports_missed_total(),
            retries: gained.faults.uplink_retries,
            ..iv.tally
        };
        let counted = Counted {
            intervals: 1,
            overflow_exchanges: row.overflow,
            ..iv.counted
        };
        self.obs.add_all(counted.named());
        // Each family stays absent (and the traces of cells without it
        // byte-identical) unless its plane is armed.
        if self.config.query.is_some() {
            self.obs.add_all(iv.query.named());
        }
        if self.faults.is_active() {
            self.obs.add_all(gained.faults.named());
            // Every whole-cache drop this interval followed a report
            // gap (sleep- or fault-induced): the recovery cost the
            // fig_loss sweep plots.
            self.obs.add("cache_drops_on_gap", row.drops);
        }
        if self.config.cache_capacity.is_some() {
            self.obs.add_all(gained.capacity.named());
        }
        if self.config.coop.is_some() {
            self.obs.add_all(gained.coop.named());
        }
        self.obs.record("report_bits", row.report_bits);
        self.obs.record("awake_clients", row.awake);
        self.obs.record("uplinks_per_interval", row.uplinks);
        self.obs.record("used_bits", row.used_bits);
        // The mesh series column: units that arrived by handoff at the
        // barrier preceding this interval.
        let migrations = self.config.backbone.map(|_| arrivals);
        self.obs.series_row(iv.i, row.values().chain(migrations));
    }

    /// Runs `intervals` broadcast intervals and summarizes.
    pub fn run(&mut self, intervals: u64) -> Result<SimulationReport, SimulationError> {
        for _ in 0..intervals {
            self.step()?;
        }
        Ok(self.report())
    }

    /// Zeroes every metric (client stats, traffic, report bits, safety
    /// counters) without touching caches or protocol state — call after
    /// a warm-up phase so cold-start misses don't bias the measurement.
    /// The warm-up bias matters most for effectiveness: with `h` close
    /// to 1, Eq. 9's `1/(1−h)` amplifies even a 1% cold-cache miss
    /// inflation severalfold.
    pub fn reset_metrics(&mut self) {
        // Eviction and query-plane counters live with the clients.
        self.fleet.reset_stats(self.clock.next_index());
        self.channel.reset_totals();
        self.report_bits_total = 0;
        self.overflow_exchanges = 0;
        self.registration_messages = 0;
        self.energy = EnergyTotals::default();
        self.safety = SafetyStats::default();
        self.migration = MigrationStats::default();
        self.coop_stats = CoopStats::default();
        // Counters only: the fault processes (burst state, drift) keep
        // evolving across the warm-up boundary, like every other
        // random stream.
        self.faults.reset_totals();
        // The observation recorder is deliberately *not* reset: a trace
        // that covers warm-up is a feature (the cold-start transient is
        // exactly what a per-interval series makes visible), and the
        // series carries absolute interval indices either way.
    }

    /// Runs `warmup` unmeasured intervals, resets the metrics, then
    /// runs `intervals` measured ones.
    pub fn run_measured(
        &mut self,
        warmup: u64,
        intervals: u64,
    ) -> Result<SimulationReport, SimulationError> {
        for _ in 0..warmup {
            self.step()?;
        }
        self.reset_metrics();
        self.run(intervals)
    }

    /// Snapshot of the metrics so far.
    pub fn report(&self) -> SimulationReport {
        let clients = self.client_totals();
        let query = QueryStats::total(self.fleet.query_planes().map(QueryPlane::stats));
        let params = &self.config.params;
        SimulationReport {
            strategy: self.strategy.name(),
            intervals: self.channel.intervals_elapsed(),
            n_clients: self.present_clients(),
            hit_events: clients.hit_events,
            miss_events: clients.miss_events,
            queries_posed: clients.queries_posed,
            cache_drops: clients.cache_drops,
            items_invalidated: clients.items_invalidated,
            report_bits_total: self.report_bits_total,
            traffic: self.channel.totals().clone(),
            overflow_exchanges: self.overflow_exchanges,
            registration_messages: self.registration_messages,
            energy: self.energy,
            safety: self.safety,
            query,
            migration: self.migration,
            faults: self.faults.totals(),
            capacity: clients.capacity(),
            coop: self.coop_stats,
            interval_bits: params.latency_secs * params.bandwidth_bps as f64,
            per_query_bits: (params.query_bits + params.answer_bits) as f64,
            t_max_analytic: sw_analysis::throughput_max(params),
            observe: self.obs.snapshot(),
        }
    }

    /// The observation snapshot captured so far (`None` unless the run
    /// was configured with an observe label *and* the `observe` cargo
    /// feature is on). Also reachable via
    /// [`SimulationReport::observe`]; this accessor additionally works
    /// when a run aborted before producing a report.
    pub fn observe_snapshot(&self) -> Option<sw_observe::ObserveSnapshot> {
        self.obs.snapshot()
    }

    /// Current per-item adaptive window (adaptive strategy only; test
    /// hook).
    pub fn adaptive_window(&self, item: ItemId) -> Option<u32> {
        self.server.driver().adaptive_window(item)
    }

    /// The cell's configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Number of units currently present (live slots, excluding
    /// departed ones).
    pub fn present_clients(&self) -> usize {
        self.client_slots() - self.departed_count
    }

    /// Whether two cells' report histories agree over the overlapping
    /// suffix of their digest logs. This is the paper's "has the new
    /// cell been broadcasting the same invalidation information?" test
    /// behind the TS handoff rule: with a shared backbone the static
    /// strategies' reports coincide and a migrating unit's window
    /// arithmetic stays valid, but adaptive/quasi builders fold local
    /// query feedback into their reports, so their histories (and hence
    /// a traveler's assumptions) can genuinely diverge. No overlap —
    /// e.g. one cell just started logging — counts as agreement: the
    /// gap rule alone then decides, exactly as for a freshly woken
    /// sleeper.
    pub(crate) fn report_history_agrees(&self, other: &CellSimulation) -> bool {
        let mut mine = self.report_digests.iter().rev().peekable();
        let mut theirs = other.report_digests.iter().rev().peekable();
        loop {
            match (mine.peek(), theirs.peek()) {
                (Some(&&(ia, da)), Some(&&(ib, db))) => {
                    if ia == ib {
                        if da != db {
                            return false;
                        }
                        mine.next();
                        theirs.next();
                    } else if ia > ib {
                        mine.next();
                    } else {
                        theirs.next();
                    }
                }
                _ => return true,
            }
        }
    }

    /// Detaches the unit in slot `idx` for a handoff to `dest`, moving
    /// its row of the fleet's columns to the end of `dest`'s, and
    /// returns its slot there; [`attach_client`](Self::attach_client)
    /// lands it. The row carries the cache, SIG's tracked-subset mask
    /// and last heard report, the unit's stats and interval state, the
    /// query and sleep streams, and the wake and settled-interval marks
    /// (the mesh's cells share one absolute interval clock, so these
    /// carry over). The slot stays behind, departed: it caches nothing
    /// and is never scheduled. Slots are never reused, so every
    /// outstanding index — heap entries, queued exchanges — stays valid.
    ///
    /// A queued exchange belongs to the unit, not the slot; it
    /// re-queries from its destination cell at its next miss. The queue
    /// entries become tombstones that the FIFO drain discards when it
    /// reaches them, so detaching is O(1) in the queue length.
    ///
    /// Under the stateful baseline the registry drops the unit
    /// immediately (the server learns of the disconnect at the
    /// boundary), but the directed control message it costs is charged
    /// against the *next* interval's budget — the current one is
    /// already settled.
    ///
    /// # Panics
    ///
    /// Panics if the slot already departed.
    pub(crate) fn detach_client(&mut self, idx: usize, dest: &mut CellSimulation) -> usize {
        assert!(!self.fleet.is_departed(idx), "slot {idx} already departed");
        let landed = self.fleet.move_row(idx, &mut dest.fleet);
        self.departed_count += 1;
        self.pending_disconnects.retain(|&p| p != idx);
        if let Some(registry) = self.server.driver_mut().registry_mut() {
            let id = idx as u64;
            if registry.is_connected(id) {
                registry.disconnect(id);
                self.deferred_control.push(id);
            }
        }
        self.migration.migrations_out += 1;
        self.obs.add("migrations_out", 1);
        landed
    }

    /// Attaches the traveling unit [`detach_client`](Self::detach_client)
    /// moved into the fresh slot `idx`, which is also its id here.
    ///
    /// `histories_agree` is the caller's verdict on whether the source
    /// and destination cells broadcast the same invalidation
    /// information (see
    /// [`report_history_agrees`](Self::report_history_agrees)); when
    /// they diverge the carried cache is unconditionally dropped — no
    /// report from *this* cell can vouch for entries validated against
    /// a different history.
    /// When the histories agree, the cache rides along and the unit's
    /// own strategy rules decide its fate at the first report heard
    /// here (the handoff is exactly a sleep gap: AT drops everything
    /// regardless, TS keeps entries iff the gap stayed inside `w`, SIG
    /// re-diagnoses by signature, the stateful baseline re-registers
    /// at its wake-up reconnect, like any returning sleeper).
    ///
    /// The arrival enforces a one-interval transit blackout: the unit
    /// is in transit for the whole next interval
    /// (`clock.next_index()` is the index of the *last* report
    /// broadcast; the transit interval is the one after it) and misses
    /// that interval's report in both cells. It behaves exactly like a
    /// sleeper over the blackout — the drop-vs-keep verdict falls to
    /// its strategy at the first report it actually hears, which
    /// closes a gap of 2L.
    pub(crate) fn attach_client(&mut self, idx: usize, histories_agree: bool) {
        let transit = self.clock.next_index() + 1;
        if self.fleet.land(idx, transit, histories_agree) {
            self.migration.handoff_drops += 1;
            self.obs.add("handoff_drops", 1);
        }
        self.wake.schedule(idx, self.fleet.next_wake(idx));
        self.faults.push_client(self.config.seed, idx, transit);
        self.migration.migrations_in += 1;
        self.arrivals_since_step += 1;
        self.obs.add("migrations", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::FeedbackMethod;
    use sw_sim::MasterSeed;
    use sw_workload::ScenarioParams;

    fn quick_params() -> ScenarioParams {
        // Small, fast parameters for unit tests: lively queries, visible
        // updates.
        let mut p = ScenarioParams::scenario1();
        p.n_items = 200;
        p.lambda = 0.05;
        p.mu = 1e-3;
        p.k = 10;
        p
    }

    fn config(s: f64) -> CellConfig {
        CellConfig::new(quick_params().with_s(s))
            .with_clients(8)
            .with_hotspot_size(20)
            .with_seed(42)
    }

    /// The series columns and the unconditional counters are the two
    /// records' field names: pinned here against literals, because a
    /// renamed field would otherwise rename a column silently.
    #[test]
    fn interval_records_name_the_series_columns_and_counters() {
        sw_sim::counters::assert_laws::<Tally>();
        sw_sim::counters::assert_laws::<Counted>();
        assert_eq!(
            Tally::NAMES,
            [
                "awake", "hits", "misses", "uplinks", "invalidated", "drops", "report_bits",
                "used_bits", "overflow", "lost", "retries",
            ]
        );
        assert_eq!(
            Counted::NAMES,
            [
                "intervals", "updates_applied", "overflow_exchanges", "sig_false_alarms",
                "sig_unmatched_subsets",
            ]
        );
    }

    /// One observed interval is one series row under that schema and
    /// one `intervals` count; a bounded, query-armed cell adds its two
    /// families whole, an unarmed cell neither.
    #[cfg(feature = "observe")]
    #[test]
    fn observed_intervals_emit_the_records_and_only_the_armed_families() {
        let plain = config(0.0).with_observe("plain");
        let armed = config(0.0)
            .with_observe("armed")
            .with_query(sw_query::QueryPlaneConfig::new())
            .with_cache_capacity(5);
        let run = |cfg| {
            let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
            sim.run(12).unwrap().observe.expect("observing")
        };
        let (plain, armed) = (run(plain), run(armed));
        for snap in [&plain, &armed] {
            assert_eq!(snap.series.columns, Tally::NAMES);
            assert_eq!(snap.series.rows.len(), 12);
            assert_eq!(snap.counter("intervals"), 12);
        }
        let has = |snap: &sw_observe::ObserveSnapshot, name: &str| {
            snap.counters.iter().any(|(counter, _)| *counter == name)
        };
        for family in [QueryStats::NAMES, CapacityStats::NAMES] {
            for name in family {
                assert!(has(&armed, name), "{name} missing from the armed cell");
                assert!(!has(&plain, name), "{name} on an unarmed cell");
            }
        }
    }

    #[test]
    fn at_simulation_runs_and_hits() {
        let mut sim = CellSimulation::new(config(0.0), Strategy::AmnesicTerminals).unwrap();
        let report = sim.run(100).unwrap();
        assert_eq!(report.intervals, 100);
        assert!(report.query_events() > 0, "workaholics must query");
        assert!(
            report.hit_ratio() > 0.5,
            "awake clients should mostly hit, got {}",
            report.hit_ratio()
        );
    }

    #[test]
    fn all_static_strategies_run() {
        for s in [
            Strategy::BroadcastTimestamps,
            Strategy::AmnesicTerminals,
            Strategy::Signatures,
            Strategy::NoCache,
        ] {
            let mut sim = CellSimulation::new(config(0.3), s).unwrap();
            let report = sim.run(50).unwrap();
            assert_eq!(report.strategy, s.name());
            assert_eq!(report.intervals, 50);
        }
    }

    #[test]
    fn no_cache_never_hits() {
        let mut sim = CellSimulation::new(config(0.0), Strategy::NoCache).unwrap();
        let report = sim.run(50).unwrap();
        assert_eq!(report.hit_events, 0);
        assert!(report.miss_events > 0);
        assert_eq!(report.report_bits_total, 0, "NC broadcasts nothing");
    }

    #[test]
    fn sleepier_cells_hit_less_with_at() {
        let run = |s: f64| {
            let mut sim = CellSimulation::new(config(s), Strategy::AmnesicTerminals).unwrap();
            sim.run(300).unwrap().hit_ratio()
        };
        let workaholic = run(0.0);
        let sleeper = run(0.7);
        assert!(
            workaholic > sleeper + 0.1,
            "AT: h(s=0)={workaholic} must exceed h(s=0.7)={sleeper}"
        );
    }

    #[test]
    fn ts_survives_naps_that_kill_at() {
        let run = |strategy| {
            let mut sim = CellSimulation::new(config(0.5), strategy).unwrap();
            sim.run(300).unwrap().hit_ratio()
        };
        let ts = run(Strategy::BroadcastTimestamps);
        let at = run(Strategy::AmnesicTerminals);
        assert!(ts > at, "TS {ts} must beat AT {at} for sleepers");
    }

    #[test]
    fn safety_invariant_holds_for_ts_and_at() {
        for strategy in [Strategy::BroadcastTimestamps, Strategy::AmnesicTerminals] {
            let cfg = config(0.4).with_safety_checking();
            let mut sim = CellSimulation::new(cfg, strategy).unwrap();
            let report = sim.run(200).unwrap();
            assert!(report.safety.entries_checked > 0);
            assert_eq!(
                report.safety.violations, 0,
                "{strategy:?} must never validate a stale entry"
            );
        }
    }

    #[test]
    fn sig_violations_are_rare() {
        let cfg = config(0.4).with_safety_checking();
        let mut sim = CellSimulation::new(cfg, Strategy::Signatures).unwrap();
        let report = sim.run(200).unwrap();
        assert!(
            report.safety.violation_rate() < 0.01,
            "SIG stale rate {} should be well under 1%",
            report.safety.violation_rate()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = CellSimulation::new(config(0.3), Strategy::AmnesicTerminals).unwrap();
            let r = sim.run(100).unwrap();
            (r.hit_events, r.miss_events, r.report_bits_total)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut sim = CellSimulation::new(
                config(0.3).with_seed(seed),
                Strategy::AmnesicTerminals,
            )
            .unwrap();
            let r = sim.run(100).unwrap();
            (r.hit_events, r.miss_events)
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn oversized_report_surfaces_as_error() {
        // Scenario-3-like: TS with a huge window and heavy updates on a
        // narrow channel.
        let mut p = quick_params();
        p.mu = 0.5;
        p.k = 100;
        p.n_items = 2000;
        p.bandwidth_bps = 1_000;
        let cfg = CellConfig::new(p).with_clients(2).with_hotspot_size(5);
        let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
        let err = sim.run(20).unwrap_err();
        assert!(matches!(err, SimulationError::ReportTooLarge { .. }));
    }

    #[test]
    fn adaptive_ts_runs_and_adjusts_windows() {
        let cfg = config(0.6);
        let strategy = Strategy::AdaptiveTs {
            method: FeedbackMethod::Method1,
            eval_period: 10,
            step: 2,
        };
        let mut sim = CellSimulation::new(cfg, strategy).unwrap();
        let report = sim.run(200).unwrap();
        assert_eq!(report.strategy, "ATS");
        assert!(report.query_events() > 0);
    }

    #[test]
    fn hybrid_sig_runs_and_survives_naps_on_cold_items() {
        // Zipf queries make low-id items genuinely hot; the hybrid
        // strategy lists those individually and signature-covers the
        // rest, beating plain AT for sleepers.
        use sw_workload::Popularity;
        let cfg = || {
            CellConfig::new(quick_params().with_s(0.5))
                .with_clients(8)
                .with_hotspot_size(20)
                .with_popularity(Popularity::Zipf { theta: 1.0 })
                .with_seed(77)
        };
        let hybrid = {
            let mut sim =
                CellSimulation::new(cfg(), Strategy::HybridSig { hot_count: 20 }).unwrap();
            sim.run(300).unwrap()
        };
        let at = {
            let mut sim = CellSimulation::new(cfg(), Strategy::AmnesicTerminals).unwrap();
            sim.run(300).unwrap()
        };
        assert_eq!(hybrid.strategy, "HYB");
        assert!(
            hybrid.hit_ratio() > at.hit_ratio(),
            "hybrid h {} should beat AT h {} for sleepers (cold items are nap-proof)",
            hybrid.hit_ratio(),
            at.hit_ratio()
        );
    }

    #[test]
    fn hybrid_sig_safety_violations_are_rare() {
        let cfg = CellConfig::new(quick_params().with_s(0.4))
            .with_clients(8)
            .with_hotspot_size(20)
            .with_seed(78)
            .with_safety_checking();
        let mut sim = CellSimulation::new(cfg, Strategy::HybridSig { hot_count: 30 }).unwrap();
        let report = sim.run(200).unwrap();
        assert!(
            report.safety.violation_rate() < 0.01,
            "hybrid stale rate {} too high",
            report.safety.violation_rate()
        );
    }

    #[test]
    fn stateful_baseline_runs_and_matches_at_hit_ratio() {
        // The stateful server's clients behave like AT units (reconnect
        // loses the cache); with the same seed their hit events match.
        let at = {
            let mut sim = CellSimulation::new(config(0.4), Strategy::AmnesicTerminals).unwrap();
            sim.run(200).unwrap()
        };
        let sf = {
            let mut sim = CellSimulation::new(config(0.4), Strategy::Stateful).unwrap();
            sim.run(200).unwrap()
        };
        assert_eq!(sf.strategy, "SF");
        assert_eq!(sf.hit_events, at.hit_events, "same semantics, same seed");
        assert_eq!(sf.miss_events, at.miss_events);
        // But the channel accounting differs: no broadcast report, some
        // directed invalidations and registration control traffic.
        assert_eq!(sf.report_bits_total, 0);
        assert!(sf.traffic.invalidation_bits > 0);
        assert!(sf.registration_messages > 0, "sleep transitions register");
    }

    #[test]
    fn stateful_directed_traffic_scales_with_holders() {
        // More clients caching the same items ⇒ more directed messages
        // per update — §2's scalability argument against statefulness.
        let run = |clients: usize| {
            let cfg = config(0.0).with_clients(clients);
            let mut sim = CellSimulation::new(cfg, Strategy::Stateful).unwrap();
            sim.run(150).unwrap().traffic.invalidation_bits
        };
        let small = run(4);
        let big = run(16);
        assert!(
            big > small * 2,
            "16 clients ({big} bits) should cost ≫ 4 clients ({small} bits)"
        );
    }

    #[test]
    fn energy_accounting_tracks_sleep_and_listening() {
        use sw_wireless::DeliveryMode;
        // Sleepers spend almost nothing; workaholics pay rx/doze.
        let run = |s: f64, delivery| {
            let cfg = config(s).with_delivery(delivery);
            let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
            let r = sim.run(100).unwrap();
            r.energy_per_client_interval()
        };
        let timer = DeliveryMode::TimerSynchronized {
            clock_skew_bound: 0.0,
        };
        let workaholic = run(0.0, timer);
        let sleeper = run(0.95, timer);
        assert!(
            workaholic > sleeper * 2.0,
            "awake units must burn more: {workaholic} vs {sleeper}"
        );
        // Multicast delivery never costs more listening than waking
        // early for a skewed timer.
        let skewed = run(0.3, DeliveryMode::TimerSynchronized { clock_skew_bound: 1.0 });
        let multicast = run(0.3, DeliveryMode::Multicast { max_jitter: 1.0 });
        assert!(
            multicast < skewed,
            "multicast {multicast} should beat skewed-timer {skewed}"
        );
    }

    #[test]
    fn quasi_delay_reduces_report_traffic() {
        let base = {
            let mut sim =
                CellSimulation::new(config(0.2), Strategy::BroadcastTimestamps).unwrap();
            sim.run(200).unwrap().report_bits_total
        };
        let quasi = {
            let mut sim = CellSimulation::new(
                config(0.2),
                Strategy::QuasiDelay { alpha_intervals: 10 },
            )
            .unwrap();
            sim.run(200).unwrap().report_bits_total
        };
        assert!(
            quasi < base,
            "quasi-delay ({quasi} bits) must thin the TS report stream ({base} bits)"
        );
    }

    #[test]
    fn saturated_exchanges_requeue_fifo_and_charge_once() {
        use sw_wireless::FrameKind;
        // A channel so narrow (~4 000 bits/interval, 1 024 per
        // exchange) that the cold fleet's first intervals want far more
        // than fits: rejected exchanges must defer FIFO across
        // intervals, not vanish or double-charge.
        let mut p = quick_params();
        p.mu = 0.0; // no updates: a fetched item stays valid forever
        p.bandwidth_bps = 400;
        let cfg = CellConfig::new(p.with_s(0.0))
            .with_clients(4)
            .with_hotspot_size(10)
            .with_seed(11);
        let mut sim = CellSimulation::new(cfg, Strategy::AmnesicTerminals).unwrap();
        let mut prev: Vec<(usize, ItemId)> = Vec::new();
        for _ in 0..40 {
            sim.step().unwrap();
            let queue: Vec<(usize, ItemId)> = sim
                .pending_uplinks
                .iter()
                .map(|q| (q.idx, q.item))
                .collect();
            // FIFO across intervals: the previous queue's survivors are
            // a suffix of it, still at the front of the new queue in
            // unchanged order (new deferrals only append).
            let survivors: Vec<(usize, ItemId)> = prev
                .iter()
                .copied()
                .filter(|e| queue.contains(e))
                .collect();
            assert!(prev.ends_with(&survivors), "drain must serve the oldest first");
            assert!(
                queue.starts_with(&survivors),
                "retries must stay ahead of newly deferred exchanges"
            );
            prev = queue;
        }
        let report = sim.report();
        assert!(
            report.overflow_exchanges > 0,
            "the test must actually exercise saturation"
        );
        assert!(
            sim.pending_uplinks.is_empty(),
            "queue must drain once the cold start passes"
        );
        // Each exchange transmits exactly once, however long it waited:
        // with μ = 0 every (client, item) pair is fetched at most once,
        // so queries pair 1:1 with answers and never exceed the 4 × 10
        // distinct pairs.
        let queries = report.traffic.frames.get(FrameKind::Query);
        assert_eq!(queries, report.traffic.frames.get(FrameKind::Answer));
        assert!(
            queries <= 40,
            "a deferred exchange must not transmit twice ({queries} query frames)"
        );
        assert_eq!(report.traffic.query_bits, queries * quick_params().query_bits as u64);
    }

    #[test]
    fn zero_probability_fault_plan_changes_nothing() {
        use crate::faults::{FaultPlan, LossModel};
        // An armed plan whose every probability is zero must be
        // bit-identical to no plan at all — in both feature configs
        // (compiled out it is trivially inert; compiled in, zero-p
        // models draw no randomness).
        let base = {
            let mut sim =
                CellSimulation::new(config(0.3), Strategy::BroadcastTimestamps).unwrap();
            sim.run(100).unwrap()
        };
        let zeroed = {
            let cfg = config(0.3)
                .with_faults(FaultPlan::none().with_loss(LossModel::bernoulli(0.0)));
            let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
            sim.run(100).unwrap()
        };
        assert_eq!(base.hit_events, zeroed.hit_events);
        assert_eq!(base.miss_events, zeroed.miss_events);
        assert_eq!(base.report_bits_total, zeroed.report_bits_total);
        assert_eq!(base.traffic, zeroed.traffic);
        assert_eq!(base.faults, zeroed.faults);
    }

    #[cfg(feature = "faults")]
    mod fault_injection {
        use super::*;
        use crate::faults::{ClockDrift, FaultPlan, LossModel, UplinkFaults};

        fn run_with(
            plan: Option<FaultPlan>,
            strategy: Strategy,
            intervals: u64,
        ) -> SimulationReport {
            let mut cfg = config(0.2).with_safety_checking();
            if let Some(plan) = plan {
                cfg = cfg.with_faults(plan);
            }
            let mut sim = CellSimulation::new(cfg, strategy).unwrap();
            sim.run(intervals).unwrap()
        }

        #[test]
        fn report_loss_costs_hits_and_at_drops_more() {
            let plan = FaultPlan::none().with_loss(LossModel::bernoulli(0.3));
            let clean = run_with(None, Strategy::AmnesicTerminals, 300);
            let lossy = run_with(Some(plan), Strategy::AmnesicTerminals, 300);
            assert!(lossy.faults.reports_lost > 0, "losses must occur at p = 0.3");
            assert!(
                lossy.hit_ratio() < clean.hit_ratio(),
                "lost reports must cost hits: {} !< {}",
                lossy.hit_ratio(),
                clean.hit_ratio()
            );
            assert!(
                lossy.cache_drops > clean.cache_drops,
                "AT must drop its cache after every missed-report gap"
            );
        }

        #[test]
        fn ts_window_recovery_drops_less_than_at() {
            // TS (w = kL, k = 10) restamps across short gaps where AT
            // must drop everything — the paper's central distinction,
            // now driven by fault-induced gaps instead of sleep.
            let plan = FaultPlan::none().with_loss(LossModel::bernoulli(0.2));
            let ts = run_with(Some(plan), Strategy::BroadcastTimestamps, 300);
            let at = run_with(Some(plan), Strategy::AmnesicTerminals, 300);
            assert!(ts.faults.reports_lost > 0);
            assert!(
                ts.cache_drops < at.cache_drops,
                "TS window recovery ({} drops) must beat AT's drop-all rule ({})",
                ts.cache_drops,
                at.cache_drops
            );
        }

        #[test]
        fn never_stale_survives_a_hostile_schedule() {
            // Bursty loss + corruption + drift + uplink failures, with
            // the in-step no-stale-reads enforcement armed: completing
            // the run at all proves zero false validations.
            let plan = FaultPlan::none()
                .with_loss(LossModel::burst(0.1, 0.4, 0.9))
                .with_corruption(0.05)
                .with_drift(ClockDrift {
                    rate_secs_per_interval: 0.02,
                    jitter_secs: 0.01,
                })
                .with_uplink(UplinkFaults {
                    p_fail: 0.2,
                    max_attempts: 3,
                    backoff_base_bits: 64,
                });
            for strategy in [Strategy::BroadcastTimestamps, Strategy::AmnesicTerminals] {
                let report = run_with(Some(plan), strategy, 300);
                assert!(report.faults.reports_missed_total() > 0);
                assert_eq!(report.faults.undetected_corruptions, 0);
                assert_eq!(
                    report.safety.violations, 0,
                    "{strategy:?} validated a stale entry under faults"
                );
            }
        }

        #[test]
        fn query_invalidation_stays_sound_under_the_gauntlet() {
            use sw_query::QueryPlaneConfig;
            // The query plane inherits each strategy's safety contract
            // even when reports are lost, frames are corrupted, and
            // uplinks fail: TS/AT cached results are never stale (the
            // in-step abort enforces it row by row), SIG stays within
            // its diagnosis bound.
            let plan = FaultPlan::none()
                .with_loss(LossModel::burst(0.1, 0.4, 0.9))
                .with_corruption(0.05)
                .with_uplink(UplinkFaults {
                    p_fail: 0.2,
                    max_attempts: 3,
                    backoff_base_bits: 64,
                });
            for strategy in [Strategy::BroadcastTimestamps, Strategy::AmnesicTerminals] {
                let cfg = config(0.2)
                    .with_safety_checking()
                    .with_faults(plan)
                    .with_query(QueryPlaneConfig::new());
                let mut sim = CellSimulation::new(cfg, strategy).unwrap();
                let report = sim.run(300).unwrap();
                assert!(report.faults.reports_missed_total() > 0);
                assert!(report.query.queries_posed > 0);
                assert_eq!(
                    report.safety.violations, 0,
                    "{strategy:?} served a stale query row under faults"
                );
            }
            let cfg = config(0.2)
                .with_safety_checking()
                .with_faults(plan)
                .with_query(QueryPlaneConfig::new());
            let mut sim = CellSimulation::new(cfg, Strategy::Signatures).unwrap();
            let report = sim.run(300).unwrap();
            assert!(
                report.safety.violation_rate() < 0.01,
                "SIG query-row stale rate {} must stay within its bound",
                report.safety.violation_rate()
            );
        }

        #[test]
        fn uplink_retries_back_off_and_eventually_deliver() {
            let plan = FaultPlan::none().with_uplink(UplinkFaults {
                p_fail: 0.3,
                max_attempts: 4,
                backoff_base_bits: 64,
            });
            let clean = run_with(None, Strategy::AmnesicTerminals, 200);
            let faulty = run_with(Some(plan), Strategy::AmnesicTerminals, 200);
            assert!(faulty.faults.uplink_retries > 0);
            assert!(faulty.faults.backoff_intervals > 0);
            // Failed attempts burn real airtime: more query bits for
            // the same workload.
            assert!(faulty.traffic.query_bits > clean.traffic.query_bits);
            assert!(faulty.hit_events > 0, "retried fetches must still land");
        }

        #[test]
        fn drift_hits_timer_clients_but_not_multicast() {
            use sw_wireless::DeliveryMode;
            let plan = FaultPlan::none().with_drift(ClockDrift {
                rate_secs_per_interval: 0.5,
                jitter_secs: 0.0,
            });
            let run = |delivery| {
                let cfg = config(0.2).with_faults(plan).with_delivery(delivery);
                let mut sim =
                    CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
                sim.run(100).unwrap()
            };
            let timer = run(DeliveryMode::TimerSynchronized {
                clock_skew_bound: 0.1,
            });
            let multicast = run(DeliveryMode::Multicast { max_jitter: 1.0 });
            assert!(
                timer.faults.drift_missed_reports > 0,
                "0.5 s/interval drift must beat a 0.1 s guard band"
            );
            assert_eq!(
                multicast.faults.drift_missed_reports, 0,
                "the network wakes a multicast client, not its clock"
            );
        }
    }

    mod query_plane {
        use super::*;
        use sw_query::QueryPlaneConfig;

        fn query_config(s: f64) -> CellConfig {
            config(s).with_query(QueryPlaneConfig::new())
        }

        #[test]
        fn runs_caches_and_reports_counters() {
            let mut sim =
                CellSimulation::new(query_config(0.3), Strategy::BroadcastTimestamps).unwrap();
            let report = sim.run(200).unwrap();
            let q = report.query;
            assert!(q.queries_posed > 0, "clients must pose predicate queries");
            assert!(q.misses > 0, "cold caches must miss");
            assert!(q.hits > 0, "materialized results must be re-served");
            assert!(
                q.hits + q.misses == q.queries_posed,
                "every posed query is a hit or a miss: {q:?}"
            );
            assert!(
                report.miss_events > 0,
                "the item plane keeps running underneath"
            );
        }

        #[test]
        fn updates_invalidate_cached_results() {
            let mut p = quick_params();
            p.mu = 0.02; // lively updates so footprints get hit
            let cfg = CellConfig::new(p.with_s(0.2))
                .with_clients(8)
                .with_hotspot_size(20)
                .with_seed(42)
                .with_query(QueryPlaneConfig::new());
            let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
            let report = sim.run(300).unwrap();
            assert!(
                report.query.entries_invalidated > 0,
                "updated footprints must drop entries: {:?}",
                report.query
            );
        }

        #[test]
        fn query_rows_never_stale_for_ts_and_at() {
            for strategy in [Strategy::BroadcastTimestamps, Strategy::AmnesicTerminals] {
                let cfg = query_config(0.4).with_safety_checking();
                let mut sim = CellSimulation::new(cfg, strategy).unwrap();
                // Completing at all proves it: a stale query row trips
                // the same NeverStale in-step abort as a stale item.
                let report = sim.run(200).unwrap();
                assert!(report.safety.entries_checked > 0);
                assert_eq!(
                    report.safety.violations, 0,
                    "{strategy:?} served a stale query row"
                );
                assert!(report.query.queries_posed > 0);
            }
        }

        #[test]
        fn transactions_commit_and_stats_balance() {
            let cfg = query_config(0.3);
            let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
            let report = sim.run(400).unwrap();
            let q = report.query;
            assert!(q.txns_begun > 0, "txn mix must fire: {q:?}");
            assert!(q.txn_commits > 0, "coherent pins must commit: {q:?}");
            assert_eq!(
                q.txn_commits + q.txn_aborts,
                q.txns_begun,
                "every begun txn resolves exactly once: {q:?}"
            );
        }

        #[test]
        fn non_serializable_reads_are_detected_and_aborted() {
            // Update-heavy cell + eager transactions: some multi-item
            // read must witness a footprint change between its two
            // pinned reports and abort — deterministically, given the
            // seed. This is the serializability contract's teeth: the
            // plane *detects* the interleaving instead of committing a
            // snapshot no serial order could produce.
            let mut p = quick_params();
            p.mu = 0.02;
            let qc = QueryPlaneConfig::new().with_txn_probability(0.5);
            let cfg = CellConfig::new(p.with_s(0.2))
                .with_clients(8)
                .with_hotspot_size(20)
                .with_seed(42)
                .with_query(qc);
            let mut sim = CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
            let report = sim.run(400).unwrap();
            let q = report.query;
            assert!(
                q.txn_aborts > 0,
                "an update-heavy run must detect and abort at least one \
                 non-serializable multi-item read: {q:?}"
            );
            assert!(q.txn_commits > 0, "quiet footprints must still commit: {q:?}");
            assert_eq!(q.txn_commits + q.txn_aborts, q.txns_begun);
        }

        #[test]
        fn deterministic_given_seed_and_thread_count() {
            let run = |threads: usize| {
                let cfg = query_config(0.3).with_sweep_threads(threads);
                let mut sim =
                    CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
                let r = sim.run(150).unwrap();
                (r.query, r.hit_events, r.miss_events, r.report_bits_total)
            };
            let single = run(1);
            assert_eq!(single, run(4), "query plane must be sweep-invariant");
            assert_eq!(single, run(7), "odd split points included");
        }

        #[test]
        fn query_plane_leaves_item_plane_schedules_untouched() {
            // Arming the query plane must not perturb any pre-existing
            // random stream (the plane draws only from its own
            // `StreamId::QueryPlan`): the update process, the item-query
            // arrivals, and the sleep schedule — hence the report stream
            // and drop counts — stay byte-identical. Item *hits* may
            // legitimately change: query fetches land in the item cache.
            let run = |armed: bool| {
                let mut cfg = config(0.3);
                if armed {
                    cfg = cfg.with_query(QueryPlaneConfig::new());
                }
                let mut sim =
                    CellSimulation::new(cfg, Strategy::BroadcastTimestamps).unwrap();
                let r = sim.run(150).unwrap();
                (r.queries_posed, r.report_bits_total, r.cache_drops)
            };
            assert_eq!(run(false), run(true));
        }

        #[test]
        fn rejects_a_mesh_shard() {
            let mut shard = query_config(0.3);
            shard.backbone = Some(MasterSeed(99));
            let err = shard.validate().unwrap_err();
            assert!(err.contains("standalone"), "got: {err}");
        }
    }

    #[test]
    fn measured_hit_ratio_tracks_analysis_for_at() {
        // E11 in miniature: simulated h_at within a few points of Eq. 41.
        let params = quick_params().with_s(0.3);
        let cfg = CellConfig::new(params)
            .with_clients(20)
            .with_hotspot_size(20)
            .with_seed(7);
        let mut sim = CellSimulation::new(cfg, Strategy::AmnesicTerminals).unwrap();
        let report = sim.run(500).unwrap();
        let analytic = sw_analysis::h_at(&params);
        let measured = report.hit_ratio();
        assert!(
            (measured - analytic).abs() < 0.05,
            "h_at: simulated {measured} vs Eq.41 {analytic}"
        );
    }
}
