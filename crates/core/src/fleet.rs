//! The client fleet: one set of interval-protocol phase calls over two
//! client stores.
//!
//! [`Fleet`] is what the cell driver steps. Its two variants hold the
//! same clients in different layouts — [`Fleet::Units`], a vector of
//! [`ClientSeat`]s (one boxed [`sw_client::MobileUnit`] each), and
//! [`Fleet::Columnar`], the struct-of-arrays [`ColumnarFleet`] below —
//! and answer the same calls: `open_interval`,
//! `miss_report`, `sweep`, `install_answer`, `close_interval`. The
//! driver never asks which one it has. Both start every client from
//! the same [`ClientStreams`], so the backend choice never perturbs a
//! random stream, and both sweep a report with the one parallel driver
//! in this module ([`SweepStore`]).
//!
//! # The columnar store
//!
//! The boxed layout is exact but hostile to the hot path: one report
//! sweep visits a thousand heap-scattered caches, each a universe-sized
//! vector of `Option<CacheEntry>`, and at 10⁵–10⁶ clients per cell the
//! per-client tables alone dwarf RAM (a million 2000-item dense caches
//! ≈ 48 GB).
//!
//! [`ColumnarFleet`] keeps the *same observable semantics* in parallel
//! columns. The enabling invariant is that a client's cache is always a
//! subset of its hotspot: queries draw only hotspot items, and entries
//! are installed only by answers to queries. So every client owns a
//! fixed block of `H = hotspot_size` *slots*, one per hotspot item in
//! ascending id order, and the whole fleet is flat vectors indexed by
//! `client * H + slot` (bitmaps: `client * ⌈H/64⌉ + slot / 64`):
//!
//! * `slot_items` — the hotspot, sorted (slot → item id);
//! * `valid` — one bit per slot (cached or not), `⌈H/64⌉` words/client;
//! * `values` — the cached value;
//! * `stamps` — install stamp; the validity stamp is `max(stamp, T_l)`
//!   ([`validity`]), because every rule the store hosts ends a heard
//!   report with each survivor verified as of `T_i` and `T_l := T_i`;
//! * `draw_slot` — the hotspot in draw order, as slots (query draw
//!   index → slot);
//! * `pending_mask` — one bit per slot queried since the last heard
//!   report: the deduplicated `Q_i`, already in answer order;
//! * SIG/HYB only ([`SigColumns`]): one bit per subset the client
//!   tracks, `⌈m/64⌉` words/client, and the client's [`Arc`] share of
//!   its last heard report, which is the value of every tracked subset;
//! * plus per-client scalars — everything a [`ClientSeat`] holds beside
//!   its cache: stats, `T_l`, awake flag, query pose times, the
//!   query/sleep processes and their streams, the settled-interval and
//!   next-wake marks.
//!
//! One report sweep is then a cache-friendly linear scan over the slot
//! block, and disjoint client ranges of the columns can be swept by
//! parallel workers with no aliasing. This module holds no report
//! algorithm of its own: the §3 client algorithms live once, in
//! [`ReportRule::apply`], generic over a [`CacheSlots`] view, and the
//! fleet's share is [`SlotBlock`] — that view over one client's block
//! of the columns — plus lending the client's row of the SIG columns
//! as a [`Lent::Sig`]. A boxed `MobileUnit` runs the same function over
//! its `Cache`. `SlotBlock`'s walk is the way §3 writes the loop — "for
//! every item j *in the MU cache*" — ascending over the client's valid
//! bits (slot order is item-id order), with the broadcast's shared
//! [`ReportDigest`] only *probed*, a bit test per slot: an interval
//! costs O(|report| + awake·H) bit tests. Because a survivor's validity
//! stamp is derived from `T_l`, nothing restamps it: TS, AT, GR and
//! HYB's hot half go through [`CacheSlots::drop_listed`], which reads a
//! stamp only for `report ∩ cache`, and the sweep writes no stamp at
//! all — Σ|report ∩ cache| stamp reads per interval instead of awake·H
//! stamp writes. What remains for
//! `tests/columnar_equivalence.rs` to pin is what the stores do around
//! the rule: the answer loop, capacity columns, query draws.
//!
//! Bounded caches ride along as optional columns ([`CapColumns`]):
//! per-slot recency/frequency ticks, a per-client access clock, and a
//! per-slot ghost byte remembering evicted-entry stamps. They are
//! materialized only when the cell bounds its caches, so unbounded
//! sweeps touch nothing new; when armed, eviction at install time and
//! ghost classification at answer time follow
//! `sw_client::Cache` exactly (the victim key's item-id tiebreak makes
//! the minimum unique, so the slot scan and the boxed table walk pick
//! the same victim).
//!
//! Eligibility is decided in [`Fleet::new`]: TS/AT/SIG/NC/HYB/GR only
//! (adaptive TS, quasi-delay and the stateful baseline stay on seats),
//! no piggyback histories, no query plane, standalone cells (no mesh
//! backbone — handoffs move whole seats). Everything else stays on
//! seats.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sw_capacity::{victim_key, EntryMeta, ReplacementPolicy};
use sw_client::{
    CacheSlots, IntervalReport, Lent, MuStats, ReportDigest, ReportRule, SigTrack, Verdict,
};
use sw_query::QueryPlane;
use sw_server::{ItemId, QueryAnswer};
use sw_signature::CombinedSignature;
use sw_sim::{BernoulliIntervalProcess, PoissonProcess, RngStream, SimDuration, SimTime};
use sw_workload::ZipfPicker;

use crate::config::{CellConfig, FleetBackend, WakeMode};
use crate::seat::{piggybacks, shared_zipf, wake_after, ClientSeat, ClientStreams};
use crate::simulation::SimulationError;
use crate::strategy::Strategy;

/// Below this many listening clients the parallel sweep is not worth
/// its thread hand-off; the sequential path runs instead. Purely a
/// performance threshold — both paths are bit-identical.
const SWEEP_PAR_MIN: usize = 256;

/// Why adaptive TS, quasi-delay and the stateful baseline stay on
/// seats: [`Fleet::new`]'s refusal, and the reason a slot block refuses
/// §7's `Keep`.
const FEEDBACK_ONLY_ON_SEATS: &str =
    "builds its reports from per-client feedback state that only boxed units carry";

/// Per-client output of the (possibly parallel) report sweep. The
/// sweep applies the shared report to disjoint client ranges; the
/// items are then merged sequentially in ascending client order, so
/// every channel charge, random draw, and observation event happens in
/// the same order at any worker count.
pub(crate) struct SweepItem {
    /// Position in the interval's awake set.
    pub(crate) slot: usize,
    /// Pre-processing stats snapshot and last-heard-report time
    /// (captured only when observing; feeds the per-interval series
    /// and the false-alarm analysis).
    pub(crate) pre: Option<(MuStats, Option<SimTime>)>,
    /// This was the unit's first report after a handoff and it dropped
    /// a non-empty carried cache: the cell switch cost it its cache.
    pub(crate) handoff_drop: bool,
    /// What the client did with the report and which fetches it needs.
    pub(crate) outcome: IntervalReport,
}

/// The cell's clients, on either store. See the module docs.
// One per cell and never moved once built: boxing the columns would
// only put a pointer hop in front of every phase call.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Fleet {
    /// One [`ClientSeat`] per slot; departed slots hold husks.
    Units(Vec<ClientSeat>),
    /// Struct-of-arrays columns.
    Columnar(ColumnarFleet),
}

/// `method(idx, args…)` on either store: the seat's `method(args…)`,
/// or the columnar fleet's `method(idx, args…)`. The per-client calls
/// below are `#[inline]` (as are the seat's): they sit between the
/// driver's phase loops and the stores in other modules, and without
/// the hint each would be a call per client per phase.
macro_rules! per_client {
    ($fleet:expr, $idx:expr, $method:ident($($arg:expr),*)) => {
        match $fleet {
            Fleet::Units(seats) => seats[$idx].$method($($arg),*),
            Fleet::Columnar(fleet) => fleet.$method($idx $(, $arg)*),
        }
    };
}

impl Fleet {
    /// Builds the cell's clients. The columnar store hosts every
    /// eligible configuration unless `config.fleet` forces the choice
    /// (the equivalence suite runs both on the same config).
    pub(crate) fn new(config: &CellConfig, strategy: Strategy) -> Result<Self, SimulationError> {
        let params = &config.params;
        let piggyback = piggybacks(config, strategy);
        // Adaptive TS (a window table per client), quasi-delay and the
        // stateful baseline run on seats only.
        let feedback = matches!(
            strategy,
            Strategy::AdaptiveTs { .. } | Strategy::QuasiDelay { .. } | Strategy::Stateful
        );
        let eligible =
            config.backbone.is_none() && !piggyback && config.query.is_none() && !feedback;
        let columnar = match config.fleet {
            Some(FleetBackend::Units) => false,
            Some(FleetBackend::Columnar) if !eligible => {
                // The caller forced the columnar store: name every
                // disqualifier, not just the first.
                let mut reasons: Vec<String> = Vec::new();
                if config.backbone.is_some() {
                    reasons.push("mesh handoffs move whole boxed units between cells".into());
                }
                if piggyback {
                    reasons.push("piggybacked hit histories live on boxed units".into());
                }
                if config.query.is_some() {
                    reasons.push("the query-result plane attaches to boxed units".into());
                }
                if feedback {
                    reasons.push(format!(
                        "strategy {} {FEEDBACK_ONLY_ON_SEATS}",
                        strategy.name()
                    ));
                }
                return Err(SimulationError::InvalidConfig(format!(
                    "the columnar fleet cannot host this configuration: {}",
                    reasons.join("; ")
                )));
            }
            _ => eligible,
        };
        let zipf = shared_zipf(config);
        // One rule for the whole cell, on either store: every seat holds
        // a clone, so SIG's subset lists are filled once per cell.
        let rule = strategy.report_rule(params, config.protocol_seed());
        if !columnar {
            return Ok(Fleet::Units(
                (0..config.n_clients)
                    .map(|idx| ClientSeat::new(config, strategy, &rule, idx, zipf.as_ref()))
                    .collect(),
            ));
        }
        // Finite capacity runs on either store with the same policy and
        // the same TS window `w = kL` feeding the window-age rule.
        let capacity = config.cache_capacity.map(|cap| CapacitySpec {
            cap,
            policy: config.replacement,
            window: SimDuration::from_secs(params.latency_secs).scaled(params.k as f64),
        });
        let mut fleet = ColumnarFleet::new(config.hotspot_size, rule, capacity, zipf);
        for idx in 0..config.n_clients {
            fleet.push_client(ClientStreams::draw(config, idx), params.lambda);
        }
        Ok(Fleet::Columnar(fleet))
    }

    /// Number of client slots, departed husks included.
    pub(crate) fn len(&self) -> usize {
        match self {
            Fleet::Units(seats) => seats.len(),
            Fleet::Columnar(fleet) => fleet.n,
        }
    }

    pub(crate) fn is_columnar(&self) -> bool {
        matches!(self, Fleet::Columnar(_))
    }

    #[inline]
    fn seat(&self, idx: usize) -> Option<&ClientSeat> {
        match self {
            Fleet::Units(seats) => Some(&seats[idx]),
            Fleet::Columnar(_) => None,
        }
    }

    /// The unit's id. Columnar cells are standalone: slots are never
    /// reassigned, so the id a seat would carry is the slot index.
    #[inline]
    pub(crate) fn id(&self, idx: usize) -> u64 {
        self.seat(idx).map_or(idx as u64, |seat| seat.unit().id())
    }

    /// Whether slot `idx` holds the husk of a unit that migrated away.
    #[inline]
    pub(crate) fn is_departed(&self, idx: usize) -> bool {
        self.seat(idx).is_some_and(ClientSeat::is_husk)
    }

    /// Whether the unit arrived by handoff and has not yet heard a
    /// report here.
    pub(crate) fn newly_migrated(&self, idx: usize) -> bool {
        self.seat(idx).is_some_and(ClientSeat::newly_migrated)
    }

    pub(crate) fn query_plane(&self, idx: usize) -> Option<&QueryPlane> {
        self.seat(idx)?.query_plane()
    }

    /// Every armed query plane, in slot order.
    pub(crate) fn query_planes(&self) -> impl Iterator<Item = &QueryPlane> + '_ {
        (0..self.len()).filter_map(|idx| self.query_plane(idx))
    }

    #[inline]
    pub(crate) fn stats(&self, idx: usize) -> MuStats {
        match self {
            Fleet::Units(seats) => seats[idx].unit().stats(),
            Fleet::Columnar(fleet) => fleet.stats[idx],
        }
    }

    /// Every slot's stats, in slot order (husks report zeros).
    pub(crate) fn stats_iter(&self) -> impl Iterator<Item = MuStats> + '_ {
        (0..self.len()).map(|idx| self.stats(idx))
    }

    #[inline]
    pub(crate) fn is_awake(&self, idx: usize) -> bool {
        match self {
            Fleet::Units(seats) => seats[idx].unit().is_awake(),
            Fleet::Columnar(fleet) => fleet.awake[idx],
        }
    }

    /// The next interval the unit is awake in (`u64::MAX` = never).
    #[inline]
    pub(crate) fn next_wake(&self, idx: usize) -> u64 {
        match self {
            Fleet::Units(seats) => seats[idx].next_wake(),
            Fleet::Columnar(fleet) => fleet.next_wake[idx],
        }
    }

    /// Appends every unit due at interval `i` to `awake`, ascending.
    pub(crate) fn due(&self, i: u64, awake: &mut Vec<usize>) {
        awake.extend((0..self.len()).filter(|&idx| self.next_wake(idx) <= i));
    }

    /// Unmatched-subset telemetry from the last processed report
    /// (SIG/HYB only).
    #[inline]
    pub(crate) fn last_unmatched_subsets(&self, idx: usize) -> Option<u32> {
        match self {
            Fleet::Units(seats) => seats[idx].unit().handler().last_unmatched_subsets(),
            Fleet::Columnar(fleet) => fleet.sig.as_ref().map(|s| s.last_unmatched[idx]),
        }
    }

    /// Phase 1 for one waking unit: settle its sleep run, pose queries.
    #[inline]
    pub(crate) fn open_interval(&mut self, idx: usize, i: u64, from: SimTime, to: SimTime) {
        per_client!(self, idx, open_interval(i, from, to))
    }

    /// The unit listened for the report and never received it intact.
    #[inline]
    pub(crate) fn miss_report(&mut self, idx: usize) {
        per_client!(self, idx, miss_report())
    }

    /// The report sweep: every listening client (the `heard` positions
    /// of the awake set, client indices `awake[slot]` ascending) walks
    /// its own cache probing the broadcast's shared digest, then
    /// answers its pending queries. Results ascend by client at any
    /// `threads`.
    pub(crate) fn sweep(
        &mut self,
        heard: &[usize],
        awake: &[usize],
        digest: &ReportDigest<'_>,
        observing: bool,
        threads: usize,
    ) -> Vec<SweepItem> {
        match self {
            Fleet::Units(seats) => {
                sweep_store(&mut seats[..], heard, awake, digest, observing, threads)
            }
            Fleet::Columnar(fleet) => {
                sweep_store(fleet.view(), heard, awake, digest, observing, threads)
            }
        }
    }

    #[inline]
    pub(crate) fn install_answer(&mut self, idx: usize, answer: QueryAnswer) {
        per_client!(self, idx, install_answer(answer))
    }

    /// The query plane's fetch list after a heard report (`None`: the
    /// client has no plane).
    #[inline]
    pub(crate) fn check_queries(&mut self, idx: usize, t_i: SimTime) -> Option<Vec<ItemId>> {
        match self {
            Fleet::Units(seats) => seats[idx].check_queries(t_i),
            Fleet::Columnar(_) => None,
        }
    }

    #[inline]
    pub(crate) fn settle_queries(&mut self, idx: usize, t_i: SimTime) {
        if let Fleet::Units(seats) = self {
            seats[idx].settle_queries(t_i);
        }
    }

    /// Last phase for one awake unit: draw its next sleep run; returns
    /// the next interval it is awake in.
    #[inline]
    pub(crate) fn close_interval(&mut self, idx: usize, i: u64) -> u64 {
        per_client!(self, idx, close_interval(i))
    }

    /// Zeroes every client's stats after a warm-up ending at `now`.
    pub(crate) fn reset_stats(&mut self, now: u64) {
        match self {
            Fleet::Units(seats) => seats.iter_mut().for_each(|seat| seat.reset_stats(now)),
            Fleet::Columnar(fleet) => fleet.reset_stats(now),
        }
    }

    /// Visits every cached entry as `(item, value, timestamp)` in
    /// client order, items ascending.
    pub(crate) fn for_each_cached_entry(&self, mut f: impl FnMut(ItemId, u64, SimTime)) {
        match self {
            Fleet::Units(seats) => {
                for seat in seats {
                    let cache = seat.unit().cache();
                    for item in cache.sorted_items() {
                        let entry = cache.peek(item).expect("iterating cached items");
                        f(item, entry.value, entry.timestamp);
                    }
                }
            }
            Fleet::Columnar(fleet) => fleet.for_each_cached_entry(f),
        }
    }

    fn seats_mut(&mut self) -> &mut Vec<ClientSeat> {
        match self {
            Fleet::Units(seats) => seats,
            Fleet::Columnar(_) => panic!(
                "handoffs move whole boxed units; mesh shards (backbone set) \
                 never construct the columnar fleet"
            ),
        }
    }

    /// Moves the seat in slot `idx` out for a handoff, leaving a husk.
    pub(crate) fn detach(&mut self, idx: usize) -> ClientSeat {
        std::mem::replace(&mut self.seats_mut()[idx], ClientSeat::husk())
    }

    /// Appends an arriving seat; returns its slot.
    pub(crate) fn attach(&mut self, seat: ClientSeat) -> usize {
        let seats = self.seats_mut();
        seats.push(seat);
        seats.len() - 1
    }
}

/// The sleeper skip-list: which unit wakes in which interval, under
/// either [`WakeMode`]. A unit's wake interval is stored once, in the
/// fleet; the scan reads those marks, the heap orders a copy of them.
/// Both produce the identical due set in the identical ascending-index
/// order (all entries due in interval `i` carry wake time exactly `i`,
/// so heap pops order by index; the scan is index-ordered by
/// construction), so every random stream downstream is consumed in the
/// same sequence regardless of mode.
pub(crate) enum WakeSchedule {
    /// One sequential pass over the fleet's next-wake marks per
    /// interval.
    Scan,
    /// Min-heap of `(wake_interval, client_idx)`; never-waking units
    /// simply leave the heap.
    Heap(BinaryHeap<Reverse<(u64, usize)>>),
}

impl WakeSchedule {
    /// Schedules every client of `fleet` for its first awake interval.
    pub(crate) fn new(mode: WakeMode, fleet: &Fleet) -> Self {
        let mut schedule = match mode {
            WakeMode::Scan => WakeSchedule::Scan,
            WakeMode::Heap => WakeSchedule::Heap(BinaryHeap::with_capacity(fleet.len())),
        };
        for idx in 0..fleet.len() {
            schedule.schedule(idx, fleet.next_wake(idx));
        }
        schedule
    }

    /// Notes that unit `idx` next wakes in interval `wake` (`u64::MAX`
    /// = never). Each unit must be rescheduled after every pop.
    pub(crate) fn schedule(&mut self, idx: usize, wake: u64) {
        if let WakeSchedule::Heap(heap) = self {
            if wake != u64::MAX {
                heap.push(Reverse((wake, idx)));
            }
        }
    }

    /// Appends every unit due at interval `i` to `awake`, ascending by
    /// client index.
    pub(crate) fn pop_due(&mut self, i: u64, fleet: &Fleet, awake: &mut Vec<usize>) {
        match self {
            WakeSchedule::Scan => fleet.due(i, awake),
            WakeSchedule::Heap(heap) => {
                while let Some(&Reverse((wake, idx))) = heap.peek() {
                    if wake > i {
                        break;
                    }
                    heap.pop();
                    // Heap entries can't be deleted: a unit that left
                    // the cell still has its one pre-departure entry.
                    if !fleet.is_departed(idx) {
                        awake.push(idx);
                    }
                }
            }
        }
    }
}

/// A client store the report sweep can split at client boundaries:
/// the seats as a slice, the columns as a [`ChunkView`].
trait SweepStore: Send {
    /// Splits the first `n` clients off the front.
    fn split_front(&mut self, n: usize) -> Self;

    /// One client's share of the sweep — apply the shared digest,
    /// answer pending queries, record what the merge needs. Touches
    /// only that client, draws no randomness. `local` is the client's
    /// position in this store, `idx` its fleet index, `slot` its
    /// position in the awake set.
    fn sweep_client(
        &mut self,
        local: usize,
        idx: usize,
        slot: usize,
        observing: bool,
        digest: &ReportDigest<'_>,
    ) -> SweepItem;
}

/// Sweeps the `heard` clients of `store`. The per-client work is
/// independent, so with `threads > 1` and enough listeners the store is
/// split into contiguous client ranges swept by scoped workers; results
/// ascend by client either way, bit-identical at any worker count.
fn sweep_store<S: SweepStore>(
    mut store: S,
    heard: &[usize],
    awake: &[usize],
    digest: &ReportDigest<'_>,
    observing: bool,
    threads: usize,
) -> Vec<SweepItem> {
    if threads <= 1 || heard.len() < SWEEP_PAR_MIN {
        return heard
            .iter()
            .map(|&slot| store.sweep_client(awake[slot], awake[slot], slot, observing, digest))
            .collect();
    }
    let chunk_len = heard.len().div_ceil(threads.min(heard.len()));
    let mut out = Vec::with_capacity(heard.len());
    let mut base = 0usize;
    std::thread::scope(|scope| {
        let workers: Vec<_> = heard
            .chunks(chunk_len)
            .map(|chunk| {
                let end = awake[*chunk.last().expect("chunks are non-empty")] + 1;
                let mut mine = store.split_front(end - base);
                let mine_base = std::mem::replace(&mut base, end);
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&slot| {
                            let idx = awake[slot];
                            mine.sweep_client(idx - mine_base, idx, slot, observing, digest)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            out.extend(worker.join().expect("sweep worker panicked"));
        }
    });
    out
}

/// Splits the first `n` elements off a column.
fn front<'a, T>(column: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    column
        .split_off_mut(..n)
        .expect("a chunk ends inside the column")
}

impl SweepStore for &mut [ClientSeat] {
    fn split_front(&mut self, n: usize) -> Self {
        front(self, n)
    }

    fn sweep_client(
        &mut self,
        local: usize,
        _idx: usize,
        slot: usize,
        observing: bool,
        digest: &ReportDigest<'_>,
    ) -> SweepItem {
        let seat = &mut self[local];
        let unit = seat.unit();
        // The last-report time is the false-alarm reference point (§6).
        let pre = observing.then(|| (unit.stats(), unit.last_report_heard()));
        // A whole-cache drop at the first report after a handoff is
        // attributable to the cell switch (an empty carried cache has
        // nothing to lose and counts no drop).
        let carrying = seat.newly_migrated() && !unit.cache().is_empty();
        let outcome = seat.hear(digest);
        SweepItem {
            slot,
            pre,
            handoff_drop: carrying && outcome.outcome.dropped_all,
            outcome,
        }
    }
}

/// Set bit positions of `word`, ascending, offset by `base`. `word` is
/// a copy, so the loop body may clear bits of the column it came from.
fn set_bits(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
}

/// The validity stamp `t_x` of a columnar entry installed at `installed`
/// by a client that last heard a report at `t_l`: the one reading of
/// the `stamps` column. Every rule the store hosts ends a heard report
/// with each survivor verified as of `T_i` and `T_l := T_i`, and an
/// install is stamped at the server's clock, never before `T_l` — so an
/// entry installed since the last report carries its own stamp and
/// every other survivor carries `T_l`.
#[inline]
fn validity(installed: SimTime, t_l: Option<SimTime>) -> SimTime {
    // `max`, compared as seconds: a `SimTime` is never NaN, and the
    // float compare carries no panic path into a sweep that ignores it.
    match t_l {
        Some(t_l) if t_l.as_secs() > installed.as_secs() => t_l,
        _ => installed,
    }
}

/// Per-client SIG/HYB tracking state, columnar: what each client lends
/// the rule as a [`SigTrack`] — an `m`-bit mask of the tracked subsets
/// per client, the last-heard report share that holds their values,
/// and the unmatched-subset telemetry.
struct SigColumns {
    /// Mask words per client, `⌈m/64⌉`.
    words: usize,
    /// Tracked-subset mask, stride `words`.
    tracked: Vec<u64>,
    last_report: Vec<Arc<Vec<CombinedSignature>>>,
    last_unmatched: Vec<u32>,
}

impl SigColumns {
    /// All clients' columns as one chunk.
    fn chunk(&mut self) -> SigChunk<'_> {
        SigChunk {
            words: self.words,
            tracked: &mut self.tracked,
            last_report: &mut self.last_report,
            last_unmatched: &mut self.last_unmatched,
        }
    }
}

/// Capacity configuration for a bounded fleet (mirrors the boxed
/// cache's `with_capacity` + `set_replacement`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapacitySpec {
    /// Max cached entries per client.
    pub cap: usize,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
    /// TS window `w = kL` for [`ReplacementPolicy::WindowAge`].
    pub window: SimDuration,
}

/// Bounded-cache state, columnar: the per-entry replacement metadata
/// and ghost list of `sw_client::Cache`, as parallel slot columns.
/// Allocated only for bounded fleets — unbounded sweeps never touch it.
struct CapColumns {
    spec: CapacitySpec,
    /// Recency tick of the last access, stride `h` (only meaningful
    /// where the valid bit is set; reinstall overwrites).
    last_used: Vec<u64>,
    /// Hits since install (1 at install), stride `h`.
    use_count: Vec<u64>,
    /// Ghost state per slot: 0 = none, 1 = fresh, 2 = proven stale.
    ghost: Vec<u8>,
    /// Evicted entry's validity stamp (meaningful where `ghost != 0`),
    /// stride `h`.
    ghost_stamps: Vec<SimTime>,
    /// Per-client access clock (`Cache::clock`): bumped on every
    /// answer-loop read — hit or miss — and on every install.
    clock: Vec<u64>,
}

/// Bounded-cache columns of one contiguous client chunk.
struct CapChunk<'a> {
    last_used: &'a mut [u64],
    use_count: &'a mut [u64],
    ghost: &'a mut [u8],
    ghost_stamps: &'a mut [SimTime],
    clock: &'a mut [u64],
}

/// The columnar client store. See the module docs for the layout.
pub(crate) struct ColumnarFleet {
    n: usize,
    /// Hotspot size `H` = slots per client.
    h: usize,
    /// Validity bitmap words per client.
    words: usize,
    /// Draw index → slot, stride `h`: a query's uniform (or Zipf) draw
    /// indexes the hotspot in *draw order*, exactly like
    /// `MuConfig::hotspot`; this maps it straight to the slot.
    draw_slot: Vec<u32>,
    /// Hotspot in ascending id order, stride `h` (slot → item).
    slot_items: Vec<ItemId>,
    /// Validity bitmap, stride `words`.
    valid: Vec<u64>,
    /// Cached values, stride `h`.
    values: Vec<u64>,
    /// Install stamps, stride `h`; written by `install_answer` alone.
    /// The validity stamp `t_x` is [`validity`]`(stamp, t_l)`.
    stamps: Vec<SimTime>,
    /// Live slot count per client (= `cache.len()`).
    cached: Vec<u32>,
    t_l: Vec<Option<SimTime>>,
    awake: Vec<bool>,
    /// Slots queried since the last heard report, one bit each, stride
    /// `words` — the deduplicated `Q_i`, already in answer order.
    pending_mask: Vec<u64>,
    /// When each of those queries was posed (latency accounting).
    posed_at: Vec<Vec<SimTime>>,
    stats: Vec<MuStats>,
    queries: Vec<PoissonProcess>,
    sleep: Vec<BernoulliIntervalProcess>,
    query_rngs: Vec<RngStream>,
    sleep_rngs: Vec<RngStream>,
    /// The cell's shared Zipf rank CDF and each client's pick stream
    /// (`None` when queries pick uniformly from the query stream).
    zipf: Option<(Arc<ZipfPicker>, Vec<RngStream>)>,
    /// Last interval whose sleep accounting was settled, per client.
    last_settled: Vec<u64>,
    /// Next interval each client is awake in (`u64::MAX` = never); the
    /// scan wake schedule reads this column directly.
    next_wake: Vec<u64>,
    /// The strategy's client half, shared by every client.
    rule: ReportRule,
    sig: Option<SigColumns>,
    cap: Option<CapColumns>,
}

impl ColumnarFleet {
    /// Creates an empty fleet; clients are appended by
    /// [`Self::push_client`].
    pub(crate) fn new(
        hotspot_size: usize,
        rule: ReportRule,
        capacity: Option<CapacitySpec>,
        zipf: Option<Arc<ZipfPicker>>,
    ) -> Self {
        assert!(hotspot_size > 0, "hotspot cannot be empty");
        let sig = rule.decoder().map(|d| SigColumns {
            words: SigTrack::words(d),
            tracked: Vec::new(),
            last_report: Vec::new(),
            last_unmatched: Vec::new(),
        });
        let cap = capacity.map(|spec| {
            assert!(spec.cap > 0, "cache capacity must be positive");
            CapColumns {
                spec,
                last_used: Vec::new(),
                use_count: Vec::new(),
                ghost: Vec::new(),
                ghost_stamps: Vec::new(),
                clock: Vec::new(),
            }
        });
        ColumnarFleet {
            n: 0,
            h: hotspot_size,
            words: hotspot_size.div_ceil(64),
            draw_slot: Vec::new(),
            slot_items: Vec::new(),
            valid: Vec::new(),
            values: Vec::new(),
            stamps: Vec::new(),
            cached: Vec::new(),
            t_l: Vec::new(),
            awake: Vec::new(),
            pending_mask: Vec::new(),
            posed_at: Vec::new(),
            stats: Vec::new(),
            queries: Vec::new(),
            sleep: Vec::new(),
            query_rngs: Vec::new(),
            sleep_rngs: Vec::new(),
            zipf: zipf.map(|picker| (picker, Vec::new())),
            last_settled: Vec::new(),
            next_wake: Vec::new(),
            rule,
            sig,
            cap,
        }
    }

    /// Appends one client, consuming exactly the draws
    /// `ClientSeat::new` would: one exponential from the query stream
    /// for the Poisson process's first arrival, one geometric from the
    /// sleep stream for the first sleep run. The hotspot arrives in
    /// draw order and is sorted into slot order here.
    pub(crate) fn push_client(&mut self, streams: ClientStreams, query_rate_per_item: f64) {
        let ClientStreams {
            hotspot,
            sleep_probability,
            mut query_rng,
            sleep_rng,
            zipf_rng,
        } = streams;
        assert_eq!(hotspot.len(), self.h, "fleet hotspots must share one size");
        let total_rate = query_rate_per_item * hotspot.len() as f64;
        let mut sorted = hotspot.clone();
        sorted.sort_unstable();
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "hotspot draws must be distinct for the slot mapping"
        );
        self.draw_slot.extend(hotspot.iter().map(|item| {
            sorted
                .binary_search(item)
                .expect("the sorted hotspot holds every drawn item") as u32
        }));
        self.slot_items.extend_from_slice(&sorted);
        self.valid.extend(std::iter::repeat_n(0u64, self.words));
        self.pending_mask
            .extend(std::iter::repeat_n(0u64, self.words));
        self.values.extend(std::iter::repeat_n(0u64, self.h));
        self.stamps
            .extend(std::iter::repeat_n(SimTime::ZERO, self.h));
        self.cached.push(0);
        self.t_l.push(None);
        self.awake.push(true);
        self.posed_at.push(Vec::new());
        self.stats.push(MuStats::default());
        self.queries
            .push(PoissonProcess::new(total_rate, &mut query_rng));
        self.sleep
            .push(BernoulliIntervalProcess::new(sleep_probability));
        self.query_rngs.push(query_rng);
        self.sleep_rngs.push(sleep_rng);
        if let Some((_, rngs)) = &mut self.zipf {
            rngs.push(zipf_rng.expect("a Zipf cell draws every client a pick stream"));
        }
        self.last_settled.push(0);
        self.next_wake.push(0);
        if let Some(sig) = &mut self.sig {
            sig.tracked.extend(std::iter::repeat_n(0u64, sig.words));
            sig.last_report.push(Arc::new(Vec::new()));
            sig.last_unmatched.push(0);
        }
        if let Some(cap) = &mut self.cap {
            cap.last_used.extend(std::iter::repeat_n(0u64, self.h));
            cap.use_count.extend(std::iter::repeat_n(0u64, self.h));
            cap.ghost.extend(std::iter::repeat_n(0u8, self.h));
            cap.ghost_stamps
                .extend(std::iter::repeat_n(SimTime::ZERO, self.h));
            cap.clock.push(0);
        }
        self.n += 1;
        // The first sleep run, as if closing interval 0.
        self.close_interval(self.n - 1, 0);
    }

    /// Zeroes every client's stats (warm-up reset at interval `now`).
    /// Sleep runs straddling the reset must not credit their pre-reset
    /// intervals into the fresh stats.
    fn reset_stats(&mut self, now: u64) {
        self.stats.fill(MuStats::default());
        for settled in &mut self.last_settled {
            *settled = (*settled).max(now);
        }
    }

    /// [`ClientSeat::open_interval`] over the columns: credits the
    /// sleep run that just ended and generates interval `i`'s query
    /// arrivals into the pending set, consuming the client's streams
    /// draw for draw like the seat (a Zipf pick leaves the uniform draw
    /// on the query stream *unconsumed*).
    fn open_interval(&mut self, idx: usize, i: u64, from: SimTime, to: SimTime) {
        let stats = &mut self.stats[idx];
        stats.intervals_asleep += i - self.last_settled[idx] - 1;
        self.last_settled[idx] = i;
        self.awake[idx] = true;
        stats.intervals_awake += 1;
        let base = idx * self.h;
        let query_rng = &mut self.query_rngs[idx];
        let mut zipf = self
            .zipf
            .as_mut()
            .map(|(picker, rngs)| (&**picker, &mut rngs[idx]));
        let posed_at = &mut self.posed_at[idx];
        let posed = posed_at.len();
        self.queries[idx].arrivals_in(from, to, query_rng, posed_at);
        for _ in posed..posed_at.len() {
            let j = match &mut zipf {
                Some((picker, rng)) => picker.draw(rng),
                None => query_rng.uniform_index(self.h as u64) as usize,
            };
            let slot = self.draw_slot[base + j] as usize;
            self.pending_mask[idx * self.words + slot / 64] |= 1 << (slot % 64);
            stats.queries_posed += 1;
        }
    }

    /// [`ClientSeat::close_interval`] over the columns.
    fn close_interval(&mut self, idx: usize, i: u64) -> u64 {
        let run = self.sleep[idx].draw_sleep_run(&mut self.sleep_rngs[idx]);
        if run > 0 {
            self.awake[idx] = false;
        }
        self.next_wake[idx] = wake_after(i, run);
        self.next_wake[idx]
    }

    /// Slot of `item` in client `idx`'s hotspot block, if any.
    fn slot_of(&self, idx: usize, item: ItemId) -> Option<usize> {
        let block = &self.slot_items[idx * self.h..idx * self.h + self.h];
        block.binary_search(&item).ok()
    }

    /// Installs an uplink answer: cache the fresh copy under the
    /// request's server timestamp and (SIG/HYB) adopt tracking for the
    /// item's subsets from the last heard report.
    fn install_answer(&mut self, idx: usize, answer: QueryAnswer) {
        let slot = self
            .slot_of(idx, answer.item)
            .expect("uplink answers only items the client queried, i.e. hotspot items");
        let word = idx * self.words + slot / 64;
        let bit = 1u64 << (slot % 64);
        if self.valid[word] & bit == 0 {
            self.valid[word] |= bit;
            self.cached[idx] += 1;
        }
        self.values[idx * self.h + slot] = answer.value;
        self.stamps[idx * self.h + slot] = answer.timestamp;
        if let Some(cap) = &mut self.cap {
            let base = idx * self.h;
            cap.clock[idx] += 1;
            cap.last_used[base + slot] = cap.clock[idx];
            cap.use_count[base + slot] = 1;
            // A fresh install clears any ghost of the item.
            cap.ghost[base + slot] = 0;
            while self.cached[idx] as usize > cap.spec.cap {
                // Same victim scan as `Cache::insert`: the key ends in
                // the item id, so the minimum is unique and the slot
                // order cannot disagree with the boxed table walk.
                let mut victim: Option<([u64; 4], usize)> = None;
                for s in 0..self.h {
                    if self.valid[idx * self.words + s / 64] & (1 << (s % 64)) == 0 {
                        continue;
                    }
                    let key = victim_key(
                        cap.spec.policy,
                        EntryMeta {
                            last_used: cap.last_used[base + s],
                            use_count: cap.use_count[base + s],
                            stamp: validity(self.stamps[base + s], self.t_l[idx]),
                        },
                        answer.timestamp,
                        cap.spec.window,
                        self.slot_items[base + s],
                    );
                    if victim.is_none_or(|(best, _)| key < best) {
                        victim = Some((key, s));
                    }
                }
                let (_, vslot) = victim.expect("cache over capacity cannot be empty");
                self.valid[idx * self.words + vslot / 64] &= !(1 << (vslot % 64));
                self.cached[idx] -= 1;
                cap.ghost[base + vslot] = 1;
                cap.ghost_stamps[base + vslot] = validity(self.stamps[base + vslot], self.t_l[idx]);
                self.stats[idx].evictions += 1;
            }
        }
        let mut sig = self.sig.as_mut().map(SigColumns::chunk);
        self.rule
            .on_fetch(SigChunk::lend(&mut sig, idx), answer.item);
    }

    /// Records a listened-for-but-missed report (fault injection).
    fn miss_report(&mut self, idx: usize) {
        assert!(
            self.awake[idx],
            "a sleeping unit was not listening for the report"
        );
        self.stats[idx].reports_missed += 1;
    }

    /// Visits every cached entry as `(item, value, timestamp)` in
    /// client order, items ascending — the iteration order of the
    /// boxed-unit safety check. The timestamp is the validity stamp: the
    /// audit checks the value against the history *there*, where an
    /// install stamp would always match.
    fn for_each_cached_entry(&self, mut f: impl FnMut(ItemId, u64, SimTime)) {
        for idx in 0..self.n {
            let base = idx * self.h;
            for slot in 0..self.h {
                if self.valid[idx * self.words + slot / 64] & (1 << (slot % 64)) != 0 {
                    f(
                        self.slot_items[base + slot],
                        self.values[base + slot],
                        validity(self.stamps[base + slot], self.t_l[idx]),
                    );
                }
            }
        }
    }

    /// Every client's sweep-time columns as one chunk.
    fn view(&mut self) -> ChunkView<'_> {
        ChunkView {
            rule: &self.rule,
            h: self.h,
            words: self.words,
            slot_items: &self.slot_items,
            stamps: &self.stamps,
            awake: &self.awake,
            valid: &mut self.valid,
            cached: &mut self.cached,
            t_l: &mut self.t_l,
            pending_mask: &mut self.pending_mask,
            posed_at: &mut self.posed_at,
            stats: &mut self.stats,
            sig: self.sig.as_mut().map(SigColumns::chunk),
            cap: self.cap.as_mut().map(|c| CapChunk {
                last_used: &mut c.last_used,
                use_count: &mut c.use_count,
                ghost: &mut c.ghost,
                ghost_stamps: &mut c.ghost_stamps,
                clock: &mut c.clock,
            }),
        }
    }
}

/// SIG columns of one contiguous client chunk.
struct SigChunk<'a> {
    words: usize,
    tracked: &'a mut [u64],
    last_report: &'a mut [Arc<Vec<CombinedSignature>>],
    last_unmatched: &'a mut [u32],
}

impl SigChunk<'_> {
    /// The tracking state of the chunk's `local`-th client, as the rule
    /// borrows it (nothing when the fleet's rule tracks no signatures).
    fn lend<'a>(chunk: &'a mut Option<SigChunk<'_>>, local: usize) -> Lent<'a> {
        match chunk {
            Some(chunk) => Lent::Sig(SigTrack {
                tracked: &mut chunk.tracked[local * chunk.words..(local + 1) * chunk.words],
                last_report: &mut chunk.last_report[local],
                last_unmatched: &mut chunk.last_unmatched[local],
            }),
            None => Lent::Nothing,
        }
    }
}

/// The sweep-time columns of a contiguous client range. The read-only
/// columns are shared whole and indexed by fleet index; the mutable
/// ones are this chunk's alone, indexed by position in the chunk. One
/// chunk per sweep worker; chunks never alias.
struct ChunkView<'a> {
    rule: &'a ReportRule,
    h: usize,
    words: usize,
    slot_items: &'a [ItemId],
    /// The sweep reads install stamps and never writes them.
    stamps: &'a [SimTime],
    awake: &'a [bool],
    valid: &'a mut [u64],
    cached: &'a mut [u32],
    t_l: &'a mut [Option<SimTime>],
    pending_mask: &'a mut [u64],
    posed_at: &'a mut [Vec<SimTime>],
    stats: &'a mut [MuStats],
    sig: Option<SigChunk<'a>>,
    cap: Option<CapChunk<'a>>,
}

/// One client's block of the cache columns: the fleet's [`CacheSlots`].
/// Slot order is ascending item id, so every walk is ascending.
struct SlotBlock<'a> {
    /// Slot → item: the client's hotspot, ascending.
    items: &'a [ItemId],
    /// The client's validity words.
    valid: &'a mut [u64],
    /// The client's install stamps — read, never written.
    stamps: &'a [SimTime],
    /// When every survivor was last verified: the client's `T_l` on
    /// entry, `T_i` after a walk.
    vouched: Option<SimTime>,
    cached: &'a mut u32,
    /// Ghost state and eviction stamp per slot (bounded fleets only).
    ghosts: Option<(&'a mut [u8], &'a [SimTime])>,
}

impl SlotBlock<'_> {
    /// The one walk behind both of [`CacheSlots`]' walks: drops each
    /// cached slot `condemned(item, slot)` names, ascending, and
    /// vouches for every survivor as of `t_i` — O(1), no stamp written.
    fn drop_where(
        &mut self,
        t_i: SimTime,
        mut condemned: impl FnMut(ItemId, usize) -> bool,
    ) -> Vec<ItemId> {
        let mut invalidated = Vec::new();
        for (w, word) in self.valid.iter_mut().enumerate() {
            for slot in set_bits(*word, w * 64) {
                let item = self.items[slot];
                if condemned(item, slot) {
                    *word &= !(1 << (slot % 64));
                    *self.cached -= 1;
                    invalidated.push(item);
                }
            }
        }
        self.vouched = Some(t_i);
        invalidated
    }
}

impl CacheSlots for SlotBlock<'_> {
    fn len(&self) -> usize {
        *self.cached as usize
    }

    fn clear(&mut self) {
        self.valid.fill(0);
        *self.cached = 0;
        if let Some((ghost, _)) = &mut self.ghosts {
            ghost.fill(0);
        }
    }

    fn sweep(
        &mut self,
        t_i: SimTime,
        mut verdict: impl FnMut(ItemId, SimTime) -> Verdict,
    ) -> Vec<ItemId> {
        let (stamps, vouched) = (self.stamps, self.vouched);
        self.drop_where(t_i, |item, slot| {
            match verdict(item, validity(stamps[slot], vouched)) {
                Verdict::Drop => true,
                Verdict::Restamp => false,
                Verdict::Keep => panic!(
                    "§7's Keep leaves a survivor unvouched by T_l, and the columnar fleet \
                     refuses it: quasi-delay {FEEDBACK_ONLY_ON_SEATS}"
                ),
            }
        })
    }

    fn drop_listed(
        &mut self,
        t_i: SimTime,
        listed: impl Fn(ItemId) -> bool,
        mut stale: impl FnMut(ItemId, SimTime) -> bool,
    ) -> Vec<ItemId> {
        let (stamps, vouched) = (self.stamps, self.vouched);
        self.drop_where(t_i, |item, slot| {
            listed(item) && stale(item, validity(stamps[slot], vouched))
        })
    }

    fn retire_ghosts(&mut self, mut proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
        let Some((ghost, ghost_stamps)) = &mut self.ghosts else {
            return;
        };
        for (slot, state) in ghost.iter_mut().enumerate() {
            if *state == 1 && proven_stale(self.items[slot], ghost_stamps[slot]) {
                *state = 2;
            }
        }
    }

    fn sorted_items(&self) -> Vec<ItemId> {
        let mut out = Vec::with_capacity(*self.cached as usize);
        for (w, &word) in self.valid.iter().enumerate() {
            out.extend(set_bits(word, w * 64).map(|slot| self.items[slot]));
        }
        out
    }
}

impl SweepStore for ChunkView<'_> {
    fn split_front(&mut self, n: usize) -> Self {
        let (h, words) = (self.h, self.words);
        ChunkView {
            rule: self.rule,
            h,
            words,
            slot_items: self.slot_items,
            stamps: self.stamps,
            awake: self.awake,
            valid: front(&mut self.valid, n * words),
            cached: front(&mut self.cached, n),
            t_l: front(&mut self.t_l, n),
            pending_mask: front(&mut self.pending_mask, n * words),
            posed_at: front(&mut self.posed_at, n),
            stats: front(&mut self.stats, n),
            sig: self.sig.as_mut().map(|s| SigChunk {
                words: s.words,
                tracked: front(&mut s.tracked, n * s.words),
                last_report: front(&mut s.last_report, n),
                last_unmatched: front(&mut s.last_unmatched, n),
            }),
            cap: self.cap.as_mut().map(|c| CapChunk {
                last_used: front(&mut c.last_used, n * h),
                use_count: front(&mut c.use_count, n * h),
                ghost: front(&mut c.ghost, n * h),
                ghost_stamps: front(&mut c.ghost_stamps, n * h),
                clock: front(&mut c.clock, n),
            }),
        }
    }

    /// What `MobileUnit::hear_digest_and_answer` does for a seat: apply
    /// the rule, then latency accounting, hit/miss events, deduplicated
    /// uplink requests.
    fn sweep_client(
        &mut self,
        local: usize,
        idx: usize,
        awake_slot: usize,
        observing: bool,
        digest: &ReportDigest<'_>,
    ) -> SweepItem {
        assert!(self.awake[idx], "a sleeping unit cannot hear a report");
        let pre = observing.then(|| (self.stats[local], self.t_l[local]));
        let (h, words) = (self.h, self.words);
        let mut block = SlotBlock {
            items: &self.slot_items[idx * h..(idx + 1) * h],
            valid: &mut self.valid[local * words..(local + 1) * words],
            stamps: &self.stamps[idx * h..(idx + 1) * h],
            vouched: self.t_l[local],
            cached: &mut self.cached[local],
            ghosts: self.cap.as_mut().map(|cap| {
                (
                    &mut cap.ghost[local * h..(local + 1) * h],
                    &cap.ghost_stamps[local * h..(local + 1) * h],
                )
            }),
        };
        let lent = SigChunk::lend(&mut self.sig, local);
        let outcome = self.rule.apply(&mut block, lent, digest, self.t_l[local]);
        let t_i = outcome.report_time;
        let stats = &mut self.stats[local];
        for &posed_at in &self.posed_at[local] {
            let lat = t_i.saturating_duration_since(posed_at).as_secs();
            stats.latency_sum_secs += lat;
            if lat > stats.latency_max_secs {
                stats.latency_max_secs = lat;
            }
        }
        self.posed_at[local].clear();
        self.t_l[local] = Some(t_i);
        if outcome.dropped_all {
            stats.cache_drops += 1;
        }
        stats.items_invalidated += outcome.invalidated.len() as u64;
        // Answer Q_i: one event per distinct pending item. The pending mask
        // is that set already — one bit per queried slot, and ascending
        // bits are ascending item ids.
        let mut uplink = Vec::new();
        for w in 0..self.words {
            let word = local * self.words + w;
            for slot in set_bits(std::mem::take(&mut self.pending_mask[word]), w * 64) {
                let hit = self.valid[word] & (1 << (slot % 64)) != 0;
                let at = local * self.h + slot;
                // Mirror `Cache::get`: the access clock ticks on every
                // read, hit or miss; a hit also bumps recency and the LFU
                // count.
                if let Some(cap) = &mut self.cap {
                    cap.clock[local] += 1;
                    if hit {
                        cap.last_used[at] = cap.clock[local];
                        cap.use_count[at] += 1;
                    }
                }
                if hit {
                    stats.hit_events += 1;
                    continue;
                }
                stats.miss_events += 1;
                // `Cache::take_ghost`: classify the requery of an evicted
                // copy — fresh ghost ⇒ the capacity bound caused this miss.
                if let Some(cap) = &mut self.cap {
                    match std::mem::take(&mut cap.ghost[at]) {
                        1 => {
                            stats.capacity_misses += 1;
                            stats.evicted_then_requeried += 1;
                        }
                        2 => stats.evicted_then_requeried += 1,
                        _ => {}
                    }
                }
                // Piggyback histories are ineligible for the columnar
                // fleet, so the uplink request never carries one.
                uplink.push((self.slot_items[idx * self.h + slot], None));
            }
        }
        SweepItem {
            slot: awake_slot,
            pre,
            handoff_drop: false,
            outcome: IntervalReport {
                outcome,
                uplink_requests: uplink,
            },
        }
    }
}

#[cfg(test)]
mod tests;
