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
//! in this module ([`SweepStore`]). A swept client leaves one
//! [`SweepItem`]: its awake-set position, what the merge needs to know,
//! and two ranges into its sweep worker's flat lists of invalidated ids
//! and uplink requests ([`SweepOut`]). The cell keeps one `SweepOut` per
//! worker across intervals, so a steady-state sweep allocates nothing.
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
//!   ([`validity`]) under a rule that [vouches for every
//!   survivor](ReportRule::vouches_survivors), else the stamp itself;
//! * `draw_slot` — the hotspot in draw order, as slots (query draw
//!   index → slot);
//! * `hit_times` (adaptive TS's Method 1 only) — the times of a slot's
//!   local hits since its last uplink, which the next miss piggybacks;
//! * `pending_mask` — one bit per slot queried since the last heard
//!   report: the deduplicated `Q_i`, already in answer order;
//! * SIG/HYB only ([`SigColumns`]): one bit per subset the client
//!   tracks, `⌈m/64⌉` words/client, and the client's [`Arc`] share of
//!   its last heard report, which is the value of every tracked subset;
//! * `cached` — the live slot count per client;
//! * `units` — one [`UnitState`] per client, the record a boxed
//!   `MobileUnit` holds too: stats, `T_l`, awake flag, query pose
//!   times, the query and sleep processes;
//! * `streams` — one [`ClientStreams`] per client, the record a
//!   [`ClientSeat`] holds too: the query, sleep and Zipf streams and the
//!   settled-interval mark, with the one `open` and `close`;
//! * `next_wake` — the next interval each client is awake in, a column
//!   of its own because the scan wake reads it for every client each
//!   interval, sleepers included.
//!
//! So every step of the interval protocol beside the cache —
//! crediting a sleep run, posing queries, settling a heard report,
//! counting a hit or a miss, drawing the next sleep run — is the same
//! text on both stores; what the columns add is where the cache and
//! the pending set live.
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
//! costs O(|report| + awake·H) bit tests. Where a survivor's validity
//! stamp is derived from `T_l`, nothing restamps it: TS, AT, GR and
//! HYB's hot half go through [`CacheSlots::drop_listed`], which reads a
//! stamp only for `report ∩ cache`, and the sweep writes no stamp at
//! all — Σ|report ∩ cache| stamp reads per interval instead of awake·H
//! stamp writes. Quasi-delay alone writes the stamps it restamps. What
//! remains for
//! `tests/columnar_equivalence.rs` to pin is where the stores differ
//! around the rule: a pending mask against a pending list, and the
//! capacity columns against the `Cache`'s tables.
//!
//! Bounded caches ride along as optional columns ([`CapColumns`]):
//! per-slot recency/frequency ticks, a per-client access clock, and a
//! per-slot `Option<GhostFate>` and stamp remembering evicted entries.
//! They are materialized only when the cell bounds its caches, so
//! unbounded sweeps touch nothing new; when armed, eviction at install
//! time runs `sw_client::cache::victim`, the boxed `Cache`'s own victim
//! scan, over the client's valid slots, and ghost classification at
//! answer time hands [`UnitState::miss`] the slot's ghost as the boxed
//! unit hands it `Cache::take_ghost`'s.
//!
//! The store is chosen in [`Fleet::new`], whose docs hold the one list
//! of refusals: the query plane stays on seats, mesh shards on the
//! columns, where a handoff moves one client's row
//! ([`ColumnarFleet::move_row`]). No strategy is refused — adaptive TS
//! reads its windows off the digest, the stateful baseline's clients
//! run the AT rule, and quasi-delay and Method 1 keep what they need
//! beside the cache in the columns above.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use sw_client::cache::{victim, EntryMeta};
use sw_client::{
    CacheSlots, GhostFate, Lent, MuStats, Presence, ReplacementPolicy, ReportDigest, ReportRule,
    SigTrack, UnitState, Verdict,
};
use sw_query::QueryPlane;
use sw_server::{ItemId, PiggybackInfo, QueryAnswer};
use sw_signature::CombinedSignature;
use sw_sim::{SimDuration, SimTime};

use crate::config::{CellConfig, FleetBackend, WakeMode};
use crate::seat::{piggybacks, shared_zipf, ClientSeat, ClientStart, ClientStreams};
use crate::simulation::SimulationError;
use crate::strategy::Strategy;

/// Below this many listening clients the parallel sweep is not worth
/// its thread hand-off; the sequential path runs instead. Purely a
/// performance threshold — both paths are bit-identical.
const SWEEP_PAR_MIN: usize = 256;

/// Per-client output of the (possibly parallel) report sweep. The
/// sweep applies the shared report to disjoint client ranges; the
/// items are then merged sequentially in ascending client order, so
/// every channel charge, random draw, and observation event happens in
/// the same order at any worker count. The client's lists live in its
/// worker's [`SweepOut`]; the item holds its ranges there.
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
    /// The report dropped the whole cache (a gap the rule cannot
    /// bridge).
    pub(crate) dropped_all: bool,
    /// The ids the report invalidated, ascending: a range of
    /// [`SweepOut::invalidated`].
    pub(crate) invalidated: Range<usize>,
    /// The deduplicated misses that go uplink, ascending: a range of
    /// [`SweepOut::uplinks`].
    pub(crate) uplinks: Range<usize>,
}

/// One sweep worker's output: an item per client it swept, and the
/// flat lists those items' ranges point into. The cell keeps one per
/// worker across intervals and the sweep clears them before it
/// appends, so a steady-state sweep allocates nothing however many
/// clients invalidate or miss.
#[derive(Default)]
pub(crate) struct SweepOut {
    /// One per swept client, ascending.
    pub(crate) items: Vec<SweepItem>,
    /// Every swept client's invalidated ids, back to back.
    pub(crate) invalidated: Vec<ItemId>,
    /// Every swept client's uplink requests, back to back.
    pub(crate) uplinks: Vec<ItemId>,
    /// Each uplink request's piggybacked hit history: parallel to
    /// `uplinks` when the cell piggybacks (adaptive TS's Method 1), and
    /// empty otherwise, on either store.
    pub(crate) piggybacks: Vec<PiggybackInfo>,
    /// The worker's SIG/HYB syndrome scratch, lent to each client's
    /// decode ([`SigTrack::syndrome`]); never read here.
    syndrome: Vec<u64>,
}

impl SweepOut {
    fn clear(&mut self) {
        self.items.clear();
        self.invalidated.clear();
        self.uplinks.clear();
        self.piggybacks.clear();
    }
}

/// The cell's clients, on either store. See the module docs.
// One per cell and never moved once built: boxing the columns would
// only put a pointer hop in front of every phase call.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Fleet {
    /// One [`ClientSeat`] per slot.
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
    /// configuration it can unless `config.fleet` forces the choice
    /// (the equivalence suite runs both on the same config).
    ///
    /// The one list of refusals, one per store: a cell that arms the
    /// query plane runs on seats, and a mesh shard (backbone set) on the
    /// columns. Every strategy runs on either store.
    pub(crate) fn new(config: &CellConfig, strategy: Strategy) -> Result<Self, SimulationError> {
        let params = &config.params;
        // `validate` keeps the query plane off mesh shards.
        let backend = config.fleet.unwrap_or(match config.query {
            Some(_) => FleetBackend::Units,
            None => FleetBackend::Columnar,
        });
        let refusal = match backend {
            FleetBackend::Units if config.backbone.is_some() => {
                Some("mesh handoffs move a client's row of the columnar store")
            }
            FleetBackend::Columnar if config.query.is_some() => {
                Some("the query-result plane attaches to boxed units")
            }
            _ => None,
        };
        if let Some(reason) = refusal {
            return Err(SimulationError::InvalidConfig(format!(
                "FleetBackend::{backend:?} cannot host this configuration: {reason}"
            )));
        }
        let zipf = shared_zipf(config);
        // One rule for the whole cell, on either store: every seat holds
        // a clone, so SIG's subset masks are filled once per cell.
        let rule = strategy.report_rule(params, config.protocol_seed());
        if backend == FleetBackend::Units {
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
        let (h, n) = (config.hotspot_size, config.n_clients);
        let mut fleet = ColumnarFleet::new(h, n, rule, capacity, piggybacks(strategy));
        for idx in 0..n {
            fleet.push_client(ClientStreams::draw(config, idx, zipf.as_ref()), params.lambda);
        }
        Ok(Fleet::Columnar(fleet))
    }

    /// Number of client slots, departed ones included.
    pub(crate) fn len(&self) -> usize {
        match self {
            Fleet::Units(seats) => seats.len(),
            Fleet::Columnar(fleet) => fleet.units.len(),
        }
    }

    pub(crate) fn is_columnar(&self) -> bool {
        matches!(self, Fleet::Columnar(_))
    }

    /// Whether the unit in slot `idx` migrated away.
    #[inline]
    pub(crate) fn is_departed(&self, idx: usize) -> bool {
        self.unit(idx).presence() == Presence::Departed
    }

    pub(crate) fn query_plane(&self, idx: usize) -> Option<&QueryPlane> {
        match self {
            Fleet::Units(seats) => seats[idx].query_plane(),
            Fleet::Columnar(_) => None,
        }
    }

    /// Every armed query plane, in slot order.
    pub(crate) fn query_planes(&self) -> impl Iterator<Item = &QueryPlane> + '_ {
        (0..self.len()).filter_map(|idx| self.query_plane(idx))
    }

    /// The unit's interval bookkeeping: the same record on either store.
    #[inline]
    pub(crate) fn unit(&self, idx: usize) -> &UnitState {
        match self {
            Fleet::Units(seats) => seats[idx].unit().state(),
            Fleet::Columnar(fleet) => &fleet.units[idx],
        }
    }

    #[inline]
    pub(crate) fn stats(&self, idx: usize) -> MuStats {
        self.unit(idx).stats()
    }

    /// Every slot's stats, in slot order (departed slots report zeros).
    pub(crate) fn stats_iter(&self) -> impl Iterator<Item = MuStats> + '_ {
        (0..self.len()).map(|idx| self.stats(idx))
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
    /// answers its pending queries. One worker per element of `out`,
    /// each writing its own; read in order, the items ascend by client
    /// at any worker count.
    pub(crate) fn sweep(
        &mut self,
        heard: &[usize],
        awake: &[usize],
        digest: &ReportDigest<'_>,
        observing: bool,
        out: &mut [SweepOut],
    ) {
        match self {
            Fleet::Units(seats) => {
                sweep_store(&mut seats[..], heard, awake, digest, observing, out)
            }
            Fleet::Columnar(fleet) => {
                sweep_store(fleet.view(), heard, awake, digest, observing, out)
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

    /// A mesh shard's columns, which handoffs move rows between.
    pub(crate) fn shard_mut(&mut self) -> &mut ColumnarFleet {
        match self {
            Fleet::Columnar(fleet) => fleet,
            Fleet::Units(_) => unreachable!("mesh shards run on the columnar store"),
        }
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
    /// answer pending queries, append what the merge needs to `out`.
    /// Touches only that client, draws no randomness. `local` is the
    /// client's position in this store, `idx` its fleet index, `slot`
    /// its position in the awake set.
    fn sweep_client(
        &mut self,
        local: usize,
        idx: usize,
        slot: usize,
        observing: bool,
        digest: &ReportDigest<'_>,
        out: &mut SweepOut,
    );
}

/// Sweeps the `heard` clients of `store` into `out`, one worker per
/// element. The per-client work is independent, so with more than one
/// worker and enough listeners the store is split into contiguous
/// client ranges swept by scoped workers, the k-th range into `out[k]`;
/// fewer listeners go to `out[0]` alone. Read in order, the items
/// ascend by client either way, bit-identical at any worker count.
fn sweep_store<S: SweepStore>(
    mut store: S,
    heard: &[usize],
    awake: &[usize],
    digest: &ReportDigest<'_>,
    observing: bool,
    out: &mut [SweepOut],
) {
    out.iter_mut().for_each(SweepOut::clear);
    if out.len() <= 1 || heard.len() < SWEEP_PAR_MIN {
        for &slot in heard {
            let idx = awake[slot];
            store.sweep_client(idx, idx, slot, observing, digest, &mut out[0]);
        }
        return;
    }
    let chunk_len = heard.len().div_ceil(out.len().min(heard.len()));
    let mut base = 0usize;
    // The scope joins every worker, and re-raises a worker's panic.
    std::thread::scope(|scope| {
        for (chunk, out) in heard.chunks(chunk_len).zip(out) {
            let end = awake[*chunk.last().expect("chunks are non-empty")] + 1;
            let mut mine = store.split_front(end - base);
            let mine_base = std::mem::replace(&mut base, end);
            scope.spawn(move || {
                for &slot in chunk {
                    let idx = awake[slot];
                    mine.sweep_client(idx - mine_base, idx, slot, observing, digest, out);
                }
            });
        }
    });
}

/// Appends `items` to `list`; returns where they landed.
fn append<T>(list: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Range<usize> {
    let start = list.len();
    list.extend(items);
    start..list.len()
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
        out: &mut SweepOut,
    ) {
        let seat = &mut self[local];
        let unit = seat.unit();
        // The last-report time is the false-alarm reference point (§6).
        let pre = observing.then(|| (unit.stats(), unit.state().last_report_heard()));
        let report = seat.hear(digest);
        let dropped_all = report.outcome.dropped_all;
        out.items.push(SweepItem {
            slot,
            pre,
            // Seats never travel: mesh shards run on the columns.
            handoff_drop: false,
            dropped_all,
            invalidated: append(&mut out.invalidated, report.outcome.invalidated),
            uplinks: append(&mut out.uplinks, report.uplink_requests.iter().map(|r| r.0)),
        });
        out.piggybacks
            .extend(report.uplink_requests.into_iter().filter_map(|r| r.1));
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

/// The validity stamp `t_x` of a columnar entry stamped `installed`
/// whose survivors were last vouched for at `t_l`: the one reading of
/// the `stamps` column. A rule that vouches ends a heard report with
/// each survivor verified as of `T_i` and `T_l := T_i`, and an install
/// is stamped at the server's clock, never before `T_l` — so an entry
/// installed since the last report carries its own stamp and every
/// other survivor carries `T_l`. Otherwise `t_l` is `None`.
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
    /// What is known of each slot's evicted copy, stride `h`: `None`
    /// (nothing evicted, or its ghost was consumed), or its fate.
    ghost: Vec<Option<GhostFate>>,
    /// Evicted entry's validity stamp (meaningful where `ghost` is
    /// `Some`), stride `h`.
    ghost_stamps: Vec<SimTime>,
    /// Per-client access clock (`Cache::clock`): bumped on every
    /// answer-loop read — hit or miss — and on every install.
    clock: Vec<u64>,
}

/// Bounded-cache columns of one contiguous client chunk.
struct CapChunk<'a> {
    last_used: &'a mut [u64],
    use_count: &'a mut [u64],
    ghost: &'a mut [Option<GhostFate>],
    ghost_stamps: &'a mut [SimTime],
    clock: &'a mut [u64],
}

/// The columnar client store. See the module docs for the layout.
pub(crate) struct ColumnarFleet {
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
    /// Stamps, stride `h`: the validity stamp `t_x` is
    /// [`validity`]`(stamp, t_l)`, and only quasi-delay's restamps write
    /// one outside `install_answer`.
    stamps: Vec<SimTime>,
    /// Live slot count per client (= `cache.len()`).
    cached: Vec<u32>,
    /// Slots queried since the last heard report, one bit each, stride
    /// `words` — the deduplicated `Q_i`, already in answer order.
    pending_mask: Vec<u64>,
    /// Each client's interval bookkeeping: the same [`UnitState`] a
    /// boxed `MobileUnit` holds.
    units: Vec<UnitState>,
    /// Each client's streams and settled-interval mark: the same
    /// record a seat holds.
    streams: Vec<ClientStreams>,
    /// Next interval each client is awake in (`u64::MAX` = never); the
    /// scan wake schedule reads this column directly, sleepers
    /// included.
    next_wake: Vec<u64>,
    /// The strategy's client half, shared by every client.
    rule: ReportRule,
    /// The rule's [`ReportRule::vouches_survivors`], asked once.
    vouches: bool,
    sig: Option<SigColumns>,
    cap: Option<CapColumns>,
    /// Adaptive TS's Method 1 only: each slot's local-hit times since
    /// its last uplink, stride `h` — `MobileUnit`'s piggyback history.
    hit_times: Option<Vec<Vec<SimTime>>>,
}

impl ColumnarFleet {
    /// Creates an empty fleet with room for `clients` clients, which
    /// [`Self::push_client`] appends; `piggyback` arms the hit
    /// histories. A standalone cell's columns are sized once here:
    /// growing one by doubling would leave each smaller copy behind in
    /// the heap. A mesh shard's grow as units arrive.
    pub(crate) fn new(
        hotspot_size: usize,
        clients: usize,
        rule: ReportRule,
        capacity: Option<CapacitySpec>,
        piggyback: bool,
    ) -> Self {
        assert!(hotspot_size > 0, "hotspot cannot be empty");
        let (h, words) = (hotspot_size, hotspot_size.div_ceil(64));
        let (n, slots, bitmap) = (clients, clients * h, clients * words);
        let sig = rule.decoder().map(|d| SigColumns {
            words: d.words(),
            tracked: Vec::with_capacity(n * d.words()),
            last_report: Vec::with_capacity(n),
            last_unmatched: Vec::with_capacity(n),
        });
        let cap = capacity.map(|spec| {
            assert!(spec.cap > 0, "cache capacity must be positive");
            CapColumns {
                spec,
                last_used: Vec::with_capacity(slots),
                use_count: Vec::with_capacity(slots),
                ghost: Vec::with_capacity(slots),
                ghost_stamps: Vec::with_capacity(slots),
                clock: Vec::with_capacity(n),
            }
        });
        ColumnarFleet {
            h,
            words,
            draw_slot: Vec::with_capacity(slots),
            slot_items: Vec::with_capacity(slots),
            valid: Vec::with_capacity(bitmap),
            values: Vec::with_capacity(slots),
            stamps: Vec::with_capacity(slots),
            cached: Vec::with_capacity(n),
            pending_mask: Vec::with_capacity(bitmap),
            units: Vec::with_capacity(n),
            streams: Vec::with_capacity(n),
            next_wake: Vec::with_capacity(n),
            vouches: rule.vouches_survivors(),
            rule,
            sig,
            cap,
            hit_times: piggyback.then(|| Vec::with_capacity(slots)),
        }
    }

    /// Appends one client, consuming exactly the draws
    /// `ClientSeat::new` would: one geometric from the sleep stream for
    /// the first sleep run, none from the query stream. The hotspot
    /// arrives in draw order and is sorted into slot order here.
    pub(crate) fn push_client(&mut self, start: ClientStart, query_rate_per_item: f64) {
        let (hotspot, sleep_probability, streams) = start;
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
        self.units
            .push(UnitState::new(total_rate, sleep_probability));
        self.streams.push(streams);
        self.next_wake.push(0);
        if let Some(sig) = &mut self.sig {
            sig.tracked.extend(std::iter::repeat_n(0u64, sig.words));
            sig.last_report.push(Arc::new(Vec::new()));
            sig.last_unmatched.push(0);
        }
        if let Some(cap) = &mut self.cap {
            cap.last_used.extend(std::iter::repeat_n(0u64, self.h));
            cap.use_count.extend(std::iter::repeat_n(0u64, self.h));
            cap.ghost.extend(std::iter::repeat_n(None, self.h));
            cap.ghost_stamps
                .extend(std::iter::repeat_n(SimTime::ZERO, self.h));
            cap.clock.push(0);
        }
        if let Some(hit_times) = &mut self.hit_times {
            hit_times.resize_with(hit_times.len() + self.h, Vec::new);
        }
        // The first sleep run, as if closing interval 0.
        self.close_interval(self.units.len() - 1, 0);
    }

    /// Zeroes every client's stats (warm-up reset at interval `now`).
    /// Sleep runs straddling the reset must not credit their pre-reset
    /// intervals into the fresh stats.
    fn reset_stats(&mut self, now: u64) {
        for (unit, streams) in self.units.iter_mut().zip(&mut self.streams) {
            unit.reset_stats();
            streams.settled_through(now);
        }
    }

    /// [`ClientSeat::open_interval`] over the columns: the same
    /// [`ClientStreams::open`] and [`UnitState::pose`], with each posed
    /// query's bit set in the client's pending mask.
    fn open_interval(&mut self, idx: usize, i: u64, from: SimTime, to: SimTime) {
        let unit = &mut self.units[idx];
        let (query_rng, pick) = self.streams[idx].open(unit, i);
        let draw_slot = &self.draw_slot[idx * self.h..(idx + 1) * self.h];
        let pending = &mut self.pending_mask[idx * self.words..(idx + 1) * self.words];
        unit.pose(from, to, query_rng, self.h, pick, |j| {
            let slot = draw_slot[j] as usize;
            pending[slot / 64] |= 1 << (slot % 64);
        });
    }

    /// [`ClientSeat::close_interval`] over the columns.
    fn close_interval(&mut self, idx: usize, i: u64) -> u64 {
        self.next_wake[idx] = self.streams[idx].close(&mut self.units[idx], i);
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
            cap.ghost[base + slot] = None;
            let t_l = self.units[idx].last_report_heard().filter(|_| self.vouches);
            while self.cached[idx] as usize > cap.spec.cap {
                let valid = &self.valid[idx * self.words..(idx + 1) * self.words];
                let candidates = (0..self.h)
                    .filter(|s| valid[s / 64] & (1 << (s % 64)) != 0)
                    .map(|s| {
                        let meta = EntryMeta {
                            last_used: cap.last_used[base + s],
                            use_count: cap.use_count[base + s],
                            stamp: validity(self.stamps[base + s], t_l),
                        };
                        (s, self.slot_items[base + s], meta)
                    });
                let (gone, stamp) = victim(
                    cap.spec.policy,
                    answer.timestamp,
                    cap.spec.window,
                    candidates,
                );
                self.valid[idx * self.words + gone / 64] &= !(1 << (gone % 64));
                self.cached[idx] -= 1;
                cap.ghost[base + gone] = Some(GhostFate::Fresh);
                cap.ghost_stamps[base + gone] = stamp;
                self.units[idx].note_evictions(1);
            }
        }
        let mut sig = self.sig.as_mut().map(SigColumns::chunk);
        // A fetch decodes nothing: its syndrome scratch stays empty.
        let mut syndrome = Vec::new();
        let lent = SigChunk::lend(&mut sig, idx, &mut syndrome);
        self.rule.on_fetch(lent, answer.item);
    }

    /// Records a listened-for-but-missed report (fault injection).
    fn miss_report(&mut self, idx: usize) {
        self.units[idx].miss_report();
    }

    /// Visits every cached entry as `(item, value, timestamp)` in
    /// client order, items ascending — the iteration order of the
    /// boxed-unit safety check. The timestamp is the validity stamp: the
    /// audit checks the value against the history *there*, where an
    /// install stamp would always match.
    fn for_each_cached_entry(&self, mut f: impl FnMut(ItemId, u64, SimTime)) {
        for idx in 0..self.units.len() {
            let base = idx * self.h;
            let t_l = self.units[idx].last_report_heard().filter(|_| self.vouches);
            for slot in 0..self.h {
                if self.valid[idx * self.words + slot / 64] & (1 << (slot % 64)) != 0 {
                    f(
                        self.slot_items[base + slot],
                        self.values[base + slot],
                        validity(self.stamps[base + slot], t_l),
                    );
                }
            }
        }
    }

    /// A mesh handoff: moves client `idx`'s row of every per-client
    /// column to the end of `to`, a fleet of the same configuration,
    /// and returns its slot there. The rule and the capacity spec are
    /// cell-wide and stay. So does the slot, departed: no valid bits,
    /// zero stats, never woken.
    pub(crate) fn move_row(&mut self, idx: usize, to: &mut ColumnarFleet) -> usize {
        assert_eq!(self.h, to.h, "fleet hotspots must share one size");
        let (h, words) = (self.h, self.words);
        shift(&mut self.draw_slot, &mut to.draw_slot, idx, h);
        shift(&mut self.slot_items, &mut to.slot_items, idx, h);
        shift(&mut self.valid, &mut to.valid, idx, words);
        shift(&mut self.values, &mut to.values, idx, h);
        shift(&mut self.stamps, &mut to.stamps, idx, h);
        shift(&mut self.cached, &mut to.cached, idx, 1);
        shift(&mut self.pending_mask, &mut to.pending_mask, idx, words);
        let unit = std::mem::replace(&mut self.units[idx], UnitState::departed());
        to.units.push(unit);
        // The copy left behind is never opened again.
        to.streams.push(self.streams[idx].clone());
        to.next_wake
            .push(std::mem::replace(&mut self.next_wake[idx], u64::MAX));
        if let (Some(from), Some(to)) = (&mut self.sig, &mut to.sig) {
            shift(&mut from.tracked, &mut to.tracked, idx, from.words);
            shift(&mut from.last_report, &mut to.last_report, idx, 1);
            shift(&mut from.last_unmatched, &mut to.last_unmatched, idx, 1);
        }
        if let (Some(from), Some(to)) = (&mut self.cap, &mut to.cap) {
            shift(&mut from.last_used, &mut to.last_used, idx, h);
            shift(&mut from.use_count, &mut to.use_count, idx, h);
            shift(&mut from.ghost, &mut to.ghost, idx, h);
            shift(&mut from.ghost_stamps, &mut to.ghost_stamps, idx, h);
            shift(&mut from.clock, &mut to.clock, idx, 1);
        }
        if let (Some(from), Some(to)) = (&mut self.hit_times, &mut to.hit_times) {
            shift(from, to, idx, h);
        }
        to.units.len() - 1
    }

    /// Lands client `idx`, just moved here: in transit, asleep, through
    /// interval `transit`. With diverged report histories no report of
    /// this cell can vouch for the carried cache, so it is dropped,
    /// entries and ghosts; returns whether that lost any.
    pub(crate) fn land(&mut self, idx: usize, transit: u64, histories_agree: bool) -> bool {
        self.units[idx].land();
        self.streams[idx].settled_through(transit);
        self.next_wake[idx] = self.next_wake[idx].max(transit.saturating_add(1));
        let lost = !histories_agree && self.cached[idx] > 0;
        if lost {
            self.valid[idx * self.words..(idx + 1) * self.words].fill(0);
            self.cached[idx] = 0;
            if let Some(cap) = &mut self.cap {
                cap.ghost[idx * self.h..(idx + 1) * self.h].fill(None);
            }
            self.units[idx].note_cache_drop();
        }
        lost
    }

    /// Every client's sweep-time columns as one chunk.
    fn view(&mut self) -> ChunkView<'_> {
        ChunkView {
            rule: &self.rule,
            h: self.h,
            words: self.words,
            slot_items: &self.slot_items,
            vouches: self.vouches,
            stamps: &mut self.stamps,
            valid: &mut self.valid,
            cached: &mut self.cached,
            pending_mask: &mut self.pending_mask,
            units: &mut self.units,
            sig: self.sig.as_mut().map(SigColumns::chunk),
            cap: self.cap.as_mut().map(|c| CapChunk {
                last_used: &mut c.last_used,
                use_count: &mut c.use_count,
                ghost: &mut c.ghost,
                ghost_stamps: &mut c.ghost_stamps,
                clock: &mut c.clock,
            }),
            hit_times: self.hit_times.as_deref_mut(),
        }
    }
}

/// Moves client `idx`'s run of a stride-`n` column to the end of `to`,
/// leaving defaults behind.
fn shift<T: Default>(from: &mut [T], to: &mut Vec<T>, idx: usize, n: usize) {
    to.extend(from[idx * n..(idx + 1) * n].iter_mut().map(std::mem::take));
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
    /// borrows it, with `syndrome` as its decode scratch (nothing when
    /// the fleet's rule tracks no signatures).
    fn lend<'a>(
        chunk: &'a mut Option<SigChunk<'_>>,
        local: usize,
        syndrome: &'a mut Vec<u64>,
    ) -> Lent<'a> {
        match chunk {
            Some(chunk) => Lent::Sig(SigTrack {
                tracked: &mut chunk.tracked[local * chunk.words..(local + 1) * chunk.words],
                last_report: &mut chunk.last_report[local],
                last_unmatched: &mut chunk.last_unmatched[local],
                syndrome,
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
    vouches: bool,
    stamps: &'a mut [SimTime],
    valid: &'a mut [u64],
    cached: &'a mut [u32],
    pending_mask: &'a mut [u64],
    units: &'a mut [UnitState],
    sig: Option<SigChunk<'a>>,
    cap: Option<CapChunk<'a>>,
    hit_times: Option<&'a mut [Vec<SimTime>]>,
}

/// One client's block of the cache columns: the fleet's [`CacheSlots`].
/// Slot order is ascending item id, so every walk is ascending.
struct SlotBlock<'a> {
    /// Slot → item: the client's hotspot, ascending.
    items: &'a [ItemId],
    /// The client's validity words.
    valid: &'a mut [u64],
    /// The client's stamps: a restamp writes one only when `!vouches`.
    stamps: &'a mut [SimTime],
    /// [`ReportRule::vouches_survivors`].
    vouches: bool,
    /// When every survivor was last verified, if `vouches`: the client's
    /// `T_l` on entry, `T_i` after a walk. `None` otherwise.
    vouched: Option<SimTime>,
    cached: &'a mut u32,
    /// Ghost state and eviction stamp per slot (bounded fleets only).
    ghosts: Option<(&'a mut [Option<GhostFate>], &'a [SimTime])>,
}

impl SlotBlock<'_> {
    /// The one walk behind both of [`CacheSlots`]' walks: applies
    /// `verdict(item, stamps, slot)` to each cached slot, ascending.
    /// Under a rule that vouches for every survivor it writes no stamp
    /// and vouches for them all as of `t_i`, O(1); otherwise a restamp
    /// writes `t_i` into the slot and a `Keep` leaves the stamp running.
    fn walk(
        &mut self,
        t_i: SimTime,
        mut verdict: impl FnMut(ItemId, &[SimTime], usize) -> Verdict,
        dropped: &mut Vec<ItemId>,
    ) {
        for (w, word) in self.valid.iter_mut().enumerate() {
            for slot in set_bits(*word, w * 64) {
                let item = self.items[slot];
                match verdict(item, self.stamps, slot) {
                    Verdict::Drop => {
                        *word &= !(1 << (slot % 64));
                        *self.cached -= 1;
                        dropped.push(item);
                    }
                    Verdict::Restamp if !self.vouches => self.stamps[slot] = t_i,
                    Verdict::Restamp => {}
                    Verdict::Keep => assert!(!self.vouches, "a vouching rule kept a copy"),
                }
            }
        }
        if self.vouches {
            self.vouched = Some(t_i);
        }
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
            ghost.fill(None);
        }
    }

    fn sweep(
        &mut self,
        t_i: SimTime,
        mut verdict: impl FnMut(ItemId, SimTime) -> Verdict,
        dropped: &mut Vec<ItemId>,
    ) {
        let vouched = self.vouched;
        self.walk(
            t_i,
            |item, stamps, slot| verdict(item, validity(stamps[slot], vouched)),
            dropped,
        )
    }

    fn drop_listed(
        &mut self,
        t_i: SimTime,
        listed: impl Fn(ItemId) -> bool,
        mut stale: impl FnMut(ItemId, SimTime) -> bool,
        dropped: &mut Vec<ItemId>,
    ) {
        let vouched = self.vouched;
        self.walk(
            t_i,
            |item, stamps, slot| {
                Verdict::drop_if(listed(item) && stale(item, validity(stamps[slot], vouched)))
            },
            dropped,
        )
    }

    fn retire_ghosts(&mut self, mut proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
        let Some((ghost, ghost_stamps)) = &mut self.ghosts else {
            return;
        };
        for (slot, fate) in ghost.iter_mut().enumerate() {
            if *fate == Some(GhostFate::Fresh) && proven_stale(self.items[slot], ghost_stamps[slot])
            {
                *fate = Some(GhostFate::Stale);
            }
        }
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
            vouches: self.vouches,
            stamps: front(&mut self.stamps, n * h),
            valid: front(&mut self.valid, n * words),
            cached: front(&mut self.cached, n),
            pending_mask: front(&mut self.pending_mask, n * words),
            units: front(&mut self.units, n),
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
            hit_times: self.hit_times.as_mut().map(|t| front(t, n * h)),
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
        out: &mut SweepOut,
    ) {
        let unit = &mut self.units[local];
        let t_l = unit.hearing();
        let pre = observing.then(|| (unit.stats(), t_l));
        // A whole-cache drop at the first report after a handoff is
        // attributable to the cell switch (an empty carried cache has
        // nothing to lose and counts no drop).
        let carrying = unit.presence() == Presence::Arrived && self.cached[local] > 0;
        let (h, words) = (self.h, self.words);
        let mut block = SlotBlock {
            items: &self.slot_items[idx * h..(idx + 1) * h],
            valid: &mut self.valid[local * words..(local + 1) * words],
            stamps: &mut self.stamps[local * h..(local + 1) * h],
            vouches: self.vouches,
            vouched: t_l.filter(|_| self.vouches),
            cached: &mut self.cached[local],
            ghosts: self.cap.as_mut().map(|cap| {
                (
                    &mut cap.ghost[local * h..(local + 1) * h],
                    &cap.ghost_stamps[local * h..(local + 1) * h],
                )
            }),
        };
        let lent = SigChunk::lend(&mut self.sig, local, &mut out.syndrome);
        let first = out.invalidated.len();
        let dropped_all = self
            .rule
            .apply(&mut block, lent, digest, t_l, &mut out.invalidated);
        let invalidated = first..out.invalidated.len();
        let t_i = digest.report_time();
        unit.settle(t_i, dropped_all, invalidated.len());
        // Answer Q_i: one event per distinct pending item. The pending mask
        // is that set already — one bit per queried slot, and ascending
        // bits are ascending item ids.
        let first = out.uplinks.len();
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
                // The hit history outlives invalidation, as a boxed
                // unit's does: the next miss ships it uplink.
                if hit {
                    unit.hit();
                    if let Some(hit_times) = &mut self.hit_times {
                        hit_times[at].push(t_i);
                    }
                    continue;
                }
                // `Cache::take_ghost`: what the requery learned of an
                // evicted copy.
                unit.miss(self.cap.as_mut().and_then(|cap| cap.ghost[at].take()));
                out.uplinks.push(self.slot_items[idx * self.h + slot]);
                if let Some(hit_times) = &mut self.hit_times {
                    let local_hit_times = std::mem::take(&mut hit_times[at]);
                    out.piggybacks.push(PiggybackInfo { local_hit_times });
                }
            }
        }
        out.items.push(SweepItem {
            slot: awake_slot,
            pre,
            handoff_drop: carrying && dropped_all,
            dropped_all,
            invalidated,
            uplinks: first..out.uplinks.len(),
        });
    }
}

#[cfg(test)]
mod tests;
