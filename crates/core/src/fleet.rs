//! The client fleet: one set of interval-protocol phase calls over one
//! client store with two owners.
//!
//! Every client cache in the workspace is a row of one
//! [`SlotStore`] (`sw_client::store`): its slot columns, its pending
//! mask, its SIG and capacity columns, its [`UnitState`], the one
//! install-and-evict path ([`SlotStore::install`]) and the one
//! per-client apply-and-answer ([`Rows::hear`], which runs
//! [`ReportRule::apply`](sw_client::ReportRule::apply) over the row's
//! slot block). [`Fleet`] is what the cell driver steps, and its two
//! variants are the store's two owners:
//!
//! * [`Fleet::Columnar`] — [`ColumnarFleet`], one store with a row per
//!   client, plus each client's [`ClientStreams`] and a `next_wake`
//!   column of its own (the scan wake reads it for every client each
//!   interval, sleepers included);
//! * [`Fleet::Units`] — a vector of [`ClientSeat`]s, each a boxed
//!   [`MobileUnit`](sw_client::MobileUnit) (a one-row store and its id)
//!   with its streams, its next-wake mark and an optional query plane.
//!
//! Both answer the same calls — `open_interval`, `miss_report`,
//! `sweep`, `install_answer`, `close_interval` — and the driver never
//! asks which one it has. Both start every client from the same
//! [`ClientStreams`], so the owner never perturbs a random stream, and
//! both sweep a report with the one parallel driver in this module
//! ([`SweepStore`]), calling `Rows::hear` per listener. A swept client
//! leaves one [`SweepItem`]: its awake-set position, what the merge
//! needs to know, and two ranges into its sweep worker's flat lists of
//! invalidated ids and uplink requests ([`SweepOut`]). The cell keeps
//! one `SweepOut` per worker across intervals, so a steady-state sweep
//! allocates nothing on either owner.
//!
//! What the owners still differ in is what lives beside the store:
//! the seats carry the query-result plane, which attaches to one boxed
//! unit's cache, and the columns carry mesh handoffs, which move one
//! client's row ([`ColumnarFleet::move_row`]). The store is chosen in
//! [`Fleet::new`], whose docs hold the one list of refusals. No
//! strategy is refused by either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sw_client::{
    CapacitySpec, Heard, MuStats, Presence, ReportDigest, ReportRule, Rows, SlotStore,
    SweepLists, UnitState,
};
use sw_query::QueryPlane;
use sw_server::{ItemId, QueryAnswer};
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
    /// What the report did: drops, and the ranges of the client's
    /// invalidated ids and uplink requests in [`SweepOut::lists`].
    pub(crate) heard: Heard,
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
    /// Every swept client's invalidated ids, uplink requests and their
    /// piggybacked hit histories, back to back.
    pub(crate) lists: SweepLists,
}

impl SweepOut {
    fn clear(&mut self) {
        self.items.clear();
        self.lists.clear();
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
            Fleet::Columnar(fleet) => fleet.store.len(),
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
            Fleet::Columnar(fleet) => fleet.store.unit(idx),
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
            Fleet::Units(seats) => seats[idx].unit().last_unmatched_subsets(),
            Fleet::Columnar(fleet) => fleet.store.last_unmatched(idx),
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
                sweep_store(fleet.store.rows(), heard, awake, digest, observing, out)
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
                    for (item, entry) in seat.unit().cache().iter() {
                        f(item, entry.value, entry.timestamp);
                    }
                }
            }
            Fleet::Columnar(fleet) => {
                for idx in 0..fleet.store.len() {
                    for (item, entry) in fleet.store.cache(idx).iter() {
                        f(item, entry.value, entry.timestamp);
                    }
                }
            }
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
/// the seats as a slice, the columns as [`Rows`].
trait SweepStore: Send {
    /// Splits the first `n` clients off the front.
    fn split_front(&mut self, n: usize) -> Self;

    /// One client's share of the sweep — [`Rows::hear`] on its row of
    /// the store, then its item appended to `out`. Touches only that
    /// client, draws no randomness. `local` is the client's position in
    /// this store, `idx` its fleet index, `slot` its position in the
    /// awake set.
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

/// Splits the first `n` elements off a slice.
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
        let unit = seat.unit().state();
        // The last-report time is the false-alarm reference point (§6).
        let pre = observing.then(|| (unit.stats(), unit.last_report_heard()));
        let heard = seat.hear_into(digest, &mut out.lists);
        out.items.push(SweepItem { slot, pre, heard });
    }
}

impl SweepStore for Rows<'_> {
    fn split_front(&mut self, n: usize) -> Self {
        Rows::split_front(self, n)
    }

    #[inline]
    fn sweep_client(
        &mut self,
        local: usize,
        idx: usize,
        slot: usize,
        observing: bool,
        digest: &ReportDigest<'_>,
        out: &mut SweepOut,
    ) {
        let unit = self.unit(local);
        let pre = observing.then(|| (unit.stats(), unit.last_report_heard()));
        let heard = self.hear(local, idx, digest, &mut out.lists);
        out.items.push(SweepItem { slot, pre, heard });
    }
}

/// The columnar owner of the client store: one [`SlotStore`] row per
/// client, plus what the driver keeps per client beside it.
pub(crate) struct ColumnarFleet {
    /// Every client's cache, pending set and interval bookkeeping.
    store: SlotStore,
    /// Each client's streams and settled-interval mark: the same
    /// record a seat holds.
    streams: Vec<ClientStreams>,
    /// Next interval each client is awake in (`u64::MAX` = never); the
    /// scan wake schedule reads this column directly, sleepers
    /// included.
    next_wake: Vec<u64>,
}

impl ColumnarFleet {
    /// Creates an empty fleet with room for `clients` clients, which
    /// [`Self::push_client`] appends; `piggyback` arms the hit
    /// histories. A standalone cell's columns are sized once here; a
    /// mesh shard's grow as units arrive.
    pub(crate) fn new(
        hotspot_size: usize,
        clients: usize,
        rule: ReportRule,
        capacity: Option<CapacitySpec>,
        piggyback: bool,
    ) -> Self {
        ColumnarFleet {
            store: SlotStore::new(hotspot_size, clients, rule, capacity, piggyback),
            streams: Vec::with_capacity(clients),
            next_wake: Vec::with_capacity(clients),
        }
    }

    /// Appends one client, consuming exactly the draws
    /// `ClientSeat::new` would: one geometric from the sleep stream for
    /// the first sleep run, none from the query stream.
    pub(crate) fn push_client(&mut self, start: ClientStart, query_rate_per_item: f64) {
        let (hotspot, sleep_probability, streams) = start;
        let idx = self
            .store
            .push_row(&hotspot, query_rate_per_item, sleep_probability);
        self.streams.push(streams);
        self.next_wake.push(0);
        // The first sleep run, as if closing interval 0.
        self.close_interval(idx, 0);
    }

    /// Zeroes every client's stats (warm-up reset at interval `now`).
    /// Sleep runs straddling the reset must not credit their pre-reset
    /// intervals into the fresh stats.
    fn reset_stats(&mut self, now: u64) {
        self.store.reset_stats();
        for streams in &mut self.streams {
            streams.settled_through(now);
        }
    }

    /// [`ClientSeat::open_interval`] over the columns: the same
    /// [`ClientStreams::open`], then [`SlotStore::pose`].
    #[inline]
    fn open_interval(&mut self, idx: usize, i: u64, from: SimTime, to: SimTime) {
        let (query_rng, pick) = self.streams[idx].open(self.store.unit_mut(idx), i);
        self.store.pose(idx, from, to, query_rng, pick);
    }

    /// [`ClientSeat::close_interval`] over the columns.
    #[inline]
    fn close_interval(&mut self, idx: usize, i: u64) -> u64 {
        self.next_wake[idx] = self.streams[idx].close(self.store.unit_mut(idx), i);
        self.next_wake[idx]
    }

    #[inline]
    fn install_answer(&mut self, idx: usize, answer: QueryAnswer) {
        self.store.install(idx, answer);
    }

    /// Records a listened-for-but-missed report (fault injection).
    #[inline]
    fn miss_report(&mut self, idx: usize) {
        self.store.unit_mut(idx).miss_report();
    }

    /// A mesh handoff: moves client `idx`'s row of the store, its
    /// streams and its wake mark to the end of `to`, a fleet of the
    /// same configuration, and returns its slot there. The slot left
    /// behind is departed: no valid bits, zero stats, never woken.
    pub(crate) fn move_row(&mut self, idx: usize, to: &mut ColumnarFleet) -> usize {
        let landed = self.store.move_row(idx, &mut to.store);
        // The copy left behind is never opened again.
        to.streams.push(self.streams[idx].clone());
        to.next_wake
            .push(std::mem::replace(&mut self.next_wake[idx], u64::MAX));
        landed
    }

    /// Lands client `idx`, just moved here: in transit, asleep, through
    /// interval `transit`. With diverged report histories no report of
    /// this cell can vouch for the carried cache, so it is dropped,
    /// entries and ghosts; returns whether that lost any.
    pub(crate) fn land(&mut self, idx: usize, transit: u64, histories_agree: bool) -> bool {
        self.streams[idx].settled_through(transit);
        self.next_wake[idx] = self.next_wake[idx].max(transit.saturating_add(1));
        self.store.land(idx, histories_agree)
    }
}

#[cfg(test)]
mod tests;
