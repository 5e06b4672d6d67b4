//! The client fleet: every client's phase calls, written once, over
//! one client store in either of two row layouts.
//!
//! Every client cache in the workspace is a row of one
//! [`SlotStore`] (`sw_client::store`): its slot columns, its pending
//! mask, its SIG and capacity columns, its [`UnitState`], the one
//! install-and-evict path ([`SlotStore::install`]) and the one
//! per-client apply-and-answer ([`Rows::hear`], which runs
//! [`ReportRule::apply`](sw_client::ReportRule::apply) over the row's
//! slot block). A [`Fleet`] is those rows plus what the driver keeps
//! per client beside them, each fact in one column indexed by client:
//!
//! * `streams` — each client's [`ClientStreams`] (query, sleep and
//!   Zipf streams and the settled-interval mark), whose one `open` and
//!   one `close` bracket every awake interval;
//! * `next_wake` — the next interval each client is awake in (the scan
//!   wake reads it for every client each interval, sleepers included);
//! * `planes` — each client's query-result plane, empty unless the
//!   cell arms one; a plane reads its client's item cache through a
//!   [`CacheView`](sw_client::CacheView), which either layout gives.
//!
//! The rows themselves are either one many-row [`SlotStore`] (the
//! default) or one boxed [`MobileUnit`] per client, each a one-row
//! store (`FleetBackend::Units`, kept as the equivalence suite's
//! oracle and as the query-plane cells' default). Only the store-level
//! calls branch on the layout — a row's unit, its pose, its install,
//! its cache, its rule and hotspot probe, its SIG telemetry, and its
//! hearing, one row's or the sweep's; the phase calls
//! (`open_interval`, `miss_report`, `install_answer`, the query plane's
//! `check_queries`/`settle_queries`, `close_interval`, the warm-up
//! reset, a mesh handoff's `move_row` and `land`) are written once, so
//! the driver never asks which layout it has. Every client starts from
//! the same [`ClientStreams`] on either, so the layout never perturbs a
//! random stream.
//!
//! Both layouts sweep a report with the one parallel driver in this
//! module ([`SweepStore`]), calling `Rows::hear` per listener. A swept
//! client leaves one [`SweepItem`]: its awake-set position, what the
//! merge needs to know, and two ranges into its sweep worker's flat
//! lists of invalidated ids and uplink requests ([`SweepOut`]). The
//! cell keeps one `SweepOut` per worker across intervals, so a
//! steady-state sweep allocates nothing on either layout.
//!
//! A cell builds its fleet in [`Fleet::new`], whose docs hold the one
//! refusal; the live MU (`sw_live::LiveMu`) runs a one-row fleet
//! ([`Fleet::client`]) on the slot store, through the same phase calls.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use sw_client::{
    CacheView, CapacitySpec, Heard, MobileUnit, MuConfig, MuStats, Presence, ReportDigest,
    ReportRule, Rows, SlotStore, SweepLists, UnitState,
};
use sw_query::QueryPlane;
use sw_server::{ItemId, QueryAnswer};
use sw_sim::{RngStream, SimDuration, SimTime, StreamId};

use crate::config::{CellConfig, FleetBackend, WakeMode};
use crate::seat::{piggybacks, shared_zipf, ClientStreams};
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

/// A cell's clients: their rows of the client store
/// (`sw_client::SlotStore`), one many-row store or one boxed one-row
/// store per client, and beside them one column per client fact — its
/// streams, its next-wake mark and its query plane. Every phase call of
/// the interval protocol is written once over these; only the calls
/// that reach into a row branch on the layout.
pub struct Fleet {
    /// Every client's cache, pending set and interval bookkeeping.
    store: RowStore,
    /// Each client's streams and settled-interval mark.
    streams: Vec<ClientStreams>,
    /// Next interval each client is awake in (`u64::MAX` = never).
    next_wake: Vec<u64>,
    /// Each client's query-result plane; empty unless the cell arms
    /// one. A plane draws only from `StreamId::QueryPlan { index }`, so
    /// arming it never perturbs the item-plane streams.
    planes: Vec<QueryPlane>,
}

/// The rows of a fleet, in one of the two layouts of the one client
/// store.
// One per fleet and never moved once built: boxing the store would only
// put a pointer hop in front of every row call.
#[allow(clippy::large_enum_variant)]
enum RowStore {
    /// One store with a row per client.
    Slots(SlotStore),
    /// One boxed one-row store per client.
    Units(Vec<MobileUnit>),
}

impl RowStore {
    #[inline]
    fn unit(&self, idx: usize) -> &UnitState {
        match self {
            RowStore::Slots(store) => store.unit(idx),
            RowStore::Units(units) => units[idx].state(),
        }
    }

    #[inline]
    fn unit_mut(&mut self, idx: usize) -> &mut UnitState {
        match self {
            RowStore::Slots(store) => store.unit_mut(idx),
            RowStore::Units(units) => units[idx].state_mut(),
        }
    }

    #[inline]
    fn pose<P: FnMut() -> usize>(
        &mut self,
        idx: usize,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        pick: Option<P>,
    ) {
        match self {
            RowStore::Slots(store) => store.pose(idx, from, to, query_rng, pick),
            RowStore::Units(units) => {
                let mut pick = pick;
                let pick = pick.as_mut().map(|pick| pick as &mut dyn FnMut() -> usize);
                units[idx].begin_awake_interval_skewed(from, to, query_rng, pick);
            }
        }
    }

    #[inline]
    fn install(&mut self, idx: usize, answer: QueryAnswer) {
        match self {
            RowStore::Slots(store) => store.install(idx, answer),
            RowStore::Units(units) => units[idx].install_answer(answer),
        }
    }

    #[inline]
    fn cache(&self, idx: usize) -> CacheView<'_> {
        match self {
            RowStore::Slots(store) => store.cache(idx),
            RowStore::Units(units) => units[idx].cache(),
        }
    }

    /// The slot store of a mesh shard, whose handoffs move its rows.
    fn slots(&mut self) -> &mut SlotStore {
        match self {
            RowStore::Slots(store) => store,
            RowStore::Units(_) => unreachable!("mesh shards run on the slot store"),
        }
    }
}

impl Fleet {
    /// Builds the cell's clients. The slot store holds the rows unless
    /// the cell arms the query plane, whose cells keep the boxed
    /// layout by default, or `config.fleet` forces the choice (the
    /// equivalence suite runs both on the same config). Either layout
    /// hosts every strategy, bounded caches and the query plane.
    ///
    /// The one refusal: a mesh shard (backbone set) on boxed units,
    /// since a handoff moves a client's row of the slot store.
    pub(crate) fn new(config: &CellConfig, strategy: Strategy) -> Result<Self, SimulationError> {
        // `validate` keeps the query plane off mesh shards.
        let backend = config.fleet.unwrap_or(match config.query {
            Some(_) => FleetBackend::Units,
            None => FleetBackend::Columnar,
        });
        if backend == FleetBackend::Units && config.backbone.is_some() {
            return Err(SimulationError::InvalidConfig(
                "FleetBackend::Units cannot host this configuration: mesh handoffs move a \
                 client's row of the columnar store"
                    .into(),
            ));
        }
        Ok(Self::build(config, strategy, backend, 0..config.n_clients))
    }

    /// Client `index` of `config` alone, as `CellSimulation::new` would
    /// build it: a one-row fleet on the slot store whose row 0 draws
    /// client `index`'s streams (the live MU's core).
    pub fn client(config: &CellConfig, strategy: Strategy, index: usize) -> Self {
        Self::build(config, strategy, FleetBackend::Columnar, index..index + 1)
    }

    /// The clients `clients` of `config` on `backend`, each asleep or
    /// awake per its first sleep run.
    fn build(
        config: &CellConfig,
        strategy: Strategy,
        backend: FleetBackend,
        clients: Range<usize>,
    ) -> Self {
        let params = &config.params;
        let zipf = shared_zipf(config);
        // One rule for the whole cell: every row applies it, and every
        // boxed unit holds a clone, so SIG's subset masks are filled
        // once per cell.
        let rule = strategy.report_rule(params, config.protocol_seed());
        // Finite capacity runs on either layout with the same policy and
        // the same TS window `w = kL` feeding the window-age rule.
        let window = SimDuration::from_secs(params.latency_secs).scaled(params.k as f64);
        let piggyback = piggybacks(strategy);
        let n = clients.len();
        let store = match backend {
            FleetBackend::Columnar => {
                let capacity = config.cache_capacity.map(|cap| CapacitySpec {
                    cap,
                    policy: config.replacement,
                    window,
                });
                let h = config.hotspot_size;
                RowStore::Slots(SlotStore::new(h, n, rule.clone(), capacity, piggyback))
            }
            FleetBackend::Units => RowStore::Units(Vec::with_capacity(n)),
        };
        let mut fleet = Fleet::with_store(store, n);
        if config.query.is_some() {
            fleet.planes.reserve_exact(n);
        }
        for index in clients {
            let (hotspot, sleep_probability, mut streams) =
                ClientStreams::draw(config, index, zipf.as_ref());
            // The query plane's workload is a pure function of its own
            // stream over the hotspot the item plane drew.
            if let Some(qc) = config.query {
                let rng = config.seed.stream(StreamId::QueryPlan {
                    index: index as u64,
                });
                fleet.planes.push(QueryPlane::new(&hotspot, qc, rng));
            }
            match &mut fleet.store {
                RowStore::Slots(store) => {
                    store.push_row(&hotspot, params.lambda, sleep_probability);
                }
                RowStore::Units(units) => {
                    let mu_config = MuConfig {
                        id: index as u64,
                        hotspot,
                        query_rate_per_item: params.lambda,
                        sleep_probability,
                        cache_capacity: config.cache_capacity,
                        replacement: config.replacement,
                        replacement_window: window,
                        piggyback_hits: piggyback,
                        item_universe: Some(params.n_items),
                    };
                    let rng = streams.query_rng();
                    units.push(MobileUnit::new(mu_config, rule.clone(), rng));
                }
            }
            fleet.push_client(streams);
        }
        fleet
    }

    /// A fleet over `store`'s rows with room for `clients` clients'
    /// columns, which [`Self::push_client`] appends.
    fn with_store(store: RowStore, clients: usize) -> Self {
        Fleet {
            store,
            streams: Vec::with_capacity(clients),
            next_wake: Vec::with_capacity(clients),
            planes: Vec::new(),
        }
    }

    /// Appends the columns of the client in the store's next row and
    /// draws its first sleep run: one geometric from the sleep stream,
    /// as if closing interval 0, and none from the query stream.
    fn push_client(&mut self, streams: ClientStreams) {
        let idx = self.streams.len();
        self.streams.push(streams);
        self.next_wake.push(0);
        self.close_interval(idx, 0);
    }

    /// Number of client slots, departed ones included.
    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    pub(crate) fn is_columnar(&self) -> bool {
        matches!(self.store, RowStore::Slots(_))
    }

    /// Whether the unit in slot `idx` migrated away.
    #[inline]
    pub(crate) fn is_departed(&self, idx: usize) -> bool {
        self.unit(idx).presence() == Presence::Departed
    }

    /// Client `idx`'s query-result plane (`None` unless the cell arms
    /// one).
    pub fn query_plane(&self, idx: usize) -> Option<&QueryPlane> {
        self.planes.get(idx)
    }

    /// Every armed query plane, in slot order.
    pub(crate) fn query_planes(&self) -> impl Iterator<Item = &QueryPlane> + '_ {
        self.planes.iter()
    }

    /// Client `idx`'s interval bookkeeping: `T_l`, the awake flag, the
    /// stats.
    #[inline]
    pub fn unit(&self, idx: usize) -> &UnitState {
        self.store.unit(idx)
    }

    #[inline]
    pub(crate) fn stats(&self, idx: usize) -> MuStats {
        self.unit(idx).stats()
    }

    /// Every slot's stats, in slot order (departed slots report zeros).
    pub(crate) fn stats_iter(&self) -> impl Iterator<Item = MuStats> + '_ {
        (0..self.len()).map(|idx| self.stats(idx))
    }

    /// Client `idx`'s item cache as of the last report it heard.
    #[inline]
    pub fn cache(&self, idx: usize) -> CacheView<'_> {
        self.store.cache(idx)
    }

    /// The strategy's client half, which every row applies: its name,
    /// and which report frames it accepts.
    ///
    /// # Panics
    /// Panics on a boxed fleet with no client.
    pub fn rule(&self) -> &ReportRule {
        match &self.store {
            RowStore::Slots(store) => store.rule(),
            RowStore::Units(units) => units[0].rule(),
        }
    }

    /// Whether `item` is in client `idx`'s hotspot: the only items it
    /// can ask for, so the only answers it can install.
    pub fn in_hotspot(&self, idx: usize, item: ItemId) -> bool {
        match &self.store {
            RowStore::Slots(store) => store.in_hotspot(idx, item),
            RowStore::Units(units) => units[idx].in_hotspot(item),
        }
    }

    /// The next interval client `idx` is awake in (`u64::MAX` = never).
    #[inline]
    pub fn next_wake(&self, idx: usize) -> u64 {
        self.next_wake[idx]
    }

    /// Appends every unit due at interval `i` to `awake`, ascending.
    pub(crate) fn due(&self, i: u64, awake: &mut Vec<usize>) {
        let due = self.next_wake.iter().enumerate();
        awake.extend(due.filter(|&(_, &wake)| wake <= i).map(|(idx, _)| idx));
    }

    /// Unmatched-subset telemetry from the last processed report
    /// (SIG/HYB only).
    #[inline]
    pub(crate) fn last_unmatched_subsets(&self, idx: usize) -> Option<u32> {
        match &self.store {
            RowStore::Slots(store) => store.last_unmatched(idx),
            RowStore::Units(units) => units[idx].last_unmatched_subsets(),
        }
    }

    /// Opens interval `i = (from, to]` for waking client `idx`: credits
    /// the sleep run that just ended and poses the interval's queries —
    /// the count and pose times from the query stream, each item from
    /// the Zipf stream when armed, else from the query stream — then
    /// opens its query plane's interval.
    #[inline]
    pub fn open_interval(&mut self, idx: usize, i: u64, from: SimTime, to: SimTime) {
        let (query_rng, pick) = self.streams[idx].open(self.store.unit_mut(idx), i);
        self.store.pose(idx, from, to, query_rng, pick);
        if let Some(plane) = self.planes.get_mut(idx) {
            plane.begin_awake_interval();
        }
    }

    /// Client `idx` listened for the report closing the interval and
    /// never received it intact: pending queries (both planes') wait
    /// for the next one, and to the strategy the interval looks like a
    /// nap.
    #[inline]
    pub fn miss_report(&mut self, idx: usize) {
        self.store.unit_mut(idx).miss_report();
        if let Some(plane) = self.planes.get_mut(idx) {
            plane.on_report_missed();
        }
    }

    /// Client `idx` hears the report behind `digest` and answers its
    /// pending queries: [`Rows::hear`] on its row, its invalidated ids
    /// and uplink requests appended to `lists`.
    ///
    /// # Panics
    /// Panics if the client is asleep.
    pub fn hear(&mut self, idx: usize, digest: &ReportDigest<'_>, lists: &mut SweepLists) -> Heard {
        match &mut self.store {
            RowStore::Slots(store) => store.rows().hear(idx, idx, digest, lists),
            RowStore::Units(units) => units[idx].hear_into(digest, lists),
        }
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
        match &mut self.store {
            RowStore::Slots(store) => sweep_store(store.rows(), heard, awake, digest, observing, out),
            RowStore::Units(units) => sweep_store(&mut units[..], heard, awake, digest, observing, out),
        }
    }

    /// Installs one uplink answer in client `idx`'s cache.
    ///
    /// # Panics
    /// Panics if the item is not [in its hotspot](Self::in_hotspot).
    #[inline]
    pub fn install_answer(&mut self, idx: usize, answer: QueryAnswer) {
        self.store.install(idx, answer);
    }

    /// The query plane's footprint check against the item cache the
    /// report at `t_i` just settled: the items to fetch before
    /// [`settle_queries`](Self::settle_queries). `None`: the client has
    /// no plane.
    #[inline]
    pub fn check_queries(&mut self, idx: usize, t_i: SimTime) -> Option<Vec<ItemId>> {
        let plane = self.planes.get_mut(idx)?;
        Some(plane.observe_report(self.store.cache(idx), t_i).fetch)
    }

    /// Materializes missed query results and resolves transactional
    /// reads once the fetch list was served. No-op without a plane.
    #[inline]
    pub fn settle_queries(&mut self, idx: usize, t_i: SimTime) {
        if let Some(plane) = self.planes.get_mut(idx) {
            plane.settle(self.store.cache(idx), t_i);
        }
    }

    /// Closes interval `i` for awake client `idx`: draws its next sleep
    /// run and returns the next interval it is awake in.
    #[inline]
    pub fn close_interval(&mut self, idx: usize, i: u64) -> u64 {
        self.next_wake[idx] = self.streams[idx].close(self.store.unit_mut(idx), i);
        self.next_wake[idx]
    }

    /// Zeroes every client's and plane's stats after a warm-up ending
    /// at `now`. Sleep runs straddling the reset must not credit their
    /// pre-reset intervals into the fresh stats.
    pub(crate) fn reset_stats(&mut self, now: u64) {
        for idx in 0..self.len() {
            self.store.unit_mut(idx).reset_stats();
        }
        for streams in &mut self.streams {
            streams.settled_through(now);
        }
        self.planes.iter_mut().for_each(QueryPlane::reset_stats);
    }

    /// Visits every cached entry as `(item, value, timestamp)` in
    /// client order, items ascending.
    pub(crate) fn for_each_cached_entry(&self, mut f: impl FnMut(ItemId, u64, SimTime)) {
        for idx in 0..self.len() {
            for (item, entry) in self.cache(idx).iter() {
                f(item, entry.value, entry.timestamp);
            }
        }
    }

    /// A mesh handoff: moves client `idx`'s row of the store, its
    /// streams and its wake mark to the end of `to`, a fleet of the
    /// same configuration, and returns its slot there. The slot left
    /// behind is departed: no valid bits, zero stats, never woken.
    pub(crate) fn move_row(&mut self, idx: usize, to: &mut Fleet) -> usize {
        debug_assert!(self.planes.is_empty(), "mesh shards host no query plane");
        let landed = self.store.slots().move_row(idx, to.store.slots());
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
        self.store.slots().land(idx, histories_agree)
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
/// the boxed units as a slice, the slot store as [`Rows`].
trait SweepStore: Send {
    /// Splits the first `n` clients off the front.
    fn split_front(&mut self, n: usize) -> Self;

    /// The `local`-th client's interval bookkeeping.
    fn unit(&self, local: usize) -> &UnitState;

    /// [`Rows::hear`] on the `local`-th client's row (fleet index
    /// `idx`).
    fn hear(
        &mut self,
        local: usize,
        idx: usize,
        digest: &ReportDigest<'_>,
        lists: &mut SweepLists,
    ) -> Heard;
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
            sweep_client(&mut store, idx, idx, slot, observing, digest, &mut out[0]);
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
                    sweep_client(&mut mine, idx - mine_base, idx, slot, observing, digest, out);
                }
            });
        }
    });
}

/// One client's share of the sweep: its row hears the report, and its
/// item is appended to `out`. Touches only that client, draws no
/// randomness. `local` is the client's position in `store`, `idx` its
/// fleet index, `slot` its position in the awake set.
#[inline]
fn sweep_client<S: SweepStore>(
    store: &mut S,
    local: usize,
    idx: usize,
    slot: usize,
    observing: bool,
    digest: &ReportDigest<'_>,
    out: &mut SweepOut,
) {
    let unit = store.unit(local);
    // The last-report time is the false-alarm reference point (§6).
    let pre = observing.then(|| (unit.stats(), unit.last_report_heard()));
    let heard = store.hear(local, idx, digest, &mut out.lists);
    out.items.push(SweepItem { slot, pre, heard });
}

impl SweepStore for &mut [MobileUnit] {
    fn split_front(&mut self, n: usize) -> Self {
        self.split_off_mut(..n)
            .expect("a chunk ends inside the fleet")
    }

    fn unit(&self, local: usize) -> &UnitState {
        self[local].state()
    }

    fn hear(
        &mut self,
        local: usize,
        _idx: usize,
        digest: &ReportDigest<'_>,
        lists: &mut SweepLists,
    ) -> Heard {
        self[local].hear_into(digest, lists)
    }
}

impl SweepStore for Rows<'_> {
    fn split_front(&mut self, n: usize) -> Self {
        Rows::split_front(self, n)
    }

    #[inline]
    fn unit(&self, local: usize) -> &UnitState {
        Rows::unit(self, local)
    }

    #[inline]
    fn hear(
        &mut self,
        local: usize,
        idx: usize,
        digest: &ReportDigest<'_>,
        lists: &mut SweepLists,
    ) -> Heard {
        Rows::hear(self, local, idx, digest, lists)
    }
}

#[cfg(test)]
mod tests;
