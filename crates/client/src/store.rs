//! The client store: every client's cache, pending set and interval
//! bookkeeping as parallel columns, one row per client.
//!
//! The enabling invariant is that a client's cache is always a subset
//! of its hot spot: queries draw only hot-spot items, and entries are
//! installed only by answers to queries. So every client owns a fixed
//! block of `H = hotspot_size` *slots*, one per hot-spot item in
//! ascending id order, and a [`SlotStore`] is flat vectors indexed by
//! `row * H + slot` (bitmaps: `row * ⌈H/64⌉ + slot / 64`):
//!
//! * `slot_items` — the hot spot, sorted (slot → item id);
//! * `draw_slot` — the hot spot in draw order, as slots (query draw
//!   index → slot);
//! * `valid` — one bit per slot (cached or not), `⌈H/64⌉` words/row;
//! * `values` — the cached value;
//! * `stamps` — install stamp; the validity stamp is
//!   `max(stamp, T_l)` under a rule that vouches for every survivor (see
//!   [`SlotBlock`]);
//! * `cached` — the live slot count per row;
//! * `pending_mask` — one bit per slot queried since the last heard
//!   report: the deduplicated `Q_i`, already in answer order;
//! * `hit_times` (adaptive TS's Method 1 only) — the times of a slot's
//!   local hits since its last uplink, which the next miss piggybacks;
//! * SIG/HYB only (`SigColumns`): one bit per subset the client
//!   tracks, `⌈m/64⌉` words/row, and the row's [`Arc`] share of its
//!   last heard report, which is the value of every tracked subset;
//! * bounded caches only (`CapColumns`): per-slot recency and
//!   frequency ticks, a per-row access clock, and a per-slot
//!   `Option<GhostFate>` and stamp remembering evicted entries;
//! * `units` — one [`UnitState`] per row: stats, `T_l`, the awake flag,
//!   the waiting queries' latency sums, the query and sleep processes.
//!
//! The store is held two ways: `sleepers`' fleet holds one with a row
//! per client (or, for the live MU, one with its client's row) beside
//! each client's streams, next-wake mark and query plane, and a
//! [`MobileUnit`](crate::MobileUnit) is one with a single row (plus its
//! id), which the fleet's boxed layout holds per client. Both run the
//! same two per-client paths, [`SlotStore::install`] (install and
//! evict) and [`Rows::hear`] (apply the report, then answer the pending
//! queries), and the §3 algorithms inside the latter are
//! [`ReportRule::apply`] over the row's [`SlotBlock`].
//!
//! A report sweep is a cache-friendly linear scan over each listening
//! row's slot block, with the broadcast's shared [`ReportDigest`] only
//! *probed*, a bit test per slot. [`Rows`] is a mutable view of a
//! contiguous run of rows; [`Rows::split_front`] cuts it at a row
//! boundary, so disjoint runs can be swept by parallel workers with no
//! aliasing, each appending to its own [`SweepLists`].

use std::ops::Range;
use std::sync::Arc;

use sw_server::{ItemId, PiggybackInfo, QueryAnswer};
use sw_signature::CombinedSignature;
use sw_sim::{RngStream, SimDuration, SimTime};

use crate::cache::{set_bits, victim, CacheView, EntryMeta, GhostFate, SlotBlock};
use crate::digest::ReportDigest;
use crate::rule::{Lent, ReportRule, SigTrack};
use crate::{Presence, ReplacementPolicy, UnitState};

/// A capacity bound on every row's cache.
#[derive(Debug, Clone, Copy)]
pub struct CapacitySpec {
    /// Max cached entries per row.
    pub cap: usize,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
    /// TS window `w = kL` for [`ReplacementPolicy::WindowAge`].
    pub window: SimDuration,
}

/// Per-row SIG/HYB tracking state: what each row lends the rule as a
/// [`SigTrack`] — an `m`-bit mask of the tracked subsets, the
/// last-heard report share that holds their values, and the
/// unmatched-subset telemetry.
#[derive(Debug)]
struct SigColumns {
    /// Mask words per row, `⌈m/64⌉`.
    words: usize,
    /// Tracked-subset mask, stride `words`.
    tracked: Vec<u64>,
    last_report: Vec<Arc<Vec<CombinedSignature>>>,
    last_unmatched: Vec<u32>,
}

impl SigColumns {
    /// All rows' columns as one chunk.
    fn chunk(&mut self) -> SigChunk<'_> {
        SigChunk {
            words: self.words,
            tracked: &mut self.tracked,
            last_report: &mut self.last_report,
            last_unmatched: &mut self.last_unmatched,
        }
    }
}

/// Bounded-cache state: the per-entry replacement metadata and the
/// ghosts, as parallel slot columns. Allocated only for bounded stores —
/// unbounded sweeps never touch it.
#[derive(Debug)]
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
    /// Per-row access clock: bumped on every answer-loop read — hit or
    /// miss — and on every install.
    clock: Vec<u64>,
}

/// The client store. See the module docs for the layout.
#[derive(Debug)]
pub struct SlotStore {
    /// Hot-spot size `H` = slots per row.
    h: usize,
    /// Validity bitmap words per row.
    words: usize,
    /// Draw index → slot, stride `h`: a query's uniform (or Zipf) draw
    /// indexes the hot spot in *draw order*; this maps it to the slot.
    draw_slot: Vec<u32>,
    /// Hot spot in ascending id order, stride `h` (slot → item).
    slot_items: Vec<ItemId>,
    /// Validity bitmap, stride `words`.
    valid: Vec<u64>,
    /// Cached values, stride `h`.
    values: Vec<u64>,
    /// Install stamps, stride `h`; only quasi-delay's restamps write one
    /// outside [`Self::install`].
    stamps: Vec<SimTime>,
    /// Live slot count per row.
    cached: Vec<u32>,
    /// Slots queried since the last heard report, stride `words`.
    pending_mask: Vec<u64>,
    /// Each row's interval bookkeeping.
    units: Vec<UnitState>,
    /// The strategy's client half, shared by every row.
    rule: ReportRule,
    /// The rule's [`ReportRule::vouches_survivors`], asked once.
    vouches: bool,
    sig: Option<SigColumns>,
    cap: Option<CapColumns>,
    /// Adaptive TS's Method 1 only: each slot's local-hit times since
    /// its last uplink, stride `h`.
    hit_times: Option<Vec<Vec<SimTime>>>,
}

impl SlotStore {
    /// Creates an empty store with room for `rows` rows of
    /// `hotspot_size` slots, which [`Self::push_row`] appends; every row
    /// runs `rule`, is bounded by `capacity` if set, and keeps hit
    /// histories if `piggyback`. A store sized once here never grows by
    /// doubling, which would leave each smaller copy behind in the heap.
    ///
    /// # Panics
    /// Panics if the hot spot is empty or the capacity is zero.
    pub fn new(
        hotspot_size: usize,
        rows: usize,
        rule: ReportRule,
        capacity: Option<CapacitySpec>,
        piggyback: bool,
    ) -> Self {
        assert!(hotspot_size > 0, "hotspot cannot be empty");
        let (h, words) = (hotspot_size, hotspot_size.div_ceil(64));
        let (n, slots, bitmap) = (rows, rows * h, rows * words);
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
        SlotStore {
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
            vouches: rule.vouches_survivors(),
            rule,
            sig,
            cap,
            hit_times: piggyback.then(|| Vec::with_capacity(slots)),
        }
    }

    /// Appends a row over `hotspot` (in draw order, sorted into slot
    /// order here), posing queries at `query_rate_per_item` per item and
    /// sleeping with per-interval probability `sleep_probability`, with
    /// an empty cache and nothing pending. Returns its index.
    ///
    /// # Panics
    /// Panics if the hot spot's size is not the store's, or if it names
    /// an item twice.
    pub fn push_row(
        &mut self,
        hotspot: &[ItemId],
        query_rate_per_item: f64,
        sleep_probability: f64,
    ) -> usize {
        assert_eq!(hotspot.len(), self.h, "hotspots must share one size");
        let mut sorted = hotspot.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "hotspot ids must be distinct: each item owns one slot"
        );
        self.draw_slot.extend(hotspot.iter().map(|item| {
            sorted
                .binary_search(item)
                .expect("the sorted hotspot holds every drawn item") as u32
        }));
        self.slot_items.extend_from_slice(&sorted);
        let (h, words) = (self.h, self.words);
        self.valid.extend(std::iter::repeat_n(0u64, words));
        self.pending_mask.extend(std::iter::repeat_n(0u64, words));
        self.values.extend(std::iter::repeat_n(0u64, h));
        self.stamps.extend(std::iter::repeat_n(SimTime::ZERO, h));
        self.cached.push(0);
        let total_rate = query_rate_per_item * h as f64;
        self.units
            .push(UnitState::new(total_rate, sleep_probability));
        if let Some(sig) = &mut self.sig {
            sig.tracked.extend(std::iter::repeat_n(0u64, sig.words));
            sig.last_report.push(Arc::new(Vec::new()));
            sig.last_unmatched.push(0);
        }
        if let Some(cap) = &mut self.cap {
            cap.last_used.extend(std::iter::repeat_n(0u64, h));
            cap.use_count.extend(std::iter::repeat_n(0u64, h));
            cap.ghost.extend(std::iter::repeat_n(None, h));
            cap.ghost_stamps.extend(std::iter::repeat_n(SimTime::ZERO, h));
            cap.clock.push(0);
        }
        if let Some(hit_times) = &mut self.hit_times {
            hit_times.resize_with(hit_times.len() + h, Vec::new);
        }
        self.units.len() - 1
    }

    /// Number of rows, departed ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the store has no row.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The rule every row applies.
    pub fn rule(&self) -> &ReportRule {
        &self.rule
    }

    /// Row `idx`'s interval bookkeeping.
    #[inline]
    pub fn unit(&self, idx: usize) -> &UnitState {
        &self.units[idx]
    }

    /// The same, for the steps the store's owner drives itself: a
    /// missed report, a sleep run, a stats reset.
    #[inline]
    pub fn unit_mut(&mut self, idx: usize) -> &mut UnitState {
        &mut self.units[idx]
    }

    /// Row `idx`'s cache as of the last report it heard.
    #[inline]
    pub fn cache(&self, idx: usize) -> CacheView<'_> {
        let vouched = self.units[idx].last_report_heard();
        self.view(idx, vouched.filter(|_| self.vouches))
    }

    /// Row `idx`'s cache with its survivors vouched for at `vouched`.
    fn view(&self, idx: usize, vouched: Option<SimTime>) -> CacheView<'_> {
        let (slots, words) = (self.slots(idx), self.words(idx));
        CacheView {
            items: &self.slot_items[slots.clone()],
            valid: &self.valid[words],
            values: &self.values[slots.clone()],
            stamps: &self.stamps[slots],
            vouched,
            cached: self.cached[idx],
        }
    }

    fn slots(&self, idx: usize) -> Range<usize> {
        idx * self.h..(idx + 1) * self.h
    }

    fn words(&self, idx: usize) -> Range<usize> {
        idx * self.words..(idx + 1) * self.words
    }

    /// Slot of `item` in row `idx`'s hot spot, if any.
    #[inline]
    pub(crate) fn slot_of(&self, idx: usize, item: ItemId) -> Option<usize> {
        self.slot_items[self.slots(idx)].binary_search(&item).ok()
    }

    /// Whether `item` is in row `idx`'s hot spot: the only items it can
    /// ask for, so the only answers it can install.
    pub fn in_hotspot(&self, idx: usize, item: ItemId) -> bool {
        self.slot_of(idx, item).is_some()
    }

    /// Distinct items row `idx` queried since the last report it heard.
    pub fn pending_len(&self, idx: usize) -> usize {
        let words = &self.pending_mask[self.words(idx)];
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// SIG/HYB: how many subsets' combined signatures failed to match
    /// in the last report row `idx` heard. `None` for the rules that
    /// track no signatures.
    #[inline]
    pub fn last_unmatched(&self, idx: usize) -> Option<u32> {
        self.sig.as_ref().map(|s| s.last_unmatched[idx])
    }

    /// SIG/HYB: how many subsets row `idx` tracks (0 for the rules that
    /// track none).
    pub fn tracked_subsets(&self, idx: usize) -> usize {
        self.sig.as_ref().map_or(0, |s| {
            SigTrack::count(&s.tracked[idx * s.words..(idx + 1) * s.words])
        })
    }

    /// Wakes row `idx` for interval `(from, to]` and poses its queries
    /// ([`UnitState::pose`]), each posed query's bit set in the row's
    /// pending mask.
    #[inline]
    pub fn pose<P: FnMut() -> usize>(
        &mut self,
        idx: usize,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        pick: Option<P>,
    ) {
        let (h, words) = (self.h, self.words);
        let draw_slot = &self.draw_slot[idx * h..(idx + 1) * h];
        let pending = &mut self.pending_mask[idx * words..(idx + 1) * words];
        self.units[idx].pose(from, to, query_rng, h, pick, |j| {
            let slot = draw_slot[j] as usize;
            pending[slot / 64] |= 1 << (slot % 64);
        });
    }

    /// Installs an uplink answer in row `idx`: caches the fresh copy
    /// under the request's server timestamp, evicts past the capacity
    /// bound (each victim leaving a fresh ghost), and (SIG/HYB) adopts
    /// tracking for the item's subsets from the last heard report.
    ///
    /// # Panics
    /// Panics if the item is not in the row's hot spot: an answer
    /// arrives only for an item the client queried.
    pub fn install(&mut self, idx: usize, answer: QueryAnswer) {
        let slot = self
            .slot_of(idx, answer.item)
            .expect("uplink answers only items the client queried, i.e. hotspot items");
        let word = idx * self.words + slot / 64;
        let bit = 1u64 << (slot % 64);
        if self.valid[word] & bit == 0 {
            self.valid[word] |= bit;
            self.cached[idx] += 1;
        }
        let base = idx * self.h;
        self.values[base + slot] = answer.value;
        self.stamps[base + slot] = answer.timestamp;
        if let Some(cap) = &mut self.cap {
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
                            stamp: crate::cache::validity(self.stamps[base + s], t_l),
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

    /// Zeroes every row's stats; `T_l`, the processes, the caches and
    /// the waiting queries are untouched.
    pub fn reset_stats(&mut self) {
        self.units.iter_mut().for_each(UnitState::reset_stats);
    }

    /// A mesh handoff: moves row `idx` of every column to the end of
    /// `to`, a store of the same hot-spot size, rule and bounds, and
    /// returns its index there. The slot left behind is departed: no
    /// valid bits, zero stats, posing nothing.
    ///
    /// # Panics
    /// Panics if the two stores' hot spots differ in size.
    pub fn move_row(&mut self, idx: usize, to: &mut SlotStore) -> usize {
        assert_eq!(self.h, to.h, "hotspots must share one size");
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

    /// Lands row `idx`, just moved here: asleep in transit, and arrived
    /// until it hears a report. Unless `keep_cache`, no report of this
    /// cell can vouch for the carried cache, so it is dropped, entries
    /// and ghosts; returns whether that lost any.
    pub fn land(&mut self, idx: usize, keep_cache: bool) -> bool {
        self.units[idx].land();
        let lost = !keep_cache && self.cached[idx] > 0;
        if lost {
            let words = self.words(idx);
            self.valid[words].fill(0);
            self.cached[idx] = 0;
            if let Some(cap) = &mut self.cap {
                cap.ghost[idx * self.h..(idx + 1) * self.h].fill(None);
            }
            self.units[idx].note_cache_drop();
        }
        lost
    }

    /// Every row's sweep-time columns as one run.
    pub fn rows(&mut self) -> Rows<'_> {
        Rows {
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

/// Moves row `idx`'s run of a stride-`n` column to the end of `to`,
/// leaving defaults behind.
fn shift<T: Default>(from: &mut [T], to: &mut Vec<T>, idx: usize, n: usize) {
    to.extend(from[idx * n..(idx + 1) * n].iter_mut().map(std::mem::take));
}

/// Splits the first `n` elements off a column.
fn front<'a, T>(column: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    column
        .split_off_mut(..n)
        .expect("a chunk ends inside the column")
}

/// SIG columns of a contiguous run of rows.
#[derive(Debug)]
struct SigChunk<'a> {
    words: usize,
    tracked: &'a mut [u64],
    last_report: &'a mut [Arc<Vec<CombinedSignature>>],
    last_unmatched: &'a mut [u32],
}

impl SigChunk<'_> {
    /// The tracking state of the run's `local`-th row, as the rule
    /// borrows it, with `syndrome` as its decode scratch (nothing when
    /// the store's rule tracks no signatures).
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

/// Bounded-cache columns of a contiguous run of rows.
#[derive(Debug)]
struct CapChunk<'a> {
    last_used: &'a mut [u64],
    use_count: &'a mut [u64],
    ghost: &'a mut [Option<GhostFate>],
    ghost_stamps: &'a mut [SimTime],
    clock: &'a mut [u64],
}

/// One sweep worker's lists: every row it swept appends its
/// invalidated ids and its uplink requests here, back to back, and
/// gets their ranges back in its [`Heard`]. A worker that keeps its
/// lists across rows and intervals makes a steady-state sweep allocate
/// nothing however many rows invalidate or miss.
#[derive(Debug, Default)]
pub struct SweepLists {
    /// Every swept row's invalidated ids.
    pub invalidated: Vec<ItemId>,
    /// Every swept row's uplink requests.
    pub uplinks: Vec<ItemId>,
    /// Each uplink request's piggybacked hit history: parallel to
    /// `uplinks` when the store keeps hit histories (adaptive TS's
    /// Method 1), and empty otherwise.
    pub piggybacks: Vec<PiggybackInfo>,
    /// The SIG/HYB syndrome scratch, lent to each row's decode
    /// ([`SigTrack::syndrome`]).
    syndrome: Vec<u64>,
}

impl SweepLists {
    /// Empties the lists, keeping their buffers.
    pub fn clear(&mut self) {
        self.invalidated.clear();
        self.uplinks.clear();
        self.piggybacks.clear();
    }
}

/// What one heard report did at one row.
#[derive(Debug)]
pub struct Heard {
    /// The report dropped the whole cache (a gap the rule cannot
    /// bridge).
    pub dropped_all: bool,
    /// This was the row's first report after a handoff and it dropped
    /// a non-empty carried cache: the cell switch cost it its cache.
    pub handoff_drop: bool,
    /// The ids the report invalidated, ascending (HYB: two ascending
    /// runs, hot then cold): a range of [`SweepLists::invalidated`].
    pub invalidated: Range<usize>,
    /// The deduplicated misses that go uplink, ascending: a range of
    /// [`SweepLists::uplinks`] (and of [`SweepLists::piggybacks`] when
    /// the store keeps hit histories).
    pub uplinks: Range<usize>,
}

/// The sweep-time columns of a contiguous run of rows. The hot spots
/// are shared whole and indexed by store index; the mutable columns are
/// this run's alone, indexed by position in the run. Runs made by
/// [`Self::split_front`] never alias.
#[derive(Debug)]
pub struct Rows<'a> {
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

impl<'a> Rows<'a> {
    /// Splits the first `n` rows off the front.
    pub fn split_front(&mut self, n: usize) -> Self {
        let (h, words) = (self.h, self.words);
        Rows {
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

    /// The run's `local`-th row's interval bookkeeping.
    #[inline]
    pub fn unit(&self, local: usize) -> &UnitState {
        &self.units[local]
    }

    /// The run's `local`-th row (store index `idx`) as the rule walks
    /// it, its survivors vouched for at `vouched`, beside the tracking
    /// state it lends, with `syndrome` as its decode scratch.
    fn parts<'s>(
        &'s mut self,
        local: usize,
        idx: usize,
        vouched: Option<SimTime>,
        syndrome: &'s mut Vec<u64>,
    ) -> (SlotBlock<'s>, Lent<'s>) {
        let (h, words) = (self.h, self.words);
        let block = SlotBlock {
            items: &self.slot_items[idx * h..(idx + 1) * h],
            valid: &mut self.valid[local * words..(local + 1) * words],
            stamps: &mut self.stamps[local * h..(local + 1) * h],
            vouches: self.vouches,
            vouched,
            cached: &mut self.cached[local],
            ghosts: self.cap.as_mut().map(|cap| {
                (
                    &mut cap.ghost[local * h..(local + 1) * h],
                    &cap.ghost_stamps[local * h..(local + 1) * h],
                )
            }),
        };
        (block, SigChunk::lend(&mut self.sig, local, syndrome))
    }

    /// One read of the `local`-th row's `slot` by the answer loop: the
    /// access clock ticks on every read, hit or miss, and a hit also
    /// bumps recency and the LFU count. Returns whether the slot is
    /// cached.
    #[inline]
    fn read(&mut self, local: usize, slot: usize) -> bool {
        let hit = self.valid[local * self.words + slot / 64] & (1 << (slot % 64)) != 0;
        if let Some(cap) = &mut self.cap {
            let at = local * self.h + slot;
            cap.clock[local] += 1;
            if hit {
                cap.last_used[at] = cap.clock[local];
                cap.use_count[at] += 1;
            }
        }
        hit
    }

    /// Consumes the ghost of the `local`-th row's `slot`, if any: what a
    /// requery learned about the evicted copy.
    #[inline]
    fn take_ghost(&mut self, local: usize, slot: usize) -> Option<GhostFate> {
        let cap = self.cap.as_mut()?;
        cap.ghost[local * self.h + slot].take()
    }

    /// The run's `local`-th row (store index `idx`) hears the report
    /// behind `digest`: the rule applies it to the row's cache, the
    /// unit settles it, and every pending query is answered, one event
    /// per distinct item — a hit, or a miss whose item is appended to
    /// `out`'s uplinks (with its hit history when the store keeps
    /// them). Touches only that row and draws no randomness.
    ///
    /// # Panics
    /// Panics if the row is asleep: a sleeper hears nothing.
    pub fn hear(
        &mut self,
        local: usize,
        idx: usize,
        digest: &ReportDigest<'_>,
        out: &mut SweepLists,
    ) -> Heard {
        let t_l = self.units[local].hearing();
        // A whole-cache drop at the first report after a handoff is
        // attributable to the cell switch (an empty carried cache has
        // nothing to lose and counts no drop).
        let carrying =
            self.units[local].presence() == Presence::Arrived && self.cached[local] > 0;
        let rule = self.rule;
        let vouched = t_l.filter(|_| self.vouches);
        let first = out.invalidated.len();
        let (mut block, lent) = self.parts(local, idx, vouched, &mut out.syndrome);
        let dropped_all = rule.apply(&mut block, lent, digest, t_l, &mut out.invalidated);
        let invalidated = first..out.invalidated.len();
        let t_i = digest.report_time();
        self.units[local].settle(t_i, dropped_all, invalidated.len());
        // Answer Q_i: one event per distinct pending item. The pending
        // mask is that set already — one bit per queried slot, and
        // ascending bits are ascending item ids.
        let first = out.uplinks.len();
        for w in 0..self.words {
            let word = local * self.words + w;
            for slot in set_bits(std::mem::take(&mut self.pending_mask[word]), w * 64) {
                let at = local * self.h + slot;
                // The hit history outlives invalidation: §8.1 defines it
                // as the requests "satisfied locally from the time of the
                // previous uplink request", a query history, not a
                // property of the current copy. The next miss ships it.
                if self.read(local, slot) {
                    self.units[local].hit();
                    if let Some(hit_times) = &mut self.hit_times {
                        hit_times[at].push(t_i);
                    }
                    continue;
                }
                let ghost = self.take_ghost(local, slot);
                self.units[local].miss(ghost);
                out.uplinks.push(self.slot_items[idx * self.h + slot]);
                if let Some(hit_times) = &mut self.hit_times {
                    let local_hit_times = std::mem::take(&mut hit_times[at]);
                    out.piggybacks.push(PiggybackInfo { local_hit_times });
                }
            }
        }
        Heard {
            dropped_all,
            handoff_drop: carrying && dropped_all,
            invalidated,
            uplinks: first..out.uplinks.len(),
        }
    }
}

/// A one-row store driven below the answer loop, for the tests of the
/// cache and the rule: inserts through [`SlotStore::install`], reads
/// through the answer loop's own read, report walks through
/// [`ReportRule::apply`] on the row's [`SlotBlock`] — with `T_l` held
/// here rather than in the unit, so a test can apply any report against
/// any `T_l`.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;
    use crate::cache::CacheEntry;
    use crate::rule::Verdict;

    pub(crate) struct Row {
        pub(crate) store: SlotStore,
        /// When every survivor was last vouched for, as a walk leaves it.
        vouched: Option<SimTime>,
        syndrome: Vec<u64>,
    }

    impl Row {
        /// A row over `hotspot` running `rule`, bounded by `capacity`.
        pub(crate) fn new(
            rule: ReportRule,
            hotspot: &[ItemId],
            capacity: Option<CapacitySpec>,
        ) -> Self {
            let mut store = SlotStore::new(hotspot.len(), 1, rule, capacity, false);
            store.push_row(hotspot, 0.0, 0.0);
            Row {
                store,
                vouched: None,
                syndrome: Vec::new(),
            }
        }

        /// An unbounded row over items `0..universe` running `rule`.
        pub(crate) fn universe(rule: ReportRule, universe: u64) -> Self {
            Row::new(rule, &(0..universe).collect::<Vec<_>>(), None)
        }

        /// A row over items `0..universe` holding at most `cap` entries
        /// under `policy` (TS window `window`).
        pub(crate) fn bounded(
            universe: u64,
            cap: usize,
            policy: ReplacementPolicy,
            window: SimDuration,
        ) -> Self {
            let spec = CapacitySpec {
                cap,
                policy,
                window,
            };
            let hotspot: Vec<ItemId> = (0..universe).collect();
            Row::new(ReportRule::NoCache, &hotspot, Some(spec))
        }

        pub(crate) fn insert(&mut self, item: ItemId, value: u64, stamp: SimTime) {
            let timestamp = stamp;
            self.store.install(0, QueryAnswer { item, value, timestamp });
        }

        /// The answer loop's read of `item`.
        pub(crate) fn get(&mut self, item: ItemId) -> Option<CacheEntry> {
            let slot = self.store.slot_of(0, item)?;
            self.store.rows().read(0, slot);
            self.peek(item)
        }

        pub(crate) fn take_ghost(&mut self, item: ItemId) -> Option<GhostFate> {
            let slot = self.store.slot_of(0, item)?;
            self.store.rows().take_ghost(0, slot)
        }

        pub(crate) fn view(&self) -> CacheView<'_> {
            self.store.view(0, self.vouched)
        }

        pub(crate) fn peek(&self, item: ItemId) -> Option<CacheEntry> {
            self.view().peek(item)
        }

        pub(crate) fn contains(&self, item: ItemId) -> bool {
            self.view().contains(item)
        }

        pub(crate) fn len(&self) -> usize {
            self.view().len()
        }

        pub(crate) fn is_empty(&self) -> bool {
            self.view().is_empty()
        }

        /// Cached ids, ascending.
        pub(crate) fn items(&self) -> Vec<ItemId> {
            self.view().iter().map(|(item, _)| item).collect()
        }

        /// Cached `(item, validity stamp)`, ascending.
        pub(crate) fn stamped(&self) -> Vec<(ItemId, SimTime)> {
            self.view().iter().map(|(item, e)| (item, e.timestamp)).collect()
        }

        /// Vouches for every survivor as of `t_l`, as a row that heard
        /// the report at `t_l` reads its entries.
        pub(crate) fn vouch(&mut self, t_l: Option<SimTime>) {
            self.vouched = t_l;
        }

        /// The row's tracked-subset mask (SIG/HYB).
        pub(crate) fn tracked(&self) -> &[u64] {
            let sig = self.store.sig.as_ref().expect("the row tracks signatures");
            &sig.tracked[..sig.words]
        }

        pub(crate) fn evictions(&self) -> u64 {
            self.store.unit(0).stats().evictions
        }

        /// Runs `f` on the row's slot block, with the row's own
        /// tracking state (the block's `vouched` carried across calls).
        pub(crate) fn with_block<R>(&mut self, f: impl FnOnce(&mut SlotBlock<'_>, Lent<'_>) -> R) -> R {
            let mut rows = self.store.rows();
            let (mut block, lent) = rows.parts(0, 0, self.vouched, &mut self.syndrome);
            let result = f(&mut block, lent);
            self.vouched = block.vouched;
            result
        }

        /// [`ReportRule::apply`] of the row's rule, lending `lent` if
        /// given, else the row's own tracking state.
        pub(crate) fn apply(
            &mut self,
            lent: Option<Lent<'_>>,
            digest: &ReportDigest<'_>,
            t_l: Option<SimTime>,
            invalidated: &mut Vec<ItemId>,
        ) -> bool {
            let rule = self.store.rule.clone();
            self.with_block(|block, own| rule.apply(block, lent.unwrap_or(own), digest, t_l, invalidated))
        }

        pub(crate) fn clear(&mut self) {
            self.with_block(|block, _| block.clear());
        }

        pub(crate) fn retire_ghosts(&mut self, proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
            self.with_block(|block, _| block.retire_ghosts(proven_stale));
        }

        /// A walk with `verdict`, returning the dropped ids.
        pub(crate) fn sweep(
            &mut self,
            t_i: SimTime,
            verdict: impl FnMut(ItemId, SimTime) -> Verdict,
            dropped: &mut Vec<ItemId>,
        ) {
            self.with_block(|block, _| block.sweep(t_i, verdict, dropped));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::Row;
    use super::*;
    use crate::digest::DigestScratch;
    use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};
    use sw_sim::{MasterSeed, StreamId};
    use sw_wireless::FramePayload;

    const LATENCY: f64 = 10.0;
    const UNIVERSE: u64 = 1_000;
    /// Draw order is not id order; 64/65 sit across a bitmap word
    /// boundary of the digest, 0 is the smallest id there is.
    const HOTSPOT: [ItemId; 6] = [70, 0, 3, 64, 9, 65];

    fn secs(t: f64) -> u64 {
        (t * 1e6) as u64
    }

    fn report_time(i: u64) -> SimTime {
        SimTime::from_secs(LATENCY * i as f64)
    }

    fn decoder() -> SyndromeDecoder {
        let plan = SigPlan::new(2, 16, UNIVERSE, 0.05, SigPlan::DEFAULT_K);
        SyndromeDecoder::new(SubsetFamily::new(0x5EED, plan.m, plan.f), plan)
    }

    fn answer(item: ItemId, timestamp: SimTime) -> QueryAnswer {
        QueryAnswer {
            item,
            value: item + 1,
            timestamp,
        }
    }

    /// The SIG columns hold one mask word per 64 subsets per row, and
    /// no per-subset value: the values are the last report's.
    #[test]
    fn a_sig_store_holds_one_mask_bit_per_subset_per_row() {
        let n = 5;
        let rule = ReportRule::Sig { decoder: decoder() };
        let mut store = SlotStore::new(HOTSPOT.len(), n, rule, None, false);
        for _ in 0..n {
            store.push_row(&HOTSPOT, 0.4, 0.0);
        }
        // Exhaustive, so a column added to the SIG state fails to
        // compile here until this row sizes it.
        let SigColumns {
            words,
            tracked,
            last_report,
            last_unmatched,
        } = store.sig.as_ref().expect("a SIG store tracks signatures");
        let m = decoder().plan().m as usize;
        assert_eq!(*words, m.div_ceil(64));
        assert_eq!(tracked.len(), n * words);
        assert_eq!(last_report.len(), n);
        assert_eq!(last_unmatched.len(), n);
    }

    /// One TS report applied to `row` through `drop_listed`, with a
    /// counting `stale`: the ids dropped and how often `stale` ran.
    fn hear_counted(row: &mut Row, t_i: f64, entries: &[(u64, f64)]) -> (Vec<ItemId>, u32) {
        let payload = FramePayload::TimestampReport {
            report_ts_micros: secs(t_i),
            entries: entries.iter().map(|&(id, t)| (id, secs(t))).collect(),
        };
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(&payload);
        let (mut calls, mut dropped) = (0, Vec::new());
        row.with_block(|block, _| {
            block.drop_listed(
                digest.report_time(),
                |item| digest.listed(item),
                |item, stamp| {
                    calls += 1;
                    digest.ts_newer_than(item, stamp.as_micros())
                },
                &mut dropped,
            )
        });
        (dropped, calls)
    }

    /// The mechanism, pinned by equality rather than timing: a full slot
    /// block hearing a TS report runs `stale` once per *listed cached* id
    /// — never for the uncached ids the report also lists — and writes
    /// no stamp, yet every survivor reads as verified at `T_i`; a later
    /// report naming a cached id with a newer `t_j` drops it, judged
    /// against that vouched stamp, not the install stamp.
    #[test]
    fn drop_listed_runs_stale_only_on_report_and_cache_and_writes_no_stamp() {
        let latency = SimDuration::from_secs(LATENCY);
        let mut row = Row::new(ReportRule::ts(latency, 3), &HOTSPOT, None);
        let t_1 = report_time(1);
        for item in HOTSPOT {
            row.insert(item, item + 1, t_1);
        }
        let installed = row.store.stamps.clone();
        row.vouch(Some(t_1));
        assert_eq!(row.len(), HOTSPOT.len(), "the block is full");
        // (T_i, the report's entries, (the ids it drops, `stale` calls))
        let reports = [
            // Cached 9 listed but not newer; 1, 2 and 500 listed, uncached.
            (
                20.0,
                vec![(1, 15.0), (2, 18.0), (9, 5.0), (500, 19.0)],
                (vec![], 1),
            ),
            // 64 changed after the vouched T = 20; 9's t_j = 15 is newer
            // than its install stamp (10) but not than its validity (20).
            (30.0, vec![(9, 15.0), (64, 25.0)], (vec![64], 2)),
        ];
        for (t_i, entries, want) in reports {
            assert_eq!(hear_counted(&mut row, t_i, &entries), want, "at {t_i}");
            let survivors = row.stamped();
            let mut kept: Vec<ItemId> = HOTSPOT.to_vec();
            kept.sort_unstable();
            kept.retain(|item| *item != 64 || t_i < 30.0);
            assert_eq!(survivors.iter().map(|e| e.0).collect::<Vec<_>>(), kept);
            assert!(survivors.iter().all(|e| e.1 == SimTime::from_secs(t_i)));
        }
        assert_eq!(row.store.stamps, installed, "the sweep wrote a stamp");
    }

    /// Quasi-delay over a bare slot block, which vouches for nothing: a
    /// copy younger than `α` is kept with its stamp running, a due copy
    /// the report does not name is restamped `T_i` in its slot, and a
    /// named one is dropped.
    #[test]
    fn quasi_delay_keeps_stamps_running_and_restamps_its_slots() {
        let rule = ReportRule::quasi_delay(SimDuration::from_secs(LATENCY), 2);
        assert!(!rule.vouches_survivors(), "quasi-delay vouches for no survivor");
        let mut row = Row::new(rule, &HOTSPOT, None);
        // 0, 3 and 9 installed at T_1, the rest at T_2.
        for item in HOTSPOT {
            let stamp = report_time(if item < 10 { 1 } else { 2 });
            row.insert(item, item + 1, stamp);
        }
        // (report i, its entries, the ids it drops, each survivor's stamp
        // as the report interval that stamped it)
        let reports = [
            // The T_1 copies are due: 9 is named, 0 and 3 restamped; the
            // T_2 copies are kept.
            (
                3,
                vec![(9, 25.0)],
                vec![9],
                vec![(0, 3), (3, 3), (64, 2), (65, 2), (70, 2)],
            ),
            // The T_2 copies are due: 64 is named; 0 and 3 are kept on T_3
            // although the report names 3.
            (
                4,
                vec![(64, 35.0), (3, 36.0)],
                vec![64],
                vec![(0, 3), (3, 3), (65, 4), (70, 4)],
            ),
            (5, vec![(3, 45.0)], vec![3], vec![(0, 5), (65, 4), (70, 4)]),
        ];
        for (i, entries, want_dropped, want) in reports {
            let payload = FramePayload::TimestampReport {
                report_ts_micros: secs(LATENCY * i as f64),
                entries: entries.iter().map(|&(id, t)| (id, secs(t))).collect(),
            };
            let mut scratch = DigestScratch::default();
            let digest = scratch.digest(&payload);
            let t_l = Some(report_time(i - 1));
            let mut dropped = Vec::new();
            let drop_all = row.apply(None, &digest, t_l, &mut dropped);
            assert!(!drop_all, "report {i}");
            assert_eq!(dropped, want_dropped, "report {i}");
            let survivors: Vec<(ItemId, u64, SimTime)> = row
                .view()
                .iter()
                .map(|(item, e)| (item, e.value, e.timestamp))
                .collect();
            let want: Vec<(ItemId, u64, SimTime)> = want
                .into_iter()
                .map(|(item, stamped)| (item, item + 1, report_time(stamped)))
                .collect();
            assert_eq!(survivors, want, "report {i}");
        }
    }

    /// Row `idx`'s run of every column, each as text, in the order
    /// `move_row` moves them; the SIG share is compared by pointer
    /// instead.
    fn row_of(store: &SlotStore, idx: usize) -> Vec<(&'static str, String)> {
        let slots = store.slots(idx);
        let words = store.words(idx);
        let sig = store.sig.as_ref().expect("the fixture tracks signatures");
        let cap = store.cap.as_ref().expect("the fixture bounds its caches");
        let hit_times = store
            .hit_times
            .as_ref()
            .expect("the fixture keeps hit histories");
        let text = |column: &dyn std::fmt::Debug| format!("{column:?}");
        vec![
            ("draw_slot", text(&&store.draw_slot[slots.clone()])),
            ("slot_items", text(&&store.slot_items[slots.clone()])),
            ("valid", text(&&store.valid[words.clone()])),
            ("values", text(&&store.values[slots.clone()])),
            ("stamps", text(&&store.stamps[slots.clone()])),
            ("cached", text(&store.cached[idx])),
            ("pending_mask", text(&&store.pending_mask[words])),
            ("unit", text(&store.units[idx])),
            (
                "tracked",
                text(&&sig.tracked[idx * sig.words..(idx + 1) * sig.words]),
            ),
            ("last_unmatched", text(&sig.last_unmatched[idx])),
            ("last_used", text(&&cap.last_used[slots.clone()])),
            ("use_count", text(&&cap.use_count[slots.clone()])),
            ("ghost", text(&&cap.ghost[slots.clone()])),
            ("ghost_stamps", text(&&cap.ghost_stamps[slots.clone()])),
            ("clock", text(&cap.clock[idx])),
            ("hit_times", text(&&hit_times[slots])),
        ]
    }

    /// A mesh handoff moves one row between two stores: the slot it
    /// leaves is departed, the row lands whole, and an arrival under
    /// diverged report histories drops a carried cache exactly once.
    #[test]
    fn a_moved_row_lands_whole_and_leaves_a_departed_slot() {
        // Bounded at 2 of 6 slots, so installs evict and leave ghosts,
        // with every per-row column armed: SIG's mask, the capacity
        // columns, the hit histories.
        let store = |rows: usize| {
            let spec = CapacitySpec {
                cap: 2,
                policy: ReplacementPolicy::Lru,
                window: SimDuration::from_secs(3.0 * LATENCY),
            };
            let sig = ReportRule::Sig { decoder: decoder() };
            let mut store = SlotStore::new(HOTSPOT.len(), rows, sig, Some(spec), true);
            for _ in 0..rows {
                store.push_row(&HOTSPOT, 0.4, 0.0);
            }
            store
        };
        let (mut a, mut b) = (store(3), store(2));
        let m = decoder().plan().m as u64;
        let signatures: Arc<Vec<u64>> = Arc::new((0..m).map(|j| j * 7 + 1).collect());
        let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
        let last = 6;
        for i in 1..=last {
            let payload = FramePayload::SignatureReport {
                report_ts_micros: secs(LATENCY * i as f64),
                sig_bits: 16,
                signatures: Arc::clone(&signatures),
            };
            for store in [&mut a, &mut b] {
                let no_zipf: Option<fn() -> usize> = None;
                for idx in 0..store.len() {
                    store.pose(idx, report_time(i - 1), report_time(i), &mut rng, no_zipf);
                }
                // The last report is lost, so the pending sets travel too.
                if i == last {
                    for idx in 0..store.len() {
                        store.unit_mut(idx).miss_report();
                    }
                    continue;
                }
                let mut scratch = DigestScratch::default();
                let digest = scratch.digest(&payload);
                let mut lists = SweepLists::default();
                for idx in 0..store.len() {
                    let heard = store.rows().hear(idx, idx, &digest, &mut lists);
                    for k in heard.uplinks {
                        let item = lists.uplinks[k];
                        store.install(idx, answer(item, digest.report_time()));
                    }
                }
            }
        }
        let k = 1;
        let before = row_of(&a, k);
        let share = Arc::clone(&a.sig.as_ref().unwrap().last_report[k]);
        let carried = a.cached[k] as usize;
        assert!(carried > 0, "the traveler carries a cache");
        let ghosts = &a.cap.as_ref().unwrap().ghost[a.slots(k)];
        assert!(ghosts.iter().any(Option::is_some), "and ghosts");
        assert!(a.pending_len(k) > 0, "and queries still waiting");
        assert!(a.tracked_subsets(k) > 0, "and tracked subsets");
        let entries_before: usize = (0..a.len()).map(|idx| a.cache(idx).len()).sum();

        let landed = a.move_row(k, &mut b);
        // A's slot is departed: no valid bits, zero stats, nothing cached.
        assert_eq!(a.unit(k).presence(), Presence::Departed);
        assert_eq!(a.unit(k).stats(), crate::MuStats::default());
        assert!(a.valid[a.words(k)].iter().all(|&w| w == 0));
        assert_eq!(a.cached[k], 0);
        let entries_after: usize = (0..a.len()).map(|idx| a.cache(idx).len()).sum();
        assert_eq!(entries_after, entries_before - carried);
        // B's new row is A's old one, column by column.
        assert_eq!(landed, 2, "an arrival appends a row");
        assert_eq!(row_of(&b, landed), before);
        assert!(Arc::ptr_eq(
            &b.sig.as_ref().unwrap().last_report[landed],
            &share
        ));

        // Landing: asleep in transit, arrived until it hears a report;
        // histories that agree keep the cache.
        assert!(!b.land(landed, true), "agreeing histories drop nothing");
        assert_eq!(b.unit(landed).presence(), Presence::Arrived);
        assert!(!b.unit(landed).is_awake());
        assert_eq!(b.cached[landed] as usize, carried);
        // Diverged histories empty the row — entries and ghosts — and
        // count one drop; an empty row has nothing to lose and counts
        // none.
        let drops = b.unit(landed).stats().cache_drops;
        assert!(b.land(landed, false), "a carried cache is lost");
        assert_eq!(b.cached[landed], 0);
        assert!(b.valid[b.words(landed)].iter().all(|&w| w == 0));
        let ghosts = &b.cap.as_ref().unwrap().ghost[b.slots(landed)];
        assert!(ghosts.iter().all(Option::is_none));
        assert_eq!(b.unit(landed).stats().cache_drops, drops + 1);
        assert!(!b.land(landed, false), "an empty row loses nothing");
        assert_eq!(b.unit(landed).stats().cache_drops, drops + 1);
    }
}
