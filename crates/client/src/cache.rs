//! The mobile unit's cache, as one row of the slot store sees it.
//!
//! Each entry pairs the item's value with its validity timestamp `t_x`:
//! "if a client determines that a particular item's cache is valid after
//! listening to the report, this cache gets timestamped with the value
//! T_i ... If the client has to submit an uplink request ... the
//! obtained copy has the timestamp equal to the timestamp of the
//! request" (§2). Timestamps in one cache need *not* all be equal
//! (§3.1 notes this explicitly), which is why they live per entry.
//!
//! The paper assumes cache storage survives power-off ("on a disk ...
//! or any storage system that survives power disconnections, such as
//! flash memories", §1) — sleeping does *not* clear the cache; only the
//! strategy algorithms do.
//!
//! A client only ever caches items of its hot spot (queries draw only
//! hot-spot items, and entries are installed only by answers to
//! queries), so its cache is a fixed block of one *slot* per hot-spot
//! item, in ascending id order, in the columns of the
//! [`SlotStore`](crate::SlotStore). This module holds the two ways to
//! look at one such block:
//!
//! * [`SlotBlock`] — what [`ReportRule::apply`](crate::ReportRule::apply)
//!   walks: "for every item j in the MU cache", ascending over the
//!   block's valid bits, with each entry's fate decided by a
//!   [`Verdict`];
//! * [`CacheView`] — a read-only view, for the query plane, the safety
//!   audit and tests.
//!
//! A slot stores its install stamp; the validity stamp is
//! `max(stamp, T_l)` under a rule that [vouches for every
//! survivor](crate::ReportRule::vouches_survivors), so a heard report
//! verifies every survivor as of `T_i` without writing a stamp.
//! Quasi-delay alone writes the stamps it restamps.
//!
//! An optional capacity bound models small devices, with a pluggable
//! [`ReplacementPolicy`] (LRU by default); the paper's scenarios are
//! capacity-unbounded. A bounded cache also remembers each evicted
//! entry as a *ghost* (its slot's [`GhostFate`] and eviction-time
//! stamp), so a later requery can be classified as a pure capacity
//! miss (the copy was still fresh — one more slot would have made it a
//! hit) or an unavoidable one (a report proved the copy stale anyway).
//! Reports retire ghosts through [`SlotBlock::retire_ghosts`]. The
//! replacement vocabulary lives here too: [`ReplacementPolicy`], the
//! total eviction order [`victim_key`], the one victim scan [`victim`],
//! [`GhostFate`] and the [`CapacityStats`] family.

use sw_server::ItemId;
use sw_sim::{counters, SimDuration, SimTime};

use crate::rule::Verdict;

/// Which entry a bounded cache sacrifices when it is full.
///
/// The default is [`ReplacementPolicy::Lru`], which is what
/// `with_cache_capacity` armed before policies became pluggable — the
/// pre-existing bounded behavior is the LRU point of this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used entry (recency clock).
    #[default]
    Lru,
    /// Evict the least-frequently-used entry; recency breaks ties.
    Lfu,
    /// Strategy-aware: an entry whose stamp is older than the TS window
    /// `w = kL` is dead weight — the next report cannot restamp it, so
    /// it will be dropped on the next gap check anyway. Evict dead
    /// entries first (oldest stamp first), then fall back to LRU over
    /// the live ones.
    WindowAge,
}

impl ReplacementPolicy {
    /// Short lowercase name for figure rows and log lines.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Lfu => "lfu",
            ReplacementPolicy::WindowAge => "window-age",
        }
    }
}

/// Per-entry metadata the replacement policies rank on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryMeta {
    /// Recency clock value at the entry's last hit or install.
    pub last_used: u64,
    /// Hits since install (1 at install).
    pub use_count: u64,
    /// The entry's cache stamp (install or last restamp time).
    pub stamp: SimTime,
}

/// The total eviction order: the cache evicts the entry with the
/// **minimal** key. The final component is the item id, so the order is
/// total even when two entries tie on every policy axis — this is what
/// makes eviction independent of the order the candidates are visited
/// in.
///
/// `now` is the timestamp of the answer being installed (eviction only
/// happens at install time); `window` is the TS window `w = kL` used by
/// [`ReplacementPolicy::WindowAge`] (ignored by the other policies).
#[inline]
pub fn victim_key(
    policy: ReplacementPolicy,
    meta: EntryMeta,
    now: SimTime,
    window: SimDuration,
    item: u64,
) -> [u64; 4] {
    match policy {
        ReplacementPolicy::Lru => [1, meta.last_used, 0, item],
        ReplacementPolicy::Lfu => [1, meta.use_count, meta.last_used, item],
        ReplacementPolicy::WindowAge => {
            let dead = now.saturating_duration_since(meta.stamp) > window;
            if dead {
                // Non-negative finite f64 bit patterns order like the
                // values, so the oldest stamp has the smallest key.
                [0, meta.stamp.as_secs().to_bits(), meta.last_used, item]
            } else {
                [1, meta.last_used, 0, item]
            }
        }
    }
}

/// The entry a full cache evicts: the candidate `(at, item, meta)` with
/// the minimal [`victim_key`], returned as its `at` and the stamp its
/// ghost keeps. This loop is the only victim scan; the slot store runs
/// it over a client's valid slots. The key ends in the item id, so the
/// minimum is unique and the candidates' order cannot change the
/// victim.
///
/// # Panics
/// Panics if there are no candidates.
#[inline]
pub fn victim<K>(
    policy: ReplacementPolicy,
    now: SimTime,
    window: SimDuration,
    candidates: impl IntoIterator<Item = (K, ItemId, EntryMeta)>,
) -> (K, SimTime) {
    let mut victim: Option<([u64; 4], K, SimTime)> = None;
    for (at, item, meta) in candidates {
        let key = victim_key(policy, meta, now, window, item);
        if victim.as_ref().is_none_or(|(best, ..)| key < *best) {
            victim = Some((key, at, meta.stamp));
        }
    }
    let (_, at, stamp) = victim.expect("cache over capacity cannot be empty");
    (at, stamp)
}

/// What a requery learned about a previously evicted item.
///
/// A bounded cache remembers evicted items as *ghosts* (item id +
/// eviction-time stamp). Reports mark a ghost [`GhostFate::Stale`] when
/// they prove the item changed after the eviction; a requery consumes
/// the ghost and classifies the miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostFate {
    /// The evicted copy was still fresh — this miss is a pure capacity
    /// miss: it would have been a hit with one more cache slot.
    Fresh,
    /// The evicted copy had been invalidated anyway — the eviction cost
    /// nothing; the uplink fetch was unavoidable.
    Stale,
}

counters! {
    /// The eviction statistics family, as folded into `SimulationReport`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CapacityStats {
        /// Entries evicted to make room (not invalidations or drops).
        pub evictions as "capacity_evictions",
        /// Misses on items whose evicted copy was still fresh — the misses
        /// the capacity bound itself caused. For the signature family and
        /// group strategies, ghosts are only retired by whole-cache drops,
        /// so this counter is an upper bound there.
        pub capacity_misses,
        /// Misses on any previously evicted item, fresh or stale — how
        /// often the workload re-touched what replacement threw away.
        pub evicted_then_requeried,
    }
}

/// One cached item, as a [`CacheView`] reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// The cached value.
    pub value: u64,
    /// Validity timestamp `t_x`: the latest server-clock instant at
    /// which this value is known to have been current.
    pub timestamp: SimTime,
}

/// The validity stamp `t_x` of an entry stamped `installed` whose
/// survivors were last vouched for at `vouched`: the one reading of a
/// slot's stamp. A rule that vouches ends a heard report with each
/// survivor verified as of `T_i` and `T_l := T_i`, and an install is
/// stamped at the server's clock, never before `T_l` — so an entry
/// installed since the last report carries its own stamp and every
/// other survivor carries `T_l`. Otherwise `vouched` is `None`.
#[inline]
pub(crate) fn validity(installed: SimTime, vouched: Option<SimTime>) -> SimTime {
    // `max`, compared as seconds: a `SimTime` is never NaN, and the
    // float compare carries no panic path into a sweep that ignores it.
    match vouched {
        Some(t_l) if t_l.as_secs() > installed.as_secs() => t_l,
        _ => installed,
    }
}

/// Set bit positions of `word`, ascending, offset by `base`. `word` is
/// a copy, so the loop body may clear bits of the column it came from.
#[inline]
pub(crate) fn set_bits(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
}

/// One client's block of the cache columns: what
/// [`ReportRule::apply`](crate::ReportRule::apply) walks. Slot order is
/// ascending item id, so every walk visits, and every list of dropped
/// ids it appends, ascends.
///
/// The walks append to a buffer the caller lends rather than return a
/// list of their own, so a caller that sweeps many clients keeps one
/// buffer across clients and intervals and a walk allocates nothing.
///
/// Under a rule that [vouches for every
/// survivor](crate::ReportRule::vouches_survivors) the block reads the
/// validity stamp as `max(install stamp, T_l)`, so a restamp
/// costs nothing; under quasi-delay it writes `T_i` into the slot on a
/// restamp.
#[derive(Debug)]
pub struct SlotBlock<'a> {
    /// Slot → item: the client's hot spot, ascending.
    pub(crate) items: &'a [ItemId],
    /// The client's validity words.
    pub(crate) valid: &'a mut [u64],
    /// The client's stamps: a restamp writes one only when `!vouches`.
    pub(crate) stamps: &'a mut [SimTime],
    /// [`ReportRule::vouches_survivors`](crate::ReportRule::vouches_survivors).
    pub(crate) vouches: bool,
    /// When every survivor was last verified, if `vouches`: the client's
    /// `T_l` on entry, `T_i` after a walk. `None` otherwise.
    pub(crate) vouched: Option<SimTime>,
    pub(crate) cached: &'a mut u32,
    /// Ghost state and eviction stamp per slot (bounded caches only).
    pub(crate) ghosts: Option<(&'a mut [Option<GhostFate>], &'a [SimTime])>,
}

impl SlotBlock<'_> {
    /// Number of cached items.
    #[inline]
    pub fn len(&self) -> usize {
        *self.cached as usize
    }

    /// True if nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        *self.cached == 0
    }

    /// Drops the entire cache, ghosts included: after a whole-cache
    /// drop *nothing* would have been a hit, so no later miss is
    /// attributable to an earlier eviction.
    pub fn clear(&mut self) {
        self.valid.fill(0);
        *self.cached = 0;
        if let Some((ghost, _)) = &mut self.ghosts {
            ghost.fill(None);
        }
    }

    /// The one walk behind both of the rule's walks: applies
    /// `verdict(item, stamps, slot)` to each cached slot, ascending.
    /// Under a rule that vouches for every survivor it writes no stamp
    /// and vouches for them all as of `t_i`, O(1); otherwise a restamp
    /// writes `t_i` into the slot and a `Keep` leaves the stamp running.
    #[inline]
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

    /// "For every item j in the MU cache": one walk, `verdict(item,
    /// t_cache)` deciding each entry's fate. The dropped ids are
    /// appended to `dropped`, ascending. Report processing is not a
    /// read: recency is untouched.
    #[inline]
    pub fn sweep(
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

    /// The walk of a report that can only condemn what it lists: among
    /// the cached entries `listed(item)` names, drop those
    /// `stale(item, t_cache)` condemns; every other entry is verified as
    /// of `T_i`. `stale` runs only for listed entries, so a stamp is read
    /// only for `report ∩ cache`, and a report that lists next to
    /// nothing costs a membership probe per cached entry. The dropped
    /// ids are appended to `dropped`, ascending.
    #[inline]
    pub fn drop_listed(
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

    /// Ghost retire: marks every still-fresh ghost (the memory of an
    /// evicted entry) for which `proven_stale(item, eviction_stamp)`
    /// holds — that copy would have been dropped anyway, the eviction
    /// cost nothing. No-op on unbounded caches.
    #[inline]
    pub fn retire_ghosts(&mut self, mut proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
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

/// A read-only view of one client's cache: its entries with their
/// validity stamps, as of the last report the client heard. Reading
/// through it is not an access: recency and the LFU counts stay as
/// they are.
#[derive(Debug, Clone, Copy)]
pub struct CacheView<'a> {
    pub(crate) items: &'a [ItemId],
    pub(crate) valid: &'a [u64],
    pub(crate) values: &'a [u64],
    pub(crate) stamps: &'a [SimTime],
    pub(crate) vouched: Option<SimTime>,
    pub(crate) cached: u32,
}

impl<'a> CacheView<'a> {
    /// Number of cached items.
    #[inline]
    pub fn len(&self) -> usize {
        self.cached as usize
    }

    /// True if nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cached == 0
    }

    /// The entry of `item`, if cached.
    #[inline]
    pub fn peek(&self, item: ItemId) -> Option<CacheEntry> {
        let slot = self.items.binary_search(&item).ok()?;
        self.cached(slot).then(|| self.entry(slot))
    }

    /// True if `item` is cached.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.peek(item).is_some()
    }

    /// Every cached `(item, entry)`, ascending by item.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, CacheEntry)> + 'a {
        let view = *self;
        let words = view.valid.iter().enumerate();
        words
            .flat_map(|(w, &word)| set_bits(word, w * 64))
            .map(move |slot| (view.items[slot], view.entry(slot)))
    }

    #[inline]
    fn cached(&self, slot: usize) -> bool {
        self.valid[slot / 64] & (1 << (slot % 64)) != 0
    }

    #[inline]
    fn entry(&self, slot: usize) -> CacheEntry {
        CacheEntry {
            value: self.values[slot],
            timestamp: validity(self.stamps[slot], self.vouched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::fixture::Row;

    /// The universe the tests' rows span.
    const UNIVERSE: u64 = 20;

    fn unbounded() -> Row {
        Row::universe(crate::ReportRule::NoCache, UNIVERSE)
    }

    fn with_capacity(cap: usize) -> Row {
        Row::bounded(UNIVERSE, cap, ReplacementPolicy::Lru, SimDuration::ZERO)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = unbounded();
        c.insert(5, 42, SimTime::from_secs(1.0));
        let e = c.get(5).unwrap();
        assert_eq!(e.value, 42);
        assert_eq!(e.timestamp, SimTime::from_secs(1.0));
        assert!(c.contains(5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn timestamps_can_differ_between_entries() {
        // §3.1: "the timestamps in the cache need not be all the same".
        let mut c = unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        c.insert(2, 20, SimTime::from_secs(17.3));
        assert_ne!(
            c.peek(1).unwrap().timestamp,
            c.peek(2).unwrap().timestamp
        );
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = unbounded();
        for i in 0..10 {
            c.insert(i, i, SimTime::from_secs(1.0));
        }
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = with_capacity(2);
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO);
        let _ = c.get(1); // 1 is now more recent than 2
        c.insert(3, 3, SimTime::ZERO);
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn peek_does_not_bump_recency() {
        let mut c = with_capacity(2);
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO);
        let _ = c.peek(1); // no recency bump: 1 remains LRU
        c.insert(3, 3, SimTime::ZERO);
        assert!(!c.contains(1));
    }

    #[test]
    fn sorted_items_is_sorted() {
        let mut c = unbounded();
        for i in [9u64, 3, 7, 1] {
            c.insert(i, 0, SimTime::ZERO);
        }
        assert_eq!(c.items(), vec![1, 3, 7, 9]);
    }

    #[test]
    fn reinsert_replaces_value() {
        let mut c = unbounded();
        c.insert(1, 10, SimTime::from_secs(1.0));
        c.insert(1, 20, SimTime::from_secs(2.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(1).unwrap().value, 20);
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let mut c = Row::bounded(UNIVERSE, 2, ReplacementPolicy::Lfu, SimDuration::ZERO);
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO);
        // Item 2 is hit twice, item 1 never: LFU sacrifices 1 even
        // though 1 was inserted first and 2 touched more recently.
        let _ = c.get(2);
        let _ = c.get(2);
        c.insert(3, 3, SimTime::ZERO);
        assert!(!c.contains(1), "cold item evicted under LFU");
        assert!(c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn window_age_evicts_dead_entries_first() {
        let mut c = Row::bounded(
            UNIVERSE,
            2,
            ReplacementPolicy::WindowAge,
            SimDuration::from_secs(50.0),
        );
        // Item 1 stamped far outside the window but *hot* (recently
        // used); item 2 fresh but LRU-cold. LRU would evict 2;
        // window-age knows 1 is dead weight.
        c.insert(1, 1, SimTime::from_secs(10.0));
        c.insert(2, 2, SimTime::from_secs(99.0));
        let _ = c.get(1);
        c.insert(3, 3, SimTime::from_secs(100.0));
        assert!(!c.contains(1), "dead entry evicted despite recency");
        assert!(c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn ghost_classifies_requeries() {
        let mut c = with_capacity(1);
        c.insert(1, 1, SimTime::from_secs(1.0));
        c.insert(2, 2, SimTime::from_secs(2.0)); // evicts 1 → fresh ghost
        assert_eq!(c.take_ghost(1), Some(GhostFate::Fresh));
        assert_eq!(c.take_ghost(1), None, "take consumes the ghost");

        c.insert(3, 3, SimTime::from_secs(3.0)); // evicts 2
        c.retire_ghosts(|item, _| item == 2);
        assert_eq!(c.take_ghost(2), Some(GhostFate::Stale));
    }

    #[test]
    fn retire_ghosts_uses_eviction_stamp() {
        let mut c = with_capacity(1);
        c.insert(1, 1, SimTime::from_secs(5.0));
        c.insert(2, 2, SimTime::from_secs(6.0)); // ghost(1) stamped 5.0
        // An update at t = 4 predates the evicted copy: still fresh.
        c.retire_ghosts(|item, stamp| item == 1 && stamp < SimTime::from_secs(4.0));
        assert_eq!(c.take_ghost(1), Some(GhostFate::Fresh));
        c.insert(3, 3, SimTime::from_secs(7.0)); // ghost(2) stamped 6.0
        // An update at t = 8 postdates it: the eviction cost nothing.
        c.retire_ghosts(|item, stamp| item == 2 && stamp < SimTime::from_secs(8.0));
        assert_eq!(c.take_ghost(2), Some(GhostFate::Stale));
    }

    #[test]
    fn reinstall_clears_ghost_and_clear_drops_ghosts() {
        let reinstalled = || {
            let mut c = with_capacity(1);
            c.insert(1, 1, SimTime::ZERO);
            c.insert(2, 2, SimTime::ZERO); // ghost(1)
            c.insert(1, 10, SimTime::ZERO); // reinstall 1; ghost(1) gone, ghost(2) born
            c
        };
        let mut c = reinstalled();
        assert_eq!(c.take_ghost(1), None);
        assert_eq!(c.take_ghost(2), Some(GhostFate::Fresh));
        let mut cleared = reinstalled();
        cleared.clear();
        assert_eq!(cleared.take_ghost(2), None);
    }

    fn meta(last_used: u64, use_count: u64, stamp: f64) -> EntryMeta {
        EntryMeta {
            last_used,
            use_count,
            stamp: SimTime::from_secs(stamp),
        }
    }

    /// Two candidates that tie on every policy axis: the lower item id
    /// goes, in whichever order the candidates are visited.
    #[test]
    fn victim_breaks_exact_ties_by_item_id_in_any_order() {
        let now = SimTime::from_secs(100.0);
        let w = SimDuration::from_secs(50.0);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Lfu,
            ReplacementPolicy::WindowAge,
        ] {
            for stamp in [10.0, 90.0] {
                let tied = meta(4, 2, stamp);
                let forward = [("a", 3, tied), ("b", 8, tied)];
                let backward = [("b", 8, tied), ("a", 3, tied)];
                for candidates in [forward, backward] {
                    let (gone, kept) = victim(policy, now, w, candidates);
                    assert_eq!(gone, "a", "{policy:?} stamp {stamp}");
                    assert_eq!(kept, SimTime::from_secs(stamp));
                }
            }
        }
    }

    #[test]
    fn lru_orders_by_recency_then_item() {
        let now = SimTime::from_secs(100.0);
        let w = SimDuration::from_secs(50.0);
        let old = victim_key(ReplacementPolicy::Lru, meta(3, 9, 90.0), now, w, 7);
        let newer = victim_key(ReplacementPolicy::Lru, meta(5, 1, 10.0), now, w, 2);
        assert!(old < newer, "lower recency clock must evict first");
        let tie_a = victim_key(ReplacementPolicy::Lru, meta(4, 1, 0.0), now, w, 2);
        let tie_b = victim_key(ReplacementPolicy::Lru, meta(4, 1, 0.0), now, w, 9);
        assert!(tie_a < tie_b, "item id breaks exact ties");
    }

    #[test]
    fn lfu_orders_by_frequency_then_recency() {
        let now = SimTime::from_secs(100.0);
        let w = SimDuration::from_secs(50.0);
        let rare = victim_key(ReplacementPolicy::Lfu, meta(9, 1, 0.0), now, w, 1);
        let hot = victim_key(ReplacementPolicy::Lfu, meta(1, 8, 0.0), now, w, 2);
        assert!(rare < hot, "lower use count must evict first");
        let a = victim_key(ReplacementPolicy::Lfu, meta(2, 4, 0.0), now, w, 1);
        let b = victim_key(ReplacementPolicy::Lfu, meta(6, 4, 0.0), now, w, 2);
        assert!(a < b, "equal counts fall back to recency");
    }

    #[test]
    fn window_age_evicts_dead_entries_before_any_live_one() {
        let now = SimTime::from_secs(1000.0);
        let w = SimDuration::from_secs(100.0);
        // Stamped 850 s ago — far outside the window, dead weight.
        let dead = victim_key(ReplacementPolicy::WindowAge, meta(99, 9, 150.0), now, w, 5);
        // Live entry, never touched since install.
        let live = victim_key(ReplacementPolicy::WindowAge, meta(1, 1, 950.0), now, w, 3);
        assert!(dead < live, "dead entries evict before live ones");
        // Two dead entries: the older stamp goes first.
        let older = victim_key(ReplacementPolicy::WindowAge, meta(7, 1, 100.0), now, w, 8);
        assert!(older < dead, "older dead stamp evicts first");
        // Entries inside the window rank exactly like LRU.
        let lru = victim_key(ReplacementPolicy::Lru, meta(1, 1, 950.0), now, w, 3);
        assert_eq!(live, lru);
    }

    #[test]
    fn window_age_boundary_is_exclusive() {
        // age == window is still live (the gap check drops on >, not >=).
        let now = SimTime::from_secs(200.0);
        let w = SimDuration::from_secs(100.0);
        let at_edge = victim_key(ReplacementPolicy::WindowAge, meta(4, 1, 100.0), now, w, 1);
        assert_eq!(at_edge[0], 1, "age == w is not dead");
        let past_edge = victim_key(
            ReplacementPolicy::WindowAge,
            meta(4, 1, 99.999),
            now,
            w,
            1,
        );
        assert_eq!(past_edge[0], 0, "age > w is dead");
    }

    #[test]
    fn capacity_stats_obey_the_counter_laws() {
        sw_sim::counters::assert_laws::<CapacityStats>();
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
        assert_eq!(ReplacementPolicy::Lru.name(), "lru");
        assert_eq!(ReplacementPolicy::Lfu.name(), "lfu");
        assert_eq!(ReplacementPolicy::WindowAge.name(), "window-age");
    }

    #[test]
    fn unbounded_cache_never_ghosts() {
        let mut c = unbounded();
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO);
        let mut dropped = vec![7];
        c.sweep(
            SimTime::ZERO,
            |item, _| Verdict::drop_if(item == 1),
            &mut dropped,
        );
        assert_eq!(dropped, vec![7, 1], "the walk appends to what it is lent");
        assert_eq!(c.items(), vec![2]);
        assert_eq!(c.take_ghost(1), None);
    }
}
