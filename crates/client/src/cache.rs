//! The mobile unit's cache.
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
//! strategy algorithms do. An optional capacity bound models small
//! devices, with a pluggable [`ReplacementPolicy`] (LRU by default);
//! the paper's scenarios are capacity-unbounded.
//!
//! A bounded cache also keeps a *ghost list*: the id and stamp of every
//! evicted entry, so a later requery can be classified as a pure
//! capacity miss (the copy was still fresh — one more slot would have
//! made it a hit) or an unavoidable one (a report proved the copy stale
//! anyway). Reports retire ghosts through [`CacheSlots::retire_ghosts`].
//!
//! The replacement vocabulary lives here too: [`ReplacementPolicy`],
//! the total eviction order [`victim_key`], the one victim scan
//! [`victim`], [`GhostFate`] and the [`CapacityStats`] family. Both
//! client stores enforce it identically — this cache behind the boxed
//! [`MobileUnit`](crate::MobileUnit), and the columnar fleet in
//! `sleepers`, which picks its victims with the same [`victim`] and
//! keeps an `Option<GhostFate>` per slot — so bounded runs stay
//! byte-identical across the two.

use sw_server::{ItemId, ItemTable};
use sw_sim::{counters, SimDuration, SimTime};

use crate::rule::{CacheSlots, Verdict};

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
/// makes eviction independent of table iteration order, and therefore
/// byte-identical between the boxed and columnar backends.
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
/// ghost keeps. This loop is the only victim scan: the boxed [`Cache`]
/// runs it over its table, the columnar fleet over a client's valid
/// slots. The key ends in the item id, so the minimum is unique and the
/// candidates' order cannot change the victim.
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

/// One cached item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// The cached value.
    pub value: u64,
    /// Validity timestamp `t_x`: the latest server-clock instant at
    /// which this value is known to have been current.
    pub timestamp: SimTime,
    /// Recency tick of the last access (insert or read).
    last_used: u64,
    /// Hits since install (1 at install) — the LFU frequency estimate.
    use_count: u64,
}

/// Memory of an evicted entry (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct GhostEntry {
    /// The evicted entry's validity stamp at eviction time.
    stamp: SimTime,
    /// [`GhostFate::Fresh`] until a report proves the item changed
    /// after `stamp`.
    fate: GhostFate,
}

/// The MU cache: item → entry, with optional bounded capacity under a
/// pluggable [`ReplacementPolicy`].
///
/// Item ids are dense, so the cell driver constructs caches with
/// [`Cache::for_universe`]: a vec-indexed table with no hashing on the
/// per-query hot path, and free id-ordered iteration. The
/// constructors that take no universe start empty and grow to the
/// largest id inserted.
#[derive(Debug, Clone)]
pub struct Cache {
    entries: ItemTable<CacheEntry>,
    /// Ghost list, allocated only for bounded caches (unbounded caches
    /// never evict, so they never pay for the second table).
    ghosts: Option<ItemTable<GhostEntry>>,
    capacity: Option<usize>,
    policy: ReplacementPolicy,
    /// TS window `w = kL` for [`ReplacementPolicy::WindowAge`]; ignored
    /// by the other policies.
    window: SimDuration,
    clock: u64,
    evictions: u64,
}

impl Cache {
    /// Creates an unbounded cache (the paper's model) over an unknown
    /// item universe.
    pub fn unbounded() -> Self {
        Self::for_universe(0)
    }

    /// Creates an unbounded cache pre-sized for items `0..universe`
    /// (the fast path used by the cell simulation).
    pub fn for_universe(universe: u64) -> Self {
        Cache {
            entries: ItemTable::dense(universe),
            ghosts: None,
            capacity: None,
            policy: ReplacementPolicy::Lru,
            window: SimDuration::ZERO,
            clock: 0,
            evictions: 0,
        }
    }

    /// Creates a cache holding at most `capacity` items, evicting the
    /// least recently used on overflow.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_for_universe(capacity, 0)
    }

    /// Creates a capacity-bounded LRU cache pre-sized for items
    /// `0..universe`.
    pub fn with_capacity_for_universe(capacity: usize, universe: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Cache {
            entries: ItemTable::dense(universe),
            ghosts: Some(ItemTable::dense(universe)),
            capacity: Some(capacity),
            policy: ReplacementPolicy::Lru,
            window: SimDuration::ZERO,
            clock: 0,
            evictions: 0,
        }
    }

    /// Switches a bounded cache's replacement policy (`window` is the
    /// TS window `w = kL`, consulted only by
    /// [`ReplacementPolicy::WindowAge`]). No-op semantics change for
    /// unbounded caches, which never evict.
    pub fn set_replacement(&mut self, policy: ReplacementPolicy, window: SimDuration) {
        self.policy = policy;
        self.window = window;
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of capacity evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// True if `item` is cached.
    pub fn contains(&self, item: ItemId) -> bool {
        self.entries.contains(item)
    }

    /// Reads `item` (bumping recency; on a hit, also the LFU count).
    pub fn get(&mut self, item: ItemId) -> Option<CacheEntry> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(item).map(|e| {
            e.last_used = clock;
            e.use_count += 1;
            *e
        })
    }

    /// Reads `item` without touching recency (for invariant checks).
    pub fn peek(&self, item: ItemId) -> Option<&CacheEntry> {
        self.entries.get(item)
    }

    /// Inserts or replaces `item`, evicting per the replacement policy
    /// if over capacity. A fresh install clears any ghost of the item.
    pub fn insert(&mut self, item: ItemId, value: u64, timestamp: SimTime) {
        self.clock += 1;
        self.entries.insert(
            item,
            CacheEntry {
                value,
                timestamp,
                last_used: self.clock,
                use_count: 1,
            },
        );
        if let Some(ghosts) = &mut self.ghosts {
            ghosts.remove(item);
        }
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let candidates = self.entries.iter().map(|(k, e)| {
                    let meta = EntryMeta {
                        last_used: e.last_used,
                        use_count: e.use_count,
                        stamp: e.timestamp,
                    };
                    (k, k, meta)
                });
                let (gone, stamp) = victim(self.policy, timestamp, self.window, candidates);
                self.entries.remove(gone);
                if let Some(ghosts) = &mut self.ghosts {
                    let fate = GhostFate::Fresh;
                    ghosts.insert(gone, GhostEntry { stamp, fate });
                }
                self.evictions += 1;
            }
        }
    }

    /// Drops the entire cache (the `T_i − T_l > w` / `> L` path of the
    /// §3 algorithms). Ghosts are dropped too: after a whole-cache drop
    /// *nothing* would have been a hit, so no later miss is
    /// attributable to an earlier eviction.
    pub fn clear(&mut self) {
        self.entries.clear();
        if let Some(ghosts) = &mut self.ghosts {
            ghosts.clear();
        }
    }

    /// Consumes the ghost of `item`, if any: what a requery learned
    /// about the evicted copy. Called on every miss by the unit driver.
    pub fn take_ghost(&mut self, item: ItemId) -> Option<GhostFate> {
        self.ghosts.as_mut()?.remove(item).map(|g| g.fate)
    }

    /// Cached ids as a sorted vector (deterministic iteration for the
    /// strategy algorithms and tests): the table's own walk order.
    pub fn sorted_items(&self) -> Vec<ItemId> {
        self.entries.sorted_ids()
    }
}

impl CacheSlots for Cache {
    fn len(&self) -> usize {
        Cache::len(self)
    }

    fn clear(&mut self) {
        Cache::clear(self);
    }

    fn sweep(
        &mut self,
        t_i: SimTime,
        mut verdict: impl FnMut(ItemId, SimTime) -> Verdict,
        dropped: &mut Vec<ItemId>,
    ) {
        // The table walks ascending, so the ids append sorted.
        self.entries.retain_mut(|item, entry| {
            match verdict(item, entry.timestamp) {
                Verdict::Drop => {
                    dropped.push(item);
                    return false;
                }
                Verdict::Restamp => entry.timestamp = t_i,
                Verdict::Keep => {}
            }
            true
        });
    }

    fn retire_ghosts(&mut self, mut proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
        if let Some(ghosts) = &mut self.ghosts {
            ghosts.for_each_mut(|item, g| {
                if g.fate == GhostFate::Fresh && proven_stale(item, g.stamp) {
                    g.fate = GhostFate::Stale;
                }
            });
        }
    }
}

impl Default for Cache {
    fn default() -> Self {
        Cache::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = Cache::unbounded();
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
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        c.insert(2, 20, SimTime::from_secs(17.3));
        assert_ne!(
            c.peek(1).unwrap().timestamp,
            c.peek(2).unwrap().timestamp
        );
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = Cache::unbounded();
        for i in 0..10 {
            c.insert(i, i, SimTime::from_secs(1.0));
        }
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::with_capacity(2);
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
        let mut c = Cache::with_capacity(2);
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO);
        let _ = c.peek(1); // no recency bump: 1 remains LRU
        c.insert(3, 3, SimTime::ZERO);
        assert!(!c.contains(1));
    }

    #[test]
    fn sorted_items_is_sorted() {
        let mut c = Cache::unbounded();
        for i in [9u64, 3, 7, 1] {
            c.insert(i, 0, SimTime::ZERO);
        }
        assert_eq!(c.sorted_items(), vec![1, 3, 7, 9]);
    }

    #[test]
    fn reinsert_replaces_value() {
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(1.0));
        c.insert(1, 20, SimTime::from_secs(2.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(1).unwrap().value, 20);
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let mut c = Cache::with_capacity(2);
        c.set_replacement(ReplacementPolicy::Lfu, SimDuration::ZERO);
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
        let mut c = Cache::with_capacity(2);
        c.set_replacement(ReplacementPolicy::WindowAge, SimDuration::from_secs(50.0));
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
        let mut c = Cache::with_capacity(1);
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
        let mut c = Cache::with_capacity(1);
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
        let mut c = Cache::with_capacity(1);
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO); // ghost(1)
        c.insert(1, 10, SimTime::ZERO); // reinstall 1; ghost(1) gone, ghost(2) born
        assert_eq!(c.take_ghost(1), None);
        let mut cleared = c.clone();
        assert_eq!(c.take_ghost(2), Some(GhostFate::Fresh));
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
        let mut c = Cache::unbounded();
        c.insert(1, 1, SimTime::ZERO);
        c.insert(2, 2, SimTime::ZERO);
        let mut dropped = vec![7];
        CacheSlots::sweep(
            &mut c,
            SimTime::ZERO,
            |item, _| Verdict::drop_if(item == 1),
            &mut dropped,
        );
        assert_eq!(dropped, vec![7, 1], "the walk appends to what it is lent");
        assert_eq!(c.sorted_items(), vec![2]);
        assert_eq!(c.take_ghost(1), None);
    }
}
