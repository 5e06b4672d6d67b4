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

use sw_capacity::{victim_key, EntryMeta, GhostFate, ReplacementPolicy};
use sw_server::{ItemId, ItemTable};
use sw_sim::{SimDuration, SimTime};

use crate::rule::{CacheSlots, Verdict};

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
    /// True once a report proved the item changed after `stamp`.
    stale: bool,
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
                // The victim key ends in the item id, so the minimum is
                // unique: eviction is independent of iteration order and
                // byte-identical to the columnar fleet's scan.
                let (policy, window) = (self.policy, self.window);
                let victim = self
                    .entries
                    .iter()
                    .map(|(k, e)| {
                        (
                            victim_key(
                                policy,
                                EntryMeta {
                                    last_used: e.last_used,
                                    use_count: e.use_count,
                                    stamp: e.timestamp,
                                },
                                timestamp,
                                window,
                                k,
                            ),
                            k,
                        )
                    })
                    .min()
                    .map(|(_, k)| k)
                    .expect("cache over capacity cannot be empty");
                let gone = self
                    .entries
                    .remove(victim)
                    .expect("victim scan returned a live entry");
                if let Some(ghosts) = &mut self.ghosts {
                    ghosts.insert(
                        victim,
                        GhostEntry {
                            stamp: gone.timestamp,
                            stale: false,
                        },
                    );
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
        self.ghosts.as_mut()?.remove(item).map(|g| {
            if g.stale {
                GhostFate::Stale
            } else {
                GhostFate::Fresh
            }
        })
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
                if !g.stale && proven_stale(item, g.stamp) {
                    g.stale = true;
                }
            });
        }
    }

    fn sorted_items(&self) -> Vec<ItemId> {
        Cache::sorted_items(self)
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
