//! # sw-capacity — bounded caches, replacement policies, cooperative misses
//!
//! The paper's ranking of TS/AT/SIG (§3–§6) assumes every mobile unit
//! caches its whole hotspot. Production units run under memory
//! pressure, where the *replacement policy* interacts with the
//! invalidation rules: a TS window restamp is worthless if LRU already
//! evicted the entry, and an AT whole-cache drop resets any frequency
//! estimate LFU accumulated. This crate is the shared vocabulary both
//! cache backends (`sw-client`'s boxed [`MobileUnit`] path and the
//! columnar fleet in `sleepers`) enforce **identically**, so bounded
//! runs stay byte-pinnable across backends:
//!
//! * [`ReplacementPolicy`] — LRU, LFU, and the strategy-aware
//!   [`ReplacementPolicy::WindowAge`] that treats an entry older than
//!   TS's window `w = kL` as dead weight and evicts it first;
//! * [`victim_key`] — the total eviction order. Both backends evict
//!   the entry with the minimal key, and the key ends in the item id,
//!   so the two backends' iteration orders can never disagree;
//! * [`GhostFate`] — the bookkeeping behind the eviction statistics
//!   family (`evictions`, `capacity_misses`, `evicted_then_requeried`);
//! * [`CoopConfig`] / [`CoopStats`] / [`CoopDirectory`] — the
//!   cooperative miss path over `sw-mesh`: a bounded client's miss may
//!   be served by a neighbor cell's *verifiably fresh* copy before
//!   paying the uplink, charged at a distinct `b_coop` bit rate.
//!
//! [`MobileUnit`]: https://docs.rs/sw-client

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use sw_sim::{counters, SimDuration, SimTime};

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

/// Cooperative miss path configuration (per mesh).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoopConfig {
    /// Bits charged per cooperatively served item — the sidelink is a
    /// short-range exchange, so this is normally far below the uplink's
    /// `b_q + b_a`.
    pub b_coop: u64,
}

impl CoopConfig {
    /// A coop path charging `b_coop` bits per served item.
    pub fn new(b_coop: u64) -> Self {
        CoopConfig { b_coop }
    }
}

impl Default for CoopConfig {
    /// 128 bits — an item id plus a value word, no uplink framing.
    fn default() -> Self {
        CoopConfig { b_coop: 128 }
    }
}

counters! {
    /// Cooperative miss path counters, as folded into `SimulationReport`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CoopStats {
        /// Misses served by a neighbor's verifiably fresh copy.
        pub coop_served,
        /// Sidelink bits paid for those serves (`coop_served · b_coop`).
        pub coop_bits,
        /// Misses that consulted the feed but fell back to the uplink —
        /// no neighbor copy, or the strategy could not vouch freshness.
        pub coop_declined,
    }
}

/// One cell's barrier snapshot of cooperatively servable entries: every
/// item some resident client holds stamped exactly at the last report
/// time, with its cached value. Built sequentially at the mesh barrier,
/// so it is deterministic at any thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoopDirectory {
    /// The report time the snapshot was taken at.
    pub stamp: Option<SimTime>,
    entries: HashMap<u64, u64>,
}

impl CoopDirectory {
    /// An empty directory stamped at `stamp`.
    pub fn new(stamp: SimTime) -> Self {
        CoopDirectory {
            stamp: Some(stamp),
            entries: HashMap::new(),
        }
    }

    /// Records that some resident holds `item = value` at the snapshot
    /// stamp. Later inserts of the same item are no-ops (all residents
    /// stamped at the same report hold the same value).
    pub fn insert(&mut self, item: u64, value: u64) {
        self.entries.entry(item).or_insert(value);
    }

    /// The snapshot value for `item`, if any resident holds it.
    pub fn get(&self, item: u64) -> Option<u64> {
        self.entries.get(&item).copied()
    }

    /// Number of distinct items in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no resident had a servable entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The merged view a cell consults on a miss: its neighbors'
/// directories in ascending neighbor order, first holder wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoopFeed {
    /// The report time every merged directory was snapped at.
    pub stamp: Option<SimTime>,
    entries: HashMap<u64, u64>,
}

impl CoopFeed {
    /// Merges `directories` (already in ascending neighbor order).
    ///
    /// # Panics
    /// Panics if the directories carry different snapshot stamps — the
    /// mesh barrier snaps every cell at the same report index.
    pub fn merge(directories: &[&CoopDirectory]) -> Self {
        let mut feed = CoopFeed::default();
        for dir in directories {
            match (feed.stamp, dir.stamp) {
                (None, s) => feed.stamp = s,
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "coop directories snapped at different reports")
                }
                (Some(_), None) => {}
            }
            for (&item, &value) in &dir.entries {
                feed.entries.entry(item).or_insert(value);
            }
        }
        feed
    }

    /// The first-holder value for `item`, if any neighbor holds it.
    pub fn get(&self, item: u64) -> Option<u64> {
        self.entries.get(&item).copied()
    }

    /// Number of distinct items across the merged neighborhood.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no neighbor had anything servable.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn capacity_and_coop_stats_obey_the_counter_laws() {
        sw_sim::counters::assert_laws::<CapacityStats>();
        sw_sim::counters::assert_laws::<CoopStats>();
    }

    #[test]
    fn feed_merge_prefers_earlier_neighbors() {
        let t = SimTime::from_secs(10.0);
        let mut a = CoopDirectory::new(t);
        a.insert(1, 100);
        a.insert(2, 200);
        let mut b = CoopDirectory::new(t);
        b.insert(2, 999);
        b.insert(3, 300);
        let feed = CoopFeed::merge(&[&a, &b]);
        assert_eq!(feed.stamp, Some(t));
        assert_eq!(feed.len(), 3);
        assert_eq!(feed.get(2), Some(200), "first neighbor wins");
        assert_eq!(feed.get(3), Some(300));
        assert_eq!(feed.get(4), None);
    }

    #[test]
    #[should_panic(expected = "different reports")]
    fn feed_merge_rejects_mismatched_stamps() {
        let a = CoopDirectory::new(SimTime::from_secs(10.0));
        let b = CoopDirectory::new(SimTime::from_secs(20.0));
        let _ = CoopFeed::merge(&[&a, &b]);
    }

    #[test]
    fn directory_keeps_first_value_per_item() {
        let mut d = CoopDirectory::new(SimTime::ZERO);
        d.insert(5, 50);
        d.insert(5, 51);
        assert_eq!(d.get(5), Some(50));
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
        assert_eq!(ReplacementPolicy::Lru.name(), "lru");
        assert_eq!(ReplacementPolicy::Lfu.name(), "lfu");
        assert_eq!(ReplacementPolicy::WindowAge.name(), "window-age");
    }
}
