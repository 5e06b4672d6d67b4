//! Cooperative misses: the knob, the counters, and the directory of
//! servable entries a cell hands its neighbors at the mesh barrier.

use std::collections::HashMap;

use sw_sim::{counters, SimTime};

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

/// Cooperatively servable entries stamped at one report time: item →
/// value, first holder wins.
///
/// A cell's own snapshot
/// ([`CellSimulation::coop_directory`](crate::CellSimulation::coop_directory))
/// holds every item some resident client holds stamped exactly at the
/// last report time; the mesh barrier merges its neighbors'
/// snapshots into the view the cell consults on a miss. Both are built
/// sequentially at the mesh barrier, so they are deterministic at any
/// thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoopDirectory {
    /// The report time the snapshot was taken at.
    pub(crate) stamp: Option<SimTime>,
    entries: HashMap<u64, u64>,
}

impl CoopDirectory {
    /// An empty directory stamped at `stamp`.
    pub(crate) fn new(stamp: SimTime) -> Self {
        CoopDirectory {
            stamp: Some(stamp),
            entries: HashMap::new(),
        }
    }

    /// Merges `directories` (already in ascending neighbor order).
    ///
    /// # Panics
    /// Panics if the directories carry different snapshot stamps — the
    /// mesh barrier snaps every cell at the same report index.
    pub(crate) fn merge(directories: &[&CoopDirectory]) -> Self {
        let mut feed = CoopDirectory::default();
        for dir in directories {
            match (feed.stamp, dir.stamp) {
                (None, s) => feed.stamp = s,
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "coop directories snapped at different reports")
                }
                (Some(_), None) => {}
            }
            for (&item, &value) in &dir.entries {
                feed.insert(item, value);
            }
        }
        feed
    }

    /// Records that some resident holds `item = value` at the snapshot
    /// stamp. Later inserts of the same item are no-ops (all residents
    /// stamped at the same report hold the same value).
    pub(crate) fn insert(&mut self, item: u64, value: u64) {
        self.entries.entry(item).or_insert(value);
    }

    /// The first-holder value for `item`, if any.
    pub(crate) fn get(&self, item: u64) -> Option<u64> {
        self.entries.get(&item).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coop_stats_obey_the_counter_laws() {
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
        let feed = CoopDirectory::merge(&[&a, &b]);
        assert_eq!(feed.stamp, Some(t));
        assert_eq!(feed.get(1), Some(100));
        assert_eq!(feed.get(2), Some(200), "first neighbor wins");
        assert_eq!(feed.get(3), Some(300));
        assert_eq!(feed.get(4), None);
    }

    #[test]
    #[should_panic(expected = "different reports")]
    fn feed_merge_rejects_mismatched_stamps() {
        let a = CoopDirectory::new(SimTime::from_secs(10.0));
        let b = CoopDirectory::new(SimTime::from_secs(20.0));
        let _ = CoopDirectory::merge(&[&a, &b]);
    }

    #[test]
    fn directory_keeps_first_value_per_item() {
        let mut d = CoopDirectory::new(SimTime::ZERO);
        d.insert(5, 50);
        d.insert(5, 51);
        assert_eq!(d.get(5), Some(50));
        assert_eq!(d.get(6), None);
    }
}
