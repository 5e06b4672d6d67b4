//! Aggregate (compressed) invalidation reports — the second §10
//! extension, foreshadowed by §2's report taxonomy.
//!
//! §2: "Compressed. The reports contain aggregate information about
//! subsets of items. For example, a compressed report may contain
//! aggregate information about changes by using predicates such as
//! 'There was a change on departure time in one or more of the
//! eastbound flights.'" §10: "Aggregate invalidation reports can be
//! considered, with varying granularity of … items (changes reported
//! only per group of items)."
//!
//! [`GroupReportBuilder`] partitions the database into `G` contiguous
//! groups and broadcasts, AT-style, the ids of groups containing at
//! least one change in the last interval. A group id costs `⌈log₂ G⌉`
//! bits instead of `⌈log₂ n⌉` per item — and one entry can cover any
//! number of same-group changes — at the price of *group-level false
//! alarms*: a client drops every cached member of a changed group.
//! Coarser groups ⇒ smaller reports ⇒ more collateral invalidation;
//! the `ablations` experiment sweeps the trade-off.

use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::database::{Database, ItemId, UpdateRecord};
use crate::report::{wire_micros, ReportBuilder};

/// The item → group mapping shared by server and clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMap {
    n_items: u64,
    groups: u64,
}

impl GroupMap {
    /// Partitions `n_items` into `groups` contiguous, near-equal
    /// groups.
    pub fn new(n_items: u64, groups: u64) -> Self {
        assert!(n_items > 0, "database cannot be empty");
        assert!(
            groups >= 1 && groups <= n_items,
            "group count must be in 1..=n ({n_items}), got {groups}"
        );
        GroupMap { n_items, groups }
    }

    /// Number of groups `G`.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Database size `n`.
    pub fn n_items(&self) -> u64 {
        self.n_items
    }

    /// The group of `item`.
    #[inline]
    pub fn group_of(&self, item: ItemId) -> u64 {
        debug_assert!(item < self.n_items);
        item * self.groups / self.n_items
    }

    /// Bits to name one group: `⌈log₂ G⌉`.
    pub fn group_id_bits(&self) -> u32 {
        if self.groups <= 1 {
            1
        } else {
            64 - (self.groups - 1).leading_zeros()
        }
    }
}

/// Server half: an AT report at group granularity. The payload reuses
/// [`FramePayload::AmnesicReport`] with *group* ids; the analytic bits
/// are adjusted to the group id width by scaling the entry count (the
/// channel charges `entries·⌈log₂n⌉`, so we emit
/// `⌈entries·log₂G/log₂n⌉` placeholder-packed ids — see
/// [`GroupReportBuilder::build`] for the exact accounting).
#[derive(Debug, Clone)]
pub struct GroupReportBuilder {
    latency: SimDuration,
    map: GroupMap,
}

impl GroupReportBuilder {
    /// Creates the builder.
    pub fn new(latency: SimDuration, map: GroupMap) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        GroupReportBuilder { latency, map }
    }

    /// The shared group map.
    pub fn map(&self) -> &GroupMap {
        &self.map
    }

    /// The changed groups in `(t_i − L, t_i]`, sorted.
    pub fn changed_groups(&self, t_i: SimTime, db: &Database) -> Vec<u64> {
        let from = SimTime::from_secs((t_i.as_secs() - self.latency.as_secs()).max(0.0));
        let mut groups: Vec<u64> = db
            .updated_in_window(from, t_i)
            .into_iter()
            .map(|(item, _)| self.map.group_of(item))
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups
    }
}

impl ReportBuilder for GroupReportBuilder {
    fn name(&self) -> &'static str {
        "GR"
    }

    fn on_update(&mut self, _rec: &UpdateRecord) {}

    fn build(&mut self, _i: u64, t_i: SimTime, db: &Database) -> FramePayload {
        // Group ids ride an AmnesicReport frame. The wire encoder
        // charges ⌈log₂ n⌉ bits per id; group ids only need
        // ⌈log₂ G⌉. Rather than add a frame variant for an experiment
        // the paper only sketches, we bias the id values: the *client*
        // interprets every id < G as a group id, and the analytic
        // over-charge (log₂n vs log₂G per entry) is conservative
        // against the strategy — the measured savings in the ablation
        // are therefore a lower bound.
        FramePayload::AmnesicReport {
            report_ts_micros: wire_micros(t_i),
            ids: self.changed_groups(t_i, db),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_map_partitions_evenly() {
        let m = GroupMap::new(100, 10);
        assert_eq!(m.group_of(0), 0);
        assert_eq!(m.group_of(9), 0);
        assert_eq!(m.group_of(10), 1);
        assert_eq!(m.group_of(99), 9);
    }

    #[test]
    fn group_map_handles_uneven_sizes() {
        let m = GroupMap::new(10, 3);
        let mut counts = [0u32; 3];
        for i in 0..10 {
            counts[m.group_of(i) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 10);
        assert!(counts.iter().all(|&c| (3..=4).contains(&c)));
    }

    #[test]
    fn one_group_per_item_degenerates_to_at() {
        let m = GroupMap::new(50, 50);
        for i in 0..50 {
            assert_eq!(m.group_of(i), i);
        }
    }

    #[test]
    fn group_id_bits() {
        assert_eq!(GroupMap::new(1000, 10).group_id_bits(), 4);
        assert_eq!(GroupMap::new(1000, 1000).group_id_bits(), 10);
        assert_eq!(GroupMap::new(1000, 1).group_id_bits(), 1);
    }

    #[test]
    fn report_lists_changed_groups_once() {
        let mut db = Database::new(100, |i| i, SimDuration::from_secs(1e4));
        db.apply_update(3, 1, SimTime::from_secs(15.0)); // group 0
        db.apply_update(7, 1, SimTime::from_secs(16.0)); // group 0 too
        db.apply_update(55, 1, SimTime::from_secs(17.0)); // group 5
        let mut b = GroupReportBuilder::new(
            SimDuration::from_secs(10.0),
            GroupMap::new(100, 10),
        );
        match b.build(2, SimTime::from_secs(20.0), &db) {
            FramePayload::AmnesicReport { ids, .. } => assert_eq!(ids, vec![0, 5]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn old_updates_not_reported() {
        let mut db = Database::new(100, |i| i, SimDuration::from_secs(1e4));
        db.apply_update(3, 1, SimTime::from_secs(5.0)); // previous interval
        let mut b = GroupReportBuilder::new(
            SimDuration::from_secs(10.0),
            GroupMap::new(100, 10),
        );
        match b.build(2, SimTime::from_secs(20.0), &db) {
            FramePayload::AmnesicReport { ids, .. } => assert!(ids.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "group count")]
    fn too_many_groups_rejected() {
        let _ = GroupMap::new(10, 11);
    }
}
