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
//! A [`GroupMap`] partitions the database into `G` contiguous groups;
//! the server broadcasts, AT-style, the ids of groups containing at
//! least one change in the last interval. A group id costs `⌈log₂ G⌉`
//! bits instead of `⌈log₂ n⌉` per item — and one entry can cover any
//! number of same-group changes — at the price of *group-level false
//! alarms*: a client drops every cached member of a changed group.
//! Coarser groups ⇒ smaller reports ⇒ more collateral invalidation;
//! the `ablations` experiment sweeps the trade-off.

use crate::database::ItemId;

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
    #[should_panic(expected = "group count")]
    fn too_many_groups_rejected() {
        let _ = GroupMap::new(10, 11);
    }
}
