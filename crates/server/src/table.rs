//! Dense per-item state tables.
//!
//! Item ids are dense (`0..n`, see [`crate::database`]), so per-item
//! side tables on the per-interval hot path — cache entries, uplink
//! stats, adaptive query/update histories — do not need hashing at all:
//! a `Vec<Option<V>>` indexed by id is both faster (no hash, no probe
//! sequence) and naturally id-ordered, which several consumers need
//! (report entries and deterministic iteration). [`ItemTable`] is that
//! table. Every cell the product builds knows its universe and
//! pre-sizes it; a table built before the universe is known starts
//! empty and grows to the largest id inserted.

use crate::database::ItemId;

/// A map from [`ItemId`] to `V`, vec-indexed over a dense id universe
/// and growing on demand. Iteration is in ascending item id.
#[derive(Debug, Clone)]
pub struct ItemTable<V> {
    /// One slot per item id; `None` = absent.
    slots: Vec<Option<V>>,
    /// Occupancy bitmap, one bit per slot (64 slots per word), so
    /// iteration, retain, and clear cost O(occupied + universe/64)
    /// instead of scanning every slot — sparse tables over large
    /// universes (a 30-item cache over 10⁴ ids) iterate in tens of
    /// nanoseconds, not microseconds.
    occupied: Vec<u64>,
    /// Number of occupied slots.
    len: usize,
}

/// Iterates the set bit positions of one word, ascending.
struct BitIter {
    bits: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.bits == 0 {
            return None;
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(b)
    }
}

#[inline]
fn words_for(slots: usize) -> usize {
    slots.div_ceil(64)
}

impl<V> Default for ItemTable<V> {
    /// An empty table over an unknown universe: it grows on insert.
    fn default() -> Self {
        ItemTable::dense(0)
    }
}

impl<V> ItemTable<V> {
    /// A table pre-sized for ids `0..universe`. Ids beyond the
    /// universe still work — the slot vector grows on insert.
    pub fn dense(universe: u64) -> Self {
        let mut table = ItemTable {
            slots: Vec::new(),
            occupied: Vec::new(),
            len: 0,
        };
        table.reserve_universe(universe);
        table
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the value for `item`.
    #[inline]
    pub fn get(&self, item: ItemId) -> Option<&V> {
        self.slots.get(item as usize).and_then(Option::as_ref)
    }

    /// Mutably borrows the value for `item`.
    #[inline]
    pub fn get_mut(&mut self, item: ItemId) -> Option<&mut V> {
        self.slots.get_mut(item as usize).and_then(Option::as_mut)
    }

    /// True if `item` has an entry.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.get(item).is_some()
    }

    /// Inserts `value` for `item`, returning the previous value if any.
    pub fn insert(&mut self, item: ItemId, value: V) -> Option<V> {
        let idx = item as usize;
        self.reserve_universe(item + 1);
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the value for `item`.
    pub fn remove(&mut self, item: ItemId) -> Option<V> {
        let idx = item as usize;
        let removed = self.slots.get_mut(idx).and_then(Option::take);
        if removed.is_some() {
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
            self.len -= 1;
        }
        removed
    }

    /// Mutably borrows the value for `item`, inserting `default()` first
    /// if absent.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, item: ItemId, default: F) -> &mut V {
        let idx = item as usize;
        self.reserve_universe(item + 1);
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(default());
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
            self.len += 1;
        }
        self.slots[idx].as_mut().expect("just filled")
    }

    /// Removes all entries in O(occupied), keeping the slot allocation.
    pub fn clear(&mut self) {
        self.retain_mut(|_, _| false);
    }

    /// Keeps only entries for which `keep(item, &mut value)` is true;
    /// `keep` may mutate the value. O(occupied), visited in ascending
    /// id order.
    fn retain_mut<F: FnMut(ItemId, &mut V) -> bool>(&mut self, mut keep: F) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let idx = w * 64 + b;
                let v = self.slots[idx].as_mut().expect("occupancy bit set");
                if !keep(idx as ItemId, v) {
                    self.slots[idx] = None;
                    *word &= !(1u64 << b);
                    self.len -= 1;
                }
            }
        }
    }

    /// Iterates entries in ascending id order, walking the occupancy
    /// bitmap — O(occupied + universe/64), not O(universe).
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &V)> {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(w, &bits)| {
                BitIter { bits }.map(move |b| {
                    let idx = w * 64 + b as usize;
                    (
                        idx as ItemId,
                        self.slots[idx].as_ref().expect("occupancy bit set"),
                    )
                })
            })
    }

    /// Grows the table's universe to at least `universe` slots.
    fn reserve_universe(&mut self, universe: u64) {
        if self.slots.len() < universe as usize {
            self.slots.resize_with(universe as usize, || None);
            self.occupied.resize(words_for(self.slots.len()), 0);
        }
    }

    /// Replaces the table with an empty one over the same universe,
    /// returning the old contents.
    pub fn take(&mut self) -> Self {
        let fresh = ItemTable::dense(self.slots.len() as u64);
        std::mem::replace(self, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pre-sized table and one that starts empty and grows.
    fn tables() -> [ItemTable<u64>; 2] {
        [ItemTable::dense(8), ItemTable::default()]
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        for mut t in tables() {
            assert!(t.is_empty());
            assert_eq!(t.insert(3, 30), None);
            assert_eq!(t.insert(3, 31), Some(30));
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(3), Some(&31));
            assert!(t.contains(3));
            assert!(!t.contains(4));
            assert_eq!(t.remove(3), Some(31));
            assert_eq!(t.remove(3), None);
            assert!(t.is_empty());
        }
    }

    #[test]
    fn dense_grows_beyond_universe() {
        let mut t = ItemTable::dense(2);
        t.insert(100, 1);
        assert_eq!(t.get(100), Some(&1));
        assert_eq!(t.len(), 1);
        assert!(t.get(50).is_none());
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        for mut t in tables() {
            *t.get_or_insert_with(5, || 10) += 1;
            *t.get_or_insert_with(5, || 999) += 1;
            assert_eq!(t.get(5), Some(&12));
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn iteration_is_ascending() {
        for mut t in tables() {
            for item in [7, 2, 5, 0] {
                t.insert(item, item * 10);
            }
            let got: Vec<(u64, u64)> = t.iter().map(|(i, &v)| (i, v)).collect();
            assert_eq!(got, vec![(0, 0), (2, 20), (5, 50), (7, 70)]);
        }
    }

    #[test]
    fn retain_and_clear() {
        for mut t in tables() {
            for item in 0..6 {
                t.insert(item, item);
            }
            t.retain_mut(|item, _| item % 2 == 0);
            let kept: Vec<u64> = t.iter().map(|(item, _)| item).collect();
            assert_eq!(kept, vec![0, 2, 4]);
            t.clear();
            assert!(t.is_empty());
            assert!(!t.contains(0));
        }
    }

    #[test]
    fn take_leaves_an_empty_table_over_the_same_universe() {
        for mut t in tables() {
            t.insert(1, 1);
            let old = t.take();
            assert_eq!(old.len(), 1);
            assert!(t.is_empty());
            assert_eq!(t.slots.len(), old.slots.len());
        }
    }
}
