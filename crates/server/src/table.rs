//! Dense per-item state tables.
//!
//! Item ids are dense (`0..n`, see [`crate::database`]), so per-item
//! side tables on the per-interval hot path — cache entries, uplink
//! stats, adaptive query/update histories — do not need hashing at all:
//! a `Vec<Option<V>>` indexed by id is both faster (no hash, no probe
//! sequence) and naturally id-ordered, which several consumers need
//! (report entries and deterministic iteration). [`ItemTable`] is that
//! table, with a hashed fallback behind the same API for callers whose
//! key universe is unknown or unbounded (e.g. a cache constructed
//! before the database size is known, or unit tests using arbitrary
//! ids).

use std::collections::HashMap;

use crate::database::ItemId;

/// A map from [`ItemId`] to `V`, either dense (vec-indexed over a known
/// universe, growing on demand) or hashed (fallback).
///
/// Iteration order: ascending item id for the dense layout; use
/// [`ItemTable::iter_sorted`] when order matters and the layout is not
/// statically known.
#[derive(Debug, Clone)]
pub enum ItemTable<V> {
    /// Vec-indexed over a dense id universe. `len` counts occupied
    /// slots.
    Dense {
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
    },
    /// HashMap fallback for unknown/unbounded key universes.
    Hashed(HashMap<ItemId, V>),
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
    /// The hashed fallback — the layout that needs no universe size.
    fn default() -> Self {
        ItemTable::hashed()
    }
}

impl<V> ItemTable<V> {
    /// A dense table pre-sized for ids `0..universe`. Ids beyond the
    /// universe still work — the slot vector grows on insert.
    pub fn dense(universe: u64) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(universe as usize, || None);
        let occupied = vec![0u64; words_for(slots.len())];
        ItemTable::Dense {
            slots,
            occupied,
            len: 0,
        }
    }

    /// A hashed table for arbitrary ids.
    pub fn hashed() -> Self {
        ItemTable::Hashed(HashMap::new())
    }

    /// Whether this table uses the dense layout.
    pub fn is_dense(&self) -> bool {
        matches!(self, ItemTable::Dense { .. })
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        match self {
            ItemTable::Dense { len, .. } => *len,
            ItemTable::Hashed(m) => m.len(),
        }
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the value for `item`.
    #[inline]
    pub fn get(&self, item: ItemId) -> Option<&V> {
        match self {
            ItemTable::Dense { slots, .. } => slots.get(item as usize).and_then(Option::as_ref),
            ItemTable::Hashed(m) => m.get(&item),
        }
    }

    /// Mutably borrows the value for `item`.
    #[inline]
    pub fn get_mut(&mut self, item: ItemId) -> Option<&mut V> {
        match self {
            ItemTable::Dense { slots, .. } => slots.get_mut(item as usize).and_then(Option::as_mut),
            ItemTable::Hashed(m) => m.get_mut(&item),
        }
    }

    /// True if `item` has an entry.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.get(item).is_some()
    }

    /// Inserts `value` for `item`, returning the previous value if any.
    pub fn insert(&mut self, item: ItemId, value: V) -> Option<V> {
        match self {
            ItemTable::Dense {
                slots,
                occupied,
                len,
            } => {
                let idx = item as usize;
                if idx >= slots.len() {
                    slots.resize_with(idx + 1, || None);
                    occupied.resize(words_for(slots.len()), 0);
                }
                let prev = slots[idx].replace(value);
                if prev.is_none() {
                    occupied[idx / 64] |= 1u64 << (idx % 64);
                    *len += 1;
                }
                prev
            }
            ItemTable::Hashed(m) => m.insert(item, value),
        }
    }

    /// Removes and returns the value for `item`.
    pub fn remove(&mut self, item: ItemId) -> Option<V> {
        match self {
            ItemTable::Dense {
                slots,
                occupied,
                len,
            } => {
                let idx = item as usize;
                let removed = slots.get_mut(idx).and_then(Option::take);
                if removed.is_some() {
                    occupied[idx / 64] &= !(1u64 << (idx % 64));
                    *len -= 1;
                }
                removed
            }
            ItemTable::Hashed(m) => m.remove(&item),
        }
    }

    /// Mutably borrows the value for `item`, inserting `default()` first
    /// if absent.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, item: ItemId, default: F) -> &mut V {
        match self {
            ItemTable::Dense {
                slots,
                occupied,
                len,
            } => {
                let idx = item as usize;
                if idx >= slots.len() {
                    slots.resize_with(idx + 1, || None);
                    occupied.resize(words_for(slots.len()), 0);
                }
                if slots[idx].is_none() {
                    slots[idx] = Some(default());
                    occupied[idx / 64] |= 1u64 << (idx % 64);
                    *len += 1;
                }
                slots[idx].as_mut().expect("just filled")
            }
            ItemTable::Hashed(m) => m.entry(item).or_insert_with(default),
        }
    }

    /// Removes all entries in O(occupied). The dense layout keeps its
    /// slot allocation.
    pub fn clear(&mut self) {
        match self {
            ItemTable::Dense {
                slots,
                occupied,
                len,
            } => {
                for (w, word) in occupied.iter_mut().enumerate() {
                    let mut bits = *word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        slots[w * 64 + b] = None;
                    }
                    *word = 0;
                }
                *len = 0;
            }
            ItemTable::Hashed(m) => m.clear(),
        }
    }

    /// Keeps only entries for which `keep(item, &mut value)` is true;
    /// `keep` may mutate the value — the single-pass shape of the report
    /// algorithms (restamp the survivors in place, drop the
    /// invalidated). O(occupied) for the dense layout, visited in
    /// ascending id order.
    pub fn retain_mut<F: FnMut(ItemId, &mut V) -> bool>(&mut self, mut keep: F) {
        match self {
            ItemTable::Dense {
                slots,
                occupied,
                len,
            } => {
                for (w, word) in occupied.iter_mut().enumerate() {
                    let mut bits = *word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let idx = w * 64 + b;
                        let v = slots[idx].as_mut().expect("occupancy bit set");
                        if !keep(idx as ItemId, v) {
                            slots[idx] = None;
                            *word &= !(1u64 << b);
                            *len -= 1;
                        }
                    }
                }
            }
            ItemTable::Hashed(m) => m.retain(|&item, v| keep(item, v)),
        }
    }

    /// Applies `f` to every entry mutably, in ascending id order for
    /// the dense layout. One pass, no id vector, no re-lookups.
    pub fn for_each_mut<F: FnMut(ItemId, &mut V)>(&mut self, mut f: F) {
        self.retain_mut(|item, v| {
            f(item, v);
            true
        });
    }

    /// Iterates entries. Ascending id order for the dense layout
    /// (walking the occupancy bitmap — O(occupied + universe/64), not
    /// O(universe)), arbitrary order for the hashed fallback.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &V)> {
        let (dense, hashed) = match self {
            ItemTable::Dense {
                slots, occupied, ..
            } => (Some((slots, occupied)), None),
            ItemTable::Hashed(m) => (None, Some(m)),
        };
        dense
            .into_iter()
            .flat_map(|(slots, occupied)| {
                occupied.iter().enumerate().flat_map(move |(w, &bits)| {
                    BitIter { bits }.map(move |b| {
                        let idx = w * 64 + b as usize;
                        (
                            idx as ItemId,
                            slots[idx].as_ref().expect("occupancy bit set"),
                        )
                    })
                })
            })
            .chain(
                hashed
                    .into_iter()
                    .flat_map(|m| m.iter().map(|(&item, v)| (item, v))),
            )
    }

    /// Iterates entries in ascending id order, whatever the layout. For
    /// the dense layout this is free; the hashed fallback sorts a
    /// temporary key vector.
    pub fn iter_sorted(&self) -> Box<dyn Iterator<Item = (ItemId, &V)> + '_> {
        match self {
            ItemTable::Dense { .. } => Box::new(self.iter()),
            ItemTable::Hashed(m) => {
                let mut keys: Vec<ItemId> = m.keys().copied().collect();
                keys.sort_unstable();
                Box::new(
                    keys.into_iter()
                        .map(move |k| (k, m.get(&k).expect("key just collected"))),
                )
            }
        }
    }

    /// All ids with an entry, ascending.
    pub fn sorted_ids(&self) -> Vec<ItemId> {
        self.iter_sorted().map(|(item, _)| item).collect()
    }

    /// Grows a dense table's universe to at least `universe` slots.
    /// No-op for the hashed fallback.
    pub fn reserve_universe(&mut self, universe: u64) {
        if let ItemTable::Dense {
            slots, occupied, ..
        } = self
        {
            if slots.len() < universe as usize {
                slots.resize_with(universe as usize, || None);
                occupied.resize(words_for(slots.len()), 0);
            }
        }
    }

    /// Replaces the table with an empty one of the same layout (and, for
    /// dense, the same universe), returning the old contents.
    pub fn take(&mut self) -> Self {
        match self {
            ItemTable::Dense { slots, .. } => {
                let fresh = ItemTable::dense(slots.len() as u64);
                std::mem::replace(self, fresh)
            }
            ItemTable::Hashed(_) => std::mem::take(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [ItemTable<u64>; 2] {
        [ItemTable::dense(8), ItemTable::hashed()]
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        for mut t in both() {
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
        for mut t in both() {
            *t.get_or_insert_with(5, || 10) += 1;
            *t.get_or_insert_with(5, || 999) += 1;
            assert_eq!(t.get(5), Some(&12));
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn iter_sorted_is_ascending_for_both_layouts() {
        for mut t in both() {
            for item in [7, 2, 5, 0] {
                t.insert(item, item * 10);
            }
            let got: Vec<(u64, u64)> = t.iter_sorted().map(|(i, &v)| (i, v)).collect();
            assert_eq!(got, vec![(0, 0), (2, 20), (5, 50), (7, 70)]);
            assert_eq!(t.sorted_ids(), vec![0, 2, 5, 7]);
        }
    }

    #[test]
    fn retain_and_clear() {
        for mut t in both() {
            for item in 0..6 {
                t.insert(item, item);
            }
            t.retain_mut(|item, _| item % 2 == 0);
            assert_eq!(t.sorted_ids(), vec![0, 2, 4]);
            t.clear();
            assert!(t.is_empty());
            assert!(!t.contains(0));
        }
    }

    #[test]
    fn take_preserves_layout() {
        for mut t in both() {
            let dense = t.is_dense();
            t.insert(1, 1);
            let old = t.take();
            assert_eq!(old.len(), 1);
            assert!(t.is_empty());
            assert_eq!(t.is_dense(), dense);
        }
    }
}
