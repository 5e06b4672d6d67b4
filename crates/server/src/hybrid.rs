//! Hybrid weighted reports — the §10 future-work extension.
//!
//! "The performance of signatures can be improved by considering the
//! weighted schemes where each data item would be weighted according to
//! the relative frequency it is accessed in a given cell, and according
//! to how often it is updated. For example, the 'hot spot' items can be
//! individually broadcasted, while the rest of the database items would
//! participate in the signatures. In this way, the signature will vary
//! from cell to cell, depending on the local usage patterns."
//!
//! A [`HotSet`] splits the database into hot items (broadcast AT-style:
//! ids updated in the last interval) and the cold remainder (covered by
//! a [`crate::SignatureVector`] that simply excludes hot members). Hot
//! items get AT's precision and tiny per-update cost; cold items get
//! SIG's nap-resilience at a fixed price.

use crate::database::ItemId;

/// The hot/cold split shared by server and clients.
///
/// Item ids are dense, so membership is a bitset probe — one shift and
/// mask on the per-update and per-cached-item hot paths — rather than a
/// hash lookup.
#[derive(Debug, Clone, Default)]
pub struct HotSet {
    bits: Vec<u64>,
    count: usize,
}

impl HotSet {
    /// Creates the hot set from an explicit id list.
    pub fn new(ids: impl IntoIterator<Item = ItemId>) -> Self {
        let mut set = HotSet::default();
        for item in ids {
            set.insert(item);
        }
        set
    }

    /// The `count` most popular items under the library's Zipf
    /// convention (rank = id, item 0 hottest).
    pub fn top_by_rank(count: u64) -> Self {
        HotSet::new(0..count)
    }

    fn insert(&mut self, item: ItemId) {
        let (word, bit) = (item as usize / 64, item % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & (1 << bit) == 0 {
            self.bits[word] |= 1 << bit;
            self.count += 1;
        }
    }

    /// True iff `item` is in the hot set.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.bits
            .get(item as usize / 64)
            .is_some_and(|w| w & (1 << (item % 64)) != 0)
    }

    /// Number of hot items.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no items are hot (degenerates to plain SIG).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}
