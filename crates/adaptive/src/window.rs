//! The per-item window table.
//!
//! Windows are integer multiples of `L` ("For simplicity assume that
//! α = jL" — §7 uses the same convention; §8's evaluation periods are
//! "multiples of the invalidation report latencies L"). The table
//! stores only *exceptions* from the default `w_0 = k_0·L`; the
//! exception list is what the adaptive report broadcasts so that every
//! awake client always has the current windows (see
//! `sleepers::ServerDriver`'s adaptive arm).

use sw_server::ItemId;
use sw_wireless::frame::WINDOW_FIELD_BITS;

/// Sentinel for an effectively infinite window: the largest value the
/// report's window field carries.
pub const INFINITE_WINDOW: u32 = (1 << WINDOW_FIELD_BITS) - 1;

/// Per-item windows in units of intervals, defaulting to `k0`.
///
/// Exceptions live in an item-sorted vector: `get` is on the client's
/// per-cached-item hot path, where a binary search over the (typically
/// short) exception list beats hashing; mutation only happens at
/// evaluation-period boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTable {
    default_k: u32,
    /// Sorted by item id; never contains `default_k` values.
    exceptions: Vec<(ItemId, u32)>,
}

impl WindowTable {
    /// Creates a table where every item starts at `k0` intervals
    /// ("We always start with the same window size w_0(i) for all
    /// items").
    pub fn new(default_k: u32) -> Self {
        assert!(default_k >= 1, "default window must be at least one interval");
        WindowTable {
            default_k,
            exceptions: Vec::new(),
        }
    }

    /// The default window multiple `k0`.
    pub fn default_k(&self) -> u32 {
        self.default_k
    }

    /// Current window of `item`, in intervals.
    #[inline]
    pub fn get(&self, item: ItemId) -> u32 {
        match self.exceptions.binary_search_by_key(&item, |&(it, _)| it) {
            Ok(ix) => self.exceptions[ix].1,
            Err(_) => self.default_k,
        }
    }

    /// Sets `item`'s window explicitly (clamped to the wire range).
    pub fn set(&mut self, item: ItemId, k: u32) {
        let k = k.min(INFINITE_WINDOW);
        match self.exceptions.binary_search_by_key(&item, |&(it, _)| it) {
            Ok(ix) => {
                if k == self.default_k {
                    self.exceptions.remove(ix);
                } else {
                    self.exceptions[ix].1 = k;
                }
            }
            Err(ix) => {
                if k != self.default_k {
                    self.exceptions.insert(ix, (item, k));
                }
            }
        }
    }

    /// Adjusts `item`'s window by `±step` intervals (Eq. 31), flooring
    /// at zero. Returns the new value.
    pub fn adjust(&mut self, item: ItemId, grow: bool, step: u32) -> u32 {
        let cur = self.get(item);
        let next = if grow {
            cur.saturating_add(step).min(INFINITE_WINDOW)
        } else {
            cur.saturating_sub(step)
        };
        self.set(item, next);
        next
    }

    /// The exception list broadcast in every adaptive report, sorted by
    /// item id for determinism.
    pub fn exceptions(&self) -> Vec<(ItemId, u32)> {
        self.exceptions.clone()
    }

    /// Number of exception entries.
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// Replaces the exception list wholesale (client side, from the
    /// broadcast). The broadcast list is already item-sorted; unsorted
    /// input is sorted here so lookups stay correct.
    pub fn load_exceptions(&mut self, exceptions: &[(ItemId, u32)]) {
        self.exceptions.clear();
        self.exceptions.extend_from_slice(exceptions);
        if !self.exceptions.windows(2).all(|w| w[0].0 < w[1].0) {
            self.exceptions.sort_unstable_by_key(|&(item, _)| item);
            self.exceptions.dedup_by_key(|&mut (item, _)| item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_applies_everywhere() {
        let t = WindowTable::new(10);
        assert_eq!(t.get(0), 10);
        assert_eq!(t.get(999), 10);
        assert_eq!(t.exception_count(), 0);
    }

    #[test]
    fn adjust_grows_and_shrinks() {
        let mut t = WindowTable::new(10);
        assert_eq!(t.adjust(5, true, 2), 12);
        assert_eq!(t.adjust(5, true, 2), 14);
        assert_eq!(t.adjust(5, false, 4), 10);
        // Back at the default: exception evaporates.
        assert_eq!(t.exception_count(), 0);
    }

    #[test]
    fn window_floors_at_zero() {
        let mut t = WindowTable::new(2);
        t.adjust(1, false, 5);
        assert_eq!(t.get(1), 0);
        t.adjust(1, false, 5);
        assert_eq!(t.get(1), 0);
    }

    #[test]
    fn window_saturates_at_infinite() {
        let mut t = WindowTable::new(2);
        t.set(1, u32::MAX);
        assert_eq!(t.get(1), INFINITE_WINDOW);
    }

    #[test]
    fn exceptions_roundtrip_through_broadcast() {
        let mut server = WindowTable::new(10);
        server.set(3, 50);
        server.set(7, 0);
        let mut client = WindowTable::new(10);
        client.load_exceptions(&server.exceptions());
        assert_eq!(client.get(3), 50);
        assert_eq!(client.get(7), 0);
        assert_eq!(client.get(4), 10);
    }

    #[test]
    fn exceptions_are_sorted() {
        let mut t = WindowTable::new(1);
        t.set(9, 5);
        t.set(2, 5);
        t.set(5, 5);
        let items: Vec<u64> = t.exceptions().iter().map(|&(i, _)| i).collect();
        assert_eq!(items, vec![2, 5, 9]);
    }
}
