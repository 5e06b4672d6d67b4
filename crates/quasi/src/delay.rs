//! The delay condition (Eq. 27) and obligation lists.
//!
//! `∀ t ≥ 0 ∃ k, 0 ≤ k ≤ α : x'(t) = x(t − k)` — a cached copy may lag
//! the server by at most `α` seconds, with `α = j·L` a multiple of the
//! latency.
//!
//! Server side ([`ObligationTracker`]): "For every item x in the
//! database, the server keeps a vector obligationlist(x) ... built as a
//! queue. If x is reported at interval i, the value i is pushed ... If
//! an MU queries the server for x at a time just before interval p, the
//! value p is pushed. When it comes time to build the report, the
//! server checks if the next interval is equal to l + j, where l is the
//! first element of the queue. If so, x can be considered for reporting
//! in case it also satisfies the normal conditions; otherwise it need
//! not be considered." An empty queue means no outstanding copies — the
//! item need not be reported at all.
//!
//! Client side: `sw_client::ReportRule::QuasiDelay`.

use std::collections::VecDeque;

use sw_server::{ItemId, ItemTable};

/// Server-side obligation lists for the delay condition.
#[derive(Debug, Clone)]
pub struct ObligationTracker {
    /// `α` in intervals (`α = j·L`).
    alpha_intervals: u64,
    lists: ItemTable<VecDeque<u64>>,
}

impl ObligationTracker {
    /// Creates the tracker with allowed lag `α = alpha_intervals · L`
    /// over an unknown item universe.
    pub fn new(alpha_intervals: u64) -> Self {
        Self::for_universe(alpha_intervals, 0)
    }

    /// Same, with the obligation lists pre-sized for items
    /// `0..universe` — `due` is probed for every database item on every
    /// report build.
    pub fn for_universe(alpha_intervals: u64, universe: u64) -> Self {
        assert!(alpha_intervals >= 1, "α must be at least one interval");
        ObligationTracker {
            alpha_intervals,
            lists: ItemTable::dense(universe),
        }
    }

    /// Records that `item` was reported at interval `i` (every client
    /// copy is now at most as old as `T_i`).
    pub fn on_reported(&mut self, item: ItemId, interval: u64) {
        self.lists
            .get_or_insert_with(item, VecDeque::new)
            .push_back(interval);
    }

    /// Records an uplink fetch of `item` answered just before interval
    /// `p` (a fresh copy went out, stamped `p`).
    pub fn on_uplink(&mut self, item: ItemId, interval: u64) {
        self.lists
            .get_or_insert_with(item, VecDeque::new)
            .push_back(interval);
    }

    /// Whether `item` must be *considered* for the report closing
    /// interval `next_interval`: true iff the oldest outstanding copy
    /// would exceed its allowed lag, i.e. `next_interval ≥ l + j`.
    /// Consuming the head entry on a positive answer is the caller's
    /// job via [`Self::consume`] once the item is actually reported (or
    /// verified unchanged).
    pub fn due(&self, item: ItemId, next_interval: u64) -> bool {
        self.lists
            .get(item)
            .and_then(|q| q.front())
            .is_some_and(|&l| next_interval >= l + self.alpha_intervals)
    }

    /// Pops obligations satisfied by the report at `interval` (all
    /// heads `l` with `l + j ≤ interval`): the broadcast either
    /// invalidated those copies or re-validated them, so the lag clock
    /// restarts — a re-validated item is obligated again from now.
    pub fn consume(&mut self, item: ItemId, interval: u64, revalidated: bool) {
        let j = self.alpha_intervals;
        if let Some(q) = self.lists.get_mut(item) {
            while q.front().is_some_and(|&l| l + j <= interval) {
                q.pop_front();
            }
            if revalidated {
                q.push_back(interval);
            }
            if q.is_empty() {
                self.lists.remove(item);
            }
        }
    }

    /// Number of items with outstanding obligations.
    pub fn outstanding(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    mod tracker {
        use super::super::ObligationTracker;

        #[test]
        fn item_without_copies_is_never_due() {
            let t = ObligationTracker::new(3);
            assert!(!t.due(1, 100));
            assert_eq!(t.outstanding(), 0);
        }

        #[test]
        fn due_exactly_at_l_plus_j() {
            let mut t = ObligationTracker::new(3);
            t.on_reported(1, 10);
            assert!(!t.due(1, 12));
            assert!(t.due(1, 13));
            assert!(t.due(1, 20));
        }

        #[test]
        fn uplink_creates_obligation() {
            let mut t = ObligationTracker::new(2);
            t.on_uplink(5, 7);
            assert!(t.due(5, 9));
        }

        #[test]
        fn consume_revalidated_restarts_clock() {
            let mut t = ObligationTracker::new(2);
            t.on_reported(1, 10);
            t.consume(1, 12, true);
            assert!(!t.due(1, 13), "fresh obligation from interval 12");
            assert!(t.due(1, 14));
        }

        #[test]
        fn consume_invalidated_clears() {
            let mut t = ObligationTracker::new(2);
            t.on_reported(1, 10);
            t.consume(1, 12, false);
            assert_eq!(t.outstanding(), 0);
            assert!(!t.due(1, 1000));
        }

        #[test]
        fn multiple_copies_queue_fifo() {
            let mut t = ObligationTracker::new(5);
            t.on_reported(1, 10);
            t.on_uplink(1, 12);
            // Due from the oldest copy: 10 + 5 = 15.
            assert!(t.due(1, 15));
            t.consume(1, 15, false); // pops the 10-entry only
            assert!(!t.due(1, 16), "next copy (12) is due at 17");
            assert!(t.due(1, 17));
        }
    }
}
