//! The server's database: named items, values, and update history.
//!
//! Items are identified by dense ids `0..n` ([`ItemId`]). Every item
//! carries the timestamp of its last update, and the database maintains
//! an [`UpdateLog`] — a pruned, time-ordered log of recent updates — from
//! which the server driver extracts its report windows:
//!
//! * TS needs `{j : T_i − w < t_j ≤ T_i}` (Eq. 1),
//! * AT needs `{j : T_{i−1} < t_j ≤ T_i}` (Eq. 2).

use std::collections::VecDeque;

use sw_sim::{SimDuration, SimTime};

/// Dense item identifier, `0..n`.
pub type ItemId = u64;

/// One update event: which item changed, when, and to what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRecord {
    /// Updated item.
    pub item: ItemId,
    /// Server-clock timestamp of the update.
    pub at: SimTime,
    /// The new value.
    pub value: u64,
    /// The value it replaced.
    pub previous: u64,
}

/// Time-ordered log of recent updates, pruned to a retention horizon.
///
/// Retention must cover the largest window any report uses
/// (`w = kL` for TS, or the largest per-item window under adaptive TS).
#[derive(Debug, Clone)]
pub struct UpdateLog {
    entries: VecDeque<UpdateRecord>,
    retention: SimDuration,
}

impl UpdateLog {
    /// Creates a log that retains updates for at least `retention`.
    pub fn new(retention: SimDuration) -> Self {
        UpdateLog {
            entries: VecDeque::new(),
            retention,
        }
    }

    /// The retention horizon.
    pub fn retention(&self) -> SimDuration {
        self.retention
    }

    /// Widens the retention horizon (e.g. when an adaptive window
    /// grows). Never shrinks, so already-pruned history is not implied
    /// to exist.
    pub fn widen_retention(&mut self, retention: SimDuration) {
        if retention > self.retention {
            self.retention = retention;
        }
    }

    /// Appends an update; must be called in non-decreasing time order.
    pub fn push(&mut self, rec: UpdateRecord) {
        if let Some(last) = self.entries.back() {
            assert!(
                rec.at >= last.at,
                "update log must be fed in time order: {:?} after {:?}",
                rec.at,
                last.at
            );
        }
        self.entries.push_back(rec);
    }

    /// Drops entries older than `now − retention`.
    pub fn prune(&mut self, now: SimTime) {
        let cutoff = now.saturating_duration_since(SimTime::ZERO);
        if cutoff < self.retention {
            return;
        }
        let horizon = SimTime::from_secs(now.as_secs() - self.retention.as_secs());
        while let Some(front) = self.entries.front() {
            if front.at <= horizon {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// All updates with `from < t ≤ to`, oldest first. The log is
    /// time-ordered, so the window is one contiguous range found by two
    /// binary searches, and its exact length is known up front.
    pub fn window(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> impl ExactSizeIterator<Item = &UpdateRecord> {
        let first = self.entries.partition_point(|r| r.at <= from);
        let end = self.entries.partition_point(|r| r.at <= to).max(first);
        self.entries.range(first..end)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The replicated database at one server.
///
/// Values are opaque `u64`s; the timestamp vector gives each item's last
/// update time (`SimTime::ZERO` meaning "never updated since the time
/// origin", which is how the paper treats items unchanged since time 0).
#[derive(Debug, Clone)]
pub struct Database {
    values: Vec<u64>,
    updated_at: Vec<SimTime>,
    log: UpdateLog,
    update_count: u64,
}

impl Database {
    /// Creates a database of `n` items with the given initial values
    /// (all timestamps at the origin). `initial(i)` supplies item `i`'s
    /// starting value.
    pub fn new<F: FnMut(ItemId) -> u64>(n: u64, mut initial: F, retention: SimDuration) -> Self {
        Database {
            values: (0..n).map(&mut initial).collect(),
            updated_at: vec![SimTime::ZERO; n as usize],
            log: UpdateLog::new(retention),
            update_count: 0,
        }
    }

    /// Number of items `n`.
    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// True for an empty database (not useful, but keeps clippy honest).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current value of `item`.
    #[inline]
    pub fn value(&self, item: ItemId) -> u64 {
        self.values[item as usize]
    }

    /// Timestamp of `item`'s last update.
    #[inline]
    pub fn updated_at(&self, item: ItemId) -> SimTime {
        self.updated_at[item as usize]
    }

    /// Total updates applied since construction.
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// The update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// Widens the log's retention (adaptive windows).
    pub fn widen_log_retention(&mut self, retention: SimDuration) {
        self.log.widen_retention(retention);
    }

    /// Applies an update at time `at`, returning the record.
    ///
    /// # Panics
    /// Panics if `item` is out of range or `at` precedes the item's
    /// current timestamp (updates arrive in server-clock order).
    pub fn apply_update(&mut self, item: ItemId, value: u64, at: SimTime) -> UpdateRecord {
        let idx = item as usize;
        assert!(idx < self.values.len(), "item {item} out of range");
        assert!(
            at >= self.updated_at[idx],
            "update at {at:?} precedes item {item}'s last update {:?}",
            self.updated_at[idx]
        );
        let rec = UpdateRecord {
            item,
            at,
            value,
            previous: self.values[idx],
        };
        self.values[idx] = value;
        self.updated_at[idx] = at;
        self.update_count += 1;
        self.log.push(rec);
        rec
    }

    /// Prunes the update log to its retention horizon.
    pub fn prune_log(&mut self, now: SimTime) {
        self.log.prune(now);
    }

    /// Items updated in `(from, to]` with their *latest* update time in
    /// that window, deduplicated, in item order of last occurrence.
    ///
    /// This is exactly the TS list `U_i` of Eq. 1 when called with
    /// `(T_i − w, T_i]`, and the AT list of Eq. 2 with `(T_{i−1}, T_i]`.
    pub fn updated_in_window(&self, from: SimTime, to: SimTime) -> Vec<(ItemId, SimTime)> {
        let mut hits: Vec<(ItemId, SimTime)> =
            self.log.window(from, to).map(|r| (r.item, r.at)).collect();
        // The log is time-ordered, so a stable sort by item keeps each
        // item's records in time order: the last duplicate is the
        // latest update in the window.
        hits.sort_by_key(|&(item, _)| item);
        let mut out: Vec<(ItemId, SimTime)> = Vec::with_capacity(hits.len());
        for (item, at) in hits {
            match out.last_mut() {
                Some((last_item, last_at)) if *last_item == item => *last_at = at,
                _ => out.push((item, at)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(n: u64) -> Database {
        Database::new(n, |i| i * 10, SimDuration::from_secs(1000.0))
    }

    #[test]
    fn initial_values_and_timestamps() {
        let d = db(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.value(3), 30);
        assert_eq!(d.updated_at(3), SimTime::ZERO);
        assert_eq!(d.update_count(), 0);
    }

    #[test]
    fn update_changes_value_and_timestamp() {
        let mut d = db(5);
        let rec = d.apply_update(2, 999, SimTime::from_secs(4.0));
        assert_eq!(rec.previous, 20);
        assert_eq!(d.value(2), 999);
        assert_eq!(d.updated_at(2), SimTime::from_secs(4.0));
        assert_eq!(d.update_count(), 1);
    }

    #[test]
    fn window_extraction_matches_eq1() {
        let mut d = db(10);
        d.apply_update(1, 100, SimTime::from_secs(1.0));
        d.apply_update(2, 200, SimTime::from_secs(5.0));
        d.apply_update(3, 300, SimTime::from_secs(10.0)); // on boundary: included
        d.apply_update(4, 400, SimTime::from_secs(10.5)); // beyond: excluded
        let w = d.updated_in_window(SimTime::from_secs(1.0), SimTime::from_secs(10.0));
        // from is exclusive: item 1 at t=1.0 excluded.
        assert_eq!(
            w,
            vec![
                (2, SimTime::from_secs(5.0)),
                (3, SimTime::from_secs(10.0))
            ]
        );
    }

    #[test]
    fn repeated_updates_deduplicate_to_latest() {
        let mut d = db(10);
        d.apply_update(7, 1, SimTime::from_secs(1.0));
        d.apply_update(7, 2, SimTime::from_secs(2.0));
        d.apply_update(7, 3, SimTime::from_secs(3.0));
        let w = d.updated_in_window(SimTime::ZERO, SimTime::from_secs(10.0));
        assert_eq!(w, vec![(7, SimTime::from_secs(3.0))]);
    }

    #[test]
    fn log_prunes_old_entries() {
        let mut d = Database::new(4, |_| 0, SimDuration::from_secs(10.0));
        d.apply_update(0, 1, SimTime::from_secs(1.0));
        d.apply_update(1, 1, SimTime::from_secs(5.0));
        d.apply_update(2, 1, SimTime::from_secs(50.0));
        d.prune_log(SimTime::from_secs(55.0));
        assert_eq!(d.log().len(), 1);
        // Pruned history no longer appears in windows.
        let w = d.updated_in_window(SimTime::ZERO, SimTime::from_secs(100.0));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 2);
    }

    #[test]
    fn prune_before_retention_keeps_everything() {
        let mut d = Database::new(4, |_| 0, SimDuration::from_secs(100.0));
        d.apply_update(0, 1, SimTime::from_secs(1.0));
        d.prune_log(SimTime::from_secs(50.0));
        assert_eq!(d.log().len(), 1);
    }

    #[test]
    fn widen_retention_never_shrinks() {
        let mut log = UpdateLog::new(SimDuration::from_secs(100.0));
        log.widen_retention(SimDuration::from_secs(50.0));
        assert_eq!(log.retention().as_secs(), 100.0);
        log.widen_retention(SimDuration::from_secs(500.0));
        assert_eq!(log.retention().as_secs(), 500.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_log_rejected() {
        let mut log = UpdateLog::new(SimDuration::from_secs(10.0));
        log.push(UpdateRecord {
            item: 0,
            at: SimTime::from_secs(5.0),
            value: 1,
            previous: 0,
        });
        log.push(UpdateRecord {
            item: 1,
            at: SimTime::from_secs(4.0),
            value: 1,
            previous: 0,
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_rejected() {
        let mut d = db(3);
        d.apply_update(3, 0, SimTime::from_secs(1.0));
    }

    #[test]
    fn empty_window_is_empty() {
        let d = db(3);
        assert!(d
            .updated_in_window(SimTime::ZERO, SimTime::from_secs(100.0))
            .is_empty());
    }
}
