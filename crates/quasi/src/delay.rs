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
//! Client side ([`DelayQuasiHandler`]): the cache entry is kept until
//! it is invalidated by a report or it reaches age `α`; at that point
//! the unit waits for the next report — "if x is there, it drops the
//! cache, otherwise it keeps it and makes ts(x) equal to the time of
//! the current report." A client that *missed* the due report cannot
//! apply that rule safely, so entries older than `α` are dropped
//! whenever the unit slept through any report (gap > L).

use std::collections::VecDeque;

use sw_client::{Cache, ProcessOutcome, ReportDigest, ReportHandler};
use sw_server::{ItemId, ItemTable};
use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

/// Server-side obligation lists for the delay condition.
#[derive(Debug, Clone)]
pub struct ObligationTracker {
    /// `α` in intervals (`α = j·L`).
    alpha_intervals: u64,
    lists: ItemTable<VecDeque<u64>>,
}

impl ObligationTracker {
    /// Creates the tracker with allowed lag `α = alpha_intervals · L`
    /// (hashed table — arbitrary item ids).
    pub fn new(alpha_intervals: u64) -> Self {
        assert!(alpha_intervals >= 1, "α must be at least one interval");
        ObligationTracker {
            alpha_intervals,
            lists: ItemTable::hashed(),
        }
    }

    /// Same, but with dense obligation lists over items `0..universe` —
    /// `due` is probed for every database item on every report build,
    /// so the dense layout keeps that scan hash-free.
    pub fn for_universe(alpha_intervals: u64, universe: u64) -> Self {
        assert!(alpha_intervals >= 1, "α must be at least one interval");
        ObligationTracker {
            alpha_intervals,
            lists: ItemTable::dense(universe),
        }
    }

    /// The lag bound in intervals (`j`).
    pub fn alpha_intervals(&self) -> u64 {
        self.alpha_intervals
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

/// Client half of the delay condition, layered on TS-style reports.
#[derive(Debug, Clone)]
pub struct DelayQuasiHandler {
    latency: SimDuration,
    /// `α` in seconds.
    alpha: SimDuration,
}

impl DelayQuasiHandler {
    /// Creates the handler with `α = alpha_intervals · L`.
    pub fn new(latency: SimDuration, alpha_intervals: u64) -> Self {
        assert!(alpha_intervals >= 1, "α must be at least one interval");
        assert!(!latency.is_zero(), "latency must be positive");
        DelayQuasiHandler {
            latency,
            alpha: latency.scaled(alpha_intervals as f64),
        }
    }

    /// The allowed lag `α`.
    pub fn alpha(&self) -> SimDuration {
        self.alpha
    }
}

impl ReportHandler for DelayQuasiHandler {
    fn name(&self) -> &'static str {
        "QD"
    }

    fn accepts(&self, payload: &FramePayload) -> bool {
        matches!(payload, FramePayload::TimestampReport { .. })
    }

    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let (report_ts_micros, entries) = match digest.payload() {
            FramePayload::TimestampReport {
                report_ts_micros,
                entries,
            } => (*report_ts_micros, entries),
            other => panic!("delay-quasi handler fed a wrong report: {other:?}"),
        };
        let t_i = SimTime::from_secs(report_ts_micros as f64 / 1e6);
        let gap = match t_l {
            Some(t_l) => t_i.saturating_duration_since(t_l),
            None => SimDuration::from_secs(f64::MAX / 2.0),
        };
        let missed_reports = gap.as_secs() > self.latency.as_secs() * (1.0 + 1e-9);
        // Dense-id reports arrive item-sorted, so membership checks are
        // binary searches over the entry slice — no per-call hash map.
        let sorted_entries;
        let reported: &[(ItemId, u64)] = if entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries
        } else {
            let mut copy = entries.clone();
            copy.sort_unstable_by_key(|&(item, _)| item);
            sorted_entries = copy;
            &sorted_entries
        };

        let mut invalidated = Vec::new();
        let alpha_secs = self.alpha.as_secs();
        cache.retain_entries(|item, entry| {
            let age = t_i.saturating_duration_since(entry.timestamp);
            // The copy reaches its allowed lag exactly at age = α —
            // the same interval the server-side obligation comes due
            // (l + j). Checking with ≥ keeps client and server in
            // lockstep; a strict > would look one interval late, after
            // the server already popped the obligation.
            let over_alpha = age.as_secs() >= alpha_secs * (1.0 - 1e-12);
            let in_report = reported
                .binary_search_by_key(&item, |&(it, _)| it)
                .is_ok();
            // Cache is dropped when: the due report names the item, or
            // the unit slept past a report while over-α (it cannot know
            // whether the due report named it).
            if over_alpha && (in_report || missed_reports) {
                invalidated.push(item);
                return false;
            }
            if over_alpha {
                // The due report did not name it: re-validated, restart
                // the lag clock.
                entry.timestamp = t_i;
            }
            // Under α: keep as-is; the delay condition allows the lag,
            // so the entry's timestamp is NOT advanced (the lag clock
            // keeps running from the copy's birth).
            true
        });
        invalidated.sort_unstable();
        let revalidated = cache.len();
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated,
            revalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(t_i: f64, items: Vec<(u64, f64)>) -> FramePayload {
        FramePayload::TimestampReport {
            report_ts_micros: (t_i * 1e6) as u64,
            entries: items
                .into_iter()
                .map(|(i, t)| (i, (t * 1e6) as u64))
                .collect(),
        }
    }

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

    #[test]
    fn young_entries_keep_their_lag_clock() {
        let mut h = DelayQuasiHandler::new(SimDuration::from_secs(10.0), 3); // α = 30
        let mut c = Cache::unbounded();
        c.insert(1, 5, SimTime::from_secs(10.0));
        let _ = h.process(&mut c, &report(20.0, vec![]), Some(SimTime::from_secs(10.0)));
        // Age 10 < α: timestamp untouched (lag clock running).
        assert_eq!(c.peek(1).unwrap().timestamp, SimTime::from_secs(10.0));
    }

    #[test]
    fn over_alpha_unreported_is_revalidated() {
        let mut h = DelayQuasiHandler::new(SimDuration::from_secs(10.0), 2); // α = 20
        let mut c = Cache::unbounded();
        c.insert(1, 5, SimTime::from_secs(10.0));
        // Heard every report; at T=30 the age reaches exactly α — the
        // due instant — with the item absent from the report → keep and
        // restamp to T=30 (the lag clock restarts).
        for t in [20.0, 30.0, 40.0] {
            let _ = h.process(
                &mut c,
                &report(t, vec![]),
                Some(SimTime::from_secs(t - 10.0)),
            );
        }
        assert!(c.contains(1));
        assert_eq!(c.peek(1).unwrap().timestamp, SimTime::from_secs(30.0));
    }

    #[test]
    fn over_alpha_reported_is_dropped() {
        let mut h = DelayQuasiHandler::new(SimDuration::from_secs(10.0), 2);
        let mut c = Cache::unbounded();
        c.insert(1, 5, SimTime::from_secs(10.0));
        let out = h.process(
            &mut c,
            &report(40.0, vec![(1, 35.0)]),
            Some(SimTime::from_secs(30.0)),
        );
        assert_eq!(out.invalidated, vec![1]);
    }

    #[test]
    fn sleeper_over_alpha_drops_conservatively() {
        let mut h = DelayQuasiHandler::new(SimDuration::from_secs(10.0), 2);
        let mut c = Cache::unbounded();
        c.insert(1, 5, SimTime::from_secs(10.0));
        // Slept from 20 to 50 (gap 30 > L): over-α entries must go even
        // though this report does not name them.
        let out = h.process(&mut c, &report(50.0, vec![]), Some(SimTime::from_secs(20.0)));
        assert_eq!(out.invalidated, vec![1]);
    }

    #[test]
    fn sleeper_under_alpha_keeps_entry() {
        let mut h = DelayQuasiHandler::new(SimDuration::from_secs(10.0), 10); // α = 100
        let mut c = Cache::unbounded();
        c.insert(1, 5, SimTime::from_secs(10.0));
        // Slept 20→50; age 40 < 100: the delay condition still holds.
        let out = h.process(&mut c, &report(50.0, vec![]), Some(SimTime::from_secs(20.0)));
        assert!(out.invalidated.is_empty());
        assert!(c.contains(1));
    }
}
