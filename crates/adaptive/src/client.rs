//! The adaptive TS client handler.
//!
//! §3.1's whole-cache drop (`T_i − T_l > w`) becomes per item: after
//! loading the report's window exception list, a cached item `j`
//! survives a disconnection gap `g = T_i − T_l` iff `g ≤ w_j` — the
//! report is guaranteed to still mention any update to `j` that the
//! client could have missed. Items with larger gaps are dropped
//! individually; items within their window follow the ordinary TS
//! timestamp comparison.

use sw_server::ItemId;
use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

use sw_client::{Cache, ProcessOutcome, ReportDigest, ReportHandler};

use crate::window::WindowTable;

/// Client half of adaptive TS.
#[derive(Debug, Clone)]
pub struct AdaptiveTsHandler {
    latency: SimDuration,
    windows: WindowTable,
    pending_exceptions: Vec<(ItemId, u32)>,
}

impl AdaptiveTsHandler {
    /// Creates the handler; `default_k` must match the server's.
    pub fn new(latency: SimDuration, default_k: u32) -> Self {
        AdaptiveTsHandler {
            latency,
            windows: WindowTable::new(default_k),
            pending_exceptions: Vec::new(),
        }
    }

    /// Loads the window exception list from the adaptive report. Call
    /// before [`ReportHandler::process`] for the same report (the cell
    /// driver does this; splitting the call keeps the trait signature
    /// shared with the static strategies).
    pub fn load_windows(&mut self, exceptions: &[(ItemId, u32)]) {
        self.pending_exceptions = exceptions.to_vec();
    }

    /// The client's current view of item windows.
    pub fn windows(&self) -> &WindowTable {
        &self.windows
    }
}

impl ReportHandler for AdaptiveTsHandler {
    fn name(&self) -> &'static str {
        "ATS"
    }

    fn accepts(&self, payload: &FramePayload) -> bool {
        matches!(
            payload,
            FramePayload::AdaptiveTimestampReport { .. } | FramePayload::TimestampReport { .. }
        )
    }

    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let (report_ts_micros, entries) = match digest.payload() {
            // The adaptive report carries its window table in-band.
            FramePayload::AdaptiveTimestampReport {
                report_ts_micros,
                entries,
                window_exceptions,
            } => {
                self.pending_exceptions = window_exceptions.clone();
                (*report_ts_micros, entries)
            }
            // Plain TS reports are accepted for drop-in comparisons
            // (windows then stay at whatever was last loaded).
            FramePayload::TimestampReport {
                report_ts_micros,
                entries,
            } => (*report_ts_micros, entries),
            other => panic!("adaptive TS handler fed a wrong report: {other:?}"),
        };
        let t_i = SimTime::from_secs(report_ts_micros as f64 / 1e6);
        // Adopt the windows that rode in with this report.
        self.windows.load_exceptions(&self.pending_exceptions);
        self.pending_exceptions.clear();

        let gap_secs = match t_l {
            Some(t_l) => t_i.saturating_duration_since(t_l).as_secs(),
            None => f64::INFINITY,
        };
        // Dense-id reports arrive item-sorted, so per-item lookups are
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
        let windows = &self.windows;
        let latency_secs = self.latency.as_secs();
        cache.retain_entries(|item, entry| {
            let k_i = windows.get(item);
            let w_secs = if k_i >= crate::window::INFINITE_WINDOW {
                // §8: "it makes sense to keep an 'infinite' window for
                // an item like this, including the pair <i, 0> in each
                // invalidation report" — no gap can age it out.
                f64::INFINITY
            } else {
                k_i as f64 * latency_secs
            };
            // Per-item gap check replaces §3.1's whole-cache drop. The
            // tiny epsilon mirrors the float-tolerant boundary of the
            // static handlers (gap exactly w is survivable).
            if gap_secs > w_secs * (1.0 + 1e-12) {
                invalidated.push(item);
                return false;
            }
            let cached_micros = (entry.timestamp.as_secs() * 1e6).round() as u64;
            match reported
                .binary_search_by_key(&item, |&(it, _)| it)
                .ok()
                .map(|ix| reported[ix].1)
            {
                Some(t_j) if cached_micros < t_j => {
                    invalidated.push(item);
                    false
                }
                _ => {
                    entry.timestamp = t_i;
                    true
                }
            }
        });
        invalidated.sort_unstable();
        let revalidated = cache.len();
        ProcessOutcome {
            report_time: t_i,
            // Adaptive TS never drops the whole cache wholesale; the
            // per-item gap check subsumes it.
            dropped_all: false,
            invalidated,
            revalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(t_i: f64, entries: Vec<(u64, f64)>) -> FramePayload {
        FramePayload::TimestampReport {
            report_ts_micros: (t_i * 1e6) as u64,
            entries: entries
                .into_iter()
                .map(|(i, t)| (i, (t * 1e6) as u64))
                .collect(),
        }
    }

    #[test]
    fn per_item_gap_check() {
        let mut h = AdaptiveTsHandler::new(SimDuration::from_secs(10.0), 2); // default w = 20
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0)); // default window
        c.insert(2, 20, SimTime::from_secs(10.0)); // will have w = 100
        h.load_windows(&[(2, 10)]);
        // Gap = 40 − 10 = 30 > 20 for item 1, but ≤ 100 for item 2.
        let out = h.process(&mut c, &report(40.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert_eq!(out.invalidated, vec![1]);
        assert!(c.contains(2));
    }

    #[test]
    fn infinite_ish_window_survives_any_nap() {
        let mut h = AdaptiveTsHandler::new(SimDuration::from_secs(10.0), 1);
        let mut c = Cache::unbounded();
        c.insert(7, 1, SimTime::from_secs(10.0));
        h.load_windows(&[(7, crate::window::INFINITE_WINDOW)]);
        let out = h.process(
            &mut c,
            &report(1_000_000.0, vec![]),
            Some(SimTime::from_secs(10.0)),
        );
        assert!(out.invalidated.is_empty());
        assert!(c.contains(7));
    }

    #[test]
    fn timestamp_comparison_still_applies() {
        let mut h = AdaptiveTsHandler::new(SimDuration::from_secs(10.0), 10);
        let mut c = Cache::unbounded();
        c.insert(3, 1, SimTime::from_secs(10.0));
        let out = h.process(
            &mut c,
            &report(20.0, vec![(3, 15.0)]),
            Some(SimTime::from_secs(10.0)),
        );
        assert_eq!(out.invalidated, vec![3]);
    }

    #[test]
    fn zero_window_item_dropped_on_any_gap() {
        // A zero-window item is never reported, so the client cannot
        // trust it across a report boundary at all.
        let mut h = AdaptiveTsHandler::new(SimDuration::from_secs(10.0), 5);
        let mut c = Cache::unbounded();
        c.insert(4, 1, SimTime::from_secs(10.0));
        h.load_windows(&[(4, 0)]);
        let out = h.process(&mut c, &report(20.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert_eq!(out.invalidated, vec![4]);
    }

    #[test]
    fn windows_update_with_each_report() {
        let mut h = AdaptiveTsHandler::new(SimDuration::from_secs(10.0), 2);
        let mut c = Cache::unbounded();
        h.load_windows(&[(1, 50)]);
        let _ = h.process(&mut c, &report(10.0, vec![]), None);
        assert_eq!(h.windows().get(1), 50);
        // Next report shrinks it back.
        h.load_windows(&[]);
        let _ = h.process(&mut c, &report(20.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert_eq!(h.windows().get(1), 2);
    }
}
