//! The evaluation-period controller.
//!
//! "The whole time scale will be divided into evaluation periods, which
//! are multiples of the invalidation report latencies L. Hence, the
//! reevaluation of the server's strategy, which results in the changes
//! of individual window's sizes, will happen only once per evaluation
//! period." (§8.1)
//!
//! At each period end the controller computes the gain of the previous
//! adjustment (Method 1 or Method 2) and applies Eq. 31:
//! `w(new) = w(old) ± e`. On the very first period, where no "old"
//! exists, it follows the paper's bootstrap rule: grow iff
//! `MHR(i) > AHR(i)`.

use std::collections::HashMap;

use sw_server::ItemId;

use crate::method1::gain_method1;
use crate::method2::gain_method2;
use crate::window::WindowTable;

/// Which feedback signal drives window adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackMethod {
    /// §8.1: piggybacked hit histories → AHR/MHR gains.
    Method1,
    /// §8.2: uplink-count deltas.
    Method2,
}

/// Per-item statistics for one evaluation period, supplied by the cell
/// driver (uplink processor + report mention counts + histories).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodItemStats {
    /// The item.
    pub item: ItemId,
    /// Uplink (miss) queries this period, `Q[i]`.
    pub uplink_queries: u64,
    /// Piggybacked local hits this period (Method 1 only).
    pub piggybacked_hits: u64,
    /// Report mentions this period, `Report(i, new)`.
    pub mentions: u32,
    /// `MHR(i)` estimated from the merged query/update history
    /// (Method 1 only; `None` under Method 2).
    pub mhr: Option<f64>,
}

impl PeriodItemStats {
    /// Total queries `q[i]` = uplink + local hits.
    pub fn total_queries(&self) -> u64 {
        self.uplink_queries + self.piggybacked_hits
    }

    /// Actual hit ratio this period.
    pub fn ahr(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            0.0
        } else {
            self.piggybacked_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PrevState {
    ahr: f64,
    uplink: u64,
    mentions: u32,
    seen: bool,
}

/// One window adjustment decided at a period boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adjustment {
    /// The item adjusted.
    pub item: ItemId,
    /// The gain that motivated the decision (NaN on bootstrap).
    pub gain: f64,
    /// Whether the window grew.
    pub grew: bool,
    /// The new window, in intervals.
    pub new_window: u32,
}

/// Summary of one evaluation period.
#[derive(Debug, Clone, Default)]
pub struct PeriodSummary {
    /// All adjustments applied this period.
    pub adjustments: Vec<Adjustment>,
}

/// Drives Eq. 31 across evaluation periods.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    method: FeedbackMethod,
    /// The step `e` of Eq. 31, in intervals.
    step: u32,
    /// The gain threshold ε: grow only when `Gain > ε`.
    gain_threshold: f64,
    query_bits: u32,
    timestamp_bits: u32,
    n_items: u64,
    /// Hashed is fine here: `prev` is touched only at evaluation-period
    /// boundaries (every `eval_period` intervals), never on the
    /// per-interval hot path.
    prev: HashMap<ItemId, PrevState>,
}

impl AdaptiveController {
    /// Creates the controller. `step` is the paper's "small integer e".
    pub fn new(
        method: FeedbackMethod,
        step: u32,
        gain_threshold: f64,
        query_bits: u32,
        timestamp_bits: u32,
        n_items: u64,
    ) -> Self {
        assert!(step >= 1, "adjustment step must be at least 1 interval");
        AdaptiveController {
            method,
            step,
            gain_threshold,
            query_bits,
            timestamp_bits,
            n_items,
            prev: HashMap::new(),
        }
    }

    /// The feedback method in force.
    pub fn method(&self) -> FeedbackMethod {
        self.method
    }

    /// Processes one period's per-item statistics, adjusting `windows`
    /// in place.
    pub fn end_period(
        &mut self,
        windows: &mut WindowTable,
        items: impl IntoIterator<Item = PeriodItemStats>,
    ) -> PeriodSummary {
        let mut summary = PeriodSummary::default();
        for stat in items {
            let prev = self.prev.entry(stat.item).or_default();
            let headroom = |stat: &PeriodItemStats| match self.method {
                // "If MHR(i) > AHR(i) then there is room to improve" —
                // weighed as a *prospective* gain in the same bit units
                // as Eq. 30: closing the MHR−AHR gap would save
                // `(MHR−AHR)·q[i]·b_q` uplink bits per period against
                // the item's current report cost. A churn item (tiny
                // MHR, many mentions) prices out; a hot-stable item
                // held back by sleep prices in.
                FeedbackMethod::Method1 => {
                    let id_bits = if self.n_items <= 1 {
                        1.0
                    } else {
                        (64 - (self.n_items - 1).leading_zeros()) as f64
                    };
                    let prospective = (stat.mhr.unwrap_or(0.0) - stat.ahr())
                        * stat.total_queries() as f64
                        * self.query_bits as f64
                        - stat.mentions as f64 * (id_bits + self.timestamp_bits as f64);
                    prospective > self.gain_threshold
                }
                // Method 2 has no MHR; uplink traffic is the only sign
                // there is something to save.
                FeedbackMethod::Method2 => stat.uplink_queries > 0,
            };
            let (decision, gain) = if !prev.seen {
                // Bootstrap: "we increase the size of the window for a
                // given data item if the MHR(i) is larger than AHR(i)".
                (headroom(&stat), f64::NAN)
            } else {
                let gain = match self.method {
                    FeedbackMethod::Method1 => gain_method1(
                        stat.ahr(),
                        prev.ahr,
                        stat.total_queries(),
                        self.query_bits,
                        stat.mentions,
                        prev.mentions,
                        self.n_items,
                        self.timestamp_bits,
                    ),
                    FeedbackMethod::Method2 => gain_method2(
                        prev.uplink,
                        stat.uplink_queries,
                        self.query_bits,
                        stat.mentions,
                        prev.mentions,
                        self.n_items,
                        self.timestamp_bits,
                    ),
                };
                // The threshold is applied symmetrically: a clearly
                // positive gain grows, a clearly negative one shrinks,
                // and an inconclusive one (|gain| ≤ ε — e.g. a
                // zero-window item whose AHR is pinned at 0, producing
                // gain ≡ 0 forever) defers to the headroom rule. Without
                // the dead-band fallback, w = 0 is an absorbing state:
                // never reported ⇒ never cached ⇒ AHR stuck at 0 ⇒ the
                // raw Eq. 31 "otherwise decrease" never lets it recover.
                if gain > self.gain_threshold {
                    (true, gain)
                } else if gain < -self.gain_threshold {
                    (false, gain)
                } else {
                    (headroom(&stat), gain)
                }
            };
            let new_window = windows.adjust(stat.item, decision, self.step);
            summary.adjustments.push(Adjustment {
                item: stat.item,
                gain,
                grew: decision,
                new_window,
            });
            *prev = PrevState {
                ahr: stat.ahr(),
                uplink: stat.uplink_queries,
                mentions: stat.mentions,
                seen: true,
            };
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(method: FeedbackMethod) -> AdaptiveController {
        AdaptiveController::new(method, 1, 0.0, 512, 512, 1000)
    }

    fn stats(item: ItemId, uplink: u64, hits: u64, mentions: u32, mhr: Option<f64>) -> PeriodItemStats {
        PeriodItemStats {
            item,
            uplink_queries: uplink,
            piggybacked_hits: hits,
            mentions,
            mhr,
        }
    }

    #[test]
    fn bootstrap_grows_when_mhr_exceeds_ahr() {
        let mut c = controller(FeedbackMethod::Method1);
        let mut w = WindowTable::new(5);
        // MHR 0.95 ≫ AHR 0.2: sleepers are losing a cacheable item.
        let s = c.end_period(&mut w, [stats(1, 8, 2, 3, Some(0.95))]);
        assert!(s.adjustments[0].grew);
        assert_eq!(w.get(1), 6);
    }

    #[test]
    fn bootstrap_shrinks_when_ahr_at_ceiling() {
        let mut c = controller(FeedbackMethod::Method1);
        let mut w = WindowTable::new(5);
        // MHR == AHR: nothing to gain from a bigger window.
        let s = c.end_period(&mut w, [stats(1, 1, 9, 3, Some(0.9))]);
        assert!(!s.adjustments[0].grew);
        assert_eq!(w.get(1), 4);
    }

    #[test]
    fn never_changing_hot_item_grows_steadily() {
        // §8: "in the case of the never or rarely changing data item,
        // its window will increase steadily if the query rate is high,
        // and the units sleep a lot."
        let mut c = controller(FeedbackMethod::Method1);
        let mut w = WindowTable::new(2);
        // Period 1 bootstrap: MHR 1.0 > AHR 0.3 → grow.
        c.end_period(&mut w, [stats(9, 7, 3, 0, Some(1.0))]);
        // Subsequent periods: AHR keeps improving, item never reported
        // (never changes → 0 mentions): pure gain → keep growing.
        let mut ahr: f64 = 0.3;
        for _ in 0..10 {
            ahr = (ahr + 0.05).min(0.99);
            let hits = (ahr * 100.0) as u64;
            c.end_period(&mut w, [stats(9, 100 - hits, hits, 0, Some(1.0))]);
        }
        assert!(w.get(9) >= 10, "window should have grown, got {}", w.get(9));
    }

    #[test]
    fn hot_changing_item_shrinks_to_zero() {
        // §8: "if there [are] many queries and the maximal hit ratio is
        // small, the window will eventually shrink to zero."
        let mut c = controller(FeedbackMethod::Method1);
        let mut w = WindowTable::new(3);
        // Bootstrap: MHR 0.05 < AHR? AHR = 0 → 0.05 > 0 grows once…
        // then every period: hit ratio pinned at 0, mentions high →
        // negative gain → shrink.
        c.end_period(&mut w, [stats(4, 100, 0, 10, Some(0.05))]);
        for _ in 0..8 {
            c.end_period(&mut w, [stats(4, 100, 0, 10, Some(0.05))]);
        }
        assert_eq!(w.get(4), 0, "window should shrink to zero");
    }

    #[test]
    fn method2_reacts_to_uplink_deltas() {
        let mut c = controller(FeedbackMethod::Method2);
        let mut w = WindowTable::new(5);
        // Bootstrap with misses → grow.
        c.end_period(&mut w, [stats(1, 50, 0, 2, None)]);
        assert_eq!(w.get(1), 6);
        // Uplink dropped 50 → 10 with same mentions: positive gain.
        c.end_period(&mut w, [stats(1, 10, 0, 2, None)]);
        assert_eq!(w.get(1), 7);
        // Burst: uplink jumps to 80 → negative gain → shrink (the
        // documented Method-2 misdiagnosis).
        c.end_period(&mut w, [stats(1, 80, 0, 2, None)]);
        assert_eq!(w.get(1), 6);
    }

    #[test]
    fn threshold_blocks_marginal_growth() {
        let mut c = AdaptiveController::new(FeedbackMethod::Method1, 1, 10_000.0, 512, 512, 1000);
        let mut w = WindowTable::new(5);
        c.end_period(&mut w, [stats(1, 5, 5, 1, Some(0.9))]); // bootstrap grows
        let before = w.get(1);
        // Tiny improvement: gain ≈ 0.1·10·512 = 512 < 10k threshold.
        c.end_period(&mut w, [stats(1, 4, 6, 1, Some(0.9))]);
        assert_eq!(w.get(1), before - 1, "marginal gain must shrink under ε");
    }
}
