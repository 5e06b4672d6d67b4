//! The arithmetic condition (Eq. 28).
//!
//! `∀ t ≥ 0 : |x'(t) − x(t)| ≤ ε` — for numeric items (stock prices,
//! temperatures) the cached copy may drift from the central value by at
//! most `ε`. The server-side filter: "modify the strategies of Section
//! 3 to report an item, but only if it changes more than the prescribed
//! limit. This will also reduce the number of times the item is
//! reported."
//!
//! [`EpsilonFilter`] tracks, per item, the last *reported* value; an
//! update is report-worthy iff the new value deviates from it by more
//! than `ε`. Every client copy equals some previously reported (or
//! fetched) value, so suppressed updates keep all copies within `ε` of
//! the server value at report boundaries.

use sw_server::{ItemId, ItemTable};

/// Server-side change filter for the arithmetic condition.
#[derive(Debug, Clone)]
pub struct EpsilonFilter {
    epsilon: u64,
    last_reported: ItemTable<u64>,
    suppressed: u64,
    passed: u64,
}

impl EpsilonFilter {
    /// Creates the filter with tolerance `ε` (absolute value units)
    /// over an unknown item universe.
    pub fn new(epsilon: u64) -> Self {
        EpsilonFilter {
            epsilon,
            last_reported: ItemTable::dense(0),
            suppressed: 0,
            passed: 0,
        }
    }

    /// Seeds the baseline for `item` (its initial value, known to every
    /// client that fetched it).
    pub fn seed(&mut self, item: ItemId, value: u64) {
        self.last_reported.get_or_insert_with(item, || value);
    }

    /// Decides whether an update of `item` to `new_value` must be
    /// reported. On `true` the baseline advances to `new_value`
    /// (clients will drop their copies and refetch); on `false` the
    /// update is suppressed (copies stay within ε).
    ///
    /// An item never seeded is always reported (no baseline to deviate
    /// from).
    pub fn should_report(&mut self, item: ItemId, new_value: u64) -> bool {
        match self.last_reported.get_mut(item) {
            Some(baseline) => {
                if new_value.abs_diff(*baseline) > self.epsilon {
                    *baseline = new_value;
                    self.passed += 1;
                    true
                } else {
                    self.suppressed += 1;
                    false
                }
            }
            None => {
                self.last_reported.insert(item, new_value);
                self.passed += 1;
                true
            }
        }
    }

    /// The maximum deviation any client copy can currently have for
    /// `item` given the server value `current`: distance from the
    /// baseline (every copy equals some reported value ≥ baseline
    /// recency). `None` if the item was never seen.
    #[cfg(test)]
    fn copy_deviation_bound(&self, item: ItemId, current: u64) -> Option<u64> {
        self.last_reported
            .get(item)
            .map(|&b| current.abs_diff(b))
    }

    /// Updates suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Updates passed through so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Fraction of updates suppressed (the report-size saving).
    pub fn suppression_ratio(&self) -> f64 {
        let total = self.suppressed + self.passed;
        if total == 0 {
            0.0
        } else {
            self.suppressed as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_drift_is_suppressed() {
        let mut f = EpsilonFilter::new(5);
        f.seed(1, 100);
        assert!(!f.should_report(1, 103));
        assert!(!f.should_report(1, 97));
        assert_eq!(f.suppressed(), 2);
    }

    #[test]
    fn exceeding_epsilon_reports_and_rebases() {
        let mut f = EpsilonFilter::new(5);
        f.seed(1, 100);
        assert!(f.should_report(1, 106)); // |106−100| = 6 > 5
        // Baseline is now 106: 104 is within ε again.
        assert!(!f.should_report(1, 104));
    }

    #[test]
    fn cumulative_small_steps_eventually_report() {
        // 100 → 103 → 106: each step ≤ ε relative to the *last value*
        // would never report, but the filter measures against the last
        // REPORTED value, so the drift is caught at 106.
        let mut f = EpsilonFilter::new(5);
        f.seed(1, 100);
        assert!(!f.should_report(1, 103));
        assert!(f.should_report(1, 106));
    }

    #[test]
    fn deviation_bound_never_exceeds_epsilon_under_suppression() {
        let mut f = EpsilonFilter::new(10);
        f.seed(1, 1000);
        let mut value = 1000i64;
        for step in [3i64, -4, 2, 5, -1, 4, -2, 6, -3, 2] {
            value += step;
            let reported = f.should_report(1, value as u64);
            let bound = f.copy_deviation_bound(1, value as u64).unwrap();
            if !reported {
                assert!(bound <= 10, "suppressed update left deviation {bound} > ε");
            } else {
                assert_eq!(bound, 0, "reporting rebases the baseline");
            }
        }
    }

    #[test]
    fn unseeded_item_always_reports_first() {
        let mut f = EpsilonFilter::new(100);
        assert!(f.should_report(9, 42));
        assert!(!f.should_report(9, 50));
    }

    #[test]
    fn epsilon_zero_reports_every_change() {
        let mut f = EpsilonFilter::new(0);
        f.seed(1, 10);
        assert!(f.should_report(1, 11));
        assert!(f.should_report(1, 12));
        assert_eq!(f.suppression_ratio(), 0.0);
    }

    #[test]
    fn suppression_ratio_counts() {
        let mut f = EpsilonFilter::new(5);
        f.seed(1, 0);
        let _ = f.should_report(1, 2); // suppressed
        let _ = f.should_report(1, 3); // suppressed
        let _ = f.should_report(1, 100); // passed
        assert!((f.suppression_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
