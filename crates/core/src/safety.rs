//! The no-stale-reads invariant checker.
//!
//! §2's safety contract: "our schemes will only allow false alarm
//! errors and will always correctly inform the client if his copy is
//! invalid. The validity of the client's copy is only guaranteed as of
//! the last invalidation report."
//!
//! [`ValueHistory`] shadows the database with the full update history
//! so the simulation can ask, after every report, whether each cached
//! entry's value really was the item's value at the entry's validity
//! timestamp. TS and AT must never violate this; SIG may, with small
//! probability (signature collision or the documented fetch-window
//! blind spot), and the checker *counts* violations instead of
//! asserting so the tests can bound the rate.

use std::collections::HashMap;

use sw_server::{ItemId, UpdateRecord};
use sw_sim::{counters, SimTime};

/// Full value history of every item, for invariant checking only.
///
/// Hashed maps are fine here: the checker runs only in tests and debug
/// harnesses (`check_safety` mode), never on the simulation hot path.
#[derive(Debug, Clone, Default)]
pub struct ValueHistory {
    /// Per item: (update time, new value), in time order; the implicit
    /// first entry is the initial value at `t = 0`.
    histories: HashMap<ItemId, Vec<(SimTime, u64)>>,
    initial: HashMap<ItemId, u64>,
}

impl ValueHistory {
    /// Creates the history with the database's initial values.
    pub fn new<F: FnMut(ItemId) -> u64>(n: u64, mut initial: F) -> Self {
        ValueHistory {
            histories: HashMap::new(),
            initial: (0..n).map(|i| (i, initial(i))).collect(),
        }
    }

    /// Records one applied update.
    pub fn record(&mut self, rec: &UpdateRecord) {
        self.histories
            .entry(rec.item)
            .or_default()
            .push((rec.at, rec.value));
    }

    /// The item's value as of time `t` (the last update at or before
    /// `t`, else the initial value).
    pub fn value_at(&self, item: ItemId, t: SimTime) -> u64 {
        let initial = *self
            .initial
            .get(&item)
            .expect("item must exist in the initial snapshot");
        match self.histories.get(&item) {
            None => initial,
            Some(h) => {
                // Binary search for the last update ≤ t.
                let idx = h.partition_point(|&(at, _)| at <= t);
                if idx == 0 {
                    initial
                } else {
                    h[idx - 1].1
                }
            }
        }
    }

    /// Checks one cached entry: is `value` what the item held at
    /// `valid_as_of`?
    pub fn is_consistent(&self, item: ItemId, value: u64, valid_as_of: SimTime) -> bool {
        self.value_at(item, valid_as_of) == value
    }
}

counters! {
    /// Violation counters kept by the simulation.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SafetyStats {
        /// Cache entries checked.
        pub entries_checked,
        /// Entries whose value did not match the history (stale reads
        /// waiting to happen).
        pub violations as "safety_false_validations",
    }
}

impl SafetyStats {
    /// Violation rate over checked entries.
    pub fn violation_rate(&self) -> f64 {
        if self.entries_checked == 0 {
            0.0
        } else {
            self.violations as f64 / self.entries_checked as f64
        }
    }

    /// Checks the counters against a strategy's contract. `Ok(())`
    /// when the run satisfied the expectation, `Err` with a diagnostic
    /// otherwise.
    pub fn verify(&self, expectation: SafetyExpectation) -> Result<(), String> {
        match expectation {
            SafetyExpectation::NeverStale => {
                if self.violations == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "never-stale strategy produced {} false validations over {} checks",
                        self.violations, self.entries_checked
                    ))
                }
            }
            SafetyExpectation::BoundedRate(bound) => {
                let rate = self.violation_rate();
                if rate <= bound {
                    Ok(())
                } else {
                    Err(format!(
                        "violation rate {rate:.6} exceeds documented bound {bound} \
                         ({} violations / {} checks)",
                        self.violations, self.entries_checked
                    ))
                }
            }
            SafetyExpectation::QuasiByDesign => Ok(()),
        }
    }
}

/// What the no-stale-reads checker may legitimately find for a given
/// strategy — the per-strategy safety contract of §2/§3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SafetyExpectation {
    /// Zero false validations, under *any* fault schedule: the strategy
    /// turns every uncertain gap into a drop (AT, the window rule of
    /// TS) or never caches at all (NC). This is the invariant the fault
    /// injector exists to attack.
    NeverStale,
    /// False validations occur with small probability — signature
    /// collisions (≈ `2^-g` per unmatched pair) plus the documented
    /// one-interval fetch blind spot — and must stay under the given
    /// rate over checked entries.
    BoundedRate(f64),
    /// The checker flags entries *by design*: quasi-copies tolerate
    /// bounded staleness (§7), so strict value comparison is the wrong
    /// oracle and no assertion is made.
    QuasiByDesign,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(item: ItemId, at: f64, value: u64) -> UpdateRecord {
        UpdateRecord {
            item,
            at: SimTime::from_secs(at),
            value,
            previous: 0,
        }
    }

    #[test]
    fn safety_stats_obey_the_counter_laws() {
        sw_sim::counters::assert_laws::<SafetyStats>();
    }

    #[test]
    fn initial_value_before_any_update() {
        let h = ValueHistory::new(3, |i| i * 100);
        assert_eq!(h.value_at(2, SimTime::from_secs(5.0)), 200);
    }

    #[test]
    fn value_at_steps_through_updates() {
        let mut h = ValueHistory::new(1, |_| 0);
        h.record(&rec(0, 10.0, 1));
        h.record(&rec(0, 20.0, 2));
        assert_eq!(h.value_at(0, SimTime::from_secs(9.9)), 0);
        assert_eq!(h.value_at(0, SimTime::from_secs(10.0)), 1);
        assert_eq!(h.value_at(0, SimTime::from_secs(19.9)), 1);
        assert_eq!(h.value_at(0, SimTime::from_secs(20.0)), 2);
        assert_eq!(h.value_at(0, SimTime::from_secs(1e6)), 2);
    }

    #[test]
    fn consistency_check() {
        let mut h = ValueHistory::new(1, |_| 7);
        h.record(&rec(0, 10.0, 9));
        assert!(h.is_consistent(0, 7, SimTime::from_secs(5.0)));
        assert!(h.is_consistent(0, 9, SimTime::from_secs(15.0)));
        assert!(!h.is_consistent(0, 7, SimTime::from_secs(15.0)));
    }

    #[test]
    fn stats_rate() {
        let s = SafetyStats {
            entries_checked: 100,
            violations: 3,
        };
        assert!((s.violation_rate() - 0.03).abs() < 1e-12);
        assert_eq!(SafetyStats::default().violation_rate(), 0.0);
    }

    #[test]
    fn never_stale_rejects_any_violation() {
        let clean = SafetyStats {
            entries_checked: 10,
            violations: 0,
        };
        assert!(clean.verify(SafetyExpectation::NeverStale).is_ok());
        let dirty = SafetyStats {
            entries_checked: 10,
            violations: 1,
        };
        assert!(dirty.verify(SafetyExpectation::NeverStale).is_err());
    }

    #[test]
    fn bounded_rate_compares_against_bound() {
        let s = SafetyStats {
            entries_checked: 1000,
            violations: 5,
        };
        assert!(s.verify(SafetyExpectation::BoundedRate(0.01)).is_ok());
        assert!(s.verify(SafetyExpectation::BoundedRate(0.001)).is_err());
        // Quasi-copies are never asserted on.
        assert!(s.verify(SafetyExpectation::QuasiByDesign).is_ok());
    }
}
