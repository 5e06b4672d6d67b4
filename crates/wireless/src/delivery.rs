//! Report delivery across different network environments (§9).
//!
//! The invalidation-report idea is orthogonal to the underlying network;
//! what changes is how a dozing client *finds* the report:
//!
//! * [`DeliveryMode::TimerSynchronized`] — networks with reservation
//!   MACs (PRMA, MACAW) can guarantee the report goes out exactly at
//!   `T_i`, so the client wakes on a timer just before the broadcast and
//!   listens only for the report duration. A clock-skew bound `ε` forces
//!   the client to wake `ε` early.
//! * [`DeliveryMode::Multicast`] — CSMA/CD-style networks (Ethernet,
//!   CDPD) cannot guarantee timing, so the report is addressed to an
//!   agreed multicast group; the CPU dozes and the NIC wakes it when a
//!   frame for that address arrives. The client pays no busy-listening,
//!   but delivery is late by a contention-dependent jitter.
//!
//! Both modes deliver the same bits; they differ in client listening
//! time and report arrival time, which [`ReportDelivery`] quantifies.

use sw_sim::{RngStream, SimDuration, SimTime};

/// How the MSS gets reports to dozing clients (§9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeliveryMode {
    /// Reservation-MAC network with precise downlink timing. The client
    /// wakes `clock_skew_bound` before `T_i` and listens until the
    /// report finishes.
    TimerSynchronized {
        /// Maximum deviation of the MU clock from the server clock, in
        /// seconds; the MU must wake this early to be safe.
        clock_skew_bound: f64,
    },
    /// Contention network; the report is sent to a multicast address and
    /// the NIC wakes the CPU on arrival. Delivery is delayed by a
    /// uniform jitter in `[0, max_jitter]` seconds (the voice-priority /
    /// contention delay of CDPD or Ethernet).
    Multicast {
        /// Worst-case queueing/contention delay before the report airs.
        max_jitter: f64,
    },
}

/// The outcome of delivering one report to one client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryOutcome {
    /// When the report transmission actually started.
    pub airtime_start: SimTime,
    /// When the client had the full report (start + transmission time).
    pub received_at: SimTime,
    /// How long the client's receiver was actively listening for this
    /// report (energy-relevant; see [`crate::energy`]).
    pub listening: SimDuration,
}

/// Computes delivery timing for a given mode.
#[derive(Debug, Clone, Copy)]
pub struct ReportDelivery {
    mode: DeliveryMode,
}

impl ReportDelivery {
    /// Creates a delivery model for `mode`.
    pub fn new(mode: DeliveryMode) -> Self {
        match mode {
            DeliveryMode::TimerSynchronized { clock_skew_bound } => {
                assert!(
                    clock_skew_bound >= 0.0 && clock_skew_bound.is_finite(),
                    "clock skew bound must be non-negative"
                );
            }
            DeliveryMode::Multicast { max_jitter } => {
                assert!(
                    max_jitter >= 0.0 && max_jitter.is_finite(),
                    "jitter bound must be non-negative"
                );
            }
        }
        ReportDelivery { mode }
    }

    /// The configured mode.
    pub fn mode(&self) -> DeliveryMode {
        self.mode
    }

    /// Delivers a report scheduled at `scheduled` (i.e. `T_i`) whose
    /// transmission takes `tx_time`, drawing any jitter from `rng`.
    pub fn deliver(
        &self,
        scheduled: SimTime,
        tx_time: SimDuration,
        rng: &mut RngStream,
    ) -> DeliveryOutcome {
        match self.mode {
            DeliveryMode::TimerSynchronized { clock_skew_bound } => {
                // Client wakes `ε` early and listens through the report.
                let listening = SimDuration::from_secs(clock_skew_bound) + tx_time;
                DeliveryOutcome {
                    airtime_start: scheduled,
                    received_at: scheduled + tx_time,
                    listening,
                }
            }
            DeliveryMode::Multicast { max_jitter } => {
                let jitter = SimDuration::from_secs(rng.uniform() * max_jitter);
                let start = scheduled + jitter;
                DeliveryOutcome {
                    airtime_start: start,
                    received_at: start + tx_time,
                    // NIC filtering: the CPU is woken only for the report
                    // itself, so listening equals transmission time.
                    listening: tx_time,
                }
            }
        }
    }

    /// Whether a client whose local clock has drifted `drift_secs` past
    /// the server clock misses the report entirely.
    ///
    /// Timer-synchronized delivery wakes the client `ε` (the clock-skew
    /// bound) before `T_i`; the guarantee holds only while the true
    /// skew stays within `ε`. Once accumulated drift exceeds the bound,
    /// the client wakes after the report has started airing and cannot
    /// decode it. Multicast delivery is immune: the NIC — not the
    /// client's clock — wakes the CPU when the report frame arrives.
    pub fn misses_with_drift(&self, drift_secs: f64) -> bool {
        match self.mode {
            DeliveryMode::TimerSynchronized { clock_skew_bound } => {
                drift_secs > clock_skew_bound
            }
            DeliveryMode::Multicast { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{MasterSeed, StreamId};

    fn rng() -> RngStream {
        MasterSeed::TEST.stream(StreamId::Custom { tag: 17 })
    }

    #[test]
    fn timer_mode_is_punctual() {
        let d = ReportDelivery::new(DeliveryMode::TimerSynchronized {
            clock_skew_bound: 0.01,
        });
        let mut r = rng();
        let out = d.deliver(SimTime::from_secs(10.0), SimDuration::from_secs(0.5), &mut r);
        assert_eq!(out.airtime_start, SimTime::from_secs(10.0));
        assert_eq!(out.received_at, SimTime::from_secs(10.5));
        assert!((out.listening.as_secs() - 0.51).abs() < 1e-12);
    }

    #[test]
    fn multicast_jitter_is_bounded() {
        let d = ReportDelivery::new(DeliveryMode::Multicast { max_jitter: 2.0 });
        let mut r = rng();
        for _ in 0..1000 {
            let out = d.deliver(SimTime::from_secs(10.0), SimDuration::from_secs(0.1), &mut r);
            let start = out.airtime_start.as_secs();
            assert!((10.0..12.0).contains(&start), "start {start} out of range");
            assert!((out.received_at.as_secs() - start - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn multicast_listens_only_for_report() {
        let d = ReportDelivery::new(DeliveryMode::Multicast { max_jitter: 5.0 });
        let mut r = rng();
        let out = d.deliver(SimTime::from_secs(0.0), SimDuration::from_secs(0.3), &mut r);
        assert!((out.listening.as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn timer_mode_pays_for_clock_skew() {
        let skewed = ReportDelivery::new(DeliveryMode::TimerSynchronized {
            clock_skew_bound: 1.0,
        });
        let exact = ReportDelivery::new(DeliveryMode::TimerSynchronized {
            clock_skew_bound: 0.0,
        });
        let mut r = rng();
        let tx = SimDuration::from_secs(0.2);
        let a = skewed.deliver(SimTime::ZERO, tx, &mut r);
        let b = exact.deliver(SimTime::ZERO, tx, &mut r);
        assert!(a.listening > b.listening);
    }

    #[test]
    fn drift_beyond_skew_bound_misses_only_in_timer_mode() {
        let timer = ReportDelivery::new(DeliveryMode::TimerSynchronized {
            clock_skew_bound: 0.5,
        });
        assert!(!timer.misses_with_drift(0.0));
        assert!(!timer.misses_with_drift(0.5)); // at the bound: still safe
        assert!(timer.misses_with_drift(0.500001));
        let multicast = ReportDelivery::new(DeliveryMode::Multicast { max_jitter: 3.0 });
        assert!(!multicast.misses_with_drift(1e9)); // NIC wakes the CPU
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_jitter_rejected() {
        let _ = ReportDelivery::new(DeliveryMode::Multicast { max_jitter: -1.0 });
    }
}
