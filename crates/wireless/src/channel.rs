//! Bandwidth accounting for the shared wireless channel.
//!
//! §4's throughput derivation splits every broadcast interval in two: the
//! time to transmit the report (`B_c` bits) and the remainder, used to
//! carry uplink queries and their answers. With bandwidth `W` and
//! latency `L`, the interval carries `L·W` bits total, so
//! `L·W − B_c` bits remain for query traffic, and each cache miss costs
//! `b_q + b_a` bits (Eq. 9). [`BroadcastChannel`] enforces exactly that
//! budget and keeps cumulative [`TrafficTotals`].

use crate::frame::{Frame, FrameKind, FramePayload, WireEncode};

/// Error returned when an interval's bit budget cannot fit a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The invalidation report alone exceeds `L·W`; the strategy is
    /// unusable at these parameters (the paper drops TS from Scenarios 3
    /// and 4 for exactly this reason).
    ReportExceedsInterval {
        /// Bits the report needed.
        needed: u64,
        /// Bits the interval offers (`L·W`).
        capacity: u64,
    },
    /// No room left in this interval for another query/answer exchange;
    /// the query must wait for the next interval (it stays queued).
    IntervalSaturated {
        /// Bits the frame needed.
        needed: u64,
        /// Bits still available.
        remaining: u64,
    },
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::ReportExceedsInterval { needed, capacity } => write!(
                f,
                "invalidation report of {needed} bits exceeds interval capacity {capacity} bits"
            ),
            ChannelError::IntervalSaturated { needed, remaining } => write!(
                f,
                "interval saturated: frame needs {needed} bits, {remaining} remain"
            ),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Frame counts by [`FrameKind`], stored as a dense array (the kind
/// set is tiny and fixed, so there is nothing to hash).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounts([u64; 4]);

impl FrameCounts {
    #[inline]
    fn slot(kind: FrameKind) -> usize {
        match kind {
            FrameKind::Report => 0,
            FrameKind::Query => 1,
            FrameKind::Answer => 2,
            FrameKind::Invalidation => 3,
        }
    }

    /// Frames of the given kind sent so far.
    pub fn get(&self, kind: FrameKind) -> u64 {
        self.0[Self::slot(kind)]
    }

    /// All frames, every kind.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    #[inline]
    fn bump(&mut self, kind: FrameKind) {
        self.0[Self::slot(kind)] += 1;
    }
}

/// Cumulative bit counts per direction and frame kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Downlink report bits (`ΣB_c`).
    pub report_bits: u64,
    /// Uplink query bits.
    pub query_bits: u64,
    /// Downlink answer bits.
    pub answer_bits: u64,
    /// Downlink asynchronous invalidation bits.
    pub invalidation_bits: u64,
    /// Frame counts by kind.
    pub frames: FrameCounts,
}

impl TrafficTotals {
    /// All bits that crossed the channel, both directions.
    pub fn total_bits(&self) -> u64 {
        self.report_bits + self.query_bits + self.answer_bits + self.invalidation_bits
    }

    /// Downlink bits only.
    pub fn downlink_bits(&self) -> u64 {
        self.report_bits + self.answer_bits + self.invalidation_bits
    }

    /// Uplink bits only.
    pub fn uplink_bits(&self) -> u64 {
        self.query_bits
    }

    fn charge(&mut self, kind: FrameKind, bits: u64) {
        match kind {
            FrameKind::Report => self.report_bits += bits,
            FrameKind::Query => self.query_bits += bits,
            FrameKind::Answer => self.answer_bits += bits,
            FrameKind::Invalidation => self.invalidation_bits += bits,
        }
        self.frames.bump(kind);
    }
}

/// The remaining budget of the current broadcast interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalBudget {
    /// Interval capacity `L·W` in bits.
    pub capacity: u64,
    /// Bits already consumed this interval.
    pub used: u64,
}

impl IntervalBudget {
    /// Bits still available this interval.
    pub fn remaining(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// Fraction of the interval already used, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }
}

/// The cell's shared channel: fixed bandwidth `W` bits/s, operated in
/// broadcast intervals of `L` seconds.
///
/// Usage per interval: call [`begin_interval`](Self::begin_interval),
/// send the report with [`send_report`](Self::send_report), then any
/// number of [`send_query_exchange`](Self::send_query_exchange) until the
/// budget runs out.
#[derive(Debug, Clone)]
pub struct BroadcastChannel {
    bandwidth_bps: u64,
    interval_secs: f64,
    encode: WireEncode,
    budget: IntervalBudget,
    totals: TrafficTotals,
    intervals: u64,
}

impl BroadcastChannel {
    /// Creates the channel with bandwidth `W` (bits/second) and interval
    /// length `L` (seconds), using `encode` to size frames.
    pub fn new(bandwidth_bps: u64, interval_secs: f64, encode: WireEncode) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        assert!(
            interval_secs.is_finite() && interval_secs > 0.0,
            "interval length must be positive"
        );
        let capacity = (bandwidth_bps as f64 * interval_secs) as u64;
        BroadcastChannel {
            bandwidth_bps,
            interval_secs,
            encode,
            budget: IntervalBudget { capacity, used: 0 },
            totals: TrafficTotals::default(),
            intervals: 0,
        }
    }

    /// The frame encoder in force on this channel.
    pub fn encoder(&self) -> &WireEncode {
        &self.encode
    }

    /// Bandwidth `W` in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Number of completed `begin_interval` calls.
    pub fn intervals_elapsed(&self) -> u64 {
        self.intervals
    }

    /// Starts a new broadcast interval, resetting the per-interval
    /// budget.
    pub fn begin_interval(&mut self) {
        self.budget.used = 0;
        self.intervals += 1;
    }

    /// Remaining budget of the current interval.
    pub fn budget(&self) -> IntervalBudget {
        self.budget
    }

    /// Cumulative traffic since construction.
    pub fn totals(&self) -> &TrafficTotals {
        &self.totals
    }

    /// Interval length `L` in seconds.
    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Zeroes the cumulative traffic and interval counters (warm-up
    /// discard). The current interval budget is untouched.
    pub fn reset_totals(&mut self) {
        self.totals = TrafficTotals::default();
        self.intervals = 0;
    }

    /// Seconds needed to transmit `bits` at bandwidth `W`.
    pub fn transmission_secs(&self, bits: u64) -> f64 {
        bits as f64 / self.bandwidth_bps as f64
    }

    /// Broadcasts the invalidation report, charging `B_c` bits against
    /// the interval.
    ///
    /// Fails with [`ChannelError::ReportExceedsInterval`] when the report
    /// alone does not fit in `L·W` — the condition under which the paper
    /// declares TS "unusable" in Scenarios 3 and 4.
    pub fn send_report(&mut self, report: &Frame) -> Result<(), ChannelError> {
        debug_assert!(matches!(
            WireEncode::kind(&report.payload),
            FrameKind::Report
        ));
        if report.bits > self.budget.capacity {
            return Err(ChannelError::ReportExceedsInterval {
                needed: report.bits,
                capacity: self.budget.capacity,
            });
        }
        self.consume(FrameKind::Report, report.bits)
    }

    /// Broadcasts the invalidation report directly from a borrowed
    /// payload — the zero-copy path: the payload is sized in place and
    /// never wrapped in a [`Frame`], so nothing is cloned. Returns the
    /// charged bit count on success.
    pub fn send_report_payload(&mut self, payload: &FramePayload) -> Result<u64, ChannelError> {
        debug_assert!(matches!(WireEncode::kind(payload), FrameKind::Report));
        let bits = self.encode.payload_bits(payload);
        if bits > self.budget.capacity {
            return Err(ChannelError::ReportExceedsInterval {
                needed: bits,
                capacity: self.budget.capacity,
            });
        }
        self.consume(FrameKind::Report, bits)?;
        Ok(bits)
    }

    /// Sends one uplink query and its downlink answer, charging
    /// `b_q + b_a` bits. Fails if the interval has no room, in which case
    /// the caller re-queues the query for the next interval.
    pub fn send_query_exchange(&mut self, client: u64, item: u64) -> Result<(), ChannelError> {
        let q = self
            .encode
            .frame(FramePayload::UplinkQuery { client, item });
        let a = self.encode.frame(FramePayload::QueryAnswer {
            item,
            value: 0,
            ts_micros: 0,
        });
        let needed = q.bits + a.bits;
        if needed > self.budget.remaining() {
            return Err(ChannelError::IntervalSaturated {
                needed,
                remaining: self.budget.remaining(),
            });
        }
        self.consume(FrameKind::Query, q.bits)?;
        self.consume(FrameKind::Answer, a.bits)
    }

    /// Charges `bits` of dead air against the interval budget without
    /// recording any traffic: the channel is occupied during a retry
    /// backoff, but nothing useful moves, so [`TrafficTotals`] must not
    /// count it (the totals feed the paper's throughput figures, which
    /// measure *delivered* bits). Fails when the interval cannot absorb
    /// the wait, in which case the retrying exchange defers to the next
    /// interval.
    pub fn charge_backoff(&mut self, bits: u64) -> Result<(), ChannelError> {
        if bits > self.budget.remaining() {
            return Err(ChannelError::IntervalSaturated {
                needed: bits,
                remaining: self.budget.remaining(),
            });
        }
        self.budget.used += bits;
        Ok(())
    }

    /// Sends an asynchronous per-item invalidation message (baselines).
    pub fn send_invalidation(&mut self, item: u64) -> Result<(), ChannelError> {
        let f = self.encode.frame(FramePayload::Invalidation { item });
        self.consume(FrameKind::Invalidation, f.bits)
    }

    /// How many `b_q + b_a` query exchanges still fit in this interval.
    pub fn query_exchanges_remaining(&self) -> u64 {
        let per = (self.encode.query_bits + self.encode.answer_bits) as u64;
        self.budget.remaining() / per
    }

    /// The analytical throughput bound of Eq. 9 for the current interval:
    /// `(L·W − B_c) / (b_q + b_a)` query exchanges, given `report_bits`.
    pub fn eq9_throughput_bound(&self, report_bits: u64, hit_ratio: f64) -> f64 {
        let lw = self.budget.capacity as f64;
        let bc = report_bits as f64;
        let per = (self.encode.query_bits + self.encode.answer_bits) as f64;
        if bc >= lw {
            return 0.0;
        }
        let miss = (1.0 - hit_ratio).max(f64::EPSILON);
        (lw - bc) / (per * miss)
    }

    fn consume(&mut self, kind: FrameKind, bits: u64) -> Result<(), ChannelError> {
        if bits > self.budget.remaining() {
            return Err(ChannelError::IntervalSaturated {
                needed: bits,
                remaining: self.budget.remaining(),
            });
        }
        self.budget.used += bits;
        self.totals.charge(kind, bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> BroadcastChannel {
        // Scenario 1: W = 10_000 b/s, L = 10 s, n = 1000, b_T = 512.
        BroadcastChannel::new(10_000, 10.0, WireEncode::new(1000, 512, 512, 512))
    }

    #[test]
    fn capacity_is_lw() {
        let c = channel();
        assert_eq!(c.budget().capacity, 100_000);
    }

    #[test]
    fn report_charges_budget() {
        let mut c = channel();
        c.begin_interval();
        let enc = *c.encoder();
        let report = enc.frame(FramePayload::AmnesicReport {
            report_ts_micros: 0,
            ids: vec![1, 2, 3, 4],
        });
        c.send_report(&report).unwrap();
        assert_eq!(c.budget().used, 40);
        assert_eq!(c.totals().report_bits, 40);
    }

    #[test]
    fn oversized_report_is_rejected_like_scenario3_ts() {
        let mut c = channel();
        c.begin_interval();
        // TS in Scenario 3: ~632 changed items × 522 bits ≈ 330k bits > 100k.
        let enc = *c.encoder();
        let entries: Vec<(u64, u64)> = (0..700).map(|i| (i, i)).collect();
        let report = enc.frame(FramePayload::TimestampReport {
            report_ts_micros: 0,
            entries,
        });
        match c.send_report(&report) {
            Err(ChannelError::ReportExceedsInterval { needed, capacity }) => {
                assert!(needed > capacity);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Nothing was charged.
        assert_eq!(c.totals().report_bits, 0);
    }

    #[test]
    fn query_exchange_costs_bq_plus_ba() {
        let mut c = channel();
        c.begin_interval();
        c.send_query_exchange(1, 7).unwrap();
        assert_eq!(c.budget().used, 1024);
        assert_eq!(c.totals().query_bits, 512);
        assert_eq!(c.totals().answer_bits, 512);
    }

    #[test]
    fn interval_saturates_at_capacity() {
        let mut c = channel();
        c.begin_interval();
        // 100_000 / 1024 = 97 full exchanges fit.
        let mut sent = 0;
        loop {
            match c.send_query_exchange(0, 0) {
                Ok(()) => sent += 1,
                Err(ChannelError::IntervalSaturated { .. }) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(sent, 97);
        assert_eq!(c.query_exchanges_remaining(), 0);
    }

    #[test]
    fn backoff_consumes_budget_but_not_traffic() {
        let mut c = channel();
        c.begin_interval();
        c.charge_backoff(2048).unwrap();
        assert_eq!(c.budget().used, 2048);
        assert_eq!(c.totals().total_bits(), 0);
        assert_eq!(c.totals().frames.total(), 0);
        // The dead air crowds out real exchanges: 97 fit in an idle
        // interval, two exchanges' worth of backoff leaves room for 95.
        assert_eq!(c.query_exchanges_remaining(), 95);
        // An over-budget backoff is rejected and charges nothing.
        let used = c.budget().used;
        assert!(matches!(
            c.charge_backoff(1_000_000),
            Err(ChannelError::IntervalSaturated { .. })
        ));
        assert_eq!(c.budget().used, used);
    }

    #[test]
    fn begin_interval_resets_budget_not_totals() {
        let mut c = channel();
        c.begin_interval();
        c.send_query_exchange(0, 0).unwrap();
        c.begin_interval();
        assert_eq!(c.budget().used, 0);
        assert_eq!(c.totals().query_bits, 512);
        assert_eq!(c.intervals_elapsed(), 2);
    }

    #[test]
    fn eq9_bound_matches_no_cache_throughput() {
        // Eq. 14: T_nc = LW / (b_q + b_a) with h = 0, B_c = 0.
        let c = channel();
        let t = c.eq9_throughput_bound(0, 0.0);
        assert!((t - 100_000.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn eq9_bound_scales_with_hit_ratio() {
        let c = channel();
        let t_half = c.eq9_throughput_bound(0, 0.5);
        let t_zero = c.eq9_throughput_bound(0, 0.0);
        assert!((t_half / t_zero - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eq9_bound_zero_when_report_fills_interval() {
        let c = channel();
        assert_eq!(c.eq9_throughput_bound(200_000, 0.5), 0.0);
    }

    #[test]
    fn transmission_time_is_bits_over_w() {
        let c = channel();
        assert!((c.transmission_secs(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidations_accounted_separately() {
        let mut c = channel();
        c.begin_interval();
        c.send_invalidation(3).unwrap();
        c.send_invalidation(4).unwrap();
        assert_eq!(c.totals().invalidation_bits, 20);
        assert_eq!(c.totals().downlink_bits(), 20);
        assert_eq!(c.totals().uplink_bits(), 0);
    }

    #[test]
    fn utilization_tracks_budget() {
        let mut c = channel();
        c.begin_interval();
        assert_eq!(c.budget().utilization(), 0.0);
        c.send_query_exchange(0, 0).unwrap();
        assert!((c.budget().utilization() - 1024.0 / 100_000.0).abs() < 1e-12);
    }
}
