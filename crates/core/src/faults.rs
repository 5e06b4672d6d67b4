//! Deterministic fault injection for the broadcast cell.
//!
//! The paper's safety argument (§2, §5) is about what a client must do
//! when it has *missed* reports: AT drops its whole cache after one
//! missed report, TS recovers iff the gap is shorter than the window
//! `w = kL`, and SIG tolerates arbitrary gaps modulo collision
//! probability. This module supplies the adversary: a seed-streamed
//! [`FaultPlan`] that loses reports (independently or in
//! Gilbert–Elliott bursts), corrupts frames (detected by checksum and
//! treated as missed — never half-applied), fails uplink exchanges
//! (bounded retry with exponential backoff charged as dead air), and
//! drifts a timer-synchronized client's clock until it wakes too late.
//!
//! Every draw comes from `StreamId::Faults { index }` so a fault
//! schedule is a pure function of `(MasterSeed, FaultPlan, client)` —
//! byte-identical at any thread count, and independent of the query,
//! sleep, and update streams.
//!
//! Like `sw-observe`, the runtime layer follows the zero-cost
//! discipline: without `sleepers`' `faults` cargo feature,
//! [`FaultLayer`] is a zero-sized type, [`FaultLayer::is_active`] is
//! compile-time `false`, and every injection call compiles away. The *plan* types are always
//! compiled so configs mentioning faults still type-check.

use sw_sim::counters;
use sw_sim::rng::{MasterSeed, RngStream, StreamId};
use sw_wireless::frame::{checksum64, flip_bit};

/// Per-client report-loss process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Each awake listening attempt independently loses the report with
    /// probability `p`.
    Bernoulli {
        /// Loss probability per report, in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst channel. Each listening attempt
    /// first moves the per-client state (good ↔ burst), then loses the
    /// report with the state's loss probability. Models fading: losses
    /// cluster, which is exactly the regime that separates TS's window
    /// recovery from AT's drop-everything rule.
    GilbertElliott {
        /// P(good → burst) per listening attempt.
        p_enter_burst: f64,
        /// P(burst → good) per listening attempt.
        p_exit_burst: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the burst state.
        loss_burst: f64,
    },
}

impl LossModel {
    /// Independent per-report loss with probability `p`.
    pub fn bernoulli(p: f64) -> Self {
        LossModel::Bernoulli { p }
    }

    /// A bursty channel that is near-perfect in the good state and
    /// lossy in the burst state.
    pub fn burst(p_enter_burst: f64, p_exit_burst: f64, loss_burst: f64) -> Self {
        LossModel::GilbertElliott {
            p_enter_burst,
            p_exit_burst,
            loss_good: 0.0,
            loss_burst,
        }
    }

    fn validate(&self) -> Result<(), String> {
        let check = |name: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("loss model: {name} = {p} outside [0, 1]"))
            }
        };
        match *self {
            LossModel::Bernoulli { p } => check("p", p),
            LossModel::GilbertElliott {
                p_enter_burst,
                p_exit_burst,
                loss_good,
                loss_burst,
            } => {
                check("p_enter_burst", p_enter_burst)?;
                check("p_exit_burst", p_exit_burst)?;
                check("loss_good", loss_good)?;
                check("loss_burst", loss_burst)
            }
        }
    }
}

/// Frame corruption: a report reaches the client but with flipped bits.
///
/// The wire layer detects this via the frame checksum and the client
/// treats the report as missed — a corrupted invalidation list must
/// never be half-applied, or the safety invariant dies silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corruption {
    /// Probability that a received report is corrupted, in `[0, 1]`.
    pub p: f64,
}

/// Uplink exchange failures with bounded retry.
///
/// Each transmitted attempt can fail with `p_fail`; the client retries
/// up to `max_attempts` total attempts, waiting an exponentially
/// growing backoff (`backoff_base_bits << (attempt - 1)` bits of dead
/// air) that is charged against the interval's bit budget but not
/// counted as traffic — the channel is occupied, nothing useful moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkFaults {
    /// Probability a transmitted query/answer exchange fails, in `[0, 1)`.
    pub p_fail: f64,
    /// Total attempts before the exchange is deferred to a later
    /// interval (≥ 1).
    pub max_attempts: u32,
    /// Dead-air charge before retry `n` is `backoff_base_bits << (n-1)`.
    pub backoff_base_bits: u64,
}

impl UplinkFaults {
    fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.p_fail) {
            return Err(format!("uplink p_fail = {} outside [0, 1)", self.p_fail));
        }
        if self.max_attempts == 0 {
            return Err("uplink max_attempts must be at least 1".into());
        }
        Ok(())
    }
}

/// Clock drift for timer-synchronized clients.
///
/// A client's local clock drifts by `rate_secs_per_interval` each
/// interval (awake or asleep — sleepers drift the most) plus a uniform
/// jitter draw in `[0, jitter_secs)` per listening attempt. When the
/// accumulated drift exceeds the delivery mode's clock-skew guard band,
/// a `TimerSynchronized` client wakes after the report has already
/// aired and misses it entirely; hearing a report (whose timestamp
/// resynchronizes the clock) resets the drift to zero. Multicast
/// delivery is immune — the network wakes the client, not its timer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDrift {
    /// Seconds of drift accumulated per interval since the last resync.
    pub rate_secs_per_interval: f64,
    /// Additional uniform jitter in `[0, jitter_secs)` per listening
    /// attempt.
    pub jitter_secs: f64,
}

impl ClockDrift {
    fn validate(&self) -> Result<(), String> {
        if !(self.rate_secs_per_interval.is_finite() && self.rate_secs_per_interval >= 0.0) {
            return Err(format!(
                "drift rate_secs_per_interval = {} must be finite and non-negative",
                self.rate_secs_per_interval
            ));
        }
        if !(self.jitter_secs.is_finite() && self.jitter_secs >= 0.0) {
            return Err(format!(
                "drift jitter_secs = {} must be finite and non-negative",
                self.jitter_secs
            ));
        }
        Ok(())
    }
}

/// A deterministic broadcast blackout: every awake client misses every
/// report in the closed interval window `[from, until]`, with no
/// randomness drawn. This is the client-side twin of a server failover
/// gap (`sw_live::ha`, whose server-side crash schedules live beside
/// it): a crash that suppresses broadcasting for some
/// intervals looks to each client exactly like this schedule, which is
/// what lets a Lockstep conformance run pin a post-failover decision
/// log against a `CellSimulation` fed the equivalent plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// First blacked-out interval (inclusive).
    pub from: u64,
    /// Last blacked-out interval (inclusive).
    pub until: u64,
}

/// A complete, deterministic fault schedule specification.
///
/// All fault families are optional; an empty plan draws no
/// randomness at all, so a simulation configured with
/// `FaultPlan::none()` is bit-identical to one with no plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-client report loss on the broadcast downlink.
    pub loss: Option<LossModel>,
    /// Frame corruption (checksum-detected, treated as missed).
    pub corruption: Option<Corruption>,
    /// Uplink exchange failures with retry + backoff.
    pub uplink: Option<UplinkFaults>,
    /// Clock drift for timer-synchronized delivery.
    pub drift: Option<ClockDrift>,
    /// Scheduled all-clients blackout window (server failover twin).
    pub blackout: Option<Blackout>,
}

impl FaultPlan {
    /// An empty plan: nothing is injected, no randomness is drawn.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the report-loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Sets the frame-corruption probability.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corruption = Some(Corruption { p });
        self
    }

    /// Sets the uplink failure/retry model.
    pub fn with_uplink(mut self, uplink: UplinkFaults) -> Self {
        self.uplink = Some(uplink);
        self
    }

    /// Sets the clock-drift model.
    pub fn with_drift(mut self, drift: ClockDrift) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Sets a blackout window: every report in `[from, until]` is
    /// missed by every awake client, deterministically.
    pub fn with_blackout(mut self, from: u64, until: u64) -> Self {
        self.blackout = Some(Blackout { from, until });
        self
    }

    /// True when no fault family is configured.
    pub fn is_empty(&self) -> bool {
        self.loss.is_none()
            && self.corruption.is_none()
            && self.uplink.is_none()
            && self.drift.is_none()
            && self.blackout.is_none()
    }

    /// Checks every configured model's parameters.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(loss) = &self.loss {
            loss.validate()?;
        }
        if let Some(c) = &self.corruption {
            if !(0.0..=1.0).contains(&c.p) {
                return Err(format!("corruption p = {} outside [0, 1]", c.p));
            }
        }
        if let Some(u) = &self.uplink {
            u.validate()?;
        }
        if let Some(d) = &self.drift {
            d.validate()?;
        }
        if let Some(b) = &self.blackout {
            if b.from > b.until {
                return Err(format!(
                    "blackout window [{}, {}] is inverted",
                    b.from, b.until
                ));
            }
        }
        Ok(())
    }
}

/// What happened to one report delivery attempt at one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFate {
    /// The report arrived intact and on time.
    Heard,
    /// The channel dropped the frame.
    Lost,
    /// The frame arrived but failed its checksum; treated as missed.
    Corrupted,
    /// Clock drift made the client wake after the report had aired.
    DriftMissed,
}

impl ReportFate {
    /// True for every fate except [`ReportFate::Heard`].
    pub fn is_missed(self) -> bool {
        !matches!(self, ReportFate::Heard)
    }
}

counters! {
    /// Aggregate fault counters for one run.
    ///
    /// Always compiled (it appears in `SimulationReport`); all zeros when
    /// fault injection is compiled out or no plan is set.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct FaultTotals {
        /// Reports dropped by the loss model.
        pub reports_lost,
        /// Reports corrupted in flight (and detected by checksum).
        pub frames_corrupted,
        /// Reports missed because drift pushed the wake-up past airtime.
        pub drift_missed_reports,
        /// Failed uplink exchange attempts that were retried or abandoned.
        pub uplink_retries,
        /// Backoff waits charged against the interval budget.
        pub backoff_intervals,
        /// Corrupted frames the checksum failed to detect (must stay 0 for
        /// single-bit-flip corruption; a 64-bit FNV-1a catches all of them).
        pub undetected_corruptions,
    }
}

impl FaultTotals {
    /// Reports missed for any reason (loss + corruption + drift).
    pub fn reports_missed_total(&self) -> u64 {
        self.reports_lost + self.frames_corrupted + self.drift_missed_reports
    }
}

/// Whether fault injection is compiled into this build.
pub const fn compiled_in() -> bool {
    cfg!(feature = "faults")
}

#[derive(Debug)]
struct FaultInner {
    plan: FaultPlan,
    /// One independent stream per client (`StreamId::Faults { index }`).
    streams: Vec<RngStream>,
    /// Gilbert–Elliott state per client: true = burst.
    in_burst: Vec<bool>,
    /// Accumulated clock drift per client, seconds since last resync.
    drift_secs: Vec<f64>,
    /// Interval index at which each client last accounted drift.
    last_interval: Vec<u64>,
    totals: FaultTotals,
}

/// Where a [`FaultLayer`] keeps its state. Only this type is gated on
/// the cargo feature, so every method below is written once: with
/// `faults` on it is an `Option<Box<_>>` (one null check per call);
/// with it off it is a zero-sized stand-in that is never filled and
/// whose `as_deref`/`as_deref_mut` are a constant `None`, which folds
/// every method body away.
#[cfg(feature = "faults")]
mod slot {
    pub(crate) type Slot = Option<Box<super::FaultInner>>;

    pub(crate) fn fill(make: impl FnOnce() -> Slot) -> Slot {
        make()
    }
}

#[cfg(not(feature = "faults"))]
mod slot {
    use super::FaultInner;

    #[derive(Debug, Default)]
    pub(crate) struct Slot;

    impl Slot {
        #[inline(always)]
        pub(crate) fn as_deref(&self) -> Option<&FaultInner> {
            None
        }

        #[inline(always)]
        pub(crate) fn as_deref_mut(&mut self) -> Option<&mut FaultInner> {
            None
        }
    }

    #[inline(always)]
    pub(crate) fn fill(_make: impl FnOnce() -> Option<Box<FaultInner>>) -> Slot {
        Slot
    }
}

/// The runtime fault injector owned by the simulation.
///
/// Zero-sized and inert without the `faults` cargo feature; with it,
/// holds per-client streams and channel state behind one pointer so a
/// run with `plan: None` costs a single null check per interval.
#[derive(Debug, Default)]
pub struct FaultLayer {
    inner: slot::Slot,
}

impl FaultLayer {
    /// Builds the injector for `n_clients` clients. With the feature
    /// off, or `plan` absent/empty, the layer is inert.
    pub fn new(plan: Option<&FaultPlan>, seed: MasterSeed, n_clients: usize) -> Self {
        let inner = slot::fill(|| {
            plan.filter(|p| !p.is_empty()).map(|plan| {
                Box::new(FaultInner {
                    plan: *plan,
                    streams: (0..n_clients)
                        .map(|i| seed.stream(StreamId::Faults { index: i as u64 }))
                        .collect(),
                    in_burst: vec![false; n_clients],
                    drift_secs: vec![0.0; n_clients],
                    last_interval: vec![0; n_clients],
                    totals: FaultTotals::default(),
                })
            })
        });
        FaultLayer { inner }
    }

    /// Appends fault state for one newly attached client slot — the
    /// mesh grows a cell's population on arrival, and slots are never
    /// reused. Draws come from `StreamId::Faults { index: slot }`, so
    /// the arrival's fault schedule is a pure function of the cell
    /// seed and the slot index, like everything else. `interval` seeds
    /// the drift accounting: the unit resynchronized in transit, so
    /// drift accrues from its arrival interval, not from zero.
    pub fn push_client(&mut self, seed: MasterSeed, slot: usize, interval: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner
                .streams
                .push(seed.stream(StreamId::Faults { index: slot as u64 }));
            inner.in_burst.push(false);
            inner.drift_secs.push(0.0);
            inner.last_interval.push(interval);
        }
    }

    /// True when faults are compiled in *and* a non-empty plan is set.
    /// Compile-time `false` without the feature, so guarded call sites
    /// vanish entirely.
    #[inline(always)]
    pub fn is_active(&self) -> bool {
        self.inner.as_deref().is_some()
    }

    /// The configured uplink failure model, if any.
    #[inline]
    pub fn uplink_model(&self) -> Option<UplinkFaults> {
        self.inner.as_deref().and_then(|i| i.plan.uplink)
    }

    /// Decides the fate of the report aired at `interval` for awake
    /// client `client`. `misses_with_drift` is the delivery mode's
    /// verdict on whether the given accumulated drift (seconds) makes
    /// the client wake too late (timer-synchronized: drift exceeds the
    /// clock-skew guard band; multicast: never).
    ///
    /// Draw order per call is fixed — blackout (no draw), drift
    /// jitter, then loss, then corruption — so schedules are
    /// reproducible. Hearing a report resets the client's drift (the
    /// report timestamp resyncs the clock); so does a drift-miss (the
    /// client re-synchronizes out of band rather than drifting
    /// forever); plain loss/corruption do not, because the client has
    /// nothing to resync against. A blackout miss consumes no
    /// randomness at all, so a blackout-only plan leaves every stream
    /// untouched — the property that makes it the exact client-side
    /// twin of a server that simply was not broadcasting.
    pub fn report_fate(
        &mut self,
        client: usize,
        interval: u64,
        misses_with_drift: impl Fn(f64) -> bool,
    ) -> ReportFate {
        let Some(inner) = self.inner.as_deref_mut() else {
            return ReportFate::Heard;
        };
        if let Some(b) = inner.plan.blackout {
            if (b.from..=b.until).contains(&interval) {
                inner.totals.reports_lost += 1;
                return ReportFate::Lost;
            }
        }
        let rng = &mut inner.streams[client];
        if let Some(drift) = inner.plan.drift {
            let elapsed = interval.saturating_sub(inner.last_interval[client]);
            inner.last_interval[client] = interval;
            let mut d = inner.drift_secs[client] + elapsed as f64 * drift.rate_secs_per_interval;
            if drift.jitter_secs > 0.0 {
                d += drift.jitter_secs * rng.uniform();
            }
            inner.drift_secs[client] = d;
            if misses_with_drift(d) {
                inner.totals.drift_missed_reports += 1;
                inner.drift_secs[client] = 0.0;
                return ReportFate::DriftMissed;
            }
        }
        if let Some(loss) = inner.plan.loss {
            let lost = match loss {
                LossModel::Bernoulli { p } => rng.bernoulli(p),
                LossModel::GilbertElliott {
                    p_enter_burst,
                    p_exit_burst,
                    loss_good,
                    loss_burst,
                } => {
                    let burst = &mut inner.in_burst[client];
                    *burst = if *burst {
                        !rng.bernoulli(p_exit_burst)
                    } else {
                        rng.bernoulli(p_enter_burst)
                    };
                    rng.bernoulli(if *burst { loss_burst } else { loss_good })
                }
            };
            if lost {
                inner.totals.reports_lost += 1;
                return ReportFate::Lost;
            }
        }
        if let Some(c) = inner.plan.corruption {
            if rng.bernoulli(c.p) {
                inner.totals.frames_corrupted += 1;
                return ReportFate::Corrupted;
            }
        }
        if inner.plan.drift.is_some() {
            inner.drift_secs[client] = 0.0;
        }
        ReportFate::Heard
    }

    /// Whether the next transmitted uplink attempt by `client` fails.
    /// Draws only when an uplink model with positive `p_fail` is set.
    #[inline]
    pub fn uplink_attempt_fails(&mut self, client: usize) -> bool {
        match self.inner.as_deref_mut() {
            Some(inner) => match inner.plan.uplink {
                Some(u) if u.p_fail > 0.0 => inner.streams[client].bernoulli(u.p_fail),
                _ => false,
            },
            None => false,
        }
    }

    /// Demonstrates corruption detection on real bytes: flips the bit
    /// of `frame` this layer draws for `client` and requires the
    /// checksum to notice. An undetected flip would mean a half-applied
    /// report, so it is counted in
    /// [`FaultTotals::undetected_corruptions`].
    pub fn demonstrate_corruption(&mut self, client: usize, frame: &[u8]) {
        let mut damaged = frame.to_vec();
        let bit = self.corrupt_bit_index(client, damaged.len() as u64 * 8);
        flip_bit(&mut damaged, bit);
        if checksum64(&damaged) == checksum64(frame) {
            self.note_undetected_corruption();
        }
    }

    /// Picks which bit of a `bit_len`-bit serialized frame to flip for
    /// a corrupted delivery.
    fn corrupt_bit_index(&mut self, client: usize, bit_len: u64) -> u64 {
        match self.inner.as_deref_mut() {
            Some(inner) if bit_len > 0 => inner.streams[client].uniform_index(bit_len),
            _ => 0,
        }
    }

    /// Records a failed uplink attempt that will be retried or abandoned.
    #[inline]
    pub(crate) fn note_uplink_retry(&mut self) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.totals.uplink_retries += 1;
        }
    }

    /// Records one backoff wait charged against the interval budget.
    #[inline]
    pub(crate) fn note_backoff_interval(&mut self) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.totals.backoff_intervals += 1;
        }
    }

    /// Records a corrupted frame the checksum failed to catch.
    #[inline]
    fn note_undetected_corruption(&mut self) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.totals.undetected_corruptions += 1;
        }
    }

    /// Aggregate counters so far (all zeros when inert).
    pub fn totals(&self) -> FaultTotals {
        self.inner.as_deref().map(|i| i.totals).unwrap_or_default()
    }

    /// Zeroes the counters without touching channel/drift state (used
    /// when a warm-up window ends; the fault processes keep evolving).
    pub fn reset_totals(&mut self) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.totals = FaultTotals::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_totals_obey_the_counter_laws() {
        sw_sim::counters::assert_laws::<FaultTotals>();
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        plan.validate().unwrap();
        let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 4);
        assert!(!layer.is_active());
        for i in 0..100 {
            assert_eq!(layer.report_fate(i % 4, i as u64, |_| false), ReportFate::Heard);
            assert!(!layer.uplink_attempt_fails(i % 4));
        }
        assert_eq!(layer.totals(), FaultTotals::default());
    }

    #[test]
    fn plan_validation_rejects_bad_parameters() {
        assert!(FaultPlan::none()
            .with_loss(LossModel::bernoulli(1.5))
            .validate()
            .is_err());
        assert!(FaultPlan::none().with_corruption(-0.1).validate().is_err());
        assert!(FaultPlan::none()
            .with_uplink(UplinkFaults {
                p_fail: 0.5,
                max_attempts: 0,
                backoff_base_bits: 64,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_drift(ClockDrift {
                rate_secs_per_interval: -1.0,
                jitter_secs: 0.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_loss(LossModel::burst(0.05, 0.3, 0.9))
            .with_corruption(0.01)
            .validate()
            .is_ok());
        assert!(FaultPlan::none().with_blackout(9, 3).validate().is_err());
        assert!(FaultPlan::none().with_blackout(3, 9).validate().is_ok());
        assert!(!FaultPlan::none().with_blackout(3, 9).is_empty());
    }

    #[cfg(not(feature = "faults"))]
    #[test]
    fn layer_is_zero_sized_when_compiled_out() {
        assert_eq!(std::mem::size_of::<FaultLayer>(), 0);
        assert!(!compiled_in());
        let mut layer = FaultLayer::new(
            Some(&FaultPlan::none().with_loss(LossModel::bernoulli(1.0))),
            MasterSeed::TEST,
            8,
        );
        // Even a certain-loss plan injects nothing when compiled out.
        assert!(!layer.is_active());
        assert_eq!(layer.report_fate(0, 1, |_| true), ReportFate::Heard);
    }

    #[cfg(feature = "faults")]
    mod active {
        use super::*;

        #[test]
        fn schedules_are_deterministic() {
            let plan = FaultPlan::none()
                .with_loss(LossModel::burst(0.1, 0.4, 0.8))
                .with_corruption(0.05)
                .with_drift(ClockDrift {
                    rate_secs_per_interval: 0.01,
                    jitter_secs: 0.002,
                });
            let run = |seed: MasterSeed| {
                let mut layer = FaultLayer::new(Some(&plan), seed, 3);
                (0..600)
                    .map(|i| layer.report_fate(i % 3, (i / 3) as u64, |d| d > 0.2))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(MasterSeed(99)), run(MasterSeed(99)));
            assert_ne!(run(MasterSeed(99)), run(MasterSeed(100)));
        }

        #[test]
        fn bernoulli_loss_rate_matches_p() {
            let plan = FaultPlan::none().with_loss(LossModel::bernoulli(0.2));
            let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 1);
            let n = 50_000;
            let lost = (0..n)
                .filter(|&i| layer.report_fate(0, i, |_| false).is_missed())
                .count();
            let rate = lost as f64 / n as f64;
            assert!((rate - 0.2).abs() < 0.01, "loss rate {rate} far from 0.2");
            assert_eq!(layer.totals().reports_lost, lost as u64);
        }

        #[test]
        fn burst_losses_cluster() {
            // With rare burst entry, quick exit, and lossless good state,
            // losses must come in runs: P(loss | previous loss) should be
            // far above the marginal loss rate.
            let plan = FaultPlan::none().with_loss(LossModel::burst(0.02, 0.3, 0.95));
            let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 1);
            let fates: Vec<bool> = (0..100_000)
                .map(|i| layer.report_fate(0, i, |_| false).is_missed())
                .collect();
            let marginal = fates.iter().filter(|&&l| l).count() as f64 / fates.len() as f64;
            let pairs = fates.windows(2).filter(|w| w[0]).count();
            let after_loss = fates.windows(2).filter(|w| w[0] && w[1]).count();
            let conditional = after_loss as f64 / pairs as f64;
            assert!(
                conditional > 2.0 * marginal,
                "losses did not cluster: P(loss|loss) = {conditional}, marginal = {marginal}"
            );
        }

        #[test]
        fn drift_accumulates_and_resets_on_hear_and_miss() {
            let plan = FaultPlan::none().with_drift(ClockDrift {
                rate_secs_per_interval: 0.1,
                jitter_secs: 0.0,
            });
            let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 1);
            // Threshold 0.35: intervals 1..3 accumulate 0.1 each (heard
            // resets), so every fate is Heard when polled each interval.
            for i in 1..=10 {
                assert_eq!(layer.report_fate(0, i, |d| d > 0.35), ReportFate::Heard);
            }
            // A long sleep (10 intervals) accumulates 1.0 > 0.35: missed.
            assert_eq!(
                layer.report_fate(0, 20, |d| d > 0.35),
                ReportFate::DriftMissed
            );
            assert_eq!(layer.totals().drift_missed_reports, 1);
            // The miss resynchronized the clock: next interval is fine.
            assert_eq!(layer.report_fate(0, 21, |d| d > 0.35), ReportFate::Heard);
        }

        #[test]
        fn clients_draw_from_independent_streams() {
            let plan = FaultPlan::none().with_loss(LossModel::bernoulli(0.5));
            let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 2);
            let a: Vec<_> = (0..64).map(|i| layer.report_fate(0, i, |_| false)).collect();
            let mut layer2 = FaultLayer::new(Some(&plan), MasterSeed::TEST, 2);
            let b: Vec<_> = (0..64).map(|i| layer2.report_fate(1, i, |_| false)).collect();
            assert_ne!(a, b, "clients 0 and 1 drew identical fault schedules");
        }

        #[test]
        fn blackout_window_loses_every_report_without_drawing() {
            let plan = FaultPlan::none().with_blackout(10, 19);
            let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 2);
            assert!(layer.is_active());
            for i in 0..30 {
                let fate = layer.report_fate((i % 2) as usize, i, |_| false);
                if (10..=19).contains(&i) {
                    assert_eq!(fate, ReportFate::Lost, "interval {i}");
                } else {
                    assert_eq!(fate, ReportFate::Heard, "interval {i}");
                }
            }
            assert_eq!(layer.totals().reports_lost, 10);
        }

        #[test]
        fn blackout_misses_consume_no_randomness() {
            // A loss plan with a blackout window must reach the same
            // stream state after the window as the same loss plan that
            // simply never listened during those intervals.
            let with_window = FaultPlan::none()
                .with_loss(LossModel::bernoulli(0.5))
                .with_blackout(10, 19);
            let plain = FaultPlan::none().with_loss(LossModel::bernoulli(0.5));
            let mut a = FaultLayer::new(Some(&with_window), MasterSeed::TEST, 1);
            let mut b = FaultLayer::new(Some(&plain), MasterSeed::TEST, 1);
            for i in 0..60u64 {
                let fa = a.report_fate(0, i, |_| false);
                if (10..=19).contains(&i) {
                    assert_eq!(fa, ReportFate::Lost);
                } else {
                    assert_eq!(fa, b.report_fate(0, i, |_| false), "interval {i}");
                }
            }
        }

        #[test]
        fn uplink_failures_respect_p_fail() {
            let plan = FaultPlan::none().with_uplink(UplinkFaults {
                p_fail: 0.3,
                max_attempts: 3,
                backoff_base_bits: 128,
            });
            let mut layer = FaultLayer::new(Some(&plan), MasterSeed::TEST, 1);
            assert_eq!(layer.uplink_model().unwrap().max_attempts, 3);
            let n = 50_000;
            let fails = (0..n).filter(|_| layer.uplink_attempt_fails(0)).count();
            let rate = fails as f64 / n as f64;
            assert!((rate - 0.3).abs() < 0.01, "fail rate {rate} far from 0.3");
        }
    }
}
