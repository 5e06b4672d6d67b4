//! The stochastic processes of the paper's model (§4).
//!
//! * Queries at a mobile unit arrive at rate λ per hotspot item, with
//!   exponential inter-arrival times — a Poisson process
//!   ([`PoissonProcess`]).
//! * Updates at the server occur at rate μ per item, also exponential.
//! * Sleep is modeled per broadcast interval: in each interval a unit is
//!   disconnected with probability `s` independently of history
//!   ([`BernoulliIntervalProcess`]); the paper states this independence
//!   assumption explicitly.
//! * [`IntervalClock`] enumerates the report broadcast times `T_i = i·L`.

use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};

/// A Poisson arrival process with exponential inter-arrival times.
///
/// Maintains its own "next arrival" cursor so callers can lazily pull
/// arrivals interval by interval without generating the whole horizon up
/// front — essential when simulating 10^6-item databases where most items
/// see no event in a given interval.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate: f64,
    next: SimTime,
}

impl PoissonProcess {
    /// Creates a process with arrival `rate` (events per second), drawing
    /// the first arrival from `rng` starting at time zero.
    ///
    /// A `rate` of zero yields a process that never fires.
    pub fn new(rate: f64, rng: &mut RngStream) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "Poisson rate must be non-negative, got {rate}"
        );
        let mut p = PoissonProcess {
            rate,
            next: SimTime::ZERO,
        };
        p.advance(rng, SimTime::ZERO);
        p
    }

    /// The arrival rate in events per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Time of the next pending arrival, or `None` for a zero-rate
    /// process.
    pub fn peek(&self) -> Option<SimTime> {
        (self.rate > 0.0).then_some(self.next)
    }

    /// Draws every arrival in the half-open window `(from, to]` and
    /// appends them to `out`, ascending. Every exponential of the window
    /// is drawn before this returns, so a caller that then draws one
    /// pick per arrival from the same `rng` sees the same stream
    /// whatever buffer it passes.
    ///
    /// A window that starts after the pending arrival (a unit waking
    /// from a sleep) restarts the process at `from` with one draw: the
    /// process is memoryless, so the first arrival after `from` is
    /// `from + Exp(rate)` whatever happened while nobody listened. A
    /// wake therefore costs one exponential however long the sleep was,
    /// and contiguous windows never take this path, so their stream is
    /// the same as one long window's.
    ///
    /// The window convention matches the paper's report definitions,
    /// which use half-open windows such as `T_{i-1} < t_j ≤ T_i` (AT,
    /// Eq. 2).
    pub fn arrivals_in(
        &mut self,
        from: SimTime,
        to: SimTime,
        rng: &mut RngStream,
        out: &mut Vec<SimTime>,
    ) {
        assert!(to >= from, "window end precedes start");
        if self.rate <= 0.0 {
            return;
        }
        if self.next <= from {
            self.advance(rng, from);
        }
        while self.next <= to {
            out.push(self.next);
            let at = self.next;
            self.advance(rng, at);
        }
    }

    fn advance(&mut self, rng: &mut RngStream, after: SimTime) {
        if self.rate > 0.0 {
            self.next = after + SimDuration::from_secs(rng.exponential(self.rate));
        }
    }
}

/// The per-interval sleep process: in every broadcast interval the unit
/// is disconnected ("asleep") with probability `s`, independently.
///
/// The paper's simplifying assumption (§4): "in each interval, an MU has
/// a probability s of being disconnected, and 1 − s of being connected
/// ... the behavior of the MU in each interval is independent of the
/// behavior of the previous interval."
#[derive(Debug, Clone)]
pub struct BernoulliIntervalProcess {
    sleep_probability: f64,
}

impl BernoulliIntervalProcess {
    /// Creates the process with disconnection probability `s ∈ [0, 1]`.
    pub fn new(sleep_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sleep_probability),
            "sleep probability must be in [0,1], got {sleep_probability}"
        );
        BernoulliIntervalProcess { sleep_probability }
    }

    /// The disconnection probability `s`.
    pub fn sleep_probability(&self) -> f64 {
        self.sleep_probability
    }

    /// Draws a whole *sleep run*: the number `k ≥ 0` of consecutive
    /// asleep intervals before the next awake one, distributed
    /// `P(K = k) = s^k · (1 − s)` — the run length of independent
    /// per-interval coin flips, asleep with probability `s`, but in one
    /// draw. This is what lets the cell driver schedule each unit's next
    /// wake-up on a heap instead of flipping a coin for every sleeper
    /// every interval. It is the process's only draw.
    ///
    /// Returns [`u64::MAX`] as an effectively-infinite sentinel when
    /// `s = 1` (the unit never wakes).
    pub fn draw_sleep_run(&self, rng: &mut RngStream) -> u64 {
        let s = self.sleep_probability;
        if s <= 0.0 {
            return 0;
        }
        if s >= 1.0 {
            return u64::MAX;
        }
        // Inverse-CDF of the geometric: k = ⌊ln U / ln s⌋, U ∈ (0, 1).
        let u = rng.uniform().max(f64::MIN_POSITIVE);
        let k = (u.ln() / s.ln()).floor();
        if k >= u64::MAX as f64 {
            u64::MAX
        } else {
            k as u64
        }
    }
}

/// Enumerates report broadcast instants `T_i = i·L` and the intervals
/// between them.
#[derive(Debug, Clone)]
pub struct IntervalClock {
    latency: SimDuration,
    index: u64,
}

impl IntervalClock {
    /// Creates a clock with broadcast latency `L`.
    pub fn new(latency: SimDuration) -> Self {
        assert!(!latency.is_zero(), "broadcast latency L must be positive");
        IntervalClock { latency, index: 0 }
    }

    /// The broadcast latency `L`.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Index `i` of the *next* report to broadcast.
    pub fn next_index(&self) -> u64 {
        self.index
    }

    /// Time of the `i`-th report, `T_i = i·L`.
    pub fn report_time(&self, i: u64) -> SimTime {
        SimTime::from_secs(self.latency.as_secs() * i as f64)
    }

    /// Advances to the next report, returning `(i, T_i)` where interval
    /// `i` is the one that *ends* at `T_i` (i.e. `(T_{i-1}, T_i]`).
    ///
    /// The first call returns `(1, L)`: the report with timestamp `T_1`
    /// covering interval `(T_0, T_1]`. `T_0 = 0` is the conventional time
    /// origin (caches cannot predate it).
    pub fn tick(&mut self) -> (u64, SimTime) {
        self.index += 1;
        (self.index, self.report_time(self.index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{MasterSeed, StreamId};

    fn rng() -> RngStream {
        MasterSeed::TEST.stream(StreamId::Custom { tag: 99 })
    }

    /// The arrivals of `(from, to]` in a fresh buffer.
    fn arrivals(
        p: &mut PoissonProcess,
        from: SimTime,
        to: SimTime,
        r: &mut RngStream,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        p.arrivals_in(from, to, r, &mut out);
        out
    }

    #[test]
    fn poisson_count_matches_rate() {
        let mut r = rng();
        let mut p = PoissonProcess::new(0.5, &mut r);
        let horizon = SimTime::from_secs(100_000.0);
        let n = arrivals(&mut p, SimTime::ZERO, horizon, &mut r).len();
        let expected = 0.5 * 100_000.0;
        assert!(
            (n as f64 - expected).abs() / expected < 0.02,
            "count {n} far from {expected}"
        );
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut r = rng();
        let mut p = PoissonProcess::new(0.0, &mut r);
        assert_eq!(p.peek(), None);
        assert!(arrivals(&mut p, SimTime::ZERO, SimTime::from_secs(1e9), &mut r).is_empty());
    }

    #[test]
    fn arrivals_are_strictly_inside_window() {
        let mut r = rng();
        let mut p = PoissonProcess::new(2.0, &mut r);
        let from = SimTime::from_secs(10.0);
        let to = SimTime::from_secs(20.0);
        for t in arrivals(&mut p, from, to, &mut r) {
            assert!(t > from && t <= to, "arrival {t:?} outside ({from:?}, {to:?}]");
        }
    }

    #[test]
    fn arrivals_are_sorted() {
        let mut r = rng();
        let mut p = PoissonProcess::new(5.0, &mut r);
        let ts = arrivals(&mut p, SimTime::ZERO, SimTime::from_secs(100.0), &mut r);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn consecutive_windows_partition_arrivals() {
        // Drawing (0,50] then (50,100] into one buffer must append, and
        // never yield an arrival ≤ 50 in the second call.
        let mut r = rng();
        let mut p = PoissonProcess::new(1.0, &mut r);
        let mid = SimTime::from_secs(50.0);
        let mut out = Vec::new();
        p.arrivals_in(SimTime::ZERO, mid, &mut r, &mut out);
        let first = out.len();
        p.arrivals_in(mid, SimTime::from_secs(100.0), &mut r, &mut out);
        assert!(out[..first].iter().all(|&t| t <= mid));
        assert!(out[first..].iter().all(|&t| t > mid));
    }

    #[test]
    fn a_wake_after_a_long_sleep_draws_one_exponential() {
        let mut r = rng();
        let mut p = PoissonProcess::new(2.0, &mut r);
        // 10⁴ s asleep: the skipped stretch holds ~2·10⁴ arrivals.
        let from = SimTime::from_secs(10_000.0);
        let mut expected = r.clone();
        let gap = expected.exponential(2.0);
        let ts = arrivals(&mut p, from, from, &mut r);
        assert!(ts.is_empty());
        assert_eq!(p.peek(), Some(from + SimDuration::from_secs(gap)));
        assert_eq!(r.next_u64(), expected.next_u64(), "one draw, no more");
        // An already-pending arrival after `from` is kept: no draw.
        let mut expected = r.clone();
        let pending = p.peek();
        arrivals(&mut p, from, from, &mut r);
        assert_eq!(p.peek(), pending);
        assert_eq!(r.next_u64(), expected.next_u64());
    }

    #[test]
    fn first_arrival_after_a_wake_is_exponential() {
        // Memorylessness: after any sleep, the wait to the first
        // arrival has mean 1/λ (and SD 1/λ).
        let mut r = rng();
        let lambda = 0.5;
        let mut p = PoissonProcess::new(lambda, &mut r);
        let n = 20_000;
        let mut sum = 0.0;
        for i in 1..=n {
            let from = SimTime::from_secs(i as f64 * 100.0);
            arrivals(&mut p, from, from, &mut r);
            sum += (p.peek().unwrap() - from).as_secs();
        }
        let mean = sum / n as f64;
        let se = 1.0 / lambda / (n as f64).sqrt();
        assert!(
            (mean - 1.0 / lambda).abs() < 4.0 * se,
            "mean wait {mean} vs 1/λ = {} (SE {se})",
            1.0 / lambda
        );
    }

    #[test]
    fn no_queries_probability_matches_eq3() {
        // Eq. 3: Prob[no queries in an interval | awake] = e^{-λL}.
        let mut r = rng();
        let lambda = 0.1;
        let l = 10.0;
        let mut p = PoissonProcess::new(lambda, &mut r);
        let mut empty = 0u64;
        let trials = 50_000u64;
        for i in 0..trials {
            let from = SimTime::from_secs(i as f64 * l);
            let to = SimTime::from_secs((i + 1) as f64 * l);
            if arrivals(&mut p, from, to, &mut r).is_empty() {
                empty += 1;
            }
        }
        let freq = empty as f64 / trials as f64;
        let expected = (-lambda * l).exp();
        assert!(
            (freq - expected).abs() < 0.01,
            "P[no queries] {freq} vs e^-λL {expected}"
        );
    }

    #[test]
    fn interval_clock_enumerates_ti() {
        let mut c = IntervalClock::new(SimDuration::from_secs(10.0));
        assert_eq!(c.tick(), (1, SimTime::from_secs(10.0)));
        assert_eq!(c.tick(), (2, SimTime::from_secs(20.0)));
    }

    #[test]
    #[should_panic(expected = "sleep probability")]
    fn sleep_probability_validated() {
        let _ = BernoulliIntervalProcess::new(1.5);
    }

    #[test]
    fn sleep_run_matches_geometric() {
        let mut r = rng();
        let s = 0.7;
        let p = BernoulliIntervalProcess::new(s);
        let n = 100_000;
        let mut sum = 0u64;
        let mut zeros = 0u64;
        for _ in 0..n {
            let k = p.draw_sleep_run(&mut r);
            sum += k;
            zeros += (k == 0) as u64;
        }
        // E[K] = s/(1−s), P[K = 0] = 1 − s.
        let mean = sum as f64 / n as f64;
        assert!((mean - s / (1.0 - s)).abs() < 0.05, "mean {mean}");
        let p0 = zeros as f64 / n as f64;
        assert!((p0 - (1.0 - s)).abs() < 0.01, "P[K=0] {p0}");
    }

    #[test]
    fn sleep_run_edge_probabilities() {
        let mut r = rng();
        assert_eq!(BernoulliIntervalProcess::new(0.0).draw_sleep_run(&mut r), 0);
        assert_eq!(
            BernoulliIntervalProcess::new(1.0).draw_sleep_run(&mut r),
            u64::MAX
        );
    }
}
