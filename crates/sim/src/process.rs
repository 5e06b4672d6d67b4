//! The stochastic processes of the paper's model (§4).
//!
//! * Queries at a mobile unit arrive at rate λ per hotspot item, a
//!   Poisson stream read one window at a time: [`PoissonCount`] draws a
//!   window's count by its law (Eq. 3 is its zero case), and given the
//!   count the arrival times are iid uniform over the window.
//! * Updates at the server occur at rate μ per item, with exponential
//!   inter-arrival times drawn in order ([`PoissonProcess`]).
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
    /// A window that starts after the pending arrival (one that skips
    /// a stretch nobody listened to) restarts the process at `from` with
    /// one draw: the process is memoryless, so the first arrival after
    /// `from` is `from + Exp(rate)` whatever happened in the gap.
    /// Contiguous windows never take this path, so their stream is the
    /// same as one long window's.
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

/// The largest mean [`poisson_inverse_cdf`] is asked for: `e^{−m}`
/// underflows past `m ≈ 745`, so a larger mean is split into equal parts
/// of at most this much, whose counts add up (a sum of independent
/// Poisson counts is Poisson with the summed mean).
const MAX_PART_MEAN: f64 = 500.0;

/// The Poisson law's inverse CDF: the least `n` with
/// `P[N ≤ n] > u` for `N ~ Poisson(m)`, given `e_neg_m = e^{−m}` (which
/// callers cache, since a window's mean repeats). `u ∈ [0, 1)` is one
/// uniform, so a count costs one draw and no `ln`.
///
/// The search walks up from `n = 0`, adding `P[N = n]` term by term,
/// and stops where the cumulative sum stops growing: a `u` above every
/// representable partial sum returns the far end of the tail rather
/// than looping.
pub fn poisson_inverse_cdf(m: f64, e_neg_m: f64, u: f64) -> u64 {
    let (mut n, mut term, mut cdf) = (0u64, e_neg_m, e_neg_m);
    while u >= cdf {
        n += 1;
        term *= m / n as f64;
        let next = cdf + term;
        if next == cdf {
            break;
        }
        cdf = next;
    }
    n
}

/// The count of a Poisson stream at `rate` over one window:
/// `N ~ Poisson(rate · len)`, drawn by [`poisson_inverse_cdf`].
///
/// `e^{−m}` is computed when the window length changes and reused while
/// it repeats (every interval of a cell is `L` long), so a draw is one
/// uniform and a short walk. A zero mean (zero rate or empty window)
/// draws nothing.
#[derive(Debug, Clone, Copy)]
pub struct PoissonCount {
    rate: f64,
    /// The window length, in seconds, the cached part is for.
    len: f64,
    /// The mean of each part, `e^{−part}`, and how many parts make the
    /// window's mean (zero for a zero mean).
    part: f64,
    e_neg_part: f64,
    parts: u64,
}

impl PoissonCount {
    /// The count law of a stream at `rate` events per second.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "Poisson rate must be non-negative, got {rate}"
        );
        PoissonCount {
            rate,
            len: 0.0,
            part: 0.0,
            e_neg_part: 1.0,
            parts: 0,
        }
    }

    /// Draws the number of arrivals in a window `len` long: one uniform
    /// from `rng` per part of the mean (one up to a mean of 500), none
    /// for a zero mean.
    #[inline]
    pub fn draw(&mut self, len: SimDuration, rng: &mut RngStream) -> u64 {
        let len = len.as_secs();
        if len != self.len {
            let m = self.rate * len;
            self.len = len;
            self.parts = (m / MAX_PART_MEAN).ceil() as u64;
            self.part = if self.parts == 0 {
                0.0
            } else {
                m / self.parts as f64
            };
            self.e_neg_part = (-self.part).exp();
        }
        (0..self.parts)
            .map(|_| poisson_inverse_cdf(self.part, self.e_neg_part, rng.uniform()))
            .sum()
    }
}

/// The per-interval sleep process: in every broadcast interval the unit
/// is disconnected ("asleep") with probability `s`, independently.
///
/// The paper's simplifying assumption (§4): "in each interval, an MU has
/// a probability s of being disconnected, and 1 − s of being connected
/// ... the behavior of the MU in each interval is independent of the
/// behavior of the previous interval."
#[derive(Debug, Clone, Copy)]
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
    fn a_window_after_a_gap_draws_one_exponential() {
        let mut r = rng();
        let mut p = PoissonProcess::new(2.0, &mut r);
        // A 10⁴ s gap: the skipped stretch holds ~2·10⁴ arrivals.
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
    fn first_arrival_after_a_gap_is_exponential() {
        // Memorylessness: after any gap, the wait to the first
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
        let (lambda, l) = (0.1, 10.0);
        let mut count = PoissonCount::new(lambda);
        let trials = 50_000u64;
        let empty = (0..trials)
            .filter(|_| count.draw(SimDuration::from_secs(l), &mut r) == 0)
            .count();
        let freq = empty as f64 / trials as f64;
        let expected = (-lambda * l).exp();
        assert!(
            (freq - expected).abs() < 0.01,
            "P[no queries] {freq} vs e^-λL {expected}"
        );
    }

    #[test]
    fn count_mean_and_variance_match_the_law() {
        // Poisson(m): mean m, variance m. The sample variance's SE is
        // √((m + 2m²)/n) (fourth central moment m(1 + 3m)).
        let mut r = rng();
        let n = 20_000;
        for m in [0.3, 3.0, 30.0, 1_000.0] {
            let mut count = PoissonCount::new(m);
            let draws: Vec<f64> = (0..n)
                .map(|_| count.draw(SimDuration::from_secs(1.0), &mut r) as f64)
                .collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let (se_mean, se_var) = ((m / n as f64).sqrt(), ((m + 2.0 * m * m) / n as f64).sqrt());
            assert!((mean - m).abs() < 4.0 * se_mean, "m = {m}: mean {mean}");
            assert!((var - m).abs() < 4.0 * se_var, "m = {m}: variance {var}");
        }
    }

    #[test]
    fn a_zero_mean_draws_nothing() {
        let mut r = rng();
        let mut expected = r.clone();
        let mut silent = PoissonCount::new(0.0);
        assert_eq!(silent.draw(SimDuration::from_secs(1e9), &mut r), 0);
        let mut busy = PoissonCount::new(5.0);
        assert_eq!(busy.draw(SimDuration::ZERO, &mut r), 0);
        assert_eq!(r.next_u64(), expected.next_u64(), "no draw consumed");
        // A window the law has not seen re-derives its mean.
        assert_eq!(busy.draw(SimDuration::from_secs(1.0), &mut r), {
            let u = expected.uniform();
            poisson_inverse_cdf(5.0, (-5.0f64).exp(), u)
        });
    }

    #[test]
    fn inverse_cdf_terminates_at_both_ends_of_the_uniform() {
        // The largest value `RngStream::uniform` returns.
        let top = 1.0 - f64::EPSILON / 2.0;
        for m in [1e-9, 0.3, 3.0, 30.0, MAX_PART_MEAN] {
            let e = (-m).exp();
            assert_eq!(poisson_inverse_cdf(m, e, 0.0), 0, "m = {m}");
            let far = poisson_inverse_cdf(m, e, top);
            assert!(
                far as f64 > m,
                "m = {m}: the top uniform reaches the tail, got {far}"
            );
            assert!((far as f64) < m + 60.0 * m.sqrt() + 60.0, "m = {m}: {far}");
        }
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
